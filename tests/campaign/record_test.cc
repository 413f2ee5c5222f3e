/**
 * @file
 * RunRecord serialization tests: JSON round-trips exactly (including
 * doubles and 64-bit digests), CSV shape, the JSON parser's error
 * handling, and record/config conversions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "campaign/json.hh"
#include "campaign/record.hh"
#include "sim/logging.hh"

namespace dgxsim::campaign {
namespace {

RunRecord
sampleRecord()
{
    RunRecord r;
    r.model = "alexnet";
    r.gpus = 4;
    r.batch = 32;
    r.method = "nccl";
    r.images = 256000;
    r.oom = false;
    r.iterations = 2000;
    r.epochSeconds = 172.64712345678901;
    r.iterationSeconds = 0.086073561728394501;
    r.setupSeconds = 0.5;
    r.fpBpSeconds = 151.1234567890123;
    r.wuSeconds = 21.023456789012345;
    r.syncApiFraction = 0.63402754338922462;
    r.interGpuBytesPerIter = 614034816.25;
    r.gpu0TrainingBytes = 4583211008;
    r.gpuxTrainingBytes = 4371021312;
    r.preTrainingBytes = 651165696;
    r.digest = 0xdeadbeefcafe1234ull;
    return r;
}

TEST(RunRecord, JsonRoundTripsExactly)
{
    RunRecord oom;
    oom.model = "inception-v3";
    oom.gpus = 8;
    oom.batch = 512;
    oom.method = "p2p";
    oom.oom = true;
    const std::vector<RunRecord> records{sampleRecord(), oom};
    const auto parsed = recordsFromJson(recordsToJson(records));
    ASSERT_EQ(parsed.size(), records.size());
    EXPECT_EQ(parsed[0], records[0]);
    EXPECT_EQ(parsed[1], records[1]);
}

TEST(RunRecord, JsonSerializationIsDeterministic)
{
    const std::vector<RunRecord> records{sampleRecord()};
    EXPECT_EQ(recordsToJson(records), recordsToJson(records));
    const auto reparsed = recordsFromJson(recordsToJson(records));
    EXPECT_EQ(recordsToJson(reparsed), recordsToJson(records));
}

TEST(RunRecord, EmptyListRoundTrips)
{
    const auto parsed = recordsFromJson(recordsToJson({}));
    EXPECT_TRUE(parsed.empty());
}

TEST(RunRecord, CsvHasHeaderAndOneLinePerRecord)
{
    const std::vector<RunRecord> records{sampleRecord(),
                                         sampleRecord()};
    const std::string csv = recordsToCsv(records);
    std::size_t lines = 0;
    for (char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, 3u);
    EXPECT_EQ(csv.rfind("model,gpus,batch,method", 0), 0u);
    EXPECT_NE(csv.find("deadbeefcafe1234"), std::string::npos);
}

TEST(RunRecord, CsvHasOneColumnPerJsonMember)
{
    // Between them these two records emit every optional JSON group.
    RunRecord a = sampleRecord();
    a.mode = "pipeline";
    a.microbatches = 8;
    a.nodes = 2;
    a.scheduler = "priority";
    a.compression = "dgc";
    a.platform = "dgx2";
    a.hasAnalysis = true;
    RunRecord async = sampleRecord();
    async.mode = "async_ps";
    const JsonValue doc = JsonValue::parse(recordsToJson({a, async}));
    std::set<std::string> members;
    for (const JsonValue &v : doc.at("records").asArray())
        for (const auto &[name, value] : v.asObject())
            members.insert(name);

    RunRecord b = a;
    b.microbatches = 16;
    const std::string csv = recordsToCsv({a, b});
    std::set<std::string> columns;
    std::size_t count = 0;
    std::string column;
    for (char c : csv.substr(0, csv.find('\n') + 1)) {
        if (c == ',' || c == '\n') {
            columns.insert(column);
            column.clear();
            ++count;
        } else {
            column.push_back(c);
        }
    }
    EXPECT_EQ(columns, members);
    EXPECT_EQ(count, members.size());
    EXPECT_EQ(csv.rfind("model,gpus,batch,method,", 0), 0u);
    // Runs that differ only in microbatch depth print different rows.
    const std::size_t second = csv.find('\n') + 1;
    const std::size_t third = csv.find('\n', second) + 1;
    EXPECT_NE(csv.substr(second, third - second), csv.substr(third));
}

TEST(RunRecord, KeyIdentifiesTheConfiguration)
{
    EXPECT_EQ(sampleRecord().key(), "alexnet x4 b32 nccl i256000");
    RunRecord other = sampleRecord();
    other.batch = 64;
    EXPECT_NE(other.key(), sampleRecord().key());
}

TEST(RunRecord, ToConfigReproducesTheAxes)
{
    const core::TrainConfig cfg = sampleRecord().toConfig();
    EXPECT_EQ(cfg.model, "alexnet");
    EXPECT_EQ(cfg.numGpus, 4);
    EXPECT_EQ(cfg.batchPerGpu, 32);
    EXPECT_EQ(cfg.method, comm::CommMethod::NCCL);
    EXPECT_EQ(cfg.datasetImages, 256000u);
}

TEST(RunRecord, ModeRoundTripsThroughJsonAndConfig)
{
    RunRecord async = sampleRecord();
    async.mode = "async_ps";
    async.throughputImagesPerSec = 27194.584091159639;
    async.avgStaleness = 0.94999999999999996;
    async.maxStaleness = 3;
    RunRecord mp = sampleRecord();
    mp.mode = "model_parallel";
    mp.microbatches = 8;
    mp.bubbleFraction = 0.43755544628203258;
    const auto parsed =
        recordsFromJson(recordsToJson({async, mp}));
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0], async);
    EXPECT_EQ(parsed[1], mp);
    EXPECT_EQ(async.toConfig().mode, core::ParallelismMode::AsyncPs);
    EXPECT_EQ(mp.toConfig().mode,
              core::ParallelismMode::ModelParallel);
    EXPECT_EQ(mp.toConfig().microbatches, 8);
}

TEST(RunRecord, ModeExtendsKeyOnlyWhenNotSync)
{
    // Sync keys (and JSON) are frozen: the baseline written before
    // the mode axis existed must keep matching.
    EXPECT_EQ(sampleRecord().key(), "alexnet x4 b32 nccl i256000");
    EXPECT_EQ(recordsToJson({sampleRecord()}).find("\"mode\""),
              std::string::npos);
    RunRecord async = sampleRecord();
    async.mode = "async_ps";
    EXPECT_EQ(async.key(), "alexnet x4 b32 nccl i256000 async_ps");
    EXPECT_NE(recordsToJson({async}).find("\"mode\": \"async_ps\""),
              std::string::npos);
}

TEST(RunRecord, PlatformExtendsKeyOnlyWhenNotDefault)
{
    // Default-platform keys and JSON are frozen so baselines written
    // before the platform axis existed keep matching byte-for-byte.
    EXPECT_EQ(sampleRecord().key(), "alexnet x4 b32 nccl i256000");
    EXPECT_EQ(recordsToJson({sampleRecord()}).find("\"platform\""),
              std::string::npos);
    RunRecord dgx2 = sampleRecord();
    dgx2.platform = "dgx2";
    dgx2.gpus = 16;
    EXPECT_EQ(dgx2.key(), "alexnet x16 b32 nccl i256000 dgx2");
    EXPECT_NE(recordsToJson({dgx2}).find("\"platform\": \"dgx2\""),
              std::string::npos);
    const auto parsed = recordsFromJson(recordsToJson({dgx2}));
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0], dgx2);
    EXPECT_EQ(dgx2.toConfig().platform, "dgx2");
    EXPECT_EQ(sampleRecord().toConfig().platform, "dgx1v");
}

/** @return the FatalError message of parsing @p json ("" if none). */
std::string
parseError(const std::string &json)
{
    try {
        recordsFromJson(json);
    } catch (const sim::FatalError &e) {
        return e.what();
    }
    return "";
}

/** @return sampleRecord()'s JSON as the second of two records, with
 * @p from replaced by @p to. */
std::string
tampered(const std::string &from, const std::string &to)
{
    std::string json = recordsToJson({RunRecord{}, sampleRecord()});
    const std::size_t at = json.rfind(from);
    EXPECT_NE(at, std::string::npos) << from;
    return json.replace(at, from.size(), to);
}

TEST(RunRecord, MalformedJsonIsFatal)
{
    EXPECT_THROW(recordsFromJson("{"), sim::FatalError);
    EXPECT_THROW(recordsFromJson("[]"), sim::FatalError);
    EXPECT_THROW(recordsFromJson("{\"version\": 1}"),
                 sim::FatalError);
    EXPECT_THROW(
        recordsFromJson("{\"version\": 99, \"records\": []}"),
        sim::FatalError);
    EXPECT_THROW(
        recordsFromJson(
            "{\"version\": 1, \"records\": [{\"model\": \"x\"}]}"),
        sim::FatalError);
    // Integers that are not whole numbers in their member's range are
    // rejected by name instead of truncated (2.5 ran 2 GPUs), cast
    // out of range (1e10 GPUs) or wrapped (1e30 images).
    EXPECT_NE(parseError(tampered("\"gpus\": 4", "\"gpus\": 2.5"))
                  .find("record 1 member 'gpus': 2.5 is not an integer"),
              std::string::npos);
    EXPECT_NE(parseError(tampered("\"gpus\": 4", "\"gpus\": 1e10"))
                  .find("record 1 member 'gpus'"),
              std::string::npos);
    EXPECT_NE(parseError(tampered("\"images\": 256000",
                                  "\"images\": 1e30"))
                  .find("record 1 member 'images'"),
              std::string::npos);
    EXPECT_NE(parseError(tampered("\"iterations\": 2000",
                                  "\"iterations\": -1"))
                  .find("record 1 member 'iterations'"),
              std::string::npos);
    EXPECT_NE(
        parseError(tampered("\"batch\": 32", "\"batch\": \"32\""))
            .find("record 1 member 'batch'"),
        std::string::npos);
    EXPECT_NE(parseError(tampered("deadbeefcafe1234", "-1"))
                  .find("record 1 member 'digest'"),
              std::string::npos);
    // A group the record's axes call for must be complete.
    EXPECT_NE(parseError(tampered("\"images\"",
                                  "\"mode\": \"async_ps\", \"images\""))
                  .find("record 1 has no member 'throughput_img_s'"),
              std::string::npos);
    // Doubles are finite: 1e400 once loaded as inf.
    EXPECT_NE(parseError(tampered("\"setup_s\": 0.5",
                                  "\"setup_s\": 1e400"))
                  .find("record 1 member 'setup_s': '1e400' is not a "
                        "finite number"),
              std::string::npos);
    EXPECT_NE(parseError(tampered("\"images\": 256000",
                                  "\"images\": 1.2.3"))
                  .find("record 1 member 'images': '1.2.3'"),
              std::string::npos);
    // A compressed record's ratio obeys the CLI's (0, 1] rule instead
    // of re-simulating a run no command line can ask for (-1 cast a
    // negative double to a byte count).
    const auto dgc = [](const std::string &ratio) {
        return tampered("\"images\"", "\"compression\": \"dgc\", "
                                      "\"compress_ratio\": " +
                                          ratio + ", \"images\"");
    };
    for (const char *bad : {"-1", "0", "5", "1e400"}) {
        EXPECT_NE(parseError(dgc(bad)).find(
                      "record 1 member 'compress_ratio'"),
                  std::string::npos)
            << bad;
    }
    EXPECT_EQ(parseError(dgc("1")), "");
    EXPECT_EQ(parseError(dgc("0.01")), "");
}

TEST(RunRecord, EveryGroupRoundTrips)
{
    RunRecord r = sampleRecord();
    r.mode = "pipeline";
    r.microbatches = 16;
    r.bubbleFraction = 0.125;
    r.platform = "dgx2";
    r.nodes = 2;
    r.interconnect = "ib200";
    r.netAlgo = "tree";
    r.scheduler = "partitioned";
    r.partitionBytes = 1 << 20;
    r.compression = "dgc";
    r.compressRatio = 0.05;
    r.interNodeBytesPerIter = 1.5e6;
    r.hasAnalysis = true;
    r.cpComputeSeconds = 0.25;
    r.cpCommSeconds = 0.5;
    r.cpInterNodeCommSeconds = 0.125;
    r.cpApiSeconds = 1e-3;
    r.cpIdleSeconds = 2e-3;
    const auto parsed = recordsFromJson(recordsToJson({r}));
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0], r);
    EXPECT_EQ(r.key(), "alexnet x4 b32 nccl i256000 pipeline ub16 dgx2 "
                       "n2 ib200 tree partitioned pb1048576 cb" +
                           std::to_string(r.creditBytes) +
                           " dgc r0.050000000000000003");
}

TEST(RunRecord, GoldenFilesRoundTripByteForByte)
{
    for (const char *name :
         {"baseline", "baseline_modes", "baseline_platforms",
          "baseline_cluster", "baseline_sched", "baseline_zoo",
          "baseline_pipeline"}) {
        const std::string text = readFile(
            std::string(DGXSIM_REPO_ROOT) + "/results/" + name + ".json");
        EXPECT_EQ(recordsToJson(recordsFromJson(text)), text) << name;
    }
}

TEST(Json, ParsesTheEmittedSubset)
{
    const JsonValue v = JsonValue::parse(
        "{\"a\": [1, 2.5, -3e2], \"b\": \"q\\\"uote\\n\", "
        "\"c\": true, \"d\": null}");
    EXPECT_EQ(v.at("a").asArray().size(), 3u);
    EXPECT_DOUBLE_EQ(v.at("a").asArray()[2].asNumber(), -300.0);
    EXPECT_EQ(v.stringAt("b"), "q\"uote\n");
    EXPECT_TRUE(v.boolAt("c"));
    EXPECT_TRUE(v.at("d").isNull());
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, RejectsTrailingGarbageAndBadEscapes)
{
    EXPECT_THROW(JsonValue::parse("{} x"), sim::FatalError);
    EXPECT_THROW(JsonValue::parse("\"\\q\""), sim::FatalError);
    EXPECT_THROW(JsonValue::parse("01a"), sim::FatalError);
    EXPECT_THROW(JsonValue::parse(""), sim::FatalError);
}

} // namespace
} // namespace dgxsim::campaign
