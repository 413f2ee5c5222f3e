/**
 * @file
 * Tests on the gradient-compression subsystem (comm/compression.hh):
 * registry round-trips, closed-form wire-byte pins (including 1-byte
 * and non-divisor edges), the never-inflate invariant, wire-byte
 * conservation through audited runs across every scheduler policy and
 * communicator family, bit-exact `none` replay, and campaign digest
 * stability across thread counts.
 */

#include <gtest/gtest.h>

#include <vector>

#include "campaign/campaign.hh"
#include "campaign/record.hh"
#include "comm/compression.hh"
#include "core/trainer_base.hh"
#include "sim/logging.hh"

namespace {

using namespace dgxsim;
using comm::compressedWireBytes;
using comm::Compressor;

TEST(CompressorRegistry, NamesRoundTripThroughParse)
{
    const auto &registry = comm::compressorRegistry();
    ASSERT_EQ(registry.size(), 5u);
    for (const comm::CompressorInfo &info : registry) {
        EXPECT_EQ(comm::parseCompressor(info.name), info.comp);
        EXPECT_STREQ(comm::compressorName(info.comp), info.name);
    }
    // Registry order is presentation order; `none` leads so the
    // default is the first row of `dgxprof compressors`.
    EXPECT_EQ(registry.front().comp, Compressor::None);
}

TEST(CompressorRegistry, UnknownNameIsFatalWithSuggestion)
{
    EXPECT_THROW(comm::parseCompressor("topk"), sim::FatalError);
    EXPECT_THROW(comm::parseCompressor(""), sim::FatalError);
    // Transpositions are the common typo class; the Damerau edit
    // distance must surface the intended name even on 3-char names.
    try {
        comm::parseCompressor("dcg");
        FAIL() << "expected fatal";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("did you mean 'dgc'"),
                  std::string::npos);
    }
}

TEST(CompressorRegistry, KernelNamesCarryTheCompressor)
{
    EXPECT_EQ(comm::compressKernelName(Compressor::Dgc),
              "gradCompress_dgc");
    EXPECT_EQ(comm::decompressKernelName(Compressor::OneBit),
              "gradDecompress_onebit");
}

TEST(WireBytes, NoneIsIdentity)
{
    for (sim::Bytes p : {sim::Bytes(0), sim::Bytes(1), sim::Bytes(4),
                         sim::Bytes(1) << 20}) {
        EXPECT_EQ(compressedWireBytes(Compressor::None, p, 0.01), p);
    }
}

TEST(WireBytes, SparsifiersKeepIndexValuePairs)
{
    // 1 MiB = 262144 fp32 elements; 1% kept = 2622 (ceil) pairs of
    // (uint32 index, fp32 value) = 8 bytes each.
    const sim::Bytes mib = sim::Bytes(1) << 20;
    EXPECT_EQ(compressedWireBytes(Compressor::RandomK, mib, 0.01),
              sim::Bytes(2622 * 8));
    EXPECT_EQ(compressedWireBytes(Compressor::Dgc, mib, 0.01),
              sim::Bytes(2622 * 8));
    // 4% kept = ceil(10485.76) = 10486 pairs.
    EXPECT_EQ(compressedWireBytes(Compressor::Dgc, mib, 0.04),
              sim::Bytes(10486 * 8));
}

TEST(WireBytes, QuantizersPackOneBitPerElement)
{
    // 1 MiB: 262144 elements -> 32768 sign-bitmap bytes, plus one
    // fp32 scale (efsignsgd) or two centroids (onebit).
    const sim::Bytes mib = sim::Bytes(1) << 20;
    EXPECT_EQ(compressedWireBytes(Compressor::EfSignSgd, mib, 0.5),
              sim::Bytes(32768 + 4));
    EXPECT_EQ(compressedWireBytes(Compressor::OneBit, mib, 0.5),
              sim::Bytes(32768 + 8));
}

TEST(WireBytes, NonDivisorPayloadsRoundUp)
{
    // 1001 bytes = 251 elements (trailing partial word counts): the
    // bitmap needs ceil(251/8) = 32 bytes.
    EXPECT_EQ(compressedWireBytes(Compressor::EfSignSgd, 1001, 0.5),
              sim::Bytes(32 + 4));
    // 10% of 251 elements = ceil(25.1) = 26 pairs.
    EXPECT_EQ(compressedWireBytes(Compressor::Dgc, 1001, 0.1),
              sim::Bytes(26 * 8));
}

TEST(WireBytes, NeverInflatesAndNeverEmpties)
{
    // Tiny chunks where the header/pair overhead would dominate ship
    // raw; nonzero payloads never compress to nothing.
    for (Compressor comp :
         {Compressor::RandomK, Compressor::Dgc, Compressor::EfSignSgd,
          Compressor::OneBit}) {
        for (sim::Bytes p = 1; p <= 64; ++p) {
            const sim::Bytes wire = compressedWireBytes(comp, p, 0.01);
            EXPECT_LE(wire, p) << comm::compressorName(comp);
            EXPECT_GE(wire, 1u) << comm::compressorName(comp);
        }
        EXPECT_EQ(compressedWireBytes(comp, 0, 0.01), 0u);
    }
}

TEST(KernelCosts, EncodeAndDecodeStreamTheBuffers)
{
    const sim::Bytes payload = sim::Bytes(1) << 20;
    const sim::Bytes wire =
        compressedWireBytes(Compressor::Dgc, payload, 0.01);
    const auto enc =
        comm::compressKernelCost(Compressor::Dgc, payload, wire);
    const auto dec =
        comm::decompressKernelCost(Compressor::Dgc, payload, wire);
    // 8 flops per input element for the top-k selection.
    EXPECT_DOUBLE_EQ(enc.flops, 8.0 * 262144);
    EXPECT_DOUBLE_EQ(enc.bytes,
                     static_cast<double>(payload) +
                         static_cast<double>(wire));
    EXPECT_DOUBLE_EQ(dec.flops, 2.0 * 262144);
    EXPECT_DOUBLE_EQ(dec.bytes,
                     static_cast<double>(wire) +
                         static_cast<double>(payload));
    // `none` costs nothing: it must add zero events to the stream.
    const auto none =
        comm::compressKernelCost(Compressor::None, payload, payload);
    EXPECT_DOUBLE_EQ(none.flops, 0.0);
    EXPECT_DOUBLE_EQ(none.bytes, 0.0);
}

core::TrainConfig
compConfig(const std::string &model, int gpus,
           comm::CommMethod method, comm::SchedulerPolicy policy,
           Compressor comp)
{
    core::TrainConfig cfg;
    cfg.model = model;
    cfg.numGpus = gpus;
    cfg.batchPerGpu = 16;
    cfg.method = method;
    cfg.overlapBpWu = true;
    cfg.commConfig.scheduler = policy;
    cfg.commConfig.compression = comp;
    return cfg;
}

/**
 * Compression decides how many bytes each chunk puts on the wire; it
 * must never lose or duplicate chunks. Every (scheduler, method,
 * compressor) combination has to finish a clean audited run, and the
 * sparsifiers/quantizers must actually shrink the measured wire.
 */
TEST(CompressionFlow, AuditedAcrossSchedulersAndMethods)
{
    for (auto method :
         {comm::CommMethod::P2P, comm::CommMethod::NCCL}) {
        for (auto policy : {comm::SchedulerPolicy::Fifo,
                            comm::SchedulerPolicy::Priority,
                            comm::SchedulerPolicy::Partitioned}) {
            double rawBytes = -1;
            for (Compressor comp :
                 {Compressor::None, Compressor::Dgc,
                  Compressor::EfSignSgd}) {
                core::TrainConfig cfg = compConfig(
                    "alexnet", 4, method, policy, comp);
                cfg.audit = true;
                const core::TrainReport rep =
                    core::TrainerBase::simulate(cfg);
                EXPECT_TRUE(rep.audited);
                EXPECT_EQ(rep.auditViolations, 0u)
                    << comm::compressorName(comp);
                if (comp == Compressor::None)
                    rawBytes = rep.interGpuBytesPerIter;
                else
                    EXPECT_LT(rep.interGpuBytesPerIter, rawBytes)
                        << comm::compressorName(comp);
            }
        }
    }
}

/** The hierarchical cluster path compresses once, at the outer
 * layer; inner-node collectives must not double-compress, and the
 * audited multi-node run must stay clean. */
TEST(CompressionFlow, HierarchicalClusterRunIsAuditedAndShrinks)
{
    double rawInterNode = -1;
    for (Compressor comp : {Compressor::None, Compressor::Dgc}) {
        core::TrainConfig cfg =
            compConfig("alexnet", 4, comm::CommMethod::NCCL,
                       comm::SchedulerPolicy::Fifo, comp);
        cfg.nodes = 2;
        cfg.audit = true;
        const core::TrainReport rep = core::TrainerBase::simulate(cfg);
        EXPECT_TRUE(rep.audited);
        EXPECT_EQ(rep.auditViolations, 0u);
        if (comp == Compressor::None)
            rawInterNode = rep.interNodeBytesPerIter;
        else
            EXPECT_LT(rep.interNodeBytesPerIter, rawInterNode);
    }
}

/** `--compression none` must replay the pre-compression event stream
 * bit-exactly: not one event more, the identical digest. */
TEST(CompressionFlow, NoneReplaysLegacyDigest)
{
    core::TrainConfig legacy;
    legacy.model = "alexnet";
    legacy.numGpus = 4;
    legacy.batchPerGpu = 16;
    legacy.method = comm::CommMethod::NCCL;
    core::TrainConfig none = legacy;
    none.commConfig.compression = Compressor::None;
    none.commConfig.compressRatio = 0.25; // ignored by `none`
    const auto a = core::TrainerBase::simulate(legacy);
    const auto b = core::TrainerBase::simulate(none);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_NE(a.digest, 0u);
}

/** A single GPU has no wire: the compressor must change nothing. */
TEST(CompressionFlow, SingleGpuIsUntouched)
{
    core::TrainConfig raw = compConfig(
        "lenet", 1, comm::CommMethod::NCCL,
        comm::SchedulerPolicy::Fifo, Compressor::None);
    core::TrainConfig comp = raw;
    comp.commConfig.compression = Compressor::Dgc;
    EXPECT_EQ(core::TrainerBase::simulate(raw).digest,
              core::TrainerBase::simulate(comp).digest);
}

/** Same compressed grid, different thread counts: digests must not
 * move (the determinism gate behind results/baseline_zoo.json). */
TEST(CompressionDeterminism, DigestsStableAcrossCampaignJobs)
{
    std::vector<core::TrainConfig> configs;
    for (Compressor comp :
         {Compressor::RandomK, Compressor::Dgc, Compressor::OneBit}) {
        configs.push_back(compConfig("alexnet", 4,
                                     comm::CommMethod::NCCL,
                                     comm::SchedulerPolicy::Fifo,
                                     comp));
        configs.push_back(compConfig(
            "lenet", 2, comm::CommMethod::P2P,
            comm::SchedulerPolicy::Partitioned, comp));
    }
    campaign::clearSimulationCache();
    const auto serial = campaign::runCampaign(configs, 1);
    campaign::clearSimulationCache();
    const auto parallel = campaign::runCampaign(configs, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].digest, parallel[i].digest)
            << serial[i].key();
        EXPECT_NE(serial[i].digest, 0u);
    }
}

/** The compression axes survive JSON and key() round-trips, and the
 * `none` default is omitted so legacy baselines parse unchanged. */
TEST(CompressionRecord, JsonAndKeyCarryTheAxes)
{
    // Only record-carried knobs here: toConfig() must reproduce the
    // run from the serialized record alone.
    core::TrainConfig cfg;
    cfg.model = "alexnet";
    cfg.numGpus = 2;
    cfg.batchPerGpu = 16;
    cfg.method = comm::CommMethod::NCCL;
    cfg.commConfig.compression = Compressor::Dgc;
    cfg.commConfig.compressRatio = 0.05;
    const campaign::RunRecord rec =
        campaign::recordFromReport(core::TrainerBase::simulate(cfg));
    EXPECT_EQ(rec.compression, "dgc");
    EXPECT_DOUBLE_EQ(rec.compressRatio, 0.05);
    EXPECT_NE(rec.key().find("dgc"), std::string::npos);

    const auto parsed = campaign::recordsFromJson(
        campaign::recordsToJson({rec}));
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0], rec);
    // The reproduced config re-runs to the identical digest.
    const auto rerun =
        core::TrainerBase::simulate(parsed[0].toConfig());
    EXPECT_EQ(rerun.digest, rec.digest);

    // An uncompressed record serializes without the axes at all.
    core::TrainConfig raw = cfg;
    raw.commConfig.compression = Compressor::None;
    raw.commConfig.compressRatio = 0.01;
    const campaign::RunRecord rawRec =
        campaign::recordFromReport(core::TrainerBase::simulate(raw));
    const std::string json = campaign::recordsToJson({rawRec});
    EXPECT_EQ(json.find("compression"), std::string::npos);
    EXPECT_EQ(rawRec.key().find("none"), std::string::npos);
}

/** The cache key (the config itself) must separate what the
 * simulator distinguishes: the compressor and, for the sparsifiers,
 * the kept ratio. */
TEST(CompressionRecord, ConfigKeySeparatesCompressorAndRatio)
{
    core::TrainConfig a = compConfig(
        "alexnet", 2, comm::CommMethod::NCCL,
        comm::SchedulerPolicy::Fifo, Compressor::Dgc);
    core::TrainConfig b = a;
    b.commConfig.compression = Compressor::RandomK;
    core::TrainConfig c = a;
    c.commConfig.compressRatio = 0.25;
    EXPECT_TRUE(a != b);
    EXPECT_TRUE(a != c);
}

} // namespace
