/**
 * @file
 * Pins what the golden grids leave out.
 *
 * The digest folds labels, lanes and times but neither record ids nor
 * causal edges, and no golden grid runs --allreduce, --overlap,
 * --fusion-mb, async PS with edges checked, or the other cells below
 * through the analysis engine. Each cell here pins three values taken
 * at a known-good revision: the run's digest, an FNV-1a fold of every
 * record's (kind, dep count, deps) in id order, and, for multi-GPU
 * cells, an FNV-1a of analysisJson under the standard what-ifs
 * (projection only, as dgxbench's analyze workload renders it).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/dag.hh"
#include "analysis/what_if.hh"
#include "core/cli.hh"
#include "core/trainer_base.hh"

namespace {

using namespace dgxsim;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void
fold(std::uint64_t &h, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
}

template <typename T>
void
foldValue(std::uint64_t &h, T v)
{
    fold(h, &v, sizeof(v));
}

/** FNV-1a over every record's (kind, dep count, deps), in id order. */
std::uint64_t
edgeFold(const profiling::Profiler &prof)
{
    std::uint64_t h = kFnvOffset;
    const profiling::RecordId lo = prof.firstId();
    const auto hi = lo + static_cast<profiling::RecordId>(prof.recordCount());
    for (profiling::RecordId id = lo; id < hi; ++id) {
        const std::span<const profiling::RecordId> deps = prof.deps(id);
        foldValue(h, static_cast<std::uint8_t>(prof.recordRef(id).kind));
        foldValue(h, static_cast<std::uint64_t>(deps.size()));
        for (profiling::RecordId d : deps)
            foldValue(h, d);
    }
    return h;
}

struct Cell
{
    const char *name;
    std::vector<std::string> args;
    std::uint64_t digest;
    std::uint64_t edges;
    /** 0 for single-GPU cells (no analysis). */
    std::uint64_t analysis;
};

void
PrintTo(const Cell &cell, std::ostream *os)
{
    for (const std::string &a : cell.args)
        *os << a << ' ';
}

class RecordPin : public ::testing::TestWithParam<Cell>
{
};

TEST_P(RecordPin, DigestEdgesAndAnalysisMatch)
{
    const Cell &cell = GetParam();
    const core::TrainConfig cfg =
        core::cli::configFromArgs(core::cli::Args::parse(cell.args));
    auto trainer = core::TrainerBase::make(cfg);
    const core::TrainReport report = trainer->run();
    ASSERT_FALSE(report.oom) << report.oomDetail;

    std::uint64_t analysis = 0;
    if (cfg.numGpus > 1) {
        const analysis::Dag dag(trainer->profiler(),
                                trainer->fabric().topology());
        const analysis::Attribution attr = dag.attribute();
        const analysis::WhatIf what_if(dag, cfg, report);
        std::vector<analysis::WhatIfResult> results;
        for (const analysis::WhatIfCase &c : analysis::standardWhatIfs())
            results.push_back(what_if.evaluate(c, false));
        const std::string json =
            analysis::analysisJson(dag, attr, results);
        analysis = kFnvOffset;
        fold(analysis, json.data(), json.size());
    }

    EXPECT_EQ(report.digest, cell.digest);
    EXPECT_EQ(edgeFold(trainer->profiler()), cell.edges);
    EXPECT_EQ(analysis, cell.analysis);
}

std::vector<std::string>
argv(std::string line)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < line.size()) {
        const std::size_t end = line.find(' ', pos);
        out.push_back(line.substr(pos, end - pos));
        if (end == std::string::npos)
            break;
        pos = end + 1;
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    UngatedCells, RecordPin,
    ::testing::Values(
        Cell{"AlexnetG8NcclAllReduce",
             argv("--model alexnet --gpus 8 --batch 16 --method nccl "
                  "--allreduce"),
             0x7cd65cf9ac4e5dc9ull, 0x14d2158f0ce5c197ull,
             0xb46ad6f27cac945dull},
        Cell{"AlexnetG1NcclAllReduce",
             argv("--model alexnet --gpus 1 --batch 16 --method nccl "
                  "--allreduce"),
             0x51e466bbc7303599ull, 0x5c3763f1bf05d462ull,
             0},
        Cell{"Resnet50G4P2pOverlapFusion",
             argv("--model resnet-50 --gpus 4 --batch 16 --method p2p "
                  "--allreduce --overlap --fusion-mb 16"),
             0x99b77f1dd78a5dc7ull, 0x53791f8e2243d747ull,
             0x89d0a9aea4fd540eull},
        Cell{"LenetG4AsyncPs",
             argv("--model lenet --gpus 4 --batch 16 --method p2p "
                  "--mode async_ps"),
             0x46652eb5a17fbe91ull, 0xc0f1e7d5515e1e1dull,
             0xaf7e46fe223f5a78ull},
        Cell{"AlexnetG8Pipeline",
             argv("--model alexnet --gpus 8 --batch 16 --method p2p "
                  "--mode pipeline --microbatches 8"),
             0x58eaf81615bd897cull, 0xa154604f3f85d7ddull,
             0x2edade7a98a0e882ull},
        Cell{"LenetDgx2Nodes2Tree",
             argv("--model lenet --gpus 4 --batch 16 --method nccl "
                  "--platform dgx2 --nodes 2 --netalgo tree"),
             0xd3e03db864c55b3dull, 0xf9fe6abd5afc84c8ull,
             0x5f0673fda9cb1863ull},
        Cell{"BertBaseG4DgcPriority",
             argv("--model bert-base --gpus 4 --batch 16 --method nccl "
                  "--compression dgc --scheduler priority"),
             0xc612c0210d36528bull, 0xde77f45a8c171367ull,
             0x3cb3f489db26b099ull}),
    [](const ::testing::TestParamInfo<Cell> &info) {
        return std::string(info.param.name);
    });

} // namespace
