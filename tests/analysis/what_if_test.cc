/**
 * @file
 * Tests for the what-if replay engine: identity exactness, the three
 * canonical projections validated against ground-truth re-simulation,
 * spec parsing, and byte-identical JSON output.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/dag.hh"
#include "analysis/what_if.hh"
#include "comm/factory.hh"
#include "core/trainer_base.hh"
#include "hw/topology.hh"
#include "sim/logging.hh"

namespace {

using namespace dgxsim;

core::TrainConfig
gridConfig(const std::string &model, int gpus, comm::CommMethod method)
{
    core::TrainConfig cfg;
    cfg.model = model;
    cfg.numGpus = gpus;
    cfg.batchPerGpu = 16;
    cfg.method = method;
    return cfg;
}

struct Fixture
{
    core::TrainConfig cfg;
    std::unique_ptr<core::TrainerBase> trainer;
    core::TrainReport report;
    analysis::Dag dag;
    analysis::WhatIf whatIf;

    explicit Fixture(core::TrainConfig c)
        : cfg(std::move(c)), trainer(core::TrainerBase::make(cfg)),
          report(trainer->run()),
          dag(trainer->profiler(), hw::Topology::dgx1Volta()),
          whatIf(dag, cfg, report)
    {
    }
};

/** All-ones parameters must replay the recorded schedule exactly. */
TEST(WhatIfTest, IdentityReplayIsTickExact)
{
    for (comm::CommMethod m :
         {comm::CommMethod::P2P, comm::CommMethod::NCCL}) {
        const Fixture f(gridConfig("lenet", 2, m));
        EXPECT_EQ(f.whatIf.project(analysis::WhatIfParams{}),
                  f.dag.makespan());
    }
}

/** The three canonical scenarios, validated against ground-truth
 * re-simulation, stay inside the 5% acceptance bound. */
TEST(WhatIfTest, StandardProjectionsValidateWithinFivePercent)
{
    const struct
    {
        const char *model;
        int gpus;
        comm::CommMethod method;
    } grid[] = {
        {"lenet", 2, comm::CommMethod::P2P},
        {"lenet", 4, comm::CommMethod::NCCL},
        {"alexnet", 2, comm::CommMethod::NCCL},
    };
    for (const auto &g : grid) {
        const Fixture f(gridConfig(g.model, g.gpus, g.method));
        for (const analysis::WhatIfCase &c :
             analysis::standardWhatIfs()) {
            SCOPED_TRACE(std::string(g.model) + " x" +
                         std::to_string(g.gpus) + " " + c.label);
            const analysis::WhatIfResult r =
                f.whatIf.evaluate(c, /*validate=*/true);
            ASSERT_TRUE(r.validated);
            EXPECT_GT(r.actualMakespan, 0u);
            EXPECT_LE(r.errorFraction, 0.05);
        }
    }
}

/** Speeding things up must never project a longer run, and the
 * perturbation must actually bite where it applies. */
TEST(WhatIfTest, ProjectionsMoveInTheRightDirection)
{
    const Fixture f(gridConfig("lenet", 2, comm::CommMethod::P2P));
    const sim::Tick base = f.dag.makespan();
    analysis::WhatIfParams faster_kernels;
    faster_kernels.kernelSpeedup = 2.0;
    analysis::WhatIfParams free_api;
    free_api.apiOverhead = 0.0;
    analysis::WhatIfParams fat_links;
    fat_links.nvlinkBw = 2.0;
    EXPECT_LT(f.whatIf.project(faster_kernels), base);
    EXPECT_LT(f.whatIf.project(free_api), base);
    EXPECT_LE(f.whatIf.project(fat_links), base);
}

TEST(WhatIfTest, ModifiedConfigAppliesGroundTruthKnobs)
{
    const core::TrainConfig base =
        gridConfig("lenet", 2, comm::CommMethod::NCCL);
    analysis::WhatIfParams params;
    params.nvlinkBw = 2.0;
    params.kernelSpeedup = 1.5;
    params.apiOverhead = 0.5;
    const core::TrainConfig mod =
        analysis::WhatIf::modifiedConfig(base, params);
    EXPECT_DOUBLE_EQ(mod.nvlinkBwScale, 2.0);
    EXPECT_DOUBLE_EQ(mod.gpuSpec.speedupFactor, 1.5);
    EXPECT_DOUBLE_EQ(mod.engineDispatchUs,
                     base.engineDispatchUs * 0.5);
    EXPECT_DOUBLE_EQ(mod.commConfig.memcpyIssueUs,
                     base.commConfig.memcpyIssueUs * 0.5);
}

TEST(WhatIfTest, SpecParsing)
{
    const std::vector<analysis::WhatIfCase> standard =
        analysis::parseWhatIfSpecs("standard");
    ASSERT_EQ(standard.size(), 3u);
    EXPECT_DOUBLE_EQ(standard[0].params.nvlinkBw, 2.0);
    EXPECT_DOUBLE_EQ(standard[1].params.apiOverhead, 0.0);
    EXPECT_DOUBLE_EQ(standard[2].params.kernelSpeedup, 1.5);

    const std::vector<analysis::WhatIfCase> combo =
        analysis::parseWhatIfSpecs(
            "nvlink_bw=4,kernel_speedup=2");
    ASSERT_EQ(combo.size(), 2u);
    EXPECT_DOUBLE_EQ(combo[0].params.nvlinkBw, 4.0);
    EXPECT_DOUBLE_EQ(combo[1].params.kernelSpeedup, 2.0);

    const std::vector<analysis::WhatIfCase> ib =
        analysis::parseWhatIfSpecs("ib_bw=2");
    ASSERT_EQ(ib.size(), 1u);
    EXPECT_DOUBLE_EQ(ib[0].params.ibBw, 2.0);

    EXPECT_THROW(analysis::parseWhatIfSpecs("warp_drive=9"),
                 sim::FatalError);
    EXPECT_THROW(analysis::parseWhatIfSpecs("ib_bw=0"),
                 sim::FatalError);
    EXPECT_THROW(analysis::parseWhatIfSpecs("nvlink_bw=0"),
                 sim::FatalError);
    EXPECT_THROW(analysis::parseWhatIfSpecs("nvlink_bw=fast"),
                 sim::FatalError);
    // The value is all of the text after '=', and finite: inf once
    // reached the max-min solver as an infinite capacity (a panic),
    // and 2abc ran as 2.
    for (const char *bad : {"nvlink_bw=inf", "ib_bw=inf", "nvlink_bw=2abc",
                            "kernel_speedup=nan", "api_overhead=1e400",
                            "nvlink_bw=", "nvlink_bw= 2"}) {
        try {
            analysis::parseWhatIfSpecs(bad);
            ADD_FAILURE() << bad << " parsed";
        } catch (const sim::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(std::string("'") + bad +
                                                 "': expected a finite"),
                      std::string::npos)
                << e.what();
        }
    }
}

/** Two identical fresh runs must render byte-identical JSON — the
 * determinism contract of `dgxprof analyze --json`. */
TEST(WhatIfTest, AnalysisJsonIsByteIdenticalAcrossRuns)
{
    const core::TrainConfig cfg =
        gridConfig("lenet", 2, comm::CommMethod::NCCL);
    std::string rendered[2];
    for (std::string &out : rendered) {
        const Fixture f(cfg);
        const analysis::Attribution attr = f.dag.attribute();
        std::vector<analysis::WhatIfResult> results;
        for (const analysis::WhatIfCase &c :
             analysis::standardWhatIfs())
            results.push_back(f.whatIf.evaluate(c, true));
        out = analysis::analysisJson(f.dag, attr, results);
    }
    EXPECT_FALSE(rendered[0].empty());
    EXPECT_EQ(rendered[0], rendered[1]);
}

} // namespace
