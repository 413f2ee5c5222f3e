/**
 * @file
 * Timing-only runs against full runs on every golden cell: each
 * committed grid of results/baselines.manifest re-runs both ways, the
 * full run must reproduce its golden byte for byte, and the
 * timing-only run must serialize every record field but the digest
 * to the same bits (JSON doubles are %.17g, so equal text is equal
 * bits), with the same per-API seconds.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/record.hh"
#include "core/trainer_base.hh"

namespace dgxsim::campaign {
namespace {

/** @return the golden grids the manifest lists, e.g. "baseline". */
std::vector<std::string>
goldenGrids()
{
    std::ifstream manifest(std::string(DGXSIM_REPO_ROOT) +
                           "/results/baselines.manifest");
    std::vector<std::string> grids;
    std::string line;
    while (std::getline(manifest, line)) {
        std::string file;
        std::istringstream(line) >> file;
        const std::string ext = ".json";
        if (file.size() > ext.size() &&
            file.compare(file.size() - ext.size(), ext.size(), ext) == 0)
            grids.push_back(file.substr(0, file.size() - ext.size()));
    }
    return grids;
}

class TimingOnly : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TimingOnly, MatchesTheFullRunAndTheGolden)
{
    const std::string golden = readFile(std::string(DGXSIM_REPO_ROOT) +
                                        "/results/" + GetParam() + ".json");
    const std::vector<RunRecord> cells = recordsFromJson(golden);
    ASSERT_FALSE(cells.empty());
    std::vector<RunRecord> fulls;
    for (const RunRecord &cell : cells) {
        core::TrainConfig cfg = cell.toConfig();
        const core::TrainReport full = core::TrainerBase::simulate(cfg);
        cfg.timingOnly = true;
        const core::TrainReport timing = core::TrainerBase::simulate(cfg);
        EXPECT_EQ(timing.digest, 0u) << cell.key();
        EXPECT_EQ(timing.apiSeconds, full.apiSeconds) << cell.key();
        RunRecord expect = recordFromReport(full);
        fulls.push_back(expect);
        expect.digest = 0;
        EXPECT_EQ(recordsToJson({recordFromReport(timing)}),
                  recordsToJson({expect}))
            << cell.key();
    }
    EXPECT_EQ(recordsToJson(fulls), golden);
}

INSTANTIATE_TEST_SUITE_P(
    Goldens, TimingOnly, ::testing::ValuesIn(goldenGrids()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(TimingOnlyGoldens, ManifestListsEightGrids)
{
    EXPECT_EQ(goldenGrids().size(), 8u);
}

} // namespace
} // namespace dgxsim::campaign
