#include "campaign/check.hh"

#include <cmath>
#include <cstdio>

#include "campaign/campaign.hh"
#include "core/text_table.hh"
#include "sim/logging.hh"

namespace dgxsim::campaign {

namespace {

/** Relative drift of @p fresh vs @p base in percent (0 when both are
 * zero; 100 when base is zero and fresh is not). */
double
driftPct(double base, double fresh)
{
    if (base == fresh)
        return 0;
    if (base == 0)
        return 100;
    return std::fabs(fresh - base) / std::fabs(base) * 100.0;
}

} // namespace

CheckReport
compareRecords(const std::vector<RunRecord> &baseline,
               const std::vector<RunRecord> &fresh,
               const CheckOptions &options)
{
    if (baseline.size() != fresh.size())
        sim::fatal("baseline has ", baseline.size(),
                   " records but the re-run produced ", fresh.size());
    CheckReport report;
    report.digestSkipped = options.skipDigest;
    report.deltas.reserve(baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
        const RunRecord &b = baseline[i];
        const RunRecord &f = fresh[i];
        if (b.key() != f.key())
            sim::fatal("record ", i, " mismatch: baseline is '",
                       b.key(), "' but the re-run is '", f.key(),
                       "'");
        RunDelta delta;
        delta.baseline = b;
        delta.fresh = f;
        delta.oomMatch = b.oom == f.oom;
        if (!b.oom && !f.oom) {
            // Every number both records serialize is drift-gated.
            forEachMetric(b, f, [&](const char *name, double base,
                                    double fresh) {
                const double drift = driftPct(base, fresh);
                if (drift > delta.maxDriftPct) {
                    delta.maxDriftPct = drift;
                    delta.worstMetric = name;
                }
            });
            delta.digestMatch = b.digest == f.digest;
        }
        delta.pass = delta.oomMatch &&
                     delta.maxDriftPct <= options.tolerancePct &&
                     (options.skipDigest || delta.digestMatch);
        if (!delta.pass)
            ++report.failures;
        report.deltas.push_back(std::move(delta));
    }
    report.pass = report.failures == 0;
    return report;
}

CheckReport
checkAgainstBaseline(const std::vector<RunRecord> &baseline,
                     const CheckOptions &options)
{
    std::vector<core::TrainConfig> configs;
    configs.reserve(baseline.size());
    for (const RunRecord &r : baseline) {
        configs.push_back(r.toConfig());
        configs.back().timingOnly = options.skipDigest;
    }
    const std::vector<RunRecord> fresh =
        runCampaign(configs, options.jobs);
    return compareRecords(baseline, fresh, options);
}

std::string
CheckReport::summary(double tolerancePct) const
{
    core::TextTable table({"run", "baseline epoch (s)",
                           "fresh epoch (s)", "max drift", "digest",
                           "verdict"});
    for (const RunDelta &d : deltas) {
        char drift[48];
        std::snprintf(drift, sizeof(drift), "%.4f%% (%s)",
                      d.maxDriftPct,
                      d.worstMetric.empty() ? "-"
                                            : d.worstMetric.c_str());
        std::string epochBase = d.baseline.oom
                                    ? "OOM"
                                    : core::TextTable::num(
                                          d.baseline.epochSeconds, 3);
        std::string epochFresh =
            d.fresh.oom ? "OOM"
                        : core::TextTable::num(d.fresh.epochSeconds, 3);
        const char *digest = !d.oomMatch     ? "-"
                             : digestSkipped ? "skipped"
                             : d.digestMatch ? "match"
                                             : "MISMATCH";
        table.addRow({d.baseline.key(), epochBase, epochFresh, drift,
                      digest, d.pass ? "ok" : "FAIL"});
    }
    char verdict[128];
    std::snprintf(verdict, sizeof(verdict),
                  "check %s: %zu/%zu runs within %.4f%% of baseline\n",
                  pass ? "PASS" : "FAIL",
                  deltas.size() - failures, deltas.size(),
                  tolerancePct);
    return table.str() + verdict;
}

} // namespace dgxsim::campaign
