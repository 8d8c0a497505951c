/**
 * @file
 * The quick kernel matrix: single-core mcf and quad-core w01, each
 * under pom, mdm and profess, at a tiny instruction quota.
 *
 * bench/telemetry_overhead.cc times it with telemetry off and on
 * (the CI overhead gate); tests/test_kernel_determinism.cc pins
 * each run's exact work counts and final-statistics digest.  The
 * runs have no warm-up, so every simulated access is both timed
 * and counted.
 */

#ifndef PROFESS_BENCH_QUICK_MATRIX_HH
#define PROFESS_BENCH_QUICK_MATRIX_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"
#include "trace/spec_profiles.hh"

namespace profess
{

namespace bench
{

/** One run of the quick kernel matrix. */
struct QuickRun
{
    const char *name; ///< "single_mcf" or "quad_w01"
    const char *policy;
    bool quad;

    /** @return the run label, "<name>_<policy>". */
    std::string
    label() const
    {
        return sim::runLabel(name, policy);
    }

    /** @return the preset with the run's quota and no warm-up. */
    sim::SystemConfig
    config() const
    {
        sim::SystemConfig cfg = quad ? sim::SystemConfig::quadCore()
                                     : sim::SystemConfig::singleCore();
        cfg.core.instrQuota = quad ? 60'000 : 120'000;
        cfg.core.warmupInstr = 0;
        return cfg;
    }

    /** @return the base seed of the run's trace sources. */
    std::uint64_t
    seed() const
    {
        return sim::deriveSeed(1, policy, name, 0);
    }

    /** @return the run's system, built and not yet run. */
    std::unique_ptr<sim::System>
    build() const
    {
        std::vector<std::string> programs{"mcf"};
        if (quad) {
            const sim::WorkloadSpec *w01 = sim::findWorkload("w01");
            panic_if(w01 == nullptr, "workload w01 missing");
            programs.assign(w01->programs.begin(), w01->programs.end());
        }
        std::vector<std::unique_ptr<trace::TraceSource>> sources;
        for (std::size_t i = 0; i < programs.size(); ++i) {
            sources.push_back(trace::makeSpecSource(
                programs[i], trace::defaultScale,
                seed() + 1009 * (i + 1)));
        }
        return std::make_unique<sim::System>(config(), policy,
                                             std::move(sources));
    }
};

/** The six runs, in reporting order. */
inline constexpr QuickRun quickMatrix[] = {
    {"single_mcf", "pom", false},   {"single_mcf", "mdm", false},
    {"single_mcf", "profess", false}, {"quad_w01", "pom", true},
    {"quad_w01", "mdm", true},      {"quad_w01", "profess", true},
};

} // namespace bench

} // namespace profess

#endif // PROFESS_BENCH_QUICK_MATRIX_HH
