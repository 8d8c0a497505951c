/**
 * @file
 * Shared helpers of the figure binaries that are not sweep specs:
 * table4_sampling_accuracy, ablation_profess and
 * sens_capacity_ratio.  Every grid-shaped figure is a spec under
 * bench/sweeps/, run by profess_sweep.
 *
 * Command line (makeRunner strips the flags; what is left must be
 * key=value, read with keyValueArgs):
 *   --jobs N / -j N   worker threads (default: all hardware
 *                     threads; 1 runs every job inline)
 *   --trace, --telemetry-out DIR, --epoch-ticks N,
 *   --metrics-out FILE, --scenario FILE
 *                     the run options (sim::RunOptions): traces,
 *                     per-run artifacts, the OpenMetrics exposition
 *                     of every labelled run, intervention schedules
 *   --quiet / --verbose / --log-level N
 *                     log verbosity (also PROFESS_LOG)
 *   <knob>=<value>    any SystemConfig knob (forEachKnob in
 *                     sim/system.hh), applied to every run before
 *                     the binary's own points, e.g. the smoke size
 *                     instr=20000 warmup=10000
 * An unknown knob, or any other argument, is fatal.
 * PROFESS_PROGRESS=1/0 forces per-job progress lines on/off
 * (default: on when stderr is a terminal).
 *
 * With --metrics-out each run writes its exposition as a shard when
 * it finishes, and after every batch the runner rebuilds FILE from
 * its own runs' shards (sim::mergeShards).  Results are
 * bit-identical for every worker count: job seeds are derived from
 * (policy, mix), never from scheduling (src/sim/parallel_runner.hh).
 */

#ifndef PROFESS_BENCH_BENCH_UTIL_HH
#define PROFESS_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>
#include <vector>

#include "common/key_value.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"

namespace profess
{

namespace bench
{

/** Banner naming the paper artifact being regenerated. */
inline void
header(const char *what, const char *paper_ref)
{
    std::printf("\n=============================================="
                "==============\n");
    std::printf("%s\n(reproduces %s of Knyaginin et al., "
                "\"ProFess\", HPCA 2018; scaled 1/100 per "
                "DESIGN.md)\n", what, paper_ref);
    std::printf("================================================"
                "============\n");
}

/**
 * The figures' run window at the 1/100 scale (the specs state the
 * same): 3M instructions single-core or 2M per program quad-core,
 * after 1M instructions of warm-up.
 */
inline sim::SystemConfig
figureConfig(bool quad)
{
    sim::SystemConfig cfg = quad ? sim::SystemConfig::quadCore()
                                 : sim::SystemConfig::singleCore();
    cfg.core.instrQuota = quad ? 2'000'000 : 3'000'000;
    cfg.core.warmupInstr = 1'000'000;
    return cfg;
}

/**
 * Experiment runner honoring `--jobs N` / `-j N`, announcing the
 * worker count when running parallel, and built with the RunOptions
 * of the shared flags.  Strips those flags from argv (compacting it
 * in place), leaving the key=value arguments for keyValueArgs.
 */
inline sim::ParallelRunner
makeRunner(int &argc, char **argv)
{
    logging::configure(argc, argv);
    sim::RunOptions options = sim::RunOptions::fromArgs(argc, argv);
    unsigned jobs = sim::ParallelRunner::jobsFromArgs(argc, argv);
    if (jobs > 1)
        std::fprintf(stderr, "[profess] running with %u workers "
                     "(--jobs 1 for the serial path)\n", jobs);
    return sim::ParallelRunner(jobs, std::move(options));
}

/** All ten Table 9 programs. */
inline std::vector<std::string>
allPrograms()
{
    std::vector<std::string> v;
    for (const auto &p : trace::specProfiles())
        v.push_back(p.name);
    return v;
}

} // namespace bench

} // namespace profess

#endif // PROFESS_BENCH_BENCH_UTIL_HH
