/**
 * @file
 * Shared helpers for the figure/table reproduction binaries.
 *
 * Environment knobs (PROFESS_INSTR, PROFESS_WARMUP and PROFESS_QUICK
 * take a decimal integer, parsed whole like a key=value knob; any
 * other value is fatal):
 *   PROFESS_INSTR     measured instructions per program
 *                     (default 3M single / 2M multi)
 *   PROFESS_WARMUP    warm-up instructions (default 1M)
 *   PROFESS_QUICK     nonzero: quarter-size runs for smoke testing
 *   PROFESS_WORKLOADS comma list of Table 10 names (default: all of
 *                     Table 10); an unknown or empty entry is fatal
 *   PROFESS_PROGRESS  =1/=0: force per-job progress lines on/off
 *                     (default: on when stderr is a terminal)
 *   PROFESS_LOG       log verbosity (0/1/2 or error/warn/info);
 *                     `--quiet` / `--verbose` / `--log-level N`
 *                     override
 *
 * Command line (makeRunner; besides the log flags above, any other
 * argument is fatal):
 *   --jobs N / -j N   worker threads (default: all hardware
 *                     threads; 1 runs every job inline)
 *   --trace           record decision + chrome traces
 *   --telemetry-out DIR
 *                     artifact directory for per-run manifests,
 *                     expositions and time-series
 *   --epoch-ticks N   epoch-sampler period in MC ticks
 *                     (default 25000)
 *   --metrics-out FILE
 *                     OpenMetrics exposition of every labelled run
 *   --scenario FILE   fault/intervention schedule (see
 *                     src/sim/scenario.hh and EXPERIMENTS.md)
 *
 * The last five form the sim::RunOptions value the runner is built
 * with; nothing is read from process-global state.  With
 * --metrics-out each run writes its exposition as a shard when it
 * finishes, and after every batch the runner rebuilds FILE from its
 * own runs' shards (sim::mergeShards).
 *
 * Results are bit-identical for every worker count: job seeds are
 * derived from (policy, mix, sweep point), never from scheduling
 * (see src/sim/parallel_runner.hh).
 */

#ifndef PROFESS_BENCH_BENCH_UTIL_HH
#define PROFESS_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
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

/** Run-size configuration from the environment. */
struct BenchEnv
{
    std::uint64_t singleInstr = 3'000'000;
    std::uint64_t multiInstr = 2'000'000;
    std::uint64_t warmupInstr = 1'000'000;
    /** Table 10 workloads to run, in PROFESS_WORKLOADS order. */
    std::vector<const sim::WorkloadSpec *> workloads;
};

/** @return environment variable `name` as an unsigned integer, or
 *  `def` when unset; fatal when set to anything else. */
inline std::uint64_t
envUint(const char *name, std::uint64_t def)
{
    const char *s = std::getenv(name);
    if (s == nullptr)
        return def;
    return valueAs<std::uint64_t>(KeyValue{name, s, "environment"});
}

inline BenchEnv
benchEnv()
{
    BenchEnv e;
    if (envUint("PROFESS_QUICK", 0)) {
        e.singleInstr = 600'000;
        e.multiInstr = 400'000;
        e.warmupInstr = 200'000;
    }
    e.singleInstr = envUint("PROFESS_INSTR", e.singleInstr);
    e.multiInstr = envUint("PROFESS_INSTR", e.multiInstr);
    e.warmupInstr = envUint("PROFESS_WARMUP", e.warmupInstr);

    const char *wl = std::getenv("PROFESS_WORKLOADS");
    if (wl == nullptr) {
        for (const auto &w : sim::multiprogramWorkloads())
            e.workloads.push_back(&w);
        return e;
    }
    const std::string list(wl);
    for (std::size_t pos = 0;;) {
        std::size_t c = std::min(list.find(',', pos), list.size());
        const std::string name = list.substr(pos, c - pos);
        const sim::WorkloadSpec *w = sim::findWorkload(name);
        fatal_if(w == nullptr,
                 "environment: '%s' in 'PROFESS_WORKLOADS' is not a "
                 "Table 10 workload (w01..w19)",
                 name.c_str());
        e.workloads.push_back(w);
        if (c == list.size())
            return e;
        pos = c + 1;
    }
}

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
 * Experiment runner honoring `--jobs N` / `-j N`,
 * announcing the worker count when running parallel, and built with
 * the RunOptions of the shared flags (logging --quiet/--verbose/
 * --log-level, telemetry --trace/--telemetry-out/--epoch-ticks/
 * --metrics-out, fault scenarios --scenario FILE).  The figure
 * binaries take no arguments of their own, so anything left in argv
 * is fatal.
 */
inline sim::ParallelRunner
makeRunner(int &argc, char **argv)
{
    logging::configure(argc, argv);
    sim::RunOptions options = sim::RunOptions::fromArgs(argc, argv);
    unsigned jobs = sim::ParallelRunner::jobsFromArgs(argc, argv);
    fatal_if(argc > 1, "unknown argument '%s'", argv[1]);
    if (jobs > 1)
        std::fprintf(stderr, "[profess] running with %u workers "
                     "(--jobs 1 for the serial path)\n", jobs);
    return sim::ParallelRunner(jobs, std::move(options));
}

/** Geometric-mean accumulator for ratio series. */
class RatioSeries
{
  public:
    void
    add(double r)
    {
        ratios_.push_back(r);
    }

    double gmean() const { return geometricMean(ratios_); }

    double
    max() const
    {
        double m = ratios_.empty() ? 0.0 : ratios_[0];
        for (double r : ratios_)
            m = r > m ? r : m;
        return m;
    }

    double
    min() const
    {
        double m = ratios_.empty() ? 0.0 : ratios_[0];
        for (double r : ratios_)
            m = r < m ? r : m;
        return m;
    }

    const std::vector<double> &values() const { return ratios_; }

  private:
    std::vector<double> ratios_;
};

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
