/**
 * @file
 * Experiment harness: builds systems, runs workloads, computes the
 * paper's metrics, and caches stand-alone (IPC_SP) reference runs.
 *
 * Used by every benchmark binary in bench/ to regenerate the
 * paper's tables and figures.
 */

#ifndef PROFESS_SIM_EXPERIMENT_HH
#define PROFESS_SIM_EXPERIMENT_HH

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sim/metrics.hh"
#include "sim/run_telemetry.hh"
#include "sim/scenario.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"
#include "trace/spec_profiles.hh"

namespace profess
{

namespace sim
{

/** Aggregate results of one workload run. */
struct RunResult
{
    std::string policy;
    std::vector<std::string> programs;
    std::vector<double> ipc;              ///< per program (at quota)
    std::vector<std::uint64_t> served;    ///< per program
    std::vector<std::uint64_t> servedM1;  ///< per program
    double seconds = 0.0;
    double joules = 0.0;
    double watts = 0.0;
    std::uint64_t servedTotal = 0;
    std::uint64_t swaps = 0;
    double stcHitRate = 0.0;
    double meanReadLatencyNs = 0.0;
    double m1Fraction = 0.0;   ///< fraction of accesses from M1
    double swapFraction = 0.0; ///< swaps / served requests
    double rowHitRate = 0.0;   ///< device row-buffer hit rate
    /** Fraction of demand writes that landed in M2 (Sec. 5.2). */
    double m2WriteFraction = 0.0;
    bool completed = false;
};

/** Multi-program run with slowdown-based metrics attached. */
struct MultiMetrics
{
    RunResult run;
    std::vector<double> aloneIpc;
    std::vector<double> slowdown;
    double weightedSpeedup = 0.0;
    double maxSlowdown = 0.0;
    double efficiency = 0.0; ///< requests / joule
};

/**
 * Derive the RNG seed of one experiment job from its identity.
 *
 * The derivation is a pure hash — results are bit-identical no
 * matter which thread runs the job or in which order jobs finish,
 * which is what makes the parallel runner's `--jobs 1` vs
 * `--jobs N` outputs comparable (tests/test_parallel_runner.cc).
 *
 * A run's configuration is not an input: every point of a swept
 * knob draws the same trace streams as the unswept config, so a
 * difference between points is the knob's, not seed noise.
 *
 * @param base Base seed (the experiment family's seed).
 * @param policy Policy name.
 * @param mix Workload-mix label (workload name, or program name
 *        for stand-alone runs).
 */
std::uint64_t deriveSeed(std::uint64_t base, std::string_view policy,
                         std::string_view mix);

/**
 * Fingerprint of every field of a SystemConfig (the knob table,
 * forEachKnob) plus the footprint scale, used to key shared caches
 * so runs from different sweep points can never alias.
 */
std::uint64_t configFingerprint(const SystemConfig &cfg,
                                double footprint_scale);

/**
 * Canonical identity key of one run:
 * "<configFingerprint>|<label>|<policy>|<p0>|...|<seed>".
 *
 * The DetSan journal keys digests with it (plus telemetry/scenario
 * suffixes) and the sweep checkpoint (sim::SweepDriver) journals
 * completed runs under it verbatim, so a journaled sweep run and
 * its determinism digests name exactly the same thing.
 */
std::string runIdentityKey(const SystemConfig &cfg,
                           double footprint_scale,
                           const std::string &label,
                           const std::string &policy,
                           const std::vector<std::string> &programs,
                           std::uint64_t seed_base);

/** @return the '+'-joined program list ("mcf+lbm+..."): the mix
 *  label of a job without one, and the workload of a manifest. */
std::string joinPrograms(const std::vector<std::string> &programs);

/** @return "<label>_<policy>": the name of a labelled run's
 *  telemetry bundle, artifact directory and metrics shard. */
std::string runLabel(const std::string &label, const std::string &policy);

/**
 * How a batch of runs is traced, intervened on and exported: the
 * one options value handed to ExperimentRunner, ParallelRunner and
 * SweepDriver.  Nothing here enters SystemConfig, so options never
 * change a config fingerprint or a derived seed.
 */
struct RunOptions
{
    TelemetryConfig telemetry;
    ScenarioConfig scenario;

    /**
     * Strip and apply the shared flags from argv, compacting it in
     * place: --trace, --telemetry-out DIR, --epoch-ticks N,
     * --metrics-out FILE and --scenario FILE (each valued flag also
     * as --flag=VALUE).  A valued flag without its value, an epoch
     * period that is not a positive decimal integer, and --trace or
     * --epoch-ticks without --telemetry-out (their output goes only
     * to that directory) are fatal.
     */
    static RunOptions fromArgs(int &argc, char **argv);
};

/**
 * Thread-safe memoizing cache for stand-alone (IPC_SP) reference
 * runs.
 *
 * Keys include the config fingerprint, scenario fingerprint,
 * policy, program and seed.  Concurrent requests for the same key
 * block on a shared future while the first requester computes, so
 * each reference run happens exactly once per cache regardless of
 * how many experiment jobs (or threads) need it.
 */
class AloneIpcCache
{
  public:
    /**
     * @return the cached value for `key`, computing it via
     *         `compute` (in the calling thread) on a miss.
     */
    double getOrCompute(const std::string &key,
                        const std::function<double()> &compute);

    /** Drop all entries. */
    void clear();

    /** @return number of cached reference runs. */
    std::size_t size() const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::shared_future<double>> map_;
};

/** The harness. */
class ExperimentRunner
{
  public:
    /**
     * @param base Base system configuration used for every run.
     * @param options Telemetry and scenario of every run.
     * @param footprint_scale Scale of Table 9 footprints (matches
     *        the capacity scaling of `base`).
     * @param cache Stand-alone reference-run cache to share (a
     *        ParallelRunner passes its own); nullptr = a cache
     *        owned by this runner.
     */
    explicit ExperimentRunner(
        const SystemConfig &base, RunOptions options = {},
        double footprint_scale = trace::defaultScale,
        AloneIpcCache *cache = nullptr)
        : base_(base), options_(std::move(options)),
          footprintScale_(footprint_scale),
          ownCache_(cache ? nullptr : std::make_unique<AloneIpcCache>()),
          cache_(cache ? cache : ownCache_.get())
    {
    }

    /** @return the base configuration (mutable for sweeps). */
    SystemConfig &config() { return base_; }

    /**
     * Run a set of programs under a policy.
     *
     * @param policy Policy name (see System).
     * @param programs Table 9 benchmark names, one per core.
     * @param seed_base Base RNG seed (slot index is mixed in).
     * @param label Telemetry label; when non-empty and the
     *        options enable telemetry, the run attaches a
     *        RunTelemetry bundle named "<label>_<policy>".
     *        Stand-alone reference runs pass no label and always run
     *        without telemetry.  Telemetry never changes results.
     */
    RunResult run(const std::string &policy,
                  const std::vector<std::string> &programs,
                  std::uint64_t seed_base = 1,
                  const std::string &label = "");

    /**
     * Stand-alone IPC of a program under a policy on the base
     * system.  Memoized in the AloneIpcCache (keyed by the run's
     * runIdentityKey and the scenario fingerprint), so parallel
     * jobs sharing a cache never recompute a reference run.
     */
    double aloneIpc(const std::string &policy,
                    const std::string &program,
                    std::uint64_t seed_base = 1);

    /**
     * Attach slowdown metrics to a finished run: each program's
     * stand-alone IPC (aloneIpc, at its own fixed seed so the
     * reference is shared across mixes and sweep points), the
     * slowdowns, weighted speedup, maximum slowdown and energy
     * efficiency.
     */
    MultiMetrics withSlowdowns(RunResult run);

    /**
     * Run a Table 10 workload, labelled with its name, and attach
     * slowdown metrics.  `seed_base` seeds the multi-program run
     * only.
     */
    MultiMetrics runMulti(const std::string &policy,
                          const WorkloadSpec &workload,
                          std::uint64_t seed_base = 1);

  private:
    SystemConfig base_;
    RunOptions options_;
    double footprintScale_;
    std::unique_ptr<AloneIpcCache> ownCache_;
    AloneIpcCache *cache_;
};

} // namespace sim

} // namespace profess

#endif // PROFESS_SIM_EXPERIMENT_HH
