/**
 * @file
 * Parallel experiment runner (the experiment layer's scaling
 * substrate).
 *
 * Every figure and table in bench/ regenerates its results from
 * independent simulation jobs (workload mixes x policies x sweep
 * points x seeds).  The ParallelRunner fans those jobs over `--jobs N`
 * plain threads, the calling thread among them, each claiming the
 * next job from one shared counter, while guaranteeing
 * *bit-identical* results for any worker count:
 *
 *  - each job's RNG seed is derived purely from its identity
 *    (jobSeed), never from the executing thread or completion
 *    order;
 *  - each job simulates in a private System instance;
 *  - stand-alone IPC_SP reference runs are memoized in the
 *    runner's AloneIpcCache, computed exactly once per runner with
 *    deterministic per-(config, policy, program) seeds;
 *  - results land in pre-assigned slots of the output vector, so
 *    callers iterate them in submission order.
 *
 * The runner owns the RunOptions of its runs.  With --metrics-out,
 * each run writes its shard as it finishes and run() rebuilds the
 * exposition from this runner's shards after every batch.
 *
 * The worker count comes from `--jobs N` (default:
 * hardware_concurrency); `--jobs 1` runs every job inline in the
 * calling thread.
 */

#ifndef PROFESS_SIM_PARALLEL_RUNNER_HH
#define PROFESS_SIM_PARALLEL_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace profess
{

namespace sim
{

/** One independent experiment job. */
struct RunJob
{
    SystemConfig cfg;
    std::string policy;
    std::vector<std::string> programs;
    /**
     * Workload-mix label: seeds the job (with policy and base seed)
     * and names it in progress output.  Defaults to the '+'-joined
     * program list when empty.
     */
    std::string label;
    /** Sweep point, for naming only: a nonzero point suffixes the
     *  run's name with "_s<point>" (jobLabel). */
    std::uint64_t sweepPoint = 0;
    /** Name the run "<label>_r<baseSeed>" (a grid of several
     *  seeds), for naming only. */
    bool seedInLabel = false;
    /** Also compute slowdown metrics (stand-alone references). */
    bool slowdowns = false;
    /** Base seed; the job seed is derived from it (see jobSeed),
     *  unless `seed` pins one explicitly. */
    std::uint64_t baseSeed = 1;
    /** Explicit seed override; 0 = derive (the normal case). */
    std::uint64_t seed = 0;
    double footprintScale = trace::defaultScale;
};

/** @return the job's seed: `seed` when set, else
 *  deriveSeed(baseSeed, policy, mix label), where the mix label is
 *  `label`, or the '+'-joined programs when empty. */
std::uint64_t jobSeed(const RunJob &job);

/** @return the telemetry label of a job's run: its mix label,
 *  suffixed "_r<baseSeed>" when seedInLabel is set and "_s<point>"
 *  for a nonzero sweep point. */
std::string jobLabel(const RunJob &job);

/** @return runIdentityKey of the job's run: the key its DetSan
 *  digests and its sweep journal record are filed under. */
std::string jobKey(const RunJob &job);

/** Convenience constructors for the common job shapes. */
RunJob multiJob(const SystemConfig &cfg, const std::string &policy,
                const WorkloadSpec &workload,
                std::uint64_t sweep_point = 0);
RunJob singleJob(const SystemConfig &cfg, const std::string &policy,
                 const std::string &program,
                 std::uint64_t sweep_point = 0);

/** The runner. */
class ParallelRunner
{
  public:
    /**
     * @param jobs Worker count; 0 = `defaultJobs()`.
     * @param options Telemetry and scenario of every run.
     */
    explicit ParallelRunner(unsigned jobs = 0, RunOptions options = {});

    /** @return the worker count in effect. */
    unsigned jobs() const { return jobs_; }

    /** @return the runner's reference-run cache. */
    const AloneIpcCache &cache() const { return cache_; }

    /** Enable/disable per-job progress lines on stderr. */
    void setProgress(bool on) { progress_ = on; }

    /**
     * Run a batch of jobs and return their metrics in submission
     * order.  MultiMetrics beyond `run` are filled only for jobs
     * with `slowdowns` set.  With --metrics-out the exposition then
     * holds every run of every batch of this runner.
     */
    std::vector<MultiMetrics> run(const std::vector<RunJob> &batch);

    /** Run one job (serial helper; same seeding as batches). */
    MultiMetrics runOne(const RunJob &job);

    /**
     * Invoke `fn(i)` for every i in [0, n), each exactly once, on
     * min(jobs(), n) threads: the calling thread and up to
     * jobs() - 1 helpers, each claiming the next index until none
     * is left.  `fn` must confine writes to per-index state.  If a
     * call throws, no further index starts and the first exception
     * is rethrown here once every thread has joined.
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &fn);

    /** @return `std::thread::hardware_concurrency()`, at least 1. */
    static unsigned defaultJobs();

    /**
     * Worker count from `--jobs N` / `--jobs=N` / `-j N` on the
     * command line (stripped from argv, which is compacted in
     * place; N is a decimal integer >= 1, else fatal), falling
     * back to `defaultJobs()`.  Used by every bench binary.
     */
    static unsigned jobsFromArgs(int &argc, char **argv);

  private:
    /** Progress-aware wrapper around one job. */
    MultiMetrics timedJob(const RunJob &job, std::size_t total);

    unsigned jobs_;
    RunOptions options_;
    AloneIpcCache cache_;
    /** Run label of every run so far (with --metrics-out). */
    std::vector<std::string> runLabels_;
    bool progress_;
    std::atomic<std::size_t> done_{0}; ///< progress numerator
};

} // namespace sim

} // namespace profess

#endif // PROFESS_SIM_PARALLEL_RUNNER_HH
