#include "sim/parallel_runner.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>

#include <unistd.h>

#include "common/key_value.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace profess
{

namespace sim
{

namespace
{

/** Serializes progress lines from concurrent workers. */
std::mutex progress_mu;

bool
progressDefault()
{
    const char *p = std::getenv("PROFESS_PROGRESS");
    if (p != nullptr && *p != '\0')
        return std::strcmp(p, "0") != 0;
    return isatty(STDERR_FILENO) != 0;
}

/** @return a worker count parsed like any other number, and >= 1. */
unsigned
positiveJobs(const KeyValue &kv)
{
    unsigned n = valueAs<unsigned>(kv);
    fatal_if(n == 0, "%s: '%s' must be at least 1", kv.where.c_str(),
             kv.key.c_str());
    return n;
}

/** @return the job's mix label: its label, or the '+'-joined
 *  program list when it has none. */
std::string
mixLabel(const RunJob &job)
{
    if (!job.label.empty())
        return job.label;
    std::string l;
    for (const auto &p : job.programs)
        l += (l.empty() ? "" : "+") + p;
    return l;
}

} // anonymous namespace

std::string
jobLabel(const RunJob &job)
{
    // Distinguish sweep points sharing a mix.
    std::string label = mixLabel(job);
    if (job.sweepPoint != 0)
        label += "_s" + std::to_string(job.sweepPoint);
    return label;
}

RunJob
multiJob(const SystemConfig &cfg, const std::string &policy,
         const WorkloadSpec &workload, std::uint64_t sweep_point)
{
    RunJob j;
    j.cfg = cfg;
    j.policy = policy;
    j.programs.assign(workload.programs.begin(),
                      workload.programs.end());
    j.label = workload.name;
    j.sweepPoint = sweep_point;
    j.slowdowns = true;
    return j;
}

RunJob
singleJob(const SystemConfig &cfg, const std::string &policy,
          const std::string &program, std::uint64_t sweep_point)
{
    RunJob j;
    j.cfg = cfg;
    j.policy = policy;
    j.programs = {program};
    j.label = program;
    j.sweepPoint = sweep_point;
    return j;
}

ParallelRunner::ParallelRunner(unsigned jobs, RunOptions options)
    : jobs_(jobs == 0 ? jobsFromEnv() : jobs),
      options_(std::move(options)), progress_(progressDefault())
{
}

unsigned
ParallelRunner::jobsFromEnv()
{
    const char *s = std::getenv("PROFESS_JOBS");
    if (s == nullptr)
        return ThreadPool::defaultWorkers();
    return positiveJobs(KeyValue{"PROFESS_JOBS", s, "environment"});
}

unsigned
ParallelRunner::jobsFromArgs(int &argc, char **argv)
{
    std::optional<unsigned> jobs;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        std::optional<KeyValue> kv = flagValue(argc, argv, i, "--jobs");
        if (!kv)
            kv = flagValue(argc, argv, i, "-j");
        if (kv)
            jobs = positiveJobs(*kv);
        else
            argv[out++] = argv[i];
    }
    argc = out;
    argv[argc] = nullptr;
    return jobs ? *jobs : jobsFromEnv();
}

MultiMetrics
ParallelRunner::runOne(const RunJob &job)
{
    ExperimentRunner runner(job.cfg, options_, job.footprintScale, &cache_);
    std::uint64_t seed =
        job.seed != 0 ? job.seed
                      : deriveSeed(job.baseSeed, job.policy, mixLabel(job),
                                   job.sweepPoint);
    MultiMetrics m;
    m.run = runner.run(job.policy, job.programs, seed, jobLabel(job));
    if (job.slowdowns) {
        // Stand-alone references use their own fixed per-(config,
        // policy, program) seeds so every mix and sweep point that
        // shares a config shares the cached run.
        for (const auto &p : job.programs)
            m.aloneIpc.push_back(runner.aloneIpc(job.policy, p));
        m.slowdown = slowdowns(m.aloneIpc, m.run.ipc);
        m.weightedSpeedup = weightedSpeedup(m.slowdown);
        m.maxSlowdown = unfairness(m.slowdown);
        m.efficiency =
            energyEfficiency(m.run.servedTotal, m.run.joules);
    }
    return m;
}

MultiMetrics
ParallelRunner::timedJob(const RunJob &job, std::size_t total)
{
    auto t0 = std::chrono::steady_clock::now();
    MultiMetrics m = runOne(job);
    if (progress_) {
        double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        std::size_t k = ++done_;
        std::lock_guard<std::mutex> lk(progress_mu);
        std::fprintf(stderr,
                     "[profess %zu/%zu] %s/%s%s done in %.2fs\n", k,
                     total,
                     job.label.empty() ? "mix" : job.label.c_str(),
                     job.policy.c_str(),
                     job.sweepPoint != 0 ? "*" : "", secs);
    }
    return m;
}

std::vector<MultiMetrics>
ParallelRunner::run(const std::vector<RunJob> &batch)
{
    std::vector<MultiMetrics> results(batch.size());
    done_.store(0);
    forEach(batch.size(), [this, &batch, &results](std::size_t i) {
        results[i] = timedJob(batch[i], batch.size());
    });
    const std::string &prom = options_.telemetry.metricsOut;
    if (!prom.empty()) {
        // Every run wrote its shard in RunTelemetry::finish; merging
        // only this runner's runs keeps any shard an earlier process
        // left in the directory out of the exposition.
        for (const RunJob &job : batch)
            runLabels_.push_back(jobLabel(job) + "_" + job.policy);
        mergeShards(prom, runLabels_);
    }
    return results;
}

void
ParallelRunner::forEach(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (jobs_ <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    ThreadPool pool(jobs_);
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&fn, i]() { fn(i); });
    pool.wait();
}

} // namespace sim

} // namespace profess
