#include "sim/parallel_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include <unistd.h>

#include "common/key_value.hh"
#include "common/logging.hh"

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

/** @return the job's mix label: its label, or the '+'-joined
 *  program list when it has none. */
std::string
mixLabel(const RunJob &job)
{
    return job.label.empty() ? joinPrograms(job.programs) : job.label;
}

} // anonymous namespace

std::uint64_t
jobSeed(const RunJob &job)
{
    return job.seed != 0
               ? job.seed
               : deriveSeed(job.baseSeed, job.policy, mixLabel(job));
}

std::string
jobLabel(const RunJob &job)
{
    // Distinguish seeds and sweep points sharing a mix.
    std::string label = mixLabel(job);
    if (job.seedInLabel)
        label += "_r" + std::to_string(job.baseSeed);
    if (job.sweepPoint != 0)
        label += "_s" + std::to_string(job.sweepPoint);
    return label;
}

std::string
jobKey(const RunJob &job)
{
    return runIdentityKey(job.cfg, job.footprintScale, jobLabel(job),
                          job.policy, job.programs, jobSeed(job));
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
    : jobs_(jobs == 0 ? defaultJobs() : jobs),
      options_(std::move(options)), progress_(progressDefault())
{
}

unsigned
ParallelRunner::defaultJobs()
{
    return std::max(1u, std::thread::hardware_concurrency());
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
        if (!kv) {
            argv[out++] = argv[i];
            continue;
        }
        jobs = valueAs<unsigned>(*kv);
        fatal_if(*jobs == 0, "%s: '%s' must be at least 1",
                 kv->where.c_str(), kv->key.c_str());
    }
    argc = out;
    argv[argc] = nullptr;
    return jobs ? *jobs : defaultJobs();
}

MultiMetrics
ParallelRunner::runOne(const RunJob &job)
{
    ExperimentRunner runner(job.cfg, options_, job.footprintScale, &cache_);
    RunResult r =
        runner.run(job.policy, job.programs, jobSeed(job), jobLabel(job));
    if (job.slowdowns)
        return runner.withSlowdowns(std::move(r));
    MultiMetrics m;
    m.run = std::move(r);
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
        std::fprintf(stderr, "[profess %zu/%zu] %s/%s done in %.2fs\n",
                     k, total, jobLabel(job).c_str(), job.policy.c_str(),
                     secs);
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
            runLabels_.push_back(runLabel(jobLabel(job), job.policy));
        mergeShards(prom, runLabels_);
    }
    return results;
}

void
ParallelRunner::forEach(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    std::mutex error_mu;
    std::exception_ptr error;
    auto work = [&]() {
        try {
            for (std::size_t i = next++; i < n; i = next++)
                fn(i);
        } catch (...) {
            // Hand out no more indices; the caller rethrows the
            // first failure once every thread has joined.
            next = n;
            std::lock_guard<std::mutex> lk(error_mu);
            if (!error)
                error = std::current_exception();
        }
    };
    {
        std::vector<std::jthread> helpers;
        for (std::size_t t = 1; t < std::min<std::size_t>(jobs_, n); ++t)
            helpers.emplace_back(work);
        work();
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace sim

} // namespace profess
