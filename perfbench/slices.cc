#include "slices.hh"

#include <bit>
#include <chrono>
#include <cstdio>

#include "common/rng.hh"
#include "common/stats.hh"
#include "layers.hh"
#include "sim/metrics.hh"
#include "trace/spec_profiles.hh"

namespace perfbench
{

using namespace profess;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Run sizes: the figure binaries' defaults (bench/bench_util.hh
// BenchEnv), pinned here so the benchmark's work never follows the
// environment.
constexpr std::uint64_t singleInstr = 3'000'000;
constexpr std::uint64_t multiInstr = 2'000'000;
constexpr std::uint64_t warmupInstr = 1'000'000;

sim::SystemConfig
quadCore()
{
    sim::SystemConfig cfg = sim::SystemConfig::quadCore();
    cfg.core.instrQuota = multiInstr;
    cfg.core.warmupInstr = warmupInstr;
    return cfg;
}

sim::SystemConfig
singleCore()
{
    sim::SystemConfig cfg = sim::SystemConfig::singleCore();
    cfg.core.instrQuota = singleInstr;
    cfg.core.warmupInstr = warmupInstr;
    return cfg;
}

std::vector<JobSpec>
mixJobs(const std::vector<std::string> &mixes,
        const std::vector<std::string> &policies, bool with_slowdowns)
{
    std::vector<JobSpec> jobs;
    for (const std::string &mix : mixes) {
        const sim::WorkloadSpec *w = sim::findWorkload(mix);
        for (const std::string &policy : policies) {
            jobs.push_back(JobSpec{mix, policy,
                                   {w->programs.begin(),
                                    w->programs.end()},
                                   with_slowdowns});
        }
    }
    return jobs;
}

std::vector<JobSpec>
singleJobs(const std::vector<std::string> &programs,
           const std::vector<std::string> &policies)
{
    std::vector<JobSpec> jobs;
    for (const std::string &prog : programs) {
        for (const std::string &policy : policies)
            jobs.push_back(JobSpec{prog, policy, {prog}, false});
    }
    return jobs;
}

std::uint64_t
fold(std::uint64_t h, double v)
{
    return hashCombine(h, std::bit_cast<std::uint64_t>(v));
}

/** Fold every simulated output of one System into a digest. */
std::uint64_t
systemDigest(const sim::System &sys, const sim::RunResult &r)
{
    std::uint64_t h = hashCombine(mix64(0xd16e57u), r.completed ? 1 : 0);
    for (std::size_t i = 0; i < r.ipc.size(); ++i) {
        h = fold(h, r.ipc[i]);
        h = hashCombine(h, r.served[i]);
        h = hashCombine(h, r.servedM1[i]);
    }
    h = hashCombine(h, r.swaps);
    h = fold(h, r.stcHitRate);
    h = fold(h, r.seconds);
    h = fold(h, r.joules);
    h = fold(h, r.meanReadLatencyNs);
    for (unsigned c = 0; c < sys.memory().numChannels(); ++c) {
        for (const auto &[name, v] :
             sys.memory().channel(c).stats().counters())
            h = hashCombine(hashCombine(h, name), v);
    }
    return h;
}

/**
 * Build and run one System; the result extraction mirrors
 * sim::ExperimentRunner::run.
 */
sim::RunResult
runSystem(const sim::SystemConfig &cfg, const std::string &policy,
          const std::vector<std::string> &programs,
          std::uint64_t seed_base, RepCost &cost, LayerProbe *probe,
          std::uint64_t &digest)
{
    auto t_setup = Clock::now();
    std::vector<std::unique_ptr<trace::TraceSource>> sources;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        sources.push_back(trace::makeSpecSource(
            programs[i], trace::defaultScale, seed_base + 1009 * (i + 1)));
    }
    if (probe != nullptr)
        probe->wrap(sources);
    sim::System sys(cfg, policy, std::move(sources));
    cost.setupS += secondsSince(t_setup);

    if (probe != nullptr)
        probe->attach(sys);
    auto t_run = Clock::now();
    sim::RunResult r;
    r.policy = policy;
    r.programs = programs;
    r.completed = sys.run();
    double run_s = secondsSince(t_run);
    cost.runS += run_s;
    sys.eventQueue().auditInvariants();
    for (unsigned i = 0; i < sys.numCores(); ++i)
        cost.accesses += sys.core(i).memReads() + sys.core(i).memWrites();
    if (probe != nullptr)
        probe->collect(sys, run_s * 1e9);

    std::uint64_t served_m1_total = 0;
    for (unsigned i = 0; i < sys.numPrograms(); ++i) {
        r.ipc.push_back(sys.core(i).quotaReached() ? sys.core(i).ipcAtQuota()
                                                   : 0.0);
        const auto &ps =
            sys.controller().programStats(static_cast<ProgramId>(i));
        r.served.push_back(ps.served);
        r.servedM1.push_back(ps.servedFromM1);
        served_m1_total += ps.servedFromM1;
    }
    r.seconds = sys.measuredSeconds();
    r.joules = sys.memory().totalJoules(r.seconds);
    r.watts = sys.memory().averageWatts(r.seconds);
    r.servedTotal = sys.controller().servedTotal();
    r.swaps = sys.controller().swapCount();
    r.stcHitRate = sys.controller().stcHitRate();
    r.meanReadLatencyNs =
        sys.memory().meanReadLatency() / mem::mcCyclesPerNs;
    if (r.servedTotal > 0) {
        r.m1Fraction = static_cast<double>(served_m1_total) /
                       static_cast<double>(r.servedTotal);
        r.swapFraction = static_cast<double>(r.swaps) /
                         static_cast<double>(r.servedTotal);
    }
    digest = systemDigest(sys, r);
    return r;
}

} // anonymous namespace

const Slice *
findSlice(const std::string &name)
{
    static const std::vector<Slice> table = {
        {"fig13_slice", quadCore(),
         mixJobs({"w01", "w09"}, {"pom", "profess"}, true)},
        {"fig5_slice", singleCore(),
         singleJobs({"zeusmp", "leslie3d", "omnetpp", "libquantum"},
                    {"pom", "mdm"})},
        {"quad_write", quadCore(),
         mixJobs({"w03"}, {"pom", "profess"}, false)},
    };
    for (const Slice &s : table) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

std::vector<JobResult>
runSlice(const Slice &slice, std::uint64_t seed, RepCost &cost,
         LayerProbe *probe)
{
    sim::AloneIpcCache alone;
    std::vector<JobResult> results;
    for (const JobSpec &job : slice.jobs) {
        JobResult jr;
        jr.name = job.name();
        sim::MultiMetrics &m = jr.metrics;
        m.run = runSystem(slice.cfg, job.policy, job.programs,
                          sim::deriveSeed(seed, job.policy, job.label),
                          cost, probe, jr.digest);
        jr.completed = m.run.completed;
        if (job.slowdowns) {
            for (const std::string &p : job.programs) {
                std::string key = job.policy + "/" + p;
                m.aloneIpc.push_back(alone.getOrCompute(key, [&]() {
                    std::uint64_t ignored = 0;
                    sim::RunResult r = runSystem(slice.cfg, job.policy,
                                                 {p}, seed, cost, probe,
                                                 ignored);
                    return r.completed ? r.ipc[0] : 0.0;
                }));
                jr.completed = jr.completed && m.aloneIpc.back() > 0.0;
            }
        }
        if (job.slowdowns && jr.completed) {
            m.slowdown = sim::slowdowns(m.aloneIpc, m.run.ipc);
            m.weightedSpeedup = sim::weightedSpeedup(m.slowdown);
            m.maxSlowdown = sim::unfairness(m.slowdown);
            m.efficiency =
                sim::energyEfficiency(m.run.servedTotal, m.run.joules);
            for (double v : m.aloneIpc)
                jr.digest = fold(jr.digest, v);
            jr.digest = fold(jr.digest, m.weightedSpeedup);
            jr.digest = fold(jr.digest, m.maxSlowdown);
            jr.digest = fold(jr.digest, m.efficiency);
        }
        results.push_back(std::move(jr));
    }
    cost.aloneRuns = alone.size();
    return results;
}

std::vector<std::pair<std::string, double>>
headline(const Slice &slice, const std::vector<JobResult> &results)
{
    std::vector<std::pair<std::string, double>> out;
    std::vector<double> sdn, ws, eff, ipc;
    // Jobs come in (baseline, contender) pairs per mix or program.
    for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
        const sim::MultiMetrics &base = results[i].metrics;
        const sim::MultiMetrics &cont = results[i + 1].metrics;
        const std::string &label = slice.jobs[i].label;
        if (slice.jobs[i].slowdowns) {
            sdn.push_back(cont.maxSlowdown / base.maxSlowdown);
            ws.push_back(cont.weightedSpeedup / base.weightedSpeedup);
            eff.push_back(cont.efficiency / base.efficiency);
            out.emplace_back(label + ".max_slowdown_ratio", sdn.back());
            out.emplace_back(label + ".ws_ratio", ws.back());
            out.emplace_back(label + ".efficiency_ratio", eff.back());
        } else {
            double sum_base = 0.0;
            double sum_cont = 0.0;
            for (double v : base.run.ipc)
                sum_base += v;
            for (double v : cont.run.ipc)
                sum_cont += v;
            ipc.push_back(sum_cont / sum_base);
            out.emplace_back(label + ".ipc_ratio", ipc.back());
        }
    }
    if (!sdn.empty()) {
        out.emplace_back("fig13.max_slowdown_gmean", geometricMean(sdn));
        out.emplace_back("fig14.ws_gmean", geometricMean(ws));
        out.emplace_back("fig15.efficiency_gmean", geometricMean(eff));
    }
    if (!ipc.empty())
        out.emplace_back("ipc_ratio_gmean", geometricMean(ipc));
    return out;
}

} // namespace perfbench
