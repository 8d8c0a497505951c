/**
 * @file
 * Crash-safe sweep CLI over sim::SweepDriver (DESIGN.md Sec. 4i).
 *
 *   profess_sweep --spec FILE --out DIR [--jobs N] [--max-runs K]
 *                 [--fresh] [--dry-run] [--no-progress]
 *
 * Expands the declarative spec (see src/sim/sweep.hh for the
 * format), runs the grid over the parallel runner, and journals
 * each completed run to DIR/sweep.journal (one key=value record per
 * run).  Each run's exposition lands as a shard under
 * DIR/metrics.prom.shards/ as it finishes.  A killed sweep
 * resumes by re-invoking the same command line: journaled runs are
 * skipped, and the finalized outputs (journal + merged
 * DIR/metrics.prom) are byte-identical to an uninterrupted sweep
 * at any --jobs N.
 *
 * The shared --trace, --telemetry-out DIR, --epoch-ticks N and
 * --scenario FILE flags (sim::RunOptions) apply to every run;
 * --metrics-out is fatal, since the exposition is DIR/metrics.prom.
 *
 * Exit status: 0 when the sweep finalized, 75 (EX_TEMPFAIL) when
 * preempted by --max-runs (re-run to resume), 1 on usage errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/key_value.hh"
#include "common/logging.hh"
#include "sim/parallel_runner.hh"
#include "sim/sweep.hh"

using namespace profess;

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --spec FILE --out DIR [--jobs N] "
                 "[--max-runs K] [--fresh] [--dry-run] "
                 "[--no-progress]\n",
                 argv0);
    std::exit(1);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    logging::configure(argc, argv);
    sim::RunOptions run_options = sim::RunOptions::fromArgs(argc, argv);

    std::string spec_path;
    sim::SweepDriver::Options opts;
    opts.jobs = sim::ParallelRunner::jobsFromArgs(argc, argv);
    opts.progress = true;
    bool dry_run = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--spec") {
            spec_path = value();
        } else if (arg == "--out") {
            opts.outDir = value();
        } else if (arg == "--max-runs") {
            opts.maxRuns = valueAs<std::size_t>(
                KeyValue{arg, value(), "command line"});
        } else if (arg == "--fresh") {
            opts.fresh = true;
        } else if (arg == "--dry-run") {
            dry_run = true;
        } else if (arg == "--no-progress") {
            opts.progress = false;
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n",
                         arg.c_str());
            usage(argv[0]);
        }
    }
    if (spec_path.empty() || opts.outDir.empty())
        usage(argv[0]);

    sim::SweepSpec spec = sim::SweepSpec::fromFile(spec_path);
    std::printf("sweep %s: %zu runs (%zu point%s x %zu mix%s x "
                "%zu polic%s x %zu seed%s), spec %016llx\n",
                spec_path.c_str(), spec.numRuns(),
                spec.numSweepPoints(),
                spec.numSweepPoints() == 1 ? "" : "s",
                spec.mixes.size(),
                spec.mixes.size() == 1 ? "" : "es",
                spec.policies.size(),
                spec.policies.size() == 1 ? "y" : "ies",
                spec.seeds.size(), spec.seeds.size() == 1 ? "" : "s",
                static_cast<unsigned long long>(spec.fingerprint()));

    if (dry_run) {
        std::vector<sim::RunJob> jobs = spec.expand();
        std::printf("%-5s %-24s %-10s %-6s %s\n", "idx", "label",
                    "policy", "sweep", "programs");
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            std::printf("%-5zu %-24s %-10s %-6llu %s\n", i,
                        jobs[i].label.c_str(),
                        jobs[i].policy.c_str(),
                        static_cast<unsigned long long>(
                            jobs[i].sweepPoint),
                        sim::joinPrograms(jobs[i].programs).c_str());
        }
        return 0;
    }

    sim::SweepDriver driver(spec, opts, std::move(run_options));
    bool finalized = driver.run();

    std::printf("\n%-5s %-24s %-10s %-9s %-9s %-9s %s\n", "idx",
                "label", "policy", "wspeedup", "maxslow", "eff",
                "state");
    const std::vector<sim::SweepRunRecord> &recs = driver.records();
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const sim::SweepRunRecord &r = recs[i];
        if (r.key.empty()) {
            std::printf("%-5zu (pending)\n", i);
            continue;
        }
        std::printf("%-5zu %-24s %-10s %-9.4f %-9.4f %-9.3f %s\n",
                    i, r.label.c_str(), r.policy.c_str(),
                    r.weightedSpeedup, r.maxSlowdown, r.efficiency,
                    r.completed ? "ok" : "incomplete");
    }
    std::printf("\n%zu/%zu runs journaled (%zu resumed, %zu "
                "executed here)%s\n",
                driver.resumedRuns() + driver.executedRuns(),
                driver.totalRuns(), driver.resumedRuns(),
                driver.executedRuns(),
                finalized ? "; sweep finalized"
                          : "; re-run to resume");
    if (!finalized)
        return 75; // EX_TEMPFAIL: partial, resumable
    std::printf("journal:  %s\nmetrics:  %s\n",
                driver.journalPath().c_str(),
                driver.metricsPath().c_str());
    return 0;
}
