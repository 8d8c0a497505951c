/**
 * @file
 * Telemetry overhead driver: times the quick kernel matrix
 * (quick_matrix.hh) under the shared run options and prints the
 * matrix's total wall nanoseconds per served access on stdout, one
 * number; per-run figures go to stderr.
 *
 *   telemetry_overhead [--telemetry-out DIR [--trace]
 *                      [--epoch-ticks N]] [--metrics-out FILE]
 *
 * With no option telemetry is off.  The CI telemetry stage
 * (scripts/ci.sh) runs it three times bare and three times with
 * --trace --telemetry-out --metrics-out, interleaved, and bounds the
 * best "on" total against the best "off" one.  Only System::run()
 * is timed; --metrics-out FILE is merged from the runs' shards (each
 * run's own exposition) once every run finished.
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "quick_matrix.hh"
#include "sim/experiment.hh"
#include "sim/run_telemetry.hh"

using namespace profess;

int
main(int argc, char **argv)
{
    logging::configure(argc, argv);
    const sim::RunOptions options = sim::RunOptions::fromArgs(argc, argv);
    fatal_if(argc > 1, "unknown argument '%s'", argv[1]);
    fatal_if(options.scenario.loaded(),
             "telemetry_overhead runs no scenario; drop "
             "--scenario");
    const sim::TelemetryConfig &tc = options.telemetry;

    double total_ns = 0.0;
    std::uint64_t total_accesses = 0;
    std::vector<std::string> labels;
    for (const bench::QuickRun &r : bench::quickMatrix) {
        std::unique_ptr<sim::System> sys = r.build();
        std::unique_ptr<sim::RunTelemetry> telemetry;
        if (tc.enabled()) {
            telemetry =
                std::make_unique<sim::RunTelemetry>(tc, r.label());
            sys->attachTelemetry(*telemetry);
        }

        auto t0 = std::chrono::steady_clock::now();
        sys->run();
        auto t1 = std::chrono::steady_clock::now();

        if (telemetry != nullptr) {
            telemetry->finish(r.policy, r.name, r.seed(),
                              sim::configJson(r.config()), true);
        }
        const double ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count();
        const std::uint64_t accesses = sys->controller().servedTotal();
        total_ns += ns;
        total_accesses += accesses;
        std::fprintf(stderr, "[telemetry_overhead] %-20s %8.1f ns/access\n",
                     r.label().c_str(),
                     ns / static_cast<double>(accesses));
        labels.push_back(r.label());
    }

    if (!tc.metricsOut.empty())
        sim::mergeShards(tc.metricsOut, std::move(labels));
    std::printf("%.3f\n", total_ns / static_cast<double>(total_accesses));
    return 0;
}
