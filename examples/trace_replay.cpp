/**
 * @file
 * Trace record & replay: deterministic experiment pipelines.
 *
 * 1. Records soplex's main-memory access stream - the post-L3
 *    stream trace::makeSpecSource generates for every figure - to a
 *    file.
 * 2. Replays the file through the full system twice under two
 *    policies, demonstrating bit-identical inputs for comparisons
 *    (this is how externally captured traces - e.g. converted Pin
 *    traces - plug into the framework).
 *
 * Usage: trace_replay [accesses=200000] [file=/tmp/profess.trace]
 *                     [<knob>=<value>]...
 * where <knob> is any SystemConfig knob of the replay system
 * (forEachKnob in sim/system.hh), e.g. instr=<n> (default 500k) and
 * warmup=<n> (default 100k).
 */

#include <cstdio>

#include "common/key_value.hh"
#include "sim/system.hh"
#include "trace/spec_profiles.hh"
#include "trace/trace_file.hh"

using namespace profess;

int
main(int argc, char **argv)
{
    std::uint64_t accesses = 200'000;
    std::string path = "/tmp/profess.trace";
    sim::SystemConfig sys = sim::SystemConfig::singleCore();
    sys.core.instrQuota = 500'000;
    sys.core.warmupInstr = 100'000;
    for (const KeyValue &kv : keyValueArgs(argc, argv)) {
        if (kv.key == "accesses")
            accesses = valueAs<std::uint64_t>(kv);
        else if (kv.key == "file")
            path = kv.value;
        else
            sim::applyKnob(sys, kv);
    }

    // 1. Record soplex's main-memory stream.
    auto source =
        trace::makeSpecSource("soplex", trace::defaultScale, 42);
    std::uint64_t written =
        trace::recordTrace(*source, accesses, path);
    std::printf("recorded %llu main-memory accesses of soplex to %s\n",
                static_cast<unsigned long long>(written), path.c_str());

    // 2. Replay the identical stream under two policies.
    std::printf("\nreplaying under pom and profess:\n");
    for (const char *pol : {"pom", "profess"}) {
        std::vector<std::unique_ptr<trace::TraceSource>> sources;
        sources.push_back(
            std::make_unique<trace::FileTraceSource>(path));
        sim::System system(sys, pol, std::move(sources));
        bool ok = system.run();
        std::printf("  %-8s IPC %.3f  fromM1 %5.1f%%  swaps %llu  "
                    "(%s)\n",
                    pol,
                    system.core(0).quotaReached()
                        ? system.core(0).ipcAtQuota()
                        : 0.0,
                    100.0 *
                        static_cast<double>(
                            system.controller()
                                .programStats(0)
                                .servedFromM1) /
                        static_cast<double>(
                            system.controller()
                                .programStats(0)
                                .served),
                    static_cast<unsigned long long>(
                        system.controller().swapCount()),
                    ok ? "completed" : "incomplete");
    }
    return 0;
}
