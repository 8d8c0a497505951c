/**
 * @file
 * Quickstart: build a single-core hybrid-memory system, run one
 * SPEC-like workload under ProFess, and print the headline
 * statistics.
 *
 * Usage: quickstart [program=<name>] [policy=<name>] [<knob>=<value>]...
 * where <knob> is any SystemConfig knob (forEachKnob in
 * sim/system.hh), e.g. instr=<n> (default 2M), min_benefit=<k>,
 * stats_fold_interval=<ticks>.
 */

#include <cstdio>

#include "common/key_value.hh"
#include "sim/experiment.hh"

using namespace profess;

int
main(int argc, char **argv)
{
    std::string program = "soplex";
    std::string policy = "profess";
    sim::SystemConfig sys = sim::SystemConfig::singleCore();
    sys.core.instrQuota = 2'000'000;
    for (const KeyValue &kv : keyValueArgs(argc, argv)) {
        if (kv.key == "program")
            program = kv.value;
        else if (kv.key == "policy")
            policy = kv.value;
        else
            sim::applyKnob(sys, kv);
    }

    sim::ExperimentRunner runner(sys);
    std::printf("running %s under %s for %llu instructions...\n",
                program.c_str(), policy.c_str(),
                static_cast<unsigned long long>(sys.core.instrQuota));
    sim::RunResult r = runner.run(policy, {program});

    std::printf("\n=== %s / %s ===\n", program.c_str(),
                policy.c_str());
    std::printf("  IPC                 : %.3f\n", r.ipc[0]);
    std::printf("  simulated time      : %.3f ms\n",
                r.seconds * 1e3);
    std::printf("  memory requests     : %llu\n",
                static_cast<unsigned long long>(r.servedTotal));
    std::printf("  served from M1      : %.1f%%\n",
                100.0 * r.m1Fraction);
    std::printf("  swaps               : %llu (%.2f%% of requests)\n",
                static_cast<unsigned long long>(r.swaps),
                100.0 * r.swapFraction);
    std::printf("  STC hit rate        : %.1f%%\n",
                100.0 * r.stcHitRate);
    std::printf("  mean read latency   : %.1f ns\n",
                r.meanReadLatencyNs);
    std::printf("  memory power        : %.3f W\n", r.watts);
    std::printf("  row hit rate        : %.1f%%\n",
                100.0 * r.rowHitRate);
    std::printf("  writes landing in M2: %.1f%%\n",
                100.0 * r.m2WriteFraction);
    std::printf("  energy efficiency   : %.3e req/s/W\n",
                sim::energyEfficiency(r.servedTotal, r.joules));
    return 0;
}
