/**
 * @file
 * Writing a custom migration policy against the public API.
 *
 * Implements "EagerReuse", a ~20-line policy a downstream user might
 * prototype: promote an M2 block once its STC access counter shows
 * at least `k` accesses in the current residency AND the incumbent
 * has seen fewer - a middle ground between CAMEO's threshold-1 and
 * MDM's learned predictions.  sim::System builds it through a
 * policy factory (sim::PolicyFactory), so it runs under the same
 * knobs, warm-up and measurement window as the three built-ins it
 * races on the same trace.
 *
 * Usage: custom_policy [program=soplex] [k=4] [<knob>=<value>]...
 * where <knob> is any SystemConfig knob (forEachKnob in
 * sim/system.hh), e.g. instr=<n> (default 2M) and warmup=<n>
 * (default 1M).
 */

#include <cstdio>

#include "common/key_value.hh"
#include "policy/policy.hh"
#include "sim/system.hh"
#include "trace/spec_profiles.hh"

using namespace profess;

namespace
{

/** The custom policy: residency-count race with the incumbent. */
class EagerReusePolicy : public policy::MigrationPolicy
{
  public:
    explicit EagerReusePolicy(unsigned k) : k_(k) {}

    const char *name() const override { return "eager-reuse"; }
    unsigned writeWeight() const override { return 8; }

    policy::Decision
    onM2Access(const policy::AccessInfo &info) override
    {
        const hybrid::StcMeta &m = *info.meta;
        unsigned mine = m.ac[info.slot];
        unsigned incumbent = m.ac[info.m1Slot];
        if (mine >= k_ && mine > incumbent)
            return policy::Decision::Swap;
        return policy::Decision::NoSwap;
    }

  private:
    unsigned k_;
};

/** Run `program` alone under the policy `make` builds; print a row. */
void
runRow(const sim::SystemConfig &cfg, const sim::PolicyFactory &make,
       const std::string &program)
{
    // Every row replays the same trace (ExperimentRunner's seed for
    // a stand-alone run).
    std::vector<std::unique_ptr<trace::TraceSource>> sources;
    sources.push_back(
        trace::makeSpecSource(program, trace::defaultScale, 1 + 1009));
    sim::System sys(cfg, make, std::move(sources));
    sys.run();

    // Controller statistics cover the measurement window only.
    const hybrid::HybridController &hc = sys.controller();
    std::uint64_t served = hc.servedTotal();
    std::uint64_t swaps = hc.swapCount();
    auto pct = [served](std::uint64_t n) {
        return served ? 100.0 * static_cast<double>(n) /
                            static_cast<double>(served)
                      : 0.0;
    };
    std::printf("%-12s %8.3f %7.1f%% %8llu %8.2f%%\n",
                sys.policy().name(),
                sys.core(0).quotaReached() ? sys.core(0).ipcAtQuota()
                                           : 0.0,
                pct(hc.programStats(0).servedFromM1),
                static_cast<unsigned long long>(swaps), pct(swaps));
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string program = "soplex";
    unsigned k = 4;
    sim::SystemConfig sys = sim::SystemConfig::singleCore();
    sys.core.instrQuota = 2'000'000;
    for (const KeyValue &kv : keyValueArgs(argc, argv)) {
        if (kv.key == "program")
            program = kv.value;
        else if (kv.key == "k")
            k = valueAs<unsigned>(kv);
        else
            sim::applyKnob(sys, kv);
    }

    std::printf("custom EagerReuse(k=%u) vs built-ins on %s\n\n", k,
                program.c_str());
    std::printf("%-12s %8s %8s %8s %9s\n", "policy", "IPC", "M1%",
                "swaps", "swapFrac");

    runRow(sys,
           [k](const sim::SystemConfig &, const hybrid::HybridLayout &,
               const os::PageAllocator &, unsigned) {
               return std::make_unique<EagerReusePolicy>(k);
           },
           program);
    for (const char *pol : {"cameo", "pom", "mdm"})
        runRow(sys, sim::findPolicy(pol), program);
    return 0;
}
