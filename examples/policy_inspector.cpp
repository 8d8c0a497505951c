/**
 * @file
 * Policy inspector: runs one program (or a workload) and dumps the
 * internal state of the active migration policy - MDM's learned
 * expectation tables and decision-path histogram and RSM's slowdown
 * factors and Table 7 case counts for every policy that has them
 * (MigrationPolicy::mdm(), rsm(), guidance()), PoM's active
 * threshold.
 * Demonstrates the introspection surface of the public API.
 *
 * Usage: policy_inspector [program=<name>|workload=<wNN>]
 *                         [policy=<name>] [<knob>=<value>]...
 * where <name> is any built-in policy (sim::policyNames(); default
 * mdm) and <knob> is any SystemConfig knob (forEachKnob in
 * sim/system.hh), e.g. instr=<n> (default 4M).
 */

#include <cstdio>

#include "common/key_value.hh"
#include "core/profess.hh"
#include "policy/pom.hh"
#include "sim/experiment.hh"

using namespace profess;

namespace
{

void
dumpMdm(const core::Mdm &mdm, unsigned num_programs)
{
    std::printf("\nMDM decision paths:\n");
    using P = core::Mdm::DecidePath;
    const char *names[] = {"no-benefit", "vacant-M1", "idle-M1",
                           "depleted-M1", "net-benefit", "rejected"};
    for (unsigned i = 0;
         i < static_cast<unsigned>(P::NumPaths); ++i) {
        std::printf("  %-12s: %llu\n", names[i],
                    static_cast<unsigned long long>(
                        mdm.pathCount(static_cast<P>(i))));
    }
    std::printf("\nMDM expectation tables (per program):\n");
    for (unsigned p = 0; p < num_programs; ++p) {
        std::printf("  prog %u: updates=%llu exp_cnt(qI)= ", p,
                    static_cast<unsigned long long>(
                        mdm.updates(static_cast<ProgramId>(p))));
        for (unsigned q = 0; q < core::numQacValues; ++q) {
            std::printf("%.1f ",
                        mdm.expCnt(static_cast<ProgramId>(p),
                                   static_cast<std::uint8_t>(q)));
        }
        std::printf(" avg_cnt(qE)= ");
        for (unsigned q = 1; q < core::numQacValues; ++q) {
            std::printf("%.1f ",
                        mdm.avgCnt(static_cast<ProgramId>(p),
                                   static_cast<std::uint8_t>(q)));
        }
        std::printf("\n");
    }
}

void
dumpRsm(const core::Rsm &rsm, unsigned num_programs)
{
    std::printf("\nRSM slowdown factors:\n");
    for (unsigned p = 0; p < num_programs; ++p) {
        auto id = static_cast<ProgramId>(p);
        std::printf("  prog %u: SF_A=%.3f SF_B=%.3f periods=%llu\n",
                    p, rsm.sfA(id), rsm.sfB(id),
                    static_cast<unsigned long long>(rsm.periods(id)));
    }
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string policy = "mdm";
    std::string program = "soplex";
    std::string wl;
    std::vector<KeyValue> knobs;
    for (const KeyValue &kv : keyValueArgs(argc, argv)) {
        if (kv.key == "policy")
            policy = kv.value;
        else if (kv.key == "program")
            program = kv.value;
        else if (kv.key == "workload")
            wl = kv.value;
        else
            knobs.push_back(kv);
    }

    std::vector<std::string> programs;
    sim::SystemConfig sys;
    if (!wl.empty()) {
        const sim::WorkloadSpec *w = sim::findWorkload(wl);
        fatal_if(w == nullptr, "unknown workload '%s'", wl.c_str());
        programs.assign(w->programs.begin(), w->programs.end());
        sys = sim::SystemConfig::quadCore();
    } else {
        programs.push_back(program);
        sys = sim::SystemConfig::singleCore();
    }
    sys.core.instrQuota = 4'000'000;
    for (const KeyValue &kv : knobs)
        sim::applyKnob(sys, kv);

    std::vector<std::unique_ptr<trace::TraceSource>> sources;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        sources.push_back(trace::makeSpecSource(
            programs[i], trace::defaultScale, 1 + 1009 * (i + 1)));
    }
    sim::System system(sys, policy, std::move(sources));
    system.run();

    std::printf("=== %s ===\n", policy.c_str());
    for (unsigned i = 0; i < system.numPrograms(); ++i) {
        const auto &ps =
            system.controller().programStats(static_cast<ProgramId>(i));
        std::printf("  %-10s ipc=%.3f served=%llu fromM1=%.1f%%\n",
                    programs[i].c_str(),
                    system.core(i).quotaReached()
                        ? system.core(i).ipcAtQuota()
                        : 0.0,
                    static_cast<unsigned long long>(ps.served),
                    ps.served
                        ? 100.0 * static_cast<double>(ps.servedFromM1) /
                              static_cast<double>(ps.served)
                        : 0.0);
    }
    std::printf("  swaps=%llu stcHit=%.1f%%\n",
                static_cast<unsigned long long>(
                    system.controller().swapCount()),
                100.0 * system.controller().stcHitRate());

    policy::MigrationPolicy &pol = system.policy();
    if (const core::Mdm *mdm = pol.mdm())
        dumpMdm(*mdm, system.numPrograms());
    if (const core::Rsm *rsm = pol.rsm())
        dumpRsm(*rsm, system.numPrograms());
    if (const core::Guidance *g = pol.guidance()) {
        using GC = core::GuidanceCase;
        std::printf("\nTable 7 case counts: same=%llu c1=%llu "
                    "c2=%llu c3=%llu default=%llu\n",
                    static_cast<unsigned long long>(
                        g->count(GC::SameProgram)),
                    static_cast<unsigned long long>(
                        g->count(GC::Case1)),
                    static_cast<unsigned long long>(
                        g->count(GC::Case2)),
                    static_cast<unsigned long long>(
                        g->count(GC::Case3)),
                    static_cast<unsigned long long>(
                        g->count(GC::Default)));
    } else if (auto *pom = dynamic_cast<policy::PomPolicy *>(&pol)) {
        std::printf("\nPoM active threshold: %u (adaptations %llu)\n",
                    pom->activeThreshold(),
                    static_cast<unsigned long long>(
                        pom->adaptations()));
    }
    return 0;
}
