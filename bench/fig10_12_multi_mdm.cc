/**
 * @file
 * Reproduces Figs. 10-12: multi-program evaluation of MDM vs PoM on
 * the quad-core system over the Table 10 workloads (Sec. 5.3).
 *
 *  - Fig. 10: max slowdown (unfairness) of MDM normalized to PoM
 *  - Fig. 11: weighted speedup of MDM normalized to PoM
 *  - Fig. 12: memory-system energy efficiency, MDM norm. to PoM
 *
 * Expected shapes: MDM outperforms PoM on average (paper: +7%) and
 * usually improves fairness (paper: -6% max slowdown) purely by
 * speeding programs up, but is *less* fair than PoM on some
 * workloads since it ignores individual slowdowns.
 */

#include "bench_util.hh"

using namespace profess;
using namespace profess::bench;

int
main(int argc, char **argv)
{
    BenchEnv env = benchEnv();
    header("Figs. 10-12: multi-program MDM vs PoM",
           "Figures 10, 11, 12");

    sim::SystemConfig cfg = sim::SystemConfig::quadCore();
    cfg.core.instrQuota = env.multiInstr;
    cfg.core.warmupInstr = env.warmupInstr;
    sim::ParallelRunner runner = makeRunner(argc, argv);

    std::vector<sim::RunJob> jobs;
    for (const sim::WorkloadSpec *w : env.workloads) {
        jobs.push_back(sim::multiJob(cfg, "pom", *w));
        jobs.push_back(sim::multiJob(cfg, "mdm", *w));
    }
    std::vector<sim::MultiMetrics> res = runner.run(jobs);

    std::printf("\n%-5s %12s %12s %12s %10s %10s\n", "wl",
                "maxSdn(norm)", "ws(norm)", "eff(norm)", "sdn.mdm",
                "ws.mdm");
    RatioSeries sdn, ws, eff;
    for (std::size_t i = 0; i < env.workloads.size(); ++i) {
        const sim::MultiMetrics &pom = res[2 * i];
        const sim::MultiMetrics &mdm = res[2 * i + 1];
        double r_sdn = mdm.maxSlowdown / pom.maxSlowdown;
        double r_ws = mdm.weightedSpeedup / pom.weightedSpeedup;
        double r_eff = mdm.efficiency / pom.efficiency;
        sdn.add(r_sdn);
        ws.add(r_ws);
        eff.add(r_eff);
        std::printf("%-5s %12.3f %12.3f %12.3f %10.2f %10.3f\n",
                    env.workloads[i]->name, r_sdn, r_ws, r_eff,
                    mdm.maxSlowdown, mdm.weightedSpeedup);
    }

    std::printf("\nFig. 10 max-slowdown ratio MDM/PoM: gmean %.3f "
                "(%s; paper avg -6%%), best %.3f\n",
                sdn.gmean(), sim::percentDelta(sdn.gmean()).c_str(),
                sdn.min());
    std::printf("Fig. 11 weighted-speedup ratio:      gmean %.3f "
                "(%s; paper avg +7%%), best %.3f\n",
                ws.gmean(), sim::percentDelta(ws.gmean()).c_str(),
                ws.max());
    std::printf("Fig. 12 energy-efficiency ratio:     gmean %.3f "
                "(%s; paper avg +7%%), best %.3f\n",
                eff.gmean(), sim::percentDelta(eff.gmean()).c_str(),
                eff.max());
    return 0;
}
