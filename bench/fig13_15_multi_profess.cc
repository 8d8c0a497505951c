/**
 * @file
 * Reproduces Figs. 13-15, the paper's headline result: ProFess
 * (MDM + RSM) vs PoM over the Table 10 workloads (Sec. 5.4).
 *
 *  - Fig. 13: max slowdown (unfairness), ProFess norm. to PoM
 *  - Fig. 14: weighted speedup, ProFess norm. to PoM
 *  - Fig. 15: energy efficiency, ProFess norm. to PoM
 *
 * Expected shapes: ProFess improves fairness (paper avg 15%, up to
 * 29%) and performance (paper avg 12%, up to 29%) at the same time,
 * and reduces the fraction of swaps (paper avg 24%).
 */

#include "bench_util.hh"

using namespace profess;
using namespace profess::bench;

int
main(int argc, char **argv)
{
    BenchEnv env = benchEnv();
    header("Figs. 13-15: ProFess vs PoM", "Figures 13, 14, 15");

    sim::SystemConfig cfg = sim::SystemConfig::quadCore();
    cfg.core.instrQuota = env.multiInstr;
    cfg.core.warmupInstr = env.warmupInstr;
    sim::ParallelRunner runner = makeRunner(argc, argv);

    std::vector<sim::RunJob> jobs;
    std::vector<std::string> names;
    for (const std::string &wname : env.workloads) {
        const sim::WorkloadSpec *w = sim::findWorkload(wname);
        if (!w)
            continue;
        names.push_back(wname);
        jobs.push_back(sim::multiJob(cfg, "pom", *w));
        jobs.push_back(sim::multiJob(cfg, "profess", *w));
    }
    std::vector<sim::MultiMetrics> res = runner.run(jobs);

    std::printf("\n%-5s %12s %12s %12s %11s\n", "wl",
                "maxSdn(norm)", "ws(norm)", "eff(norm)",
                "swapFr(norm)");
    RatioSeries sdn, ws, eff, swaps;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const sim::MultiMetrics &pom = res[2 * i];
        const sim::MultiMetrics &pf = res[2 * i + 1];
        double r_sdn = pf.maxSlowdown / pom.maxSlowdown;
        double r_ws = pf.weightedSpeedup / pom.weightedSpeedup;
        double r_eff = pf.efficiency / pom.efficiency;
        double r_swap = pom.run.swapFraction > 0
                            ? pf.run.swapFraction /
                                  pom.run.swapFraction
                            : 1.0;
        sdn.add(r_sdn);
        ws.add(r_ws);
        eff.add(r_eff);
        swaps.add(r_swap);
        std::printf("%-5s %12.3f %12.3f %12.3f %11.3f\n",
                    names[i].c_str(), r_sdn, r_ws, r_eff, r_swap);
    }

    std::printf("\nFig. 13 max-slowdown ProFess/PoM: gmean %.3f "
                "(%s; paper avg -15%%, best -29%%), best %.3f\n",
                sdn.gmean(), sim::percentDelta(sdn.gmean()).c_str(),
                sdn.min());
    std::printf("Fig. 14 weighted-speedup ratio:   gmean %.3f "
                "(%s; paper avg +12%%, best +29%%), best %.3f\n",
                ws.gmean(), sim::percentDelta(ws.gmean()).c_str(),
                ws.max());
    std::printf("Fig. 15 energy-efficiency ratio:  gmean %.3f "
                "(%s; paper avg +11%%, best +30%%), best %.3f\n",
                eff.gmean(), sim::percentDelta(eff.gmean()).c_str(),
                eff.max());
    // ProFess can make no swap at all in a short window; a zero
    // ratio has no logarithm, so the gmean is left out then.
    std::size_t no_swaps = 0;
    for (double r : swaps.values())
        no_swaps += r == 0.0;
    if (no_swaps == 0) {
        std::printf("Swap-fraction ratio:              gmean %.3f "
                    "(paper avg -24%%, best -54%%)\n",
                    swaps.gmean());
    } else {
        std::printf("Swap-fraction ratio:              no gmean: "
                    "ProFess made no swaps in %zu of %zu workloads "
                    "(paper avg -24%%, best -54%%)\n",
                    no_swaps, swaps.values().size());
    }
    return 0;
}
