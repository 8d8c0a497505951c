/**
 * @file
 * Extension (paper Sec. 6): RSM is policy-agnostic and "can be
 * integrated with other migration algorithms instead of MDM".
 * This ablation wraps RSM's Table 7 guidance around PoM and
 * compares plain PoM, RSM-guided PoM, and full ProFess on a subset
 * of the Table 10 workloads.
 *
 * Expected shape: rsm-pom improves PoM's fairness on workloads with
 * a dominant sufferer, while ProFess (with MDM underneath) remains
 * the strongest overall.
 */

#include "bench_util.hh"

using namespace profess;
using namespace profess::bench;

int
main(int argc, char **argv)
{
    BenchEnv env = benchEnv();
    header("Ablation: RSM guidance around PoM (paper Sec. 6)",
           "Sec. 6 (RSM portability)");

    sim::SystemConfig cfg = sim::SystemConfig::quadCore();
    cfg.core.instrQuota = env.multiInstr;
    cfg.core.warmupInstr = env.warmupInstr;
    sim::ParallelRunner runner = makeRunner(argc, argv);

    std::vector<const sim::WorkloadSpec *> wls = env.workloads;
    wls.resize(std::min<std::size_t>(wls.size(), 8));
    std::vector<sim::RunJob> jobs;
    for (const sim::WorkloadSpec *w : wls) {
        jobs.push_back(sim::multiJob(cfg, "pom", *w));
        jobs.push_back(sim::multiJob(cfg, "rsm-pom", *w));
        jobs.push_back(sim::multiJob(cfg, "profess", *w));
    }
    std::vector<sim::MultiMetrics> res = runner.run(jobs);

    std::printf("\n%-5s | %9s %9s | %9s %9s | %9s %9s\n", "wl",
                "pom.sdn", "pom.ws", "rsm.sdn", "rsm.ws",
                "pf.sdn", "pf.ws");
    RatioSeries sdn_rsm, sdn_pf;
    for (std::size_t i = 0; i < wls.size(); ++i) {
        const sim::MultiMetrics &pom = res[3 * i];
        const sim::MultiMetrics &rsm = res[3 * i + 1];
        const sim::MultiMetrics &pf = res[3 * i + 2];
        sdn_rsm.add(rsm.maxSlowdown / pom.maxSlowdown);
        sdn_pf.add(pf.maxSlowdown / pom.maxSlowdown);
        std::printf("%-5s | %9.2f %9.3f | %9.2f %9.3f | %9.2f "
                    "%9.3f\n",
                    wls[i]->name, pom.maxSlowdown,
                    pom.weightedSpeedup, rsm.maxSlowdown,
                    rsm.weightedSpeedup, pf.maxSlowdown,
                    pf.weightedSpeedup);
    }
    std::printf("\nmax-slowdown vs PoM: rsm-pom gmean %.3f, "
                "profess gmean %.3f\n",
                sdn_rsm.gmean(), sdn_pf.gmean());
    return 0;
}
