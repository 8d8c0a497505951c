/**
 * @file
 * Reproduces the Sec. 2.5 MemPod-vs-PoM comparison: average main
 * memory access time (AMMAT, MemPod's preferred metric) in single-
 * and multi-program runs, plus the CAMEO- and SILC-FM-style
 * baselines for context (Table 2).
 *
 * Expected shape (paper): MemPod's AMMAT is longer than PoM's on
 * this NVM-based system (+19% single / +18% multi) because PoM's
 * global cost-benefit analysis adapts to the technology
 * characteristics while MEA does not.
 */

#include "bench_util.hh"

using namespace profess;
using namespace profess::bench;

int
main(int argc, char **argv)
{
    BenchEnv env = benchEnv();
    header("Sec. 2.5: MemPod vs PoM (and Table 2 baselines)",
           "Sec. 2.5 / Table 2");

    sim::ParallelRunner runner = makeRunner(argc, argv);

    {
        sim::SystemConfig cfg = sim::SystemConfig::singleCore();
        cfg.core.instrQuota = env.singleInstr;
        cfg.core.warmupInstr = env.warmupInstr;
        const char *policies[] = {"pom", "mempod", "cameo",
                                  "silcfm"};
        std::vector<std::string> programs = allPrograms();
        std::vector<sim::RunJob> jobs;
        for (const std::string &prog : programs)
            for (const char *pol : policies)
                jobs.push_back(sim::singleJob(cfg, pol, prog));
        std::vector<sim::MultiMetrics> res = runner.run(jobs);

        std::printf("\nsingle-program mean read latency (ns):\n");
        std::printf("%-12s %8s %8s %8s %8s\n", "program", "pom",
                    "mempod", "cameo", "silcfm");
        RatioSeries mp_ratio;
        for (std::size_t p = 0; p < programs.size(); ++p) {
            double pom = res[4 * p].run.meanReadLatencyNs;
            double mp = res[4 * p + 1].run.meanReadLatencyNs;
            double cam = res[4 * p + 2].run.meanReadLatencyNs;
            double silc = res[4 * p + 3].run.meanReadLatencyNs;
            mp_ratio.add(mp / pom);
            std::printf("%-12s %8.1f %8.1f %8.1f %8.1f\n",
                        programs[p].c_str(), pom, mp, cam, silc);
        }
        std::printf("MemPod/PoM AMMAT gmean: %.3f (%s; paper "
                    "+19%%)\n",
                    mp_ratio.gmean(),
                    sim::percentDelta(mp_ratio.gmean()).c_str());
    }

    {
        sim::SystemConfig cfg = sim::SystemConfig::quadCore();
        cfg.core.instrQuota = env.multiInstr;
        cfg.core.warmupInstr = env.warmupInstr;
        std::vector<const sim::WorkloadSpec *> wls = env.workloads;
        wls.resize(std::min<std::size_t>(wls.size(), 5));
        std::vector<sim::RunJob> jobs;
        for (const sim::WorkloadSpec *w : wls) {
            for (const char *pol : {"pom", "mempod"}) {
                sim::RunJob j = sim::multiJob(cfg, pol, *w);
                j.slowdowns = false; // only AMMAT is needed
                jobs.push_back(j);
            }
        }
        std::vector<sim::MultiMetrics> res = runner.run(jobs);

        std::printf("\nmulti-program mean read latency (ns), "
                    "first five workloads:\n");
        std::printf("%-5s %8s %8s %10s\n", "wl", "pom", "mempod",
                    "ratio");
        RatioSeries mp_ratio;
        for (std::size_t i = 0; i < wls.size(); ++i) {
            double pom = res[2 * i].run.meanReadLatencyNs;
            double mp = res[2 * i + 1].run.meanReadLatencyNs;
            mp_ratio.add(mp / pom);
            std::printf("%-5s %8.1f %8.1f %10.3f\n",
                        wls[i]->name, pom, mp, mp / pom);
        }
        std::printf("MemPod/PoM AMMAT gmean: %.3f (%s; paper "
                    "+18%%)\n",
                    mp_ratio.gmean(),
                    sim::percentDelta(mp_ratio.gmean()).c_str());
    }
    return 0;
}
