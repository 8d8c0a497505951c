/**
 * @file
 * Extension: ablations of ProFess design choices called out in
 * DESIGN.md - the Table 7 hysteresis thresholds (paper: 1/32 and
 * 1/16, "to exclude cases where SF_A and SF_B are too similar") and
 * the RSM sampling period Msamp.
 *
 * Expected shape: very small thresholds let RSM noise flip
 * decisions; very large ones disable guidance and degenerate to
 * MDM.  Msamp trades responsiveness against noise (Sec. 3.1.3).
 *
 * Each point sets three knobs at once, which one sweep= axis of a
 * spec cannot express.  Besides the knobs of bench_util.hh it takes
 * workload=<w,...>, the Table 10 workloads to run (default
 * w01-w06).
 */

#include "bench_util.hh"

using namespace profess;
using namespace profess::bench;

namespace
{

struct AblationPoint
{
    const char *label;
    double factorThr;
    double productThr;
    std::uint64_t msamp;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    sim::ParallelRunner runner = makeRunner(argc, argv);
    sim::SystemConfig base = figureConfig(/*quad=*/true);
    KeyValue names{"workload", "w01,w02,w03,w04,w05,w06", "default"};
    for (const KeyValue &kv : keyValueArgs(argc, argv)) {
        if (kv.key == "workload")
            names = kv;
        else
            sim::applyKnob(base, kv);
    }
    std::vector<const sim::WorkloadSpec *> wls;
    for (const std::string &name : splitList(names.value, ',')) {
        wls.push_back(sim::findWorkload(name));
        fatal_if(wls.back() == nullptr,
                 "%s: '%s' in 'workload' is not a Table 10 workload "
                 "(w01..w19)",
                 names.where.c_str(), name.c_str());
    }
    fatal_if(wls.empty(), "%s: no workload", names.where.c_str());
    header("Ablation: ProFess thresholds and Msamp",
           "Sec. 3.3 / Sec. 3.1.3 design choices");
    const std::uint64_t msamp = base.msamp;
    std::printf("\n(first six Table 10 workloads, ProFess "
                "normalized to PoM; threshold rows at the default "
                "Msamp=%llu)\n\n",
                static_cast<unsigned long long>(msamp));

    const double t32 = 1.0 + 1.0 / 32.0;
    const double t16 = 1.0 + 1.0 / 16.0;
    const AblationPoint points[] = {
        {"no hysteresis (t=1.0)", 1.0, 1.0, msamp},
        {"paper t=1/32, tp=1/16", t32, t16, msamp},
        {"strong t=1/8, tp=1/4", 1.125, 1.25, msamp},
        {"guidance off (t=1e9)", 1e9, 1e9, msamp},
        {"Msamp=512", t32, t16, 512},
        {"Msamp=2048", t32, t16, 2048},
        {"Msamp=8192", t32, t16, 8192},
    };
    const std::size_t num_points =
        sizeof(points) / sizeof(points[0]);

    // One flat batch over every (point, workload, policy) triple:
    // all seven ablation points sweep concurrently.
    std::vector<sim::RunJob> jobs;
    for (std::size_t k = 0; k < num_points; ++k) {
        sim::SystemConfig cfg = base;
        cfg.professFactorThreshold = points[k].factorThr;
        cfg.professProductThreshold = points[k].productThr;
        cfg.msamp = points[k].msamp;
        cfg.validate();
        for (const sim::WorkloadSpec *w : wls) {
            jobs.push_back(sim::multiJob(cfg, "pom", *w, k));
            jobs.push_back(sim::multiJob(cfg, "profess", *w, k));
        }
    }
    std::vector<sim::MultiMetrics> res = runner.run(jobs);

    for (std::size_t k = 0; k < num_points; ++k) {
        std::vector<double> sdn, ws;
        for (std::size_t j = 0; j < wls.size(); ++j) {
            const sim::MultiMetrics &pom =
                res[(k * wls.size() + j) * 2];
            const sim::MultiMetrics &pf =
                res[(k * wls.size() + j) * 2 + 1];
            sdn.push_back(pf.maxSlowdown / pom.maxSlowdown);
            ws.push_back(pf.weightedSpeedup / pom.weightedSpeedup);
        }
        std::printf("%-28s maxSdn/PoM %.3f   ws/PoM %.3f\n",
                    points[k].label, geometricMean(sdn),
                    geometricMean(ws));
        if (k == 3)
            std::printf("\n");
    }
    return 0;
}
