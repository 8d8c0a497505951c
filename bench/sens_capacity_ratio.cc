/**
 * @file
 * Reproduces the Sec. 5.2 sensitivity study on the M1:M2 capacity
 * ratio: 1:4 (M1 doubled, 5-slot swap groups), the default 1:8, and
 * 1:16 (M1 halved, 17-slot swap groups).  M2 stays fixed, as in the
 * paper (programs that fit into the doubled M1 are excluded from
 * the 1:4 average, as the paper does).
 *
 * Expected shape: MDM's relative gain shrinks slightly at 1:4
 * (less competition for M1) and holds at 1:16 (paper: +12% / +14% /
 * +14%).
 *
 * Each point sets two knobs at once, which one sweep= axis of a
 * spec cannot express.
 */

#include "bench_util.hh"

using namespace profess;
using namespace profess::bench;

namespace
{

struct RatioPoint
{
    const char *label;
    unsigned slots;
    std::uint64_t m1Bytes;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    sim::ParallelRunner runner = makeRunner(argc, argv);
    sim::SystemConfig base = figureConfig(/*quad=*/false);
    for (const KeyValue &kv : keyValueArgs(argc, argv))
        sim::applyKnob(base, kv);
    header("Sec. 5.2: sensitivity to the M1:M2 capacity ratio",
           "Sec. 5.2 (capacity-ratio study)");

    const RatioPoint points[] = {
        {"1:4", 5, 2 * MiB},
        {"1:8", 9, 1 * MiB},
        {"1:16", 17, 512 * KiB},
    };

    sim::SystemConfig cfgs[3];
    for (int i = 0; i < 3; ++i) {
        cfgs[i] = base;
        cfgs[i].slotsPerGroup = points[i].slots;
        cfgs[i].m1BytesPerChannel = points[i].m1Bytes;
        cfgs[i].validate();
    }
    std::vector<std::string> programs = allPrograms();
    std::vector<sim::RunJob> jobs;
    for (const std::string &prog : programs) {
        for (int i = 0; i < 3; ++i) {
            jobs.push_back(sim::singleJob(cfgs[i], "pom", prog, i));
            jobs.push_back(sim::singleJob(cfgs[i], "mdm", prog, i));
        }
    }
    std::vector<sim::MultiMetrics> res = runner.run(jobs);

    std::printf("\n%-12s %10s %10s %10s\n", "program", "1:4",
                "1:8", "1:16");
    std::vector<double> g[3];
    for (std::size_t p = 0; p < programs.size(); ++p) {
        const std::string &prog = programs[p];
        std::printf("%-12s", prog.c_str());
        for (int i = 0; i < 3; ++i) {
            double pom = res[6 * p + 2 * i].run.ipc[0];
            double mdm = res[6 * p + 2 * i + 1].run.ipc[0];
            double r = mdm / pom;
            // The paper excludes programs fitting entirely into the
            // twice-larger M1 from the 1:4 average.
            const trace::BenchmarkProfile *bp =
                trace::findProfile(prog);
            double fp_bytes = bp->footprintMB *
                              trace::defaultScale *
                              static_cast<double>(MiB);
            bool fits =
                fp_bytes < static_cast<double>(points[i].m1Bytes);
            if (!fits)
                g[i].push_back(r);
            std::printf(" %9.3f%s", r, fits ? "*" : " ");
        }
        std::printf("\n");
    }
    std::printf("\n(* = footprint fits into M1; excluded from the "
                "average, as in the paper)\n");
    std::printf("MDM/PoM IPC gmean: 1:4 %.3f | 1:8 %.3f | 1:16 "
                "%.3f  (paper: 1.12 / 1.14 / 1.14)\n",
                geometricMean(g[0]), geometricMean(g[1]),
                geometricMean(g[2]));
    return 0;
}
