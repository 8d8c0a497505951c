/**
 * @file
 * Reproduces Table 4: RSM sampling accuracy for bwaves, milc and
 * omnetpp running alone (Sec. 3.1.3).
 *
 * For sampling periods Msamp (paper: 64K/128K/256K requests;
 * scaled 1/100 here to 1K/2K/4K, keeping periods-per-run constant)
 * the table reports:
 *   - mean sigma_req: stddev of requests served per region during
 *     one period, as % of the mean;
 *   - sigma of the raw SF_A estimates across periods (%);
 *   - sigma of the exponentially smoothed SF_A estimates (%).
 *
 * Expected shapes: all three columns shrink as Msamp doubles, and
 * smoothing cuts the SF_A deviation by a further large factor (the
 * paper's milc at 128K: raw 13% -> smoothed 3.3%).
 */

#include "bench_util.hh"
#include "core/rsm.hh"

using namespace profess;
using namespace profess::bench;

int
main(int argc, char **argv)
{
    BenchEnv env = benchEnv();
    header("Table 4: RSM sampling accuracy", "Table 4");

    const std::uint64_t msamps[] = {1024, 2048, 4096};
    const char *progs[] = {"bwaves", "milc", "omnetpp"};

    // These runs inspect RSM period history, not RunResult, so
    // they go through the runner's generic forEach: cell (p, m)
    // builds its own System and writes only its own slot.
    struct Cell
    {
        double reqPct = 0.0;
        double rawPct = 0.0;
        double avgPct = 0.0;
    };
    Cell cells[3][3];

    sim::ParallelRunner runner = makeRunner(argc, argv);
    runner.forEach(9, [&](std::size_t idx) {
        std::size_t pi = idx / 3;
        std::size_t mi = idx % 3;
        sim::SystemConfig cfg = sim::SystemConfig::singleCore();
        cfg.core.instrQuota = env.singleInstr;
        cfg.core.warmupInstr = env.warmupInstr;
        cfg.msamp = msamps[mi];
        cfg.rsmPerRegionStats = true;

        std::vector<std::unique_ptr<trace::TraceSource>> src;
        src.push_back(trace::makeSpecSource(
            progs[pi], trace::defaultScale, 1));
        sim::System sys(cfg, "profess", std::move(src));
        sys.run();

        const auto &hist = sys.policy().rsm()->history(0);
        RunningStat req, raw, avg;
        for (const auto &s : hist) {
            req.add(s.reqStdPct);
            raw.add(s.rawSfA);
            avg.add(s.avgSfA);
        }
        Cell &c = cells[pi][mi];
        c.reqPct = req.mean();
        c.rawPct = raw.mean() > 0
                       ? 100.0 * raw.stddev() / raw.mean()
                       : 0.0;
        c.avgPct = avg.mean() > 0
                       ? 100.0 * avg.stddev() / avg.mean()
                       : 0.0;
    });

    std::printf("\n%-10s", "program");
    for (std::uint64_t m : msamps)
        std::printf("  [Msamp=%-4llu] req%% rawSF%% avgSF%%",
                    static_cast<unsigned long long>(m));
    std::printf("\n");

    for (std::size_t pi = 0; pi < 3; ++pi) {
        std::printf("%-10s", progs[pi]);
        for (std::size_t mi = 0; mi < 3; ++mi) {
            const Cell &c = cells[pi][mi];
            std::printf("      %6.1f %6.1f %6.2f   ", c.reqPct,
                        c.rawPct, c.avgPct);
        }
        std::printf("\n");
    }
    std::printf("\n(paper at 100x scale: bwaves 26/2/0.3, milc "
                "20/13/3.3, omnetpp 12/5/1.6 at Msamp=128K)\n");
    return 0;
}
