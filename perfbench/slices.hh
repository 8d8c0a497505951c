/**
 * @file
 * The benchmark's workloads: slices of the paper's figures, each a
 * fixed list of simulation jobs run on `sim::System` directly, one
 * job after another on the calling thread.
 *
 * A job reproduces what the experiment layer does for the same
 * figure (sim::ParallelRunner::runOne + ExperimentRunner::run): the
 * same trace sources, seeds (sim::deriveSeed of the base seed,
 * policy and mix label), stand-alone references and result
 * extraction.  Driving System directly lets the benchmark time set-up
 * apart from simulation and attach its own probes (layers.hh).
 */

#ifndef PERFBENCH_SLICES_HH
#define PERFBENCH_SLICES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace perfbench
{

class LayerProbe;

/** One simulation job. */
struct JobSpec
{
    std::string label;  ///< mix or program name (the deriveSeed mix)
    std::string policy;
    std::vector<std::string> programs;
    bool slowdowns = false; ///< stand-alone references (Figs. 13-15)

    std::string name() const { return label + "/" + policy; }
};

/** One named workload of the benchmark. */
struct Slice
{
    std::string name;
    profess::sim::SystemConfig cfg;
    std::vector<JobSpec> jobs;
};

/** @return one of the benchmark's workloads by name, or nullptr. */
const Slice *findSlice(const std::string &name);

/** Outcome of one job. */
struct JobResult
{
    std::string name;
    profess::sim::MultiMetrics metrics;
    /** The job and its stand-alone references reached their
     *  instruction quotas. */
    bool completed = false;
    /** Fold of every simulated output of the job, stand-alone IPCs
     *  and slowdown metrics included. */
    std::uint64_t digest = 0;
};

/** Host-side cost of one repetition of a slice. */
struct RepCost
{
    double setupS = 0.0; ///< building trace sources and Systems
    double runS = 0.0;   ///< inside System::run
    /** Demand accesses the cores issued, warm-up included. */
    std::uint64_t accesses = 0;
    std::size_t aloneRuns = 0; ///< stand-alone reference runs
};

/**
 * Run every job of a slice once.  Each call uses a fresh
 * stand-alone reference cache, so every repetition does the same
 * work.
 *
 * @param seed Base seed of the job seeds; the stand-alone
 *        references use it as their seed base too.  Seed 1 is the
 *        experiment layer's.
 * @param probe Per-layer instrumentation, or null for a timed run.
 */
std::vector<JobResult> runSlice(const Slice &slice, std::uint64_t seed,
                                RepCost &cost, LayerProbe *probe);

/**
 * Headline simulated numbers of a slice, for comparing two builds:
 * the Fig. 13/14/15 ProFess/PoM ratios, the Fig. 5 MDM/PoM IPC
 * ratios, and for quad_write the ProFess/PoM IPC-sum ratio.
 * Each entry is (name, value).
 */
std::vector<std::pair<std::string, double>>
headline(const Slice &slice, const std::vector<JobResult> &results);

} // namespace perfbench

#endif // PERFBENCH_SLICES_HH
