/**
 * @file
 * Per-run telemetry bundle, its configuration and the metric shards.
 *
 * TelemetryConfig - the telemetry half of a run's options
 *                   (sim::RunOptions, filled from --trace,
 *                   --telemetry-out DIR, --epoch-ticks N and
 *                   --metrics-out FILE).  Telemetry stays entirely
 *                   outside SystemConfig so enabling it can never
 *                   change a config fingerprint or a derived seed.
 * RunTelemetry    - everything one labelled run owns: the stat
 *                   registry, the decision/chrome trace sinks, the
 *                   epoch sampler and the hot-path timer slots.  When
 *                   an output directory is configured it materializes
 *                   DIR/<label>/{manifest.json, metrics.prom,
 *                   epochs.jsonl, decisions.jsonl, trace.json}; with
 *                   --metrics-out it writes the run's shard, the same
 *                   exposition as its metrics.prom.
 * mergeShards     - builds the --metrics-out file from the shards of
 *                   the runs its owner (ParallelRunner, SweepDriver,
 *                   telemetry_overhead) executed.
 *
 * Attachment point: System::attachTelemetry() registers every
 * component and forwards the sinks; ExperimentRunner::run() creates
 * the bundle for labelled runs only (stand-alone IPC_SP reference
 * runs have no label and always run clean).
 *
 * The scenario subsystem (src/sim/scenario.hh) mirrors this
 * pattern: ScenarioConfig is the --scenario FILE half of the run
 * options, and ExperimentRunner::run() registers scenario event
 * counters and trace records into this bundle when both are active.
 */

#ifndef PROFESS_SIM_RUN_TELEMETRY_HH
#define PROFESS_SIM_RUN_TELEMETRY_HH

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/telemetry.hh"
#include "common/trace_sink.hh"
#include "common/types.hh"

namespace profess
{

class EventQueue;

namespace core
{
class Rsm;
} // namespace core

namespace telemetry
{
class LatencyAttribution;
} // namespace telemetry

namespace sim
{

struct SystemConfig;

/** Telemetry options of a run (see file comment). */
struct TelemetryConfig
{
    bool trace = false;      ///< decision + chrome tracing
    std::string outDir;      ///< run-artifact directory ("" = none)
    Tick epochInterval = 25000; ///< epoch sampler period in ticks
    /** Combined OpenMetrics exposition file collecting every
     *  labelled run of the options' owner ("" = none). */
    std::string metricsOut;

    /** @return true if any telemetry consumer is active. */
    bool
    enabled() const
    {
        return trace || !outDir.empty() || !metricsOut.empty();
    }

    /**
     * A default instance that is never written.  Its only reader is
     * perfbench/perfbench.cc:76-77, which checks that telemetry is
     * off; everything else takes its options as a value.
     */
    static const TelemetryConfig &global();
};

/** Telemetry state of one labelled run. */
class RunTelemetry
{
  public:
    /**
     * @param cfg Configuration in force (copied).
     * @param label Run identity; becomes the artifact subdirectory
     *        (sanitized) and the manifest label.
     */
    RunTelemetry(const TelemetryConfig &cfg, const std::string &label);
    ~RunTelemetry();

    RunTelemetry(const RunTelemetry &) = delete;
    RunTelemetry &operator=(const RunTelemetry &) = delete;

    /** @return the registry components register into. */
    telemetry::StatRegistry &registry() { return registry_; }

    /** @return decision-trace sink, or null when tracing is off. */
    telemetry::DecisionTraceSink *decisionSink()
    {
        return decision_.get();
    }

    /** @return chrome-trace sink, or null when tracing is off. */
    telemetry::ChromeTraceSink *chromeSink() { return chrome_.get(); }

    /** @return wall-clock slot for the controller access path. */
    telemetry::TimerSlot *accessTimer() { return &accessSlot_; }

    /** @return wall-clock slot for the channel scheduler. */
    telemetry::TimerSlot *schedulerTimer() { return &schedSlot_; }

    /**
     * Create (first call) and return the latency-attribution table
     * for `num_programs`, registered under "latency".  Subsequent
     * calls return the same table.  Call before startSampler() so
     * the derived count/sum probes join the epoch selection.
     */
    telemetry::LatencyAttribution *attribution(unsigned num_programs);

    /**
     * Start the epoch sampler on the event queue (samples every
     * registered entry; opens epochs.jsonl when an output directory
     * is configured).  Call after all components registered.
     */
    void startSampler(EventQueue &eq);

    /** Stop the epoch sampler. */
    void stopSampler();

    /** @return the sampler, or null before startSampler(). */
    telemetry::EpochSampler *sampler() { return sampler_.get(); }

    /** @return the artifact directory ("" when none). */
    const std::string &directory() const { return dir_; }

    /** @return the run label. */
    const std::string &label() const { return label_; }

    /**
     * Write the end-of-run artifacts: the run's exposition, rendered
     * once, as its shard under shardDir(metricsOut) when
     * --metrics-out is set and as metrics.prom when an output
     * directory is, plus manifest.json, decisions.jsonl and
     * trace.json in that directory.  Wall-clock and peak RSS are
     * measured here.
     */
    void finish(const std::string &policy, const std::string &workload,
                std::uint64_t seed, const std::string &config_json,
                bool completed);

  private:
    TelemetryConfig cfg_;
    std::string label_;
    std::string dir_; ///< outDir/<sanitized label>, "" when none

    telemetry::StatRegistry registry_;
    std::unique_ptr<telemetry::DecisionTraceSink> decision_;
    std::unique_ptr<telemetry::ChromeTraceSink> chrome_;
    std::unique_ptr<telemetry::EpochSampler> sampler_;
    std::unique_ptr<telemetry::LatencyAttribution> attr_;
    telemetry::TimerSlot accessSlot_{};
    telemetry::TimerSlot schedSlot_{};

    std::FILE *epochsFile_ = nullptr;
    std::chrono::steady_clock::time_point wallStart_;
    std::string startedIso_;
};

/** @return the shard directory of an exposition path. */
std::string shardDir(const std::string &path);

/** @return the shard file name of a run label (sanitized label plus
 *  a hash of the exact label, so distinct labels never collide). */
std::string shardFileName(const std::string &run_label);

/**
 * Build the exposition `path` (crash-atomically) from the shards of
 * `run_labels` under shardDir(path), in label order
 * (telemetry::mergeOpenMetrics), so the file is identical no matter
 * in which order parallel workers finished (--jobs N determinism,
 * tests/test_telemetry.cc).  Shards not named — say, left by an
 * earlier process — stay out of it; a label listed twice counts
 * once, and a named shard that is missing is fatal.
 */
void mergeShards(const std::string &path,
                 std::vector<std::string> run_labels);

/**
 * Replace `path` with `text` crash-atomically: written to a
 * per-thread temporary, fsync'd, then renamed over `path`, so a
 * reader (or a killed writer) never sees a half-written file.
 * Fatal on any I/O error.
 */
void writeFileAtomic(const std::string &path, const std::string &text);

/**
 * Register the per-epoch fairness gauges derived from RSM's
 * slowdown factors (Sec. 3.1): per-program
 * "fairness.p<i>.slowdown" (max of SF_A and SF_B), plus
 * "fairness.weighted_speedup" (sum of 1/slowdown),
 * "fairness.max_slowdown" and "fairness.unfairness"
 * (max-over-min slowdown ratio).  Pure probes over RSM state:
 * sampling them never perturbs the run.
 */
void registerFairnessGauges(telemetry::StatRegistry &registry,
                            const core::Rsm &rsm,
                            unsigned num_programs);

/** Filesystem-safe form of a run label ([A-Za-z0-9._-] kept). */
std::string sanitizeLabel(const std::string &label);

/** mkdir -p (fatal on failure); shared by telemetry and sweep. */
void makeDirs(const std::string &path);

/** Render a SystemConfig as the manifest's "config" JSON object:
 *  every knob of forEachKnob, under its table name. */
std::string configJson(const SystemConfig &cfg);

} // namespace sim

} // namespace profess

#endif // PROFESS_SIM_RUN_TELEMETRY_HH
