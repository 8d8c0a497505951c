/**
 * @file
 * OpenMetrics text-exposition writer (DESIGN.md Sec. 4g).
 *
 * Maps the registry's dotted statistic names onto OpenMetrics
 * families and labels so any two runs can be compared with standard
 * tooling (promtool, or scripts/metrics_diff.py as in the
 * EXPERIMENTS.md metrics recipe):
 *
 *   - instance segments "p3" / "ch0" / "core1" become labels
 *     program="3" / channel="0" / core="1";
 *   - the remaining segments join with '_' under a "profess_"
 *     prefix ("mem.ch0.row_hits" -> profess_mem_row_hits);
 *   - latency-attribution histograms keep one family,
 *     profess_latency, with tier/kind/phase labels;
 *   - every sample carries run="<label>" so multiple runs of one
 *     process (a bench sweep) share a single exposition file.
 *
 * Counters emit "<family>_total", probes emit gauges, histograms
 * emit cumulative "_bucket{le=...}" plus "_sum"/"_count" whose
 * values reconcile exactly with the registry's derived
 * "<name>.count"/"<name>.sum" probes (tests/test_metrics.cc).
 *
 * Snapshots are plain data: they are captured while a run's
 * registry is alive and exported later (a run's shard, merged by
 * sim::mergeShards), after the components the registry pointed
 * into are gone.
 */

#ifndef PROFESS_COMMON_OPENMETRICS_HH
#define PROFESS_COMMON_OPENMETRICS_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace profess
{

namespace telemetry
{

class StatRegistry;

/** A dotted name resolved to an OpenMetrics family plus labels. */
struct MetricName
{
    std::string family;
    std::vector<std::pair<std::string, std::string>> labels;
};

/**
 * Map one dotted registry name to family + labels per the scheme
 * above.  `histogram` selects the latency-family special case.
 */
MetricName mapDottedName(const std::string &dotted,
                         bool histogram = false);

/** Escape a label value (backslash, quote, newline). */
std::string escapeLabelValue(const std::string &s);

/** Plain-data capture of one run's registry. */
struct MetricsSnapshot
{
    struct Scalar
    {
        std::string name;     ///< dotted registry name
        bool isCounter = false;
        double value = 0.0;
    };

    struct Hist
    {
        std::string name;     ///< dotted registry name
        double bucketWidth = 0.0;
        std::vector<std::uint64_t> buckets; ///< incl. overflow last
        std::uint64_t underflow = 0;
        std::uint64_t count = 0;
        double sum = 0.0;
    };

    std::string run; ///< run label, becomes the run="..." label
    std::vector<Scalar> scalars;
    std::vector<Hist> histograms;

    /**
     * Snapshot every registry entry.  The scalar probes derived by
     * StatRegistry::addHistogram ("<h>.count"/"<h>.sum") are
     * skipped: the histogram family exports those totals itself.
     */
    static MetricsSnapshot capture(const StatRegistry &registry,
                                   const std::string &run_label);
};

/**
 * Write one exposition of all runs, terminated by "# EOF".
 *
 * Families are emitted sorted by name, one "# TYPE" line each,
 * samples sorted by (run, dotted name) within the family — the
 * output is deterministic for a deterministic set of snapshots.
 */
void writeOpenMetrics(std::FILE *f,
                      const std::vector<MetricsSnapshot> &runs);

/** As above, to a named file (panics if unwritable). */
void writeOpenMetricsFile(const std::string &path,
                          const std::vector<MetricsSnapshot> &runs);

/**
 * As above, crash-atomically: the exposition is written to
 * "<path>.tmp", fsync'd, then renamed over `path`, so a reader (or
 * a killed writer) can never observe a half-written file.
 */
void writeOpenMetricsFileAtomic(
    const std::string &path,
    const std::vector<MetricsSnapshot> &runs);

/**
 * Write one snapshot as a self-contained per-run shard file
 * (crash-atomically, as above).
 *
 * The shard is the exporter's O(runs) unit of work: one run's
 * registry capture in a line-based text format ("profess-shard 1"
 * header, "run"/"scalar"/"hist" records, "end" trailer).  Doubles
 * are rendered with %.17g, which round-trips IEEE binary64
 * exactly, so reading a shard back and re-rendering it — in C++
 * (sim::mergeShards) or Python
 * (scripts/metrics_merge.py) — reproduces the exposition rendered
 * from the live registry byte for byte.
 */
void writeMetricsShardFile(const std::string &path,
                           const MetricsSnapshot &snap);

/** Read a shard back (panics on a malformed or truncated file). */
MetricsSnapshot readMetricsShardFile(const std::string &path);

} // namespace telemetry

} // namespace profess

#endif // PROFESS_COMMON_OPENMETRICS_HH
