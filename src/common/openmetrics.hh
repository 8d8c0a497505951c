/**
 * @file
 * OpenMetrics text exposition: one run's renderer and the merge of
 * several runs' expositions (DESIGN.md Sec. 4g).
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
 * A run's exposition is rendered once, while its registry is alive,
 * and is itself the run's shard: the combined file of several runs
 * is their family blocks copied verbatim, so no exposition is ever
 * parsed back into numbers.
 */

#ifndef PROFESS_COMMON_OPENMETRICS_HH
#define PROFESS_COMMON_OPENMETRICS_HH

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

/**
 * Render every registry entry as one exposition, terminated by
 * "# EOF": families sorted by name, one "# TYPE" line each, samples
 * sorted by dotted name within the family, every sample labelled
 * run="<run_label>".  The scalar probes derived by
 * StatRegistry::addHistogram ("<h>.count"/"<h>.sum") are skipped:
 * the histogram family exports those totals itself.  Doubles are
 * rendered with %.17g, which round-trips binary64 exactly.
 */
std::string renderOpenMetrics(const StatRegistry &registry,
                              const std::string &run_label);

/**
 * Merge the single-run expositions at `paths`, in that order, into
 * one: families in name order with one "# TYPE" line each, and
 * within a family each file's sample lines copied verbatim in
 * file order.  Given files in run-label order this is exactly the
 * exposition one renderer would write for all those runs.
 *
 * The files are outside input: a missing file, one without its
 * final "# EOF", a sample before any "# TYPE" line and a family
 * typed differently in two files are fatal, naming file and line.
 */
std::string mergeOpenMetrics(const std::vector<std::string> &paths);

} // namespace telemetry

} // namespace profess

#endif // PROFESS_COMMON_OPENMETRICS_HH
