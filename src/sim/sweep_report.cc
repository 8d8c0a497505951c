/**
 * @file
 * The figure reducer: renderReport (declared in sim/sweep.hh) turns
 * a sweep's records into one table per metric, with the ratios
 * against the spec's baseline and summary rows under every column.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "sim/sweep.hh"

namespace profess
{

namespace sim
{

namespace
{

constexpr double missing = std::numeric_limits<double>::quiet_NaN();

/** One reported quantity of a run; per-program ones index
 *  `program`. */
struct Metric
{
    const char *name;
    const char *title;
    const char *format; ///< printf format of a value
    bool perProgram;
    bool needsSlowdowns;
    double (*value)(const SweepRunRecord &r, std::size_t program);
};

double
entry(const std::vector<double> &v, std::size_t i)
{
    return i < v.size() ? v[i] : missing;
}

const Metric metrics[] = {
    {"ipc", "IPC per program", "%.3f", true, false,
     [](const SweepRunRecord &r, std::size_t k) { return entry(r.ipc, k); }},
    {"sdn",
     "slowdown per program (stand-alone IPC under the same policy / "
     "shared IPC)",
     "%.2f", true, true,
     [](const SweepRunRecord &r, std::size_t k) {
         return entry(r.slowdown, k);
     }},
    {"ws", "weighted speedup", "%.3f", false, true,
     [](const SweepRunRecord &r, std::size_t) { return r.weightedSpeedup; }},
    {"maxsd", "maximum slowdown (unfairness)", "%.2f", false, true,
     [](const SweepRunRecord &r, std::size_t) { return r.maxSlowdown; }},
    {"eff", "energy efficiency (requests per joule)", "%.0f", false,
     true,
     [](const SweepRunRecord &r, std::size_t) { return r.efficiency; }},
    {"swapfr", "swap fraction (swaps per request served)", "%.3f",
     false, false,
     [](const SweepRunRecord &r, std::size_t) {
         return r.servedTotal > 0 ? static_cast<double>(r.swaps) /
                                        static_cast<double>(r.servedTotal)
                                  : 0.0;
     }},
    {"m1fr", "fraction of requests served from M1", "%.3f", false,
     false,
     [](const SweepRunRecord &r, std::size_t) { return r.m1Fraction; }},
    {"stc", "STC hit rate", "%.3f", false, false,
     [](const SweepRunRecord &r, std::size_t) { return r.stcHitRate; }},
    {"rdlat", "mean read latency (ns)", "%.1f", false, false,
     [](const SweepRunRecord &r, std::size_t) { return r.readLatencyNs; }},
};

/** A column: the value of one (point, policy) cell, or its ratio to
 *  the baseline cell `den`.  Cells are point * policies + policy. */
struct Column
{
    std::string name;
    std::size_t num;
    std::size_t den = SweepSpec::npos;
};

/** A row: one mix and seed, and one program of it for per-program
 *  metrics. */
struct Row
{
    std::string label;
    std::size_t mix;
    std::size_t seed;
    std::size_t program;
};

/** @return `v` printed with `format`, or "-" when it is missing. */
std::string
render(const char *format, double v)
{
    if (std::isnan(v))
        return "-";
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

std::vector<Column>
reportColumns(const SweepSpec &spec)
{
    const std::size_t np = spec.policies.size();
    const bool swept = !spec.sweepKey.empty();
    auto name = [&](std::size_t pt, std::size_t pol) {
        return swept ? spec.policies[pol] + "@" + spec.sweepValues[pt]
                     : spec.policies[pol];
    };
    std::vector<Column> cols;
    for (std::size_t pt = 0; pt < spec.numSweepPoints(); ++pt) {
        for (std::size_t pol = 0; pol < np; ++pol)
            cols.push_back({name(pt, pol), pt * np + pol});
    }
    const std::size_t bpol = spec.baselinePolicy();
    const std::size_t bpt = spec.baselinePoint();
    for (std::size_t pt = 0; pt < spec.numSweepPoints(); ++pt) {
        for (std::size_t pol = 0; pol < np; ++pol) {
            if (bpol != SweepSpec::npos && pol != bpol) {
                cols.push_back({spec.policies[pol] + "/" +
                                    spec.policies[bpol] +
                                    (swept ? "@" + spec.sweepValues[pt]
                                           : ""),
                                pt * np + pol, pt * np + bpol});
            } else if (bpt != SweepSpec::npos && pt != bpt) {
                cols.push_back({name(pt, pol) + "/" +
                                    spec.sweepValues[bpt],
                                pt * np + pol, bpt * np + pol});
            }
        }
    }
    return cols;
}

std::vector<Row>
reportRows(const SweepSpec &spec, bool per_program)
{
    std::vector<Row> rows;
    for (std::size_t m = 0; m < spec.mixes.size(); ++m) {
        const std::vector<std::string> progs =
            SweepSpec::mixPrograms(spec.mixes[m]);
        for (std::size_t s = 0; s < spec.seeds.size(); ++s) {
            std::string label = spec.mixes[m];
            if (spec.seeds.size() > 1)
                label += "_r" + std::to_string(spec.seeds[s]);
            if (!per_program) {
                rows.push_back({label, m, s, 0});
                continue;
            }
            for (std::size_t k = 0; k < progs.size(); ++k) {
                rows.push_back({progs.size() == 1
                                    ? label
                                    : label + " " + progs[k],
                                m, s, k});
            }
        }
    }
    return rows;
}

void
renderTable(std::string &out, const SweepSpec &spec,
            const std::vector<SweepRunRecord> &records,
            const Metric &metric, const std::vector<Column> &cols)
{
    const std::vector<Row> rows = reportRows(spec, metric.perProgram);
    const std::size_t np = spec.policies.size();
    const std::size_t nm = spec.mixes.size();
    const std::size_t ns = spec.seeds.size();
    // The record of `cell` in `row`, in expand()'s canonical order.
    auto value = [&](std::size_t cell, const Row &row) {
        const std::size_t pt = cell / np;
        const std::size_t pol = cell % np;
        const SweepRunRecord &r =
            records.at(((pt * nm + row.mix) * np + pol) * ns + row.seed);
        return r.completed ? metric.value(r, row.program) : missing;
    };

    std::vector<std::vector<double>> cells(cols.size());
    std::size_t zero_denominators = 0;
    for (std::size_t c = 0; c < cols.size(); ++c) {
        for (const Row &row : rows) {
            double v = value(cols[c].num, row);
            if (cols[c].den != SweepSpec::npos) {
                const double d = value(cols[c].den, row);
                if (d == 0.0 && !std::isnan(v)) {
                    ++zero_denominators;
                    v = missing;
                } else {
                    v /= d;
                }
            }
            cells[c].push_back(v);
        }
    }

    // The table as text: the header, a line per row, then a line
    // per summary statistic; each column is as wide as its widest
    // cell.
    auto format = [&](std::size_t c) {
        return cols[c].den == SweepSpec::npos ? metric.format : "%.3f";
    };
    std::vector<std::vector<std::string>> text{
        {metric.perProgram ? "program" : "mix"}};
    for (const Column &col : cols)
        text[0].push_back(col.name);
    for (std::size_t r = 0; r < rows.size(); ++r) {
        text.push_back({rows[r].label});
        for (std::size_t c = 0; c < cols.size(); ++c)
            text.back().push_back(render(format(c), cells[c][r]));
    }
    std::vector<BoxSummary> sums;
    for (const std::vector<double> &col : cells) {
        std::vector<double> kept;
        std::copy_if(col.begin(), col.end(), std::back_inserter(kept),
                     [](double v) { return !std::isnan(v); });
        sums.push_back(boxSummary(kept));
        if (kept.empty())
            sums.back().gmean = missing;
    }
    text.push_back({"n"});
    for (const BoxSummary &b : sums)
        text.back().push_back(std::to_string(b.n));
    const std::pair<const char *, double BoxSummary::*> summary[] = {
        {"min", &BoxSummary::min},       {"q1", &BoxSummary::q1},
        {"median", &BoxSummary::median}, {"q3", &BoxSummary::q3},
        {"max", &BoxSummary::max},       {"gmean", &BoxSummary::gmean},
    };
    for (const auto &[name, field] : summary) {
        text.push_back({name});
        for (std::size_t c = 0; c < cols.size(); ++c) {
            text.back().push_back(sums[c].n == 0
                                      ? "-"
                                      : render(format(c), sums[c].*field));
        }
    }

    std::vector<std::size_t> width(cols.size() + 1, 0);
    for (const std::vector<std::string> &line : text) {
        for (std::size_t i = 0; i < line.size(); ++i)
            width[i] = std::max(width[i], line[i].size());
    }
    out += "\n" + std::string(metric.name) + ": " + metric.title + "\n";
    for (const std::vector<std::string> &line : text) {
        out += line[0] + std::string(width[0] - line[0].size(), ' ');
        for (std::size_t i = 1; i < line.size(); ++i)
            out += std::string(width[i] - line[i].size() + 1, ' ') + line[i];
        out += '\n';
    }
    if (zero_denominators > 0) {
        out += "(left out: " + std::to_string(zero_denominators) +
               (zero_denominators == 1 ? " ratio" : " ratios") +
               " with a zero denominator)\n";
    }
}

} // anonymous namespace

std::string
renderReport(const SweepSpec &spec,
             const std::vector<SweepRunRecord> &records)
{
    panic_if(records.size() != spec.numRuns(),
             "report: %zu records for %zu runs", records.size(),
             spec.numRuns());
    std::string out;
    if (spec.baselinePolicy() != SweepSpec::npos) {
        out += "baseline " + spec.baseline +
               ": ratio columns are <policy>/" + spec.baseline + "\n";
    } else if (spec.baselinePoint() != SweepSpec::npos) {
        out += "baseline " + spec.baseline +
               ": ratio columns are <point>/" +
               spec.sweepValues[spec.baselinePoint()] + "\n";
    } else {
        out += "no baseline: no ratio columns\n";
    }
    const auto incomplete = std::count_if(
        records.begin(), records.end(),
        [](const SweepRunRecord &r) { return !r.completed; });
    if (incomplete > 0) {
        out += "left out: " + std::to_string(incomplete) + " of " +
               std::to_string(records.size()) + " runs not completed\n";
    }
    const std::vector<Column> cols = reportColumns(spec);
    for (const Metric &m : metrics) {
        if (!m.needsSlowdowns || spec.slowdowns)
            renderTable(out, spec, records, m, cols);
    }
    return out;
}

} // namespace sim

} // namespace profess
