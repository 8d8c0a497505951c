/**
 * @file
 * Tests for the metrics-export layer: Histogram::quantile edge
 * cases, dotted-name -> OpenMetrics family/label mapping, label
 * escaping, the text-exposition renderer (validated by a test-side
 * mini-parser), exact _sum/_count reconciliation against the
 * registry's derived probes, the latency-attribution table, the
 * shard merge and its rejection of malformed shards, and an
 * end-to-end export of a fig13-style multi-program ProFess run.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/latency_attr.hh"
#include "common/openmetrics.hh"
#include "common/stats.hh"
#include "common/telemetry.hh"
#include "sim/run_telemetry.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"
#include "trace/spec_profiles.hh"

using namespace profess;
using namespace profess::sim;
using telemetry::LatencyAttribution;
using telemetry::MetricName;
using telemetry::StatRegistry;

namespace
{

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return "";
    std::string s;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        s.append(buf, n);
    std::fclose(f);
    return s;
}

std::string
tempBase(const std::string &tag)
{
    return ::testing::TempDir() + "profess_" + tag + "_" +
           std::to_string(::getpid());
}

/** Write `registry`'s exposition as the shard of `run` for the
 *  exposition `path` (what RunTelemetry::finish does). */
void
writeShard(const std::string &path, const StatRegistry &registry,
           const std::string &run)
{
    makeDirs(shardDir(path));
    writeFileAtomic(shardDir(path) + "/" + shardFileName(run),
                    telemetry::renderOpenMetrics(registry, run));
}

/**
 * Mini-parser for the OpenMetrics text exposition.
 *
 * Strict about everything our writer promises: every non-comment
 * line is `name{labels} value`, every sample's family has a
 * preceding `# TYPE` line, counter samples end in _total, no sample
 * follows `# EOF`, and the file is terminated by `# EOF`.  Label
 * values are unescaped, so round-trip tests can compare raw
 * strings.  Parse failures surface as ADD_FAILURE plus an empty
 * result.
 */
struct Exposition
{
    struct Sample
    {
        std::string name; ///< full sample name (incl. suffix)
        std::map<std::string, std::string> labels;
        double value = 0.0;
    };

    std::map<std::string, std::string> types; ///< family -> type
    std::vector<Sample> samples;
    bool sawEof = false;

    const Sample *
    find(const std::string &name,
         const std::map<std::string, std::string> &labels) const
    {
        for (const Sample &s : samples) {
            if (s.name == name && s.labels == labels)
                return &s;
        }
        return nullptr;
    }
};

bool
parseLabels(const std::string &raw, Exposition::Sample &out)
{
    std::size_t i = 0;
    while (i < raw.size()) {
        std::size_t eq = raw.find('=', i);
        if (eq == std::string::npos || raw.size() <= eq + 1 ||
            raw[eq + 1] != '"')
            return false;
        std::string key = raw.substr(i, eq - i);
        std::string value;
        std::size_t j = eq + 2;
        for (; j < raw.size() && raw[j] != '"'; ++j) {
            char c = raw[j];
            if (c == '\\') {
                if (j + 1 >= raw.size())
                    return false;
                char n = raw[++j];
                value += n == 'n' ? '\n' : n;
            } else {
                value += c;
            }
        }
        if (j >= raw.size())
            return false; // unterminated value
        if (out.labels.count(key) != 0)
            return false; // duplicate label
        out.labels[key] = value;
        i = j + 1;
        if (i < raw.size()) {
            if (raw[i] != ',')
                return false;
            ++i;
        }
    }
    return true;
}

Exposition
parseExposition(const std::string &text)
{
    Exposition exp;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            if (line == "# EOF") {
                exp.sawEof = true;
                continue;
            }
            std::istringstream hdr(line);
            std::string hash, keyword, family, type;
            hdr >> hash >> keyword >> family >> type;
            if (keyword != "TYPE" || family.empty() ||
                type.empty()) {
                ADD_FAILURE()
                    << "line " << lineno << ": bad comment " << line;
                return {};
            }
            exp.types[family] = type;
            continue;
        }
        if (exp.sawEof) {
            ADD_FAILURE()
                << "line " << lineno << ": sample after # EOF";
            return {};
        }
        Exposition::Sample s;
        std::size_t name_end = line.find_first_of("{ ");
        if (name_end == std::string::npos) {
            ADD_FAILURE()
                << "line " << lineno << ": no value: " << line;
            return {};
        }
        s.name = line.substr(0, name_end);
        std::size_t value_at = name_end;
        if (line[name_end] == '{') {
            std::size_t close = line.rfind('}');
            if (close == std::string::npos ||
                !parseLabels(
                    line.substr(name_end + 1, close - name_end - 1),
                    s)) {
                ADD_FAILURE() << "line " << lineno
                              << ": bad label set: " << line;
                return {};
            }
            value_at = close + 1;
        }
        if (value_at >= line.size() || line[value_at] != ' ') {
            ADD_FAILURE()
                << "line " << lineno << ": no value: " << line;
            return {};
        }
        std::string raw = line.substr(value_at + 1);
        if (raw == "+Inf") {
            s.value = std::numeric_limits<double>::infinity();
        } else {
            std::size_t used = 0;
            s.value = std::stod(raw, &used);
            if (used != raw.size()) {
                ADD_FAILURE() << "line " << lineno
                              << ": bad value: " << raw;
                return {};
            }
        }
        exp.samples.push_back(std::move(s));
    }
    if (!exp.sawEof) {
        ADD_FAILURE() << "exposition missing '# EOF' terminator";
        return {};
    }
    return exp;
}

/** Family name of a sample: strip _total/_bucket/_sum/_count. */
std::string
familyOf(const std::string &sample_name,
         const std::map<std::string, std::string> &types)
{
    for (const char *suffix :
         {"_total", "_bucket", "_sum", "_count"}) {
        std::string s = suffix;
        if (sample_name.size() > s.size() &&
            sample_name.compare(sample_name.size() - s.size(),
                                s.size(), s) == 0) {
            std::string fam =
                sample_name.substr(0, sample_name.size() - s.size());
            if (types.count(fam) != 0)
                return fam;
        }
    }
    return sample_name;
}

/**
 * Structural validation every exposition must pass: each sample's
 * family is typed, suffixes match the declared type, counters are
 * never negative, and histogram series are internally consistent
 * (cumulative buckets monotone, +Inf bucket == _count).
 */
void
validateExposition(const Exposition &exp)
{
    ASSERT_TRUE(exp.sawEof);
    // Histogram series keyed by (family, labels-minus-le).
    struct Series
    {
        std::vector<std::pair<double, double>> buckets; ///< le,cum
        double count = -1.0, sum = 0.0;
        bool sawSum = false;
    };
    std::map<std::string, Series> hists;

    for (const auto &s : exp.samples) {
        std::string fam = familyOf(s.name, exp.types);
        ASSERT_NE(exp.types.count(fam), 0u)
            << "untyped family of sample " << s.name;
        const std::string &type = exp.types.at(fam);
        std::string suffix = s.name.substr(fam.size());
        if (type == "counter") {
            EXPECT_EQ(suffix, "_total") << s.name;
            EXPECT_GE(s.value, 0.0) << s.name;
        } else if (type == "gauge") {
            EXPECT_EQ(suffix, "") << s.name;
        } else if (type == "histogram") {
            EXPECT_TRUE(suffix == "_bucket" || suffix == "_sum" ||
                        suffix == "_count")
                << s.name;
            std::string key = fam;
            double le = 0.0;
            for (const auto &kv : s.labels) {
                if (kv.first == "le") {
                    le = kv.second == "+Inf"
                             ? std::numeric_limits<
                                   double>::infinity()
                             : std::stod(kv.second);
                    continue;
                }
                key += "|" + kv.first + "=" + kv.second;
            }
            Series &series = hists[key];
            if (suffix == "_bucket") {
                EXPECT_NE(s.labels.count("le"), 0u) << s.name;
                series.buckets.emplace_back(le, s.value);
            } else if (suffix == "_count") {
                series.count = s.value;
            } else {
                series.sum = s.value;
                series.sawSum = true;
            }
        } else {
            ADD_FAILURE() << "unknown type " << type;
        }
    }

    for (const auto &kv : hists) {
        const Series &s = kv.second;
        SCOPED_TRACE(kv.first);
        ASSERT_FALSE(s.buckets.empty());
        EXPECT_TRUE(s.sawSum);
        ASSERT_GE(s.count, 0.0);
        for (std::size_t i = 1; i < s.buckets.size(); ++i) {
            EXPECT_LT(s.buckets[i - 1].first, s.buckets[i].first);
            EXPECT_LE(s.buckets[i - 1].second, s.buckets[i].second);
        }
        EXPECT_TRUE(std::isinf(s.buckets.back().first));
        EXPECT_EQ(s.buckets.back().second, s.count);
    }
}

std::map<std::string, std::string>
labels(std::initializer_list<std::pair<const char *, const char *>>
           kvs)
{
    std::map<std::string, std::string> m;
    for (const auto &kv : kvs)
        m.emplace(kv.first, kv.second);
    return m;
}

} // anonymous namespace

TEST(HistogramQuantile, EmptyReturnsZero)
{
    Histogram h(1.0, 4);
    EXPECT_EQ(h.quantile(0.0), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0.0);
    EXPECT_EQ(h.quantile(1.0), 0.0);
}

TEST(HistogramQuantile, AllUnderflowFallsPastLastEdge)
{
    // Underflow samples count toward the total but live below every
    // bucket edge, so the walk never reaches the target and the
    // quantile degrades to the conservative beyond-last-edge answer
    // (width * (num_buckets + 1), the overflow bucket's "edge") at
    // every q — including q=0.
    Histogram h(1.0, 4);
    for (int i = 0; i < 3; ++i)
        h.add(-1.0);
    EXPECT_EQ(h.summary().count(), 3u);
    EXPECT_EQ(h.underflow(), 3u);
    EXPECT_EQ(h.quantile(0.0), 5.0);
    EXPECT_EQ(h.quantile(0.5), 5.0);
    EXPECT_EQ(h.quantile(1.0), 5.0);
}

TEST(HistogramQuantile, AllOverflowReportsBeyondLastEdge)
{
    Histogram h(1.0, 4);
    for (int i = 0; i < 4; ++i)
        h.add(100.0);
    EXPECT_EQ(h.overflow(), 4u);
    // Every quantile of an all-overflow histogram sits past the last
    // regular edge; the reported value is the same whether the walk
    // stops in the overflow bucket (q<1) or falls through (q=1).
    EXPECT_EQ(h.quantile(0.0), 5.0);
    EXPECT_EQ(h.quantile(0.5), 5.0);
    EXPECT_EQ(h.quantile(1.0), 5.0);
}

TEST(HistogramQuantile, ZeroAndOneQuantiles)
{
    Histogram h(1.0, 4);
    h.add(0.5); // bucket 0
    h.add(2.5); // bucket 2
    // q=0 returns the upper edge of the first populated bucket.
    EXPECT_EQ(h.quantile(0.0), 1.0);
    // q=1 targets count itself, which the cumulative walk can never
    // exceed: the documented answer is one width past the overflow
    // bucket, an upper bound on every sample.
    EXPECT_EQ(h.quantile(1.0), 5.0);
    // Just below 1 it resolves to the last populated bucket's edge.
    EXPECT_EQ(h.quantile(0.75), 3.0);
}

TEST(HistogramQuantile, MedianFindsBucketUpperEdge)
{
    Histogram h(1.0, 4);
    h.add(0.5);
    h.add(1.5);
    h.add(2.5);
    h.add(3.5);
    EXPECT_EQ(h.quantile(0.5), 3.0);
    EXPECT_EQ(h.quantile(0.25), 2.0);
}

TEST(Histogram, ExactSumAndReset)
{
    Histogram h(1.0, 4);
    h.add(0.25);
    h.add(-2.0);
    h.add(100.0);
    EXPECT_EQ(h.sum(), 98.25); // exact, not mean * count
    EXPECT_EQ(h.bucketWidth(), 1.0);
    h.reset();
    EXPECT_EQ(h.sum(), 0.0);
    EXPECT_EQ(h.summary().count(), 0u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    h.add(1.5);
    EXPECT_EQ(h.sum(), 1.5);
    EXPECT_EQ(h.bucket(1), 1u);
}

TEST(MapDottedName, InstanceSegmentsBecomeLabels)
{
    MetricName plain = telemetry::mapDottedName("hybrid.swaps");
    EXPECT_EQ(plain.family, "profess_hybrid_swaps");
    EXPECT_TRUE(plain.labels.empty());

    MetricName ch = telemetry::mapDottedName("mem.ch0.read_queue");
    EXPECT_EQ(ch.family, "profess_mem_read_queue");
    ASSERT_EQ(ch.labels.size(), 1u);
    EXPECT_EQ(ch.labels[0].first, "channel");
    EXPECT_EQ(ch.labels[0].second, "0");

    MetricName core = telemetry::mapDottedName("core12.retired");
    EXPECT_EQ(core.family, "profess_retired");
    ASSERT_EQ(core.labels.size(), 1u);
    EXPECT_EQ(core.labels[0].first, "core");
    EXPECT_EQ(core.labels[0].second, "12");

    MetricName prog =
        telemetry::mapDottedName("policy.profess.rsm.p3.sf_a");
    EXPECT_EQ(prog.family, "profess_policy_profess_rsm_sf_a");
    ASSERT_EQ(prog.labels.size(), 1u);
    EXPECT_EQ(prog.labels[0].first, "program");
    EXPECT_EQ(prog.labels[0].second, "3");

    // Non-numeric tails are NOT instance segments.
    MetricName lit = telemetry::mapDottedName("os.p2x.thing");
    EXPECT_EQ(lit.family, "profess_os_p2x_thing");
    EXPECT_TRUE(lit.labels.empty());
}

TEST(MapDottedName, LatencyHistogramsShareOneFamily)
{
    MetricName mn =
        telemetry::mapDottedName("latency.p3.m2.read.queue", true);
    EXPECT_EQ(mn.family, "profess_latency");
    ASSERT_EQ(mn.labels.size(), 4u);
    EXPECT_EQ(mn.labels[0],
              (std::pair<std::string, std::string>{"program", "3"}));
    EXPECT_EQ(mn.labels[1],
              (std::pair<std::string, std::string>{"tier", "m2"}));
    EXPECT_EQ(mn.labels[2],
              (std::pair<std::string, std::string>{"kind", "read"}));
    EXPECT_EQ(mn.labels[3],
              (std::pair<std::string, std::string>{"phase",
                                                   "queue"}));

    // The special case is histogram-only: the same dotted name as a
    // scalar maps through the generic scheme.
    MetricName scalar =
        telemetry::mapDottedName("latency.p3.m2.read.queue", false);
    EXPECT_EQ(scalar.family, "profess_latency_m2_read_queue");
    ASSERT_EQ(scalar.labels.size(), 1u);
    EXPECT_EQ(scalar.labels[0].first, "program");

    // And matches LatencyAttribution's own name scheme.
    EXPECT_EQ(LatencyAttribution::name(
                  "latency", 3, LatencyAttribution::Tier::M2,
                  LatencyAttribution::Kind::Read,
                  LatencyAttribution::Phase::Queue),
              "latency.p3.m2.read.queue");
}

TEST(EscapeLabelValue, EscapesBackslashQuoteNewline)
{
    EXPECT_EQ(telemetry::escapeLabelValue("plain-1.2_x"),
              "plain-1.2_x");
    EXPECT_EQ(telemetry::escapeLabelValue("a\\b"), "a\\\\b");
    EXPECT_EQ(telemetry::escapeLabelValue("say \"hi\""),
              "say \\\"hi\\\"");
    EXPECT_EQ(telemetry::escapeLabelValue("two\nlines"),
              "two\\nlines");
}

TEST(OpenMetrics, WriterProducesValidExposition)
{
    StatRegistry reg;
    std::uint64_t swaps = 42;
    reg.addCounter("hybrid.swaps", swaps);
    reg.addCounter("mem.ch0.row_hits", swaps);
    reg.addCounter("mem.ch1.row_hits", swaps);
    reg.addProbe("hybrid.stc.hit_rate", []() { return 0.75; });

    Histogram h(2.0, 3);
    h.add(-1.0); // underflow: in every cumulative bucket
    h.add(1.0);  // bucket 0
    h.add(3.0);  // bucket 1
    h.add(99.0); // overflow: only in +Inf
    reg.addHistogram("hybrid.swap_retry_latency", h);

    Exposition exp =
        parseExposition(telemetry::renderOpenMetrics(reg, "runA"));
    validateExposition(exp);
    // The derived scalar probes are folded into the histogram
    // family, not exported twice.
    EXPECT_EQ(exp.types.count("profess_hybrid_swap_retry_latency_count"),
              0u);
    EXPECT_EQ(exp.types.count("profess_hybrid_swap_retry_latency_sum"),
              0u);
    EXPECT_EQ(exp.types.at("profess_hybrid_swaps"), "counter");
    EXPECT_EQ(exp.types.at("profess_hybrid_stc_hit_rate"), "gauge");
    EXPECT_EQ(exp.types.at("profess_hybrid_swap_retry_latency"),
              "histogram");

    const Exposition::Sample *total = exp.find(
        "profess_hybrid_swaps_total", labels({{"run", "runA"}}));
    ASSERT_NE(total, nullptr);
    EXPECT_EQ(total->value, 42.0);

    // Per-channel samples are one family distinguished by label.
    for (const char *chan : {"0", "1"}) {
        EXPECT_NE(
            exp.find("profess_mem_row_hits_total",
                     labels({{"channel", chan}, {"run", "runA"}})),
            nullptr)
            << chan;
    }

    // Cumulative buckets: le=2 holds underflow+bucket0, le=4 adds
    // bucket1, le=6 adds the (empty) bucket2, +Inf adds overflow.
    auto bucket = [&exp](const char *le) {
        return exp.find(
            "profess_hybrid_swap_retry_latency_bucket",
            labels({{"le", le}, {"run", "runA"}}));
    };
    ASSERT_NE(bucket("2"), nullptr);
    EXPECT_EQ(bucket("2")->value, 2.0);
    ASSERT_NE(bucket("4"), nullptr);
    EXPECT_EQ(bucket("4")->value, 3.0);
    ASSERT_NE(bucket("6"), nullptr);
    EXPECT_EQ(bucket("6")->value, 3.0);
    ASSERT_NE(bucket("+Inf"), nullptr);
    EXPECT_EQ(bucket("+Inf")->value, 4.0);

    // _count/_sum reconcile exactly with the registry's derived
    // probes (exact running sum, not mean * count).
    const Exposition::Sample *count =
        exp.find("profess_hybrid_swap_retry_latency_count",
                 labels({{"run", "runA"}}));
    const Exposition::Sample *sum =
        exp.find("profess_hybrid_swap_retry_latency_sum",
                 labels({{"run", "runA"}}));
    ASSERT_NE(count, nullptr);
    ASSERT_NE(sum, nullptr);
    EXPECT_EQ(count->value,
              reg.value("hybrid.swap_retry_latency.count"));
    EXPECT_EQ(sum->value,
              reg.value("hybrid.swap_retry_latency.sum"));
    EXPECT_EQ(sum->value, 102.0);
}

TEST(OpenMetrics, RunLabelRoundTripsThroughEscaping)
{
    StatRegistry reg;
    std::uint64_t c = 1;
    reg.addCounter("esc.events", c);
    std::string nasty = "w01 \"quoted\" back\\slash\nnewline";
    Exposition exp =
        parseExposition(telemetry::renderOpenMetrics(reg, nasty));
    validateExposition(exp);
    const Exposition::Sample *s = exp.find(
        "profess_esc_events_total", labels({}));
    EXPECT_EQ(s, nullptr); // label must be present, not dropped
    ASSERT_EQ(exp.samples.size(), 1u);
    EXPECT_EQ(exp.samples[0].labels.at("run"), nasty);
}

TEST(OpenMetrics, MultipleRunsSortedWithinFamilies)
{
    std::string path = tempBase("sorted") + ".prom";
    StatRegistry reg;
    std::uint64_t c = 5;
    reg.addCounter("sorted.events", c);
    reg.addProbe("sorted.level", [&c]() { return c / 2.0; });
    // Shards written out of label order merge in label order: the
    // family blocks interleave runs sorted by label.
    writeShard(path, reg, "b-run");
    c = 9;
    writeShard(path, reg, "a-run");
    mergeShards(path, {"b-run", "a-run"});
    std::string merged = readFile(path);
    EXPECT_EQ(merged, "# TYPE profess_sorted_events counter\n"
                      "profess_sorted_events_total{run=\"a-run\"} 9\n"
                      "profess_sorted_events_total{run=\"b-run\"} 5\n"
                      "# TYPE profess_sorted_level gauge\n"
                      "profess_sorted_level{run=\"a-run\"} 4.5\n"
                      "profess_sorted_level{run=\"b-run\"} 2.5\n"
                      "# EOF\n");
    validateExposition(parseExposition(merged));
}

TEST(OpenMetricsDeathTest, FamilyTypeConflictPanics)
{
    // "a.b" as a counter and "a.b" as a probe cannot coexist in one
    // registry (duplicate name), but two shards can disagree on the
    // type of one family — a naming-discipline bug or a foreign
    // file.  The merge refuses, naming the shard and line.
    std::string path = tempBase("conflict") + ".prom";
    StatRegistry counter_reg, gauge_reg;
    std::uint64_t c = 0;
    // Same family name in both registries on purpose (the conflict
    // under test); synthesized so the per-file duplicate-leaf lint
    // sees only one literal.
    const std::string name = std::string("a") + ".b";
    counter_reg.addCounter(name, c);
    gauge_reg.addProbe(name, []() { return 0.0; });
    writeShard(path, counter_reg, "r1");
    writeShard(path, gauge_reg, "r2");
    EXPECT_DEATH(mergeShards(path, {"r1", "r2"}),
                 "r2-[0-9a-f]+\\.prom:1: family 'profess_a_b' is typed "
                 "gauge here but counter");
}

TEST(MetricsShardsDeathTest, MalformedShardsAreFatal)
{
    std::string path = tempBase("malformed") + ".prom";
    const std::string dir = shardDir(path);
    StatRegistry reg;
    std::uint64_t c = 1;
    reg.addCounter("bad.events", c);
    writeShard(path, reg, "good");
    auto corrupt = [&](const std::string &run, const std::string &text) {
        writeFileAtomic(dir + "/" + shardFileName(run), text);
    };

    EXPECT_DEATH(mergeShards(path, {"good", "absent"}),
                 "cannot open metrics shard '.*absent-[0-9a-f]+\\.prom'");
    corrupt("cut", "# TYPE profess_bad_events counter\n"
                   "profess_bad_events_total{run=\"cut\"} 1\n");
    EXPECT_DEATH(mergeShards(path, {"good", "cut"}),
                 "cut-[0-9a-f]+\\.prom:2: truncated metrics shard");
    corrupt("untyped", "profess_bad_events_total{run=\"untyped\"} 1\n"
                       "# EOF\n");
    EXPECT_DEATH(mergeShards(path, {"untyped"}),
                 "untyped-[0-9a-f]+\\.prom:1: sample before any "
                 "'# TYPE' line");
}

TEST(LatencyAttribution, RecordsAndDropsOutOfRange)
{
    LatencyAttribution attr(2, 10.0, 4);
    attr.record(0, LatencyAttribution::Tier::M1,
                LatencyAttribution::Kind::Read,
                LatencyAttribution::Phase::Queue, 15.0);
    attr.record(-1, LatencyAttribution::Tier::M1,
                LatencyAttribution::Kind::Read,
                LatencyAttribution::Phase::Queue, 15.0);
    attr.record(2, LatencyAttribution::Tier::M1,
                LatencyAttribution::Kind::Read,
                LatencyAttribution::Phase::Queue, 15.0);
    const Histogram &h = attr.histogram(
        0, LatencyAttribution::Tier::M1,
        LatencyAttribution::Kind::Read,
        LatencyAttribution::Phase::Queue);
    EXPECT_EQ(h.summary().count(), 1u);
    EXPECT_EQ(h.bucket(1), 1u);

    // Registration exposes read/write x 4 phases + swap park only.
    StatRegistry reg;
    attr.registerTelemetry(reg, "latency");
    std::size_t hist_count = reg.histograms().size();
    // 2 programs x 2 tiers x (read/write x 4 phases + swap park).
    EXPECT_EQ(hist_count, 2u * 2u * (2u * 4u + 1u));
    EXPECT_TRUE(reg.contains("latency.p0.m1.read.queue.count"));
    EXPECT_TRUE(reg.contains("latency.p1.m2.swap.park.sum"));
    EXPECT_FALSE(reg.contains("latency.p0.m1.swap.queue.count"));
}

TEST(MetricsShards, MergeSortsRunsAndReadsOnlyNamedShards)
{
    std::string path = tempBase("merge") + ".prom";

    StatRegistry reg;
    std::uint64_t c = 3;
    reg.addCounter("coll.events", c);
    // Completion order b-then-a must not leak into the file, and a
    // shard nobody names (left by an earlier process) stays out.
    writeShard(path, reg, "b");
    c = 8;
    writeShard(path, reg, "a");
    c = 1;
    writeShard(path, reg, "stale");
    mergeShards(path, {"b", "a", "b"});

    Exposition exp = parseExposition(readFile(path));
    validateExposition(exp);
    ASSERT_EQ(exp.samples.size(), 2u);
    EXPECT_EQ(exp.samples[0].labels.at("run"), "a");
    EXPECT_EQ(exp.samples[0].value, 8.0);
    EXPECT_EQ(exp.samples[1].labels.at("run"), "b");
    EXPECT_EQ(exp.samples[1].value, 3.0);
}

TEST(MetricsShards, ShardRoundTripIsExact)
{
    StatRegistry reg;
    std::uint64_t c = 42;
    reg.addCounter("rt.events", c);
    // Values chosen to stress %.17g round-tripping: an irrational
    // fraction, a denormal-ish magnitude and a negative gauge.
    reg.addProbe("rt.ratio", []() { return 1.0 / 3.0; });
    reg.addProbe("rt.tiny", []() { return 4.9406564584124654e-300; });
    reg.addProbe("rt.neg", []() { return -2.5; });
    Histogram h(0.1, 3);
    h.add(-1.0);
    h.add(0.05);
    h.add(0.15);
    h.add(99.0);
    reg.addHistogram("rt.lat", h);

    // A shard merged on its own is the rendered exposition, byte for
    // byte; a run label with a space survives as a label value.
    const std::string run = "runX with space";
    std::string path = tempBase("shard_rt") + ".prom";
    writeShard(path, reg, run);
    mergeShards(path, {run});
    std::string merged = readFile(path);
    EXPECT_EQ(merged, telemetry::renderOpenMetrics(reg, run));

    // Every value reads back bit-exactly: %.17g round-trips.
    Exposition exp = parseExposition(merged);
    validateExposition(exp);
    for (const char *name : {"rt.ratio", "rt.tiny", "rt.neg"}) {
        MetricName mn = telemetry::mapDottedName(name);
        const Exposition::Sample *s =
            exp.find(mn.family, labels({{"run", run.c_str()}}));
        ASSERT_NE(s, nullptr) << name;
        EXPECT_EQ(s->value, reg.value(name)) << name;
    }
    const Exposition::Sample *sum =
        exp.find("profess_rt_lat_sum", labels({{"run", run.c_str()}}));
    ASSERT_NE(sum, nullptr);
    EXPECT_EQ(sum->value, h.sum());
}

TEST(OpenMetrics, Fig13RunExportValidates)
{
    // End-to-end: a fig13-style multi-program ProFess run with
    // latency attribution, fairness gauges and the exporter all
    // active, validated by the mini-parser.
    const WorkloadSpec *w01 = findWorkload("w01");
    ASSERT_NE(w01, nullptr);
    SystemConfig cfg = SystemConfig::quadCore();
    cfg.core.instrQuota = 120000;
    cfg.core.warmupInstr = 60000;

    std::vector<std::unique_ptr<trace::TraceSource>> sources;
    for (std::size_t i = 0; i < w01->programs.size(); ++i) {
        sources.push_back(trace::makeSpecSource(
            w01->programs[i], trace::defaultScale,
            7 + 1009 * (i + 1)));
    }
    System sys(cfg, "profess", std::move(sources));

    TelemetryConfig tcfg;
    tcfg.metricsOut = tempBase("fig13") + ".prom";
    RunTelemetry bundle(tcfg, "w01_profess");
    sys.attachTelemetry(bundle);
    ASSERT_TRUE(sys.run());
    bundle.finish("profess", "w01", 7, configJson(cfg), true);
    mergeShards(tcfg.metricsOut, {"w01_profess"});
    std::string merged = readFile(tcfg.metricsOut);

    // Acceptance pin: the shard written at finish() and merged back
    // reproduces the exposition rendered straight from the live
    // registry, byte for byte, for this workload.
    EXPECT_EQ(merged, telemetry::renderOpenMetrics(bundle.registry(),
                                                   "w01_profess"));

    Exposition exp = parseExposition(merged);
    validateExposition(exp);

    // The attribution family is present and carries real samples:
    // every served request recorded its queue phase, so summed
    // _count across programs/tiers equals reads+writes served.
    EXPECT_EQ(exp.types.at("profess_latency"), "histogram");
    double queue_count = 0.0;
    for (const auto &s : exp.samples) {
        if (s.name == "profess_latency_count" &&
            s.labels.at("phase") == "queue" &&
            s.labels.at("kind") != "swap")
            queue_count += s.value;
    }
    EXPECT_GT(queue_count, 0.0);

    // Fairness gauges are exported per program plus aggregates.
    EXPECT_EQ(exp.types.at("profess_fairness_slowdown"), "gauge");
    for (const char *p : {"0", "1", "2", "3"}) {
        EXPECT_NE(
            exp.find("profess_fairness_slowdown",
                     labels({{"program", p}, {"run", "w01_profess"}})),
            nullptr)
            << p;
    }
    const Exposition::Sample *unfair = exp.find(
        "profess_fairness_unfairness",
        labels({{"run", "w01_profess"}}));
    ASSERT_NE(unfair, nullptr);
    EXPECT_GE(unfair->value, 1.0);
    const Exposition::Sample *ws = exp.find(
        "profess_fairness_weighted_speedup",
        labels({{"run", "w01_profess"}}));
    ASSERT_NE(ws, nullptr);
    EXPECT_GT(ws->value, 0.0);

    // Every histogram family's _count/_sum reconcile exactly with
    // the registry's derived probes.
    for (const auto &he : bundle.registry().histograms()) {
        MetricName mn = telemetry::mapDottedName(he.name, true);
        std::map<std::string, std::string> want(mn.labels.begin(),
                                                mn.labels.end());
        want["run"] = "w01_profess";
        const Exposition::Sample *count =
            exp.find(mn.family + "_count", want);
        const Exposition::Sample *sum =
            exp.find(mn.family + "_sum", want);
        ASSERT_NE(count, nullptr) << he.name;
        ASSERT_NE(sum, nullptr) << he.name;
        EXPECT_EQ(count->value,
                  bundle.registry().value(he.name + ".count"))
            << he.name;
        EXPECT_EQ(sum->value,
                  bundle.registry().value(he.name + ".sum"))
            << he.name;
    }
}
