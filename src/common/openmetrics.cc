#include "common/openmetrics.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "common/logging.hh"
#include "common/telemetry.hh"

namespace profess
{

namespace telemetry
{

namespace
{

/** @return true if the segment is `prefix` followed by digits. */
bool
isInstanceSegment(const std::string &seg, const char *prefix,
                  std::string &digits)
{
    std::size_t n = std::strlen(prefix);
    if (seg.size() <= n || seg.compare(0, n, prefix) != 0)
        return false;
    for (std::size_t i = n; i < seg.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(seg[i])))
            return false;
    }
    digits = seg.substr(n);
    return true;
}

std::vector<std::string>
splitDots(const std::string &dotted)
{
    std::vector<std::string> segs;
    std::size_t start = 0;
    while (start <= dotted.size()) {
        std::size_t dot = dotted.find('.', start);
        if (dot == std::string::npos) {
            segs.push_back(dotted.substr(start));
            break;
        }
        segs.push_back(dotted.substr(start, dot - start));
        start = dot + 1;
    }
    return segs;
}

} // anonymous namespace

MetricName
mapDottedName(const std::string &dotted, bool histogram)
{
    std::vector<std::string> segs = splitDots(dotted);

    // Latency-attribution histograms share one family with the
    // decomposition as labels: latency.p3.m2.read.queue ->
    // profess_latency{program="3",tier="m2",kind="read",
    // phase="queue"}.
    if (histogram && segs.size() == 5 && segs[0] == "latency") {
        std::string prog;
        if (isInstanceSegment(segs[1], "p", prog)) {
            MetricName mn;
            mn.family = "profess_latency";
            mn.labels.emplace_back("program", prog);
            mn.labels.emplace_back("tier", segs[2]);
            mn.labels.emplace_back("kind", segs[3]);
            mn.labels.emplace_back("phase", segs[4]);
            return mn;
        }
    }

    MetricName mn;
    std::string joined;
    std::string digits;
    for (const std::string &seg : segs) {
        if (isInstanceSegment(seg, "ch", digits)) {
            mn.labels.emplace_back("channel", digits);
        } else if (isInstanceSegment(seg, "core", digits)) {
            mn.labels.emplace_back("core", digits);
        } else if (isInstanceSegment(seg, "p", digits)) {
            mn.labels.emplace_back("program", digits);
        } else {
            joined += (joined.empty() ? "" : "_") + seg;
        }
    }
    mn.family = "profess_" + joined;
    return mn;
}

std::string
escapeLabelValue(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '"':
            out += "\\\"";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out.push_back(c);
        }
    }
    return out;
}

MetricsSnapshot
MetricsSnapshot::capture(const StatRegistry &registry,
                         const std::string &run_label)
{
    MetricsSnapshot snap;
    snap.run = run_label;

    // The derived "<h>.count"/"<h>.sum" probes duplicate what the
    // histogram family itself exports; skip them here.
    std::vector<std::string> derived;
    for (const auto &he : registry.histograms()) {
        derived.push_back(he.name + ".count");
        derived.push_back(he.name + ".sum");

        Hist h;
        h.name = he.name;
        h.bucketWidth = he.histogram->bucketWidth();
        h.buckets.reserve(he.histogram->numBuckets());
        for (std::size_t i = 0; i < he.histogram->numBuckets(); ++i)
            h.buckets.push_back(he.histogram->bucket(i));
        h.underflow = he.histogram->underflow();
        h.count = he.histogram->summary().count();
        h.sum = he.histogram->sum();
        snap.histograms.push_back(std::move(h));
    }
    std::sort(derived.begin(), derived.end());

    for (const auto &e : registry.entries()) {
        if (std::binary_search(derived.begin(), derived.end(),
                               e.name))
            continue;
        Scalar s;
        s.name = e.name;
        s.isCounter = e.counter != nullptr;
        s.value = e.counter ? static_cast<double>(*e.counter)
                            : e.probe();
        snap.scalars.push_back(std::move(s));
    }
    return snap;
}

namespace
{

struct ScalarSample
{
    std::string run;
    std::string dotted;
    std::vector<std::pair<std::string, std::string>> labels;
    double value;
};

struct HistSample
{
    std::string run;
    std::string dotted;
    std::vector<std::pair<std::string, std::string>> labels;
    const MetricsSnapshot::Hist *hist;
};

/** One exposition family: scalar-typed or histogram-typed. */
struct Family
{
    const char *type = nullptr; ///< "counter"/"gauge"/"histogram"
    std::vector<ScalarSample> scalars;
    std::vector<HistSample> hists;
};

void
setType(Family &fam, const char *type, const std::string &name)
{
    if (fam.type == nullptr) {
        fam.type = type;
        return;
    }
    panic_if(std::strcmp(fam.type, type) != 0,
             "OpenMetrics family '%s' mixes %s and %s samples",
             name.c_str(), fam.type, type);
}

void
printLabels(std::FILE *f,
            const std::vector<std::pair<std::string, std::string>>
                &labels,
            const std::string &run, const char *le = nullptr)
{
    std::fputc('{', f);
    bool first = true;
    for (const auto &kv : labels) {
        std::fprintf(f, "%s%s=\"%s\"", first ? "" : ",",
                     kv.first.c_str(),
                     escapeLabelValue(kv.second).c_str());
        first = false;
    }
    std::fprintf(f, "%srun=\"%s\"", first ? "" : ",",
                 escapeLabelValue(run).c_str());
    if (le != nullptr)
        std::fprintf(f, ",le=\"%s\"", le);
    std::fputc('}', f);
}

} // anonymous namespace

void
writeOpenMetrics(std::FILE *f,
                 const std::vector<MetricsSnapshot> &runs)
{
    std::map<std::string, Family> families;

    for (const MetricsSnapshot &snap : runs) {
        for (const auto &s : snap.scalars) {
            MetricName mn = mapDottedName(s.name, false);
            Family &fam = families[mn.family];
            setType(fam, s.isCounter ? "counter" : "gauge",
                    mn.family);
            fam.scalars.push_back(ScalarSample{
                snap.run, s.name, std::move(mn.labels), s.value});
        }
        for (const auto &h : snap.histograms) {
            MetricName mn = mapDottedName(h.name, true);
            Family &fam = families[mn.family];
            setType(fam, "histogram", mn.family);
            fam.hists.push_back(HistSample{
                snap.run, h.name, std::move(mn.labels), &h});
        }
    }

    for (auto &fkv : families) {
        const std::string &name = fkv.first;
        Family &fam = fkv.second;
        std::fprintf(f, "# TYPE %s %s\n", name.c_str(), fam.type);

        auto byRunThenName = [](const auto &a, const auto &b) {
            if (a.run != b.run)
                return a.run < b.run;
            return a.dotted < b.dotted;
        };
        std::sort(fam.scalars.begin(), fam.scalars.end(),
                  byRunThenName);
        std::sort(fam.hists.begin(), fam.hists.end(),
                  byRunThenName);

        bool counter = std::strcmp(fam.type, "counter") == 0;
        for (const ScalarSample &s : fam.scalars) {
            std::fprintf(f, "%s%s", name.c_str(),
                         counter ? "_total" : "");
            printLabels(f, s.labels, s.run);
            std::fprintf(f, " %.17g\n", s.value);
        }

        for (const HistSample &hs : fam.hists) {
            const MetricsSnapshot::Hist &h = *hs.hist;
            // Cumulative buckets: underflow samples (x < 0) fall in
            // every bucket; the last stored bucket is the overflow
            // count and only contributes to +Inf.
            std::uint64_t cum = h.underflow;
            for (std::size_t i = 0; i + 1 < h.buckets.size(); ++i) {
                cum += h.buckets[i];
                char le[32];
                std::snprintf(le, sizeof(le), "%.17g",
                              h.bucketWidth *
                                  static_cast<double>(i + 1));
                std::fprintf(f, "%s_bucket", name.c_str());
                printLabels(f, hs.labels, hs.run, le);
                std::fprintf(f, " %llu\n",
                             static_cast<unsigned long long>(cum));
            }
            std::fprintf(f, "%s_bucket", name.c_str());
            printLabels(f, hs.labels, hs.run, "+Inf");
            std::fprintf(f, " %llu\n",
                         static_cast<unsigned long long>(h.count));
            std::fprintf(f, "%s_count", name.c_str());
            printLabels(f, hs.labels, hs.run);
            std::fprintf(f, " %llu\n",
                         static_cast<unsigned long long>(h.count));
            std::fprintf(f, "%s_sum", name.c_str());
            printLabels(f, hs.labels, hs.run);
            std::fprintf(f, " %.17g\n", h.sum);
        }
    }
    std::fputs("# EOF\n", f);
}

void
writeOpenMetricsFile(const std::string &path,
                     const std::vector<MetricsSnapshot> &runs)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    fatal_if(f == nullptr, "cannot write metrics file '%s'",
             path.c_str());
    writeOpenMetrics(f, runs);
    std::fclose(f);
}

namespace
{

/** fflush + fsync + fclose + rename(tmp -> path); fatal on error. */
void
commitFile(std::FILE *f, const std::string &tmp,
           const std::string &path)
{
    fatal_if(std::fflush(f) != 0, "cannot flush '%s': %s",
             tmp.c_str(), std::strerror(errno));
    fatal_if(::fsync(::fileno(f)) != 0, "cannot fsync '%s': %s",
             tmp.c_str(), std::strerror(errno));
    std::fclose(f);
    fatal_if(std::rename(tmp.c_str(), path.c_str()) != 0,
             "cannot rename '%s' to '%s': %s", tmp.c_str(),
             path.c_str(), std::strerror(errno));
}

} // anonymous namespace

void
writeOpenMetricsFileAtomic(const std::string &path,
                           const std::vector<MetricsSnapshot> &runs)
{
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    fatal_if(f == nullptr, "cannot write metrics file '%s'",
             tmp.c_str());
    writeOpenMetrics(f, runs);
    commitFile(f, tmp, path);
}

void
writeMetricsShardFile(const std::string &path,
                      const MetricsSnapshot &snap)
{
    // One temporary per writing thread: two workers finishing runs
    // that share a label never write the same file.
    std::size_t tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".%zx.tmp", tid);
    std::string tmp = path + suffix;
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    fatal_if(f == nullptr, "cannot write metrics shard '%s'",
             tmp.c_str());
    // Run labels may contain spaces; "run" consumes the rest of the
    // line.  Dotted names never contain whitespace (the stat-name
    // lint), so the remaining records are space-tokenized.
    std::fprintf(f, "profess-shard 1\n");
    std::fprintf(f, "run %s\n", snap.run.c_str());
    for (const auto &s : snap.scalars) {
        std::fprintf(f, "scalar %s %c %.17g\n", s.name.c_str(),
                     s.isCounter ? 'c' : 'g', s.value);
    }
    for (const auto &h : snap.histograms) {
        std::fprintf(f, "hist %s %.17g %llu %llu %.17g %zu",
                     h.name.c_str(), h.bucketWidth,
                     static_cast<unsigned long long>(h.underflow),
                     static_cast<unsigned long long>(h.count), h.sum,
                     h.buckets.size());
        for (std::uint64_t b : h.buckets) {
            std::fprintf(f, " %llu",
                         static_cast<unsigned long long>(b));
        }
        std::fputc('\n', f);
    }
    std::fprintf(f, "end\n");
    commitFile(f, tmp, path);
}

namespace
{

std::uint64_t
shardU64(const std::string &path, int lineno, const std::string &tok)
{
    char *end = nullptr;
    std::uint64_t v = std::strtoull(tok.c_str(), &end, 10);
    fatal_if(end == tok.c_str() || *end != '\0',
             "%s:%d: bad integer '%s' in metrics shard",
             path.c_str(), lineno, tok.c_str());
    return v;
}

double
shardDouble(const std::string &path, int lineno,
            const std::string &tok)
{
    char *end = nullptr;
    double v = std::strtod(tok.c_str(), &end);
    fatal_if(end == tok.c_str() || *end != '\0',
             "%s:%d: bad number '%s' in metrics shard", path.c_str(),
             lineno, tok.c_str());
    return v;
}

} // anonymous namespace

MetricsSnapshot
readMetricsShardFile(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in.is_open(), "cannot open metrics shard '%s'",
             path.c_str());
    MetricsSnapshot snap;
    std::string line;
    int lineno = 0;
    bool have_run = false;
    bool have_end = false;

    fatal_if(!std::getline(in, line) || line != "profess-shard 1",
             "%s:1: not a profess-shard v1 file", path.c_str());
    lineno = 1;

    while (std::getline(in, line)) {
        ++lineno;
        fatal_if(have_end, "%s:%d: content after 'end'",
                 path.c_str(), lineno);
        if (line.rfind("run ", 0) == 0) {
            snap.run = line.substr(4);
            have_run = true;
            continue;
        }
        if (line == "end") {
            have_end = true;
            continue;
        }
        std::istringstream is(line);
        std::string rec;
        is >> rec;
        if (rec == "scalar") {
            std::string name, kind, val;
            is >> name >> kind >> val;
            fatal_if(is.fail() || (kind != "c" && kind != "g"),
                     "%s:%d: malformed scalar record", path.c_str(),
                     lineno);
            MetricsSnapshot::Scalar s;
            s.name = name;
            s.isCounter = (kind == "c");
            s.value = shardDouble(path, lineno, val);
            snap.scalars.push_back(std::move(s));
        } else if (rec == "hist") {
            std::string name, width, under, count, sum, nbuckets;
            is >> name >> width >> under >> count >> sum >> nbuckets;
            fatal_if(is.fail(), "%s:%d: malformed hist record",
                     path.c_str(), lineno);
            MetricsSnapshot::Hist h;
            h.name = name;
            h.bucketWidth = shardDouble(path, lineno, width);
            h.underflow = shardU64(path, lineno, under);
            h.count = shardU64(path, lineno, count);
            h.sum = shardDouble(path, lineno, sum);
            std::size_t n = shardU64(path, lineno, nbuckets);
            for (std::size_t i = 0; i < n; ++i) {
                std::string b;
                is >> b;
                fatal_if(is.fail(), "%s:%d: hist record truncated",
                         path.c_str(), lineno);
                h.buckets.push_back(shardU64(path, lineno, b));
            }
            snap.histograms.push_back(std::move(h));
        } else {
            fatal("%s:%d: unknown shard record '%s'", path.c_str(),
                  lineno, rec.c_str());
        }
    }
    fatal_if(!have_run || !have_end,
             "%s: truncated metrics shard (missing %s)",
             path.c_str(), have_run ? "'end'" : "'run'");
    return snap;
}

} // namespace telemetry

} // namespace profess
