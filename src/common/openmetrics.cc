#include "common/openmetrics.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

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

namespace
{

/** One sample of a family: a scalar entry or a histogram. */
struct Sample
{
    std::vector<std::pair<std::string, std::string>> labels;
    const StatRegistry::Entry *scalar = nullptr;
    const Histogram *hist = nullptr;
};

/** One exposition family: scalar-typed or histogram-typed. */
struct Family
{
    const char *type = nullptr; ///< "counter"/"gauge"/"histogram"
    std::vector<Sample> samples; ///< in dotted-name order
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
appendG17(std::string &out, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
}

/** Append `{k="v",...,run="<run>"[,le="<le>"]}`; `run` comes
 *  already escaped. */
void
appendLabels(std::string &out,
             const std::vector<std::pair<std::string, std::string>>
                 &labels,
             const std::string &run, const std::string *le = nullptr)
{
    out += '{';
    for (const auto &kv : labels) {
        out += kv.first;
        out += "=\"";
        out += escapeLabelValue(kv.second);
        out += "\",";
    }
    out += "run=\"";
    out += run;
    out += '"';
    if (le != nullptr) {
        out += ",le=\"";
        out += *le;
        out += '"';
    }
    out += '}';
}

} // anonymous namespace

std::string
renderOpenMetrics(const StatRegistry &registry,
                  const std::string &run_label)
{
    // entries() and histograms() are sorted by name, so appending
    // in their order leaves every family's samples sorted.
    std::map<std::string, Family> families;
    std::vector<std::string> derived;
    for (const auto &he : registry.histograms()) {
        derived.push_back(he.name + ".count");
        derived.push_back(he.name + ".sum");
        MetricName mn = mapDottedName(he.name, true);
        Family &fam = families[mn.family];
        setType(fam, "histogram", mn.family);
        fam.samples.push_back(
            Sample{std::move(mn.labels), nullptr, he.histogram});
    }
    std::sort(derived.begin(), derived.end());
    for (const auto &e : registry.entries()) {
        if (std::binary_search(derived.begin(), derived.end(),
                               e.name))
            continue;
        MetricName mn = mapDottedName(e.name, false);
        Family &fam = families[mn.family];
        setType(fam, e.counter ? "counter" : "gauge", mn.family);
        fam.samples.push_back(Sample{std::move(mn.labels), &e, nullptr});
    }

    const std::string run = escapeLabelValue(run_label);
    std::string out;
    for (const auto &[name, fam] : families) {
        out += "# TYPE " + name + " " + fam.type + "\n";
        for (const Sample &s : fam.samples) {
            if (s.scalar != nullptr) {
                const StatRegistry::Entry &e = *s.scalar;
                out += name;
                if (e.counter)
                    out += "_total";
                appendLabels(out, s.labels, run);
                out += ' ';
                appendG17(out, e.counter
                                   ? static_cast<double>(*e.counter)
                                   : e.probe());
                out += '\n';
                continue;
            }
            // Cumulative buckets: underflow samples (x < 0) fall in
            // every bucket; the last stored bucket is the overflow
            // count and only contributes to +Inf.
            const Histogram &h = *s.hist;
            const std::string count =
                std::to_string(h.summary().count());
            std::uint64_t cum = h.underflow();
            std::string le;
            for (std::size_t i = 0; i + 1 < h.numBuckets(); ++i) {
                cum += h.bucket(i);
                le.clear();
                appendG17(le, h.bucketWidth() *
                                  static_cast<double>(i + 1));
                out += name + "_bucket";
                appendLabels(out, s.labels, run, &le);
                out += ' ' + std::to_string(cum) + '\n';
            }
            le = "+Inf";
            out += name + "_bucket";
            appendLabels(out, s.labels, run, &le);
            out += ' ' + count + '\n';
            out += name + "_count";
            appendLabels(out, s.labels, run);
            out += ' ' + count + '\n';
            out += name + "_sum";
            appendLabels(out, s.labels, run);
            out += ' ';
            appendG17(out, h.sum());
            out += '\n';
        }
    }
    out += "# EOF\n";
    return out;
}

std::string
mergeOpenMetrics(const std::vector<std::string> &paths)
{
    struct Block
    {
        std::string type;
        std::string where; ///< "file:line" of its first "# TYPE"
        std::string lines; ///< every file's samples, in file order
    };
    std::map<std::string, Block> families;

    for (const std::string &path : paths) {
        std::ifstream in(path, std::ios::binary);
        fatal_if(!in.is_open(), "cannot open metrics shard '%s'",
                 path.c_str());
        Block *cur = nullptr;
        bool eof = false;
        int lineno = 0;
        for (std::string line; std::getline(in, line);) {
            ++lineno;
            fatal_if(eof, "%s:%d: content after '# EOF'",
                     path.c_str(), lineno);
            if (line == "# EOF") {
                eof = true;
                continue;
            }
            if (line.starts_with("# TYPE ")) {
                std::size_t sp = line.find(' ', 7);
                fatal_if(sp == std::string::npos,
                         "%s:%d: malformed '# TYPE' line",
                         path.c_str(), lineno);
                std::string name = line.substr(7, sp - 7);
                std::string type = line.substr(sp + 1);
                std::string where =
                    path + ":" + std::to_string(lineno);
                auto [it, fresh] = families.try_emplace(
                    name, Block{type, where, ""});
                fatal_if(!fresh && it->second.type != type,
                         "%s: family '%s' is typed %s here but %s "
                         "at %s",
                         where.c_str(), name.c_str(), type.c_str(),
                         it->second.type.c_str(),
                         it->second.where.c_str());
                cur = &it->second;
                continue;
            }
            fatal_if(cur == nullptr,
                     "%s:%d: sample before any '# TYPE' line",
                     path.c_str(), lineno);
            cur->lines += line;
            cur->lines += '\n';
        }
        fatal_if(!eof, "%s:%d: truncated metrics shard (no final "
                       "'# EOF')",
                 path.c_str(), lineno);
    }

    std::string out;
    for (const auto &[name, block] : families) {
        out += "# TYPE " + name + " " + block.type + "\n";
        out += block.lines;
    }
    out += "# EOF\n";
    return out;
}

} // namespace telemetry

} // namespace profess
