#include "common/telemetry.hh"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstring>
#include <ctime>
#include <fstream>

#include "common/event.hh"
#include "common/logging.hh"

namespace profess
{

namespace telemetry
{

//
// StatRegistry
//

namespace
{

/**
 * @return true if `name` is dotted lower_snake: non-empty segments
 *         of [a-z0-9_] joined by '.', the first starting with a
 *         letter ("mem.ch0.row_hits").  OpenMetrics family names
 *         are derived from it (openmetrics.cc) and admit no other
 *         character.
 */
bool
isStatName(const std::string &name)
{
    if (name.empty() || name[0] < 'a' || name[0] > 'z')
        return false;
    char prev = '.';
    for (char c : name) {
        bool word = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
        if (!word && !(c == '.' && prev != '.'))
            return false;
        prev = c;
    }
    return prev != '.';
}

} // anonymous namespace

void
StatRegistry::claim(const std::string &name)
{
    // Checked once per registration, which composes names at run
    // time from prefixes, so every name that can be registered is
    // checked, literal or not.  Duplicate names would silently
    // shadow each other in value() and produce ambiguous report
    // columns; the hash set keeps the check O(1) per entry.
    panic_if(!isStatName(name),
             "statistic name '%s' is not dotted lower_snake",
             name.c_str());
    panic_if(!names_.insert(name).second,
             "duplicate statistic name '%s'", name.c_str());
}

void
StatRegistry::addEntry(Entry e)
{
    claim(e.name);
    entries_.push_back(std::move(e));
    sorted_ = false;
}

void
StatRegistry::addSet(const std::string &prefix, const StatSet &set)
{
    for (const auto &kv : set.counters()) {
        Entry e;
        e.name = prefix + "." + kv.first;
        e.isCounter = true;
        e.counter = &kv.second;
        addEntry(std::move(e));
    }
    // Values are doubles set late in a run; sample them via a probe
    // so the current value is read at export/sample time.
    for (const auto &kv : set.values()) {
        const std::string name = kv.first;
        const StatSet *s = &set;
        Entry e;
        e.name = prefix + "." + name;
        e.probe = [s, name]() { return s->value(name); };
        addEntry(std::move(e));
    }
}

void
StatRegistry::addProbe(const std::string &name,
                       std::function<double()> fn)
{
    Entry e;
    e.name = name;
    e.probe = std::move(fn);
    addEntry(std::move(e));
}

void
StatRegistry::addCounter(const std::string &name,
                         const std::uint64_t &c)
{
    Entry e;
    e.name = name;
    e.isCounter = true;
    e.counter = &c;
    addEntry(std::move(e));
}

void
StatRegistry::addHistogram(const std::string &name,
                           const Histogram &h)
{
    // The name itself is claimed so a histogram can never shadow a
    // scalar entry (or vice versa); the derived .count/.sum probes
    // are plain entries.
    claim(name);
    histograms_.push_back(HistogramEntry{name, &h});
    histogramsSorted_ = false;
    const Histogram *hp = &h;
    addProbe(name + ".count", [hp]() {
        return static_cast<double>(hp->summary().count());
    });
    addProbe(name + ".sum", [hp]() { return hp->sum(); });
}

const std::vector<StatRegistry::HistogramEntry> &
StatRegistry::histograms() const
{
    if (!histogramsSorted_) {
        std::stable_sort(histograms_.begin(), histograms_.end(),
                         [](const HistogramEntry &a,
                            const HistogramEntry &b) {
                             return a.name < b.name;
                         });
        histogramsSorted_ = true;
    }
    return histograms_;
}

const std::vector<StatRegistry::Entry> &
StatRegistry::entries() const
{
    if (!sorted_) {
        std::stable_sort(entries_.begin(), entries_.end(),
                         [](const Entry &a, const Entry &b) {
                             return a.name < b.name;
                         });
        sorted_ = true;
    }
    return entries_;
}

double
StatRegistry::value(const std::string &name) const
{
    for (const Entry &e : entries()) {
        if (e.name == name) {
            return e.counter ? static_cast<double>(*e.counter)
                             : e.probe();
        }
    }
    return 0.0;
}

bool
StatRegistry::contains(const std::string &name) const
{
    return names_.count(name) != 0;
}

std::vector<std::string>
StatRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries().size());
    for (const Entry &e : entries())
        out.push_back(e.name);
    return out;
}

//
// EpochSampler
//

EpochSampler::EpochSampler(const StatRegistry &registry,
                           Tick interval_ticks)
    : registry_(registry), interval_(interval_ticks)
{
    panic_if(interval_ == 0, "EpochSampler interval must be > 0");
}

void
EpochSampler::start(EventQueue &eq)
{
    running_ = true;
    arm(eq);
}

void
EpochSampler::arm(EventQueue &eq)
{
    eq.scheduleIn(interval_, [this, &eq]() {
        if (!running_)
            return;
        sampleNow(eq.now());
        arm(eq);
    });
}

namespace
{

/** Append `v` as printf's "%.17g" writes it (the standard specifies
 *  to_chars with a precision as printf with that precision). */
void
appendG17(std::string &out, double v)
{
    char buf[32];
    auto r = std::to_chars(buf, buf + sizeof(buf), v,
                           std::chars_format::general, 17);
    out.append(buf, r.ptr);
}

} // anonymous namespace

void
EpochSampler::sampleNow(Tick tick)
{
#if PROFESS_DETSAN
    detsan_.mix(tick);
    detsan_.mix(epoch_);
#endif
    const std::vector<StatRegistry::Entry> &entries = registry_.entries();
    if (out_) {
        if (keys_.size() != entries.size()) {
            // The registry is complete before the first sample, so
            // the quoted names are built once per run.
            keys_.clear();
            for (const StatRegistry::Entry &e : entries)
                keys_.push_back(jsonQuote(e.name) + ':');
        }
        line_ = "{\"tick\":" + std::to_string(tick) + ",\"epoch\":" +
                std::to_string(epoch_) + ",\"v\":{";
    }
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const StatRegistry::Entry &e = entries[i];
        double v = e.counter ? static_cast<double>(*e.counter)
                             : e.probe();
#if PROFESS_DETSAN
        detsan_.mixDouble(v);
#endif
        if (out_) {
            if (i != 0)
                line_ += ',';
            line_ += keys_[i];
            appendG17(line_, v);
        }
    }
    if (out_) {
        line_ += "}}\n";
        std::fwrite(line_.data(), 1, line_.size(), out_);
    }
    ++epoch_;
}

//
// RunManifest and environment probes
//

void
RunManifest::write(std::FILE *f) const
{
    std::fputs("{\n", f);
    std::fprintf(f, "  \"schema\": \"profess-run-manifest-v1\",\n");
    std::fprintf(f, "  \"label\": %s,\n", jsonQuote(label).c_str());
    std::fprintf(f, "  \"policy\": %s,\n", jsonQuote(policy).c_str());
    std::fprintf(f, "  \"workload\": %s,\n",
                 jsonQuote(workload).c_str());
    std::fprintf(f, "  \"seed\": %" PRIu64 ",\n", seed);
    std::fprintf(f, "  \"completed\": %s,\n",
                 completed ? "true" : "false");
    std::fprintf(f, "  \"git_sha\": %s,\n", jsonQuote(gitSha).c_str());
    std::fprintf(f, "  \"started\": %s,\n",
                 jsonQuote(startedIso).c_str());
    std::fprintf(f, "  \"wall_seconds\": %.3f,\n", wallSeconds);
    std::fprintf(f, "  \"peak_rss_kb\": %ld,\n", peakRssKb);
    std::fprintf(f, "  \"config\": %s\n",
                 config.empty() ? "{}" : config.c_str());
    std::fputs("}\n", f);
}

std::string
gitHeadSha(const std::string &repo_dir)
{
    auto slurpLine = [](const std::string &path) -> std::string {
        std::ifstream in(path);
        std::string line;
        if (!in || !std::getline(in, line))
            return "";
        while (!line.empty() &&
               (line.back() == '\n' || line.back() == '\r' ||
                line.back() == ' '))
            line.pop_back();
        return line;
    };

    // Binaries usually run from a build subdirectory, so walk up a
    // few levels until a .git appears.
    std::string root = repo_dir;
    std::string head;
    for (int depth = 0; depth < 6; ++depth) {
        head = slurpLine(root + "/.git/HEAD");
        if (!head.empty())
            break;
        root += "/..";
    }
    if (head.empty())
        return "";
    const std::string &dir = root;
    const std::string refPrefix = "ref: ";
    if (head.compare(0, refPrefix.size(), refPrefix) != 0)
        return head; // detached HEAD: the line is the sha itself

    std::string ref = head.substr(refPrefix.size());
    std::string sha = slurpLine(dir + "/.git/" + ref);
    if (!sha.empty())
        return sha;

    // The ref may only exist in packed-refs.
    std::ifstream packed(dir + "/.git/packed-refs");
    std::string line;
    while (packed && std::getline(packed, line)) {
        if (line.empty() || line[0] == '#' || line[0] == '^')
            continue;
        auto sp = line.find(' ');
        if (sp != std::string::npos && line.substr(sp + 1) == ref)
            return line.substr(0, sp);
    }
    return "";
}

std::string
utcNowIso()
{
    std::time_t t = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&t, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

long
peakRssKb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss; // Linux reports KiB
}

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
    return out;
}

} // namespace telemetry

} // namespace profess
