#include "sim/run_telemetry.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <functional>
#include <thread>
#include <type_traits>

#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/latency_attr.hh"
#include "common/logging.hh"
#include "common/openmetrics.hh"
#include "common/rng.hh"
#include "core/rsm.hh"
#include "sim/system.hh"

namespace profess
{

namespace sim
{

/** mkdir -p for the shallow DIR/<label> layout used here. */
void
makeDirs(const std::string &path)
{
    std::string partial;
    for (std::size_t i = 0; i <= path.size(); ++i) {
        if (i == path.size() || path[i] == '/') {
            if (!partial.empty() && partial != ".") {
                if (::mkdir(partial.c_str(), 0777) != 0 &&
                    errno != EEXIST) {
                    fatal("cannot create directory '%s': %s",
                          partial.c_str(), std::strerror(errno));
                }
            }
        }
        if (i < path.size())
            partial += path[i];
    }
}

namespace
{

std::FILE *
openOut(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        warn("cannot open telemetry output '%s': %s", path.c_str(),
             std::strerror(errno));
    }
    return f;
}

} // anonymous namespace

const TelemetryConfig &
TelemetryConfig::global()
{
    // Never written: the default options, read only by
    // perfbench/perfbench.cc:76-77.
    static const TelemetryConfig cfg;
    return cfg;
}

std::string
shardDir(const std::string &path)
{
    return path + ".shards";
}

std::string
shardFileName(const std::string &run_label)
{
    // sanitizeLabel can alias distinct labels ("a/b" vs "a_b"); a
    // hash of the exact label keeps the file names one-to-one.
    std::uint64_t h = hashCombine(mix64(0x54a8d0ull), run_label);
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), "-%016llx.prom",
                  static_cast<unsigned long long>(h));
    return sanitizeLabel(run_label) + suffix;
}

void
writeFileAtomic(const std::string &path, const std::string &text)
{
    // One temporary per writing thread: two workers finishing runs
    // that share a label never write the same file.
    std::size_t tid =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".%zx.tmp", tid);
    const std::string tmp = path + suffix;
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    fatal_if(f == nullptr, "cannot write '%s': %s", tmp.c_str(),
             std::strerror(errno));
    fatal_if(std::fwrite(text.data(), 1, text.size(), f) !=
                     text.size() ||
                 std::fflush(f) != 0,
             "cannot write '%s': %s", tmp.c_str(),
             std::strerror(errno));
    fatal_if(::fsync(::fileno(f)) != 0, "cannot fsync '%s': %s",
             tmp.c_str(), std::strerror(errno));
    std::fclose(f);
    fatal_if(std::rename(tmp.c_str(), path.c_str()) != 0,
             "cannot rename '%s' to '%s': %s", tmp.c_str(),
             path.c_str(), std::strerror(errno));
}

void
mergeShards(const std::string &path, std::vector<std::string> run_labels)
{
    // Shards in label order give the same bytes as one exposition
    // rendered for all runs: samples sorted by (run, name) within
    // every family.
    std::sort(run_labels.begin(), run_labels.end());
    run_labels.erase(std::unique(run_labels.begin(), run_labels.end()),
                     run_labels.end());
    const std::string dir = shardDir(path);
    std::vector<std::string> files;
    files.reserve(run_labels.size());
    for (const std::string &label : run_labels)
        files.push_back(dir + "/" + shardFileName(label));
    writeFileAtomic(path, telemetry::mergeOpenMetrics(files));
}

void
registerFairnessGauges(telemetry::StatRegistry &registry,
                       const core::Rsm &rsm, unsigned num_programs)
{
    const core::Rsm *r = &rsm;
    auto slowdown = [r](unsigned i) {
        auto id = static_cast<ProgramId>(i);
        return std::max(r->sfA(id), r->sfB(id));
    };
    for (unsigned i = 0; i < num_programs; ++i) {
        registry.addProbe("fairness.p" + std::to_string(i) +
                              ".slowdown",
                          [slowdown, i]() { return slowdown(i); });
    }
    registry.addProbe("fairness.weighted_speedup",
                      [slowdown, num_programs]() {
                          double ws = 0.0;
                          for (unsigned i = 0; i < num_programs;
                               ++i) {
                              double s = slowdown(i);
                              ws += s > 0.0 ? 1.0 / s : 0.0;
                          }
                          return ws;
                      });
    registry.addProbe("fairness.max_slowdown",
                      [slowdown, num_programs]() {
                          double mx = 0.0;
                          for (unsigned i = 0; i < num_programs;
                               ++i)
                              mx = std::max(mx, slowdown(i));
                          return mx;
                      });
    registry.addProbe("fairness.unfairness",
                      [slowdown, num_programs]() {
                          double mx = 0.0;
                          double mn = 0.0;
                          for (unsigned i = 0; i < num_programs;
                               ++i) {
                              double s = slowdown(i);
                              mx = std::max(mx, s);
                              mn = (i == 0) ? s : std::min(mn, s);
                          }
                          return mn > 0.0 ? mx / mn : 0.0;
                      });
}

std::string
sanitizeLabel(const std::string &label)
{
    std::string s;
    s.reserve(label.size());
    for (char c : label) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                  c == '-';
        s += ok ? c : '_';
    }
    return s.empty() ? std::string("run") : s;
}

RunTelemetry::RunTelemetry(const TelemetryConfig &cfg,
                           const std::string &label)
    : cfg_(cfg), label_(label),
      wallStart_(std::chrono::steady_clock::now()),
      startedIso_(telemetry::utcNowIso())
{
    if (cfg_.trace) {
        decision_ =
            std::make_unique<telemetry::DecisionTraceSink>();
        chrome_ = std::make_unique<telemetry::ChromeTraceSink>();
    }
    if (!cfg_.outDir.empty()) {
        dir_ = cfg_.outDir + "/" + sanitizeLabel(label_);
        makeDirs(dir_);
    }
}

RunTelemetry::~RunTelemetry()
{
    if (epochsFile_ != nullptr)
        std::fclose(epochsFile_);
}

void
RunTelemetry::startSampler(EventQueue &eq)
{
    if (sampler_ == nullptr) {
        sampler_ = std::make_unique<telemetry::EpochSampler>(
            registry_, cfg_.epochInterval);
        if (!dir_.empty()) {
            epochsFile_ = openOut(dir_ + "/epochs.jsonl");
            sampler_->setOutput(epochsFile_);
        }
    }
    sampler_->start(eq);
}

void
RunTelemetry::stopSampler()
{
    if (sampler_ != nullptr)
        sampler_->stop();
}

telemetry::LatencyAttribution *
RunTelemetry::attribution(unsigned num_programs)
{
    if (attr_ == nullptr) {
        attr_ = std::make_unique<telemetry::LatencyAttribution>(
            num_programs);
        attr_->registerTelemetry(registry_, "latency");
    }
    return attr_.get();
}

void
RunTelemetry::finish(const std::string &policy,
                     const std::string &workload, std::uint64_t seed,
                     const std::string &config_json, bool completed)
{
    if (epochsFile_ != nullptr)
        std::fflush(epochsFile_);

    // The run's exposition is rendered once, while the registry's
    // live pointers are valid.  As a shard it makes the run durable
    // the moment it completes (a killed sweep loses at most the
    // in-flight run).
    if (cfg_.metricsOut.empty() && dir_.empty())
        return;
    const std::string exposition =
        telemetry::renderOpenMetrics(registry_, label_);
    if (!cfg_.metricsOut.empty()) {
        const std::string dir = shardDir(cfg_.metricsOut);
        makeDirs(dir);
        writeFileAtomic(dir + "/" + shardFileName(label_), exposition);
    }
    if (dir_.empty())
        return;
    writeFileAtomic(dir_ + "/metrics.prom", exposition);

    telemetry::RunManifest m;
    m.label = label_;
    m.policy = policy;
    m.workload = workload;
    m.seed = seed;
    m.completed = completed;
    m.gitSha = telemetry::gitHeadSha();
    m.config = config_json;
    m.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wallStart_)
            .count();
    m.peakRssKb = telemetry::peakRssKb();
    m.startedIso = startedIso_;
    if (std::FILE *f = openOut(dir_ + "/manifest.json")) {
        m.write(f);
        std::fclose(f);
    }
    if (decision_ != nullptr) {
        if (std::FILE *f = openOut(dir_ + "/decisions.jsonl")) {
            decision_->flushJsonl(f);
            std::fclose(f);
        }
    }
    if (chrome_ != nullptr) {
        if (std::FILE *f = openOut(dir_ + "/trace.json")) {
            chrome_->writeJson(
                f, {{"controller.access", &accessSlot_},
                    {"channel.schedule", &schedSlot_}});
            std::fclose(f);
        }
    }
}

std::string
configJson(const SystemConfig &cfg)
{
    std::string s;
    forEachKnob(cfg, [&s](const char *name, auto v) {
        s += s.empty() ? "{\"" : ", \"";
        s += name;
        s += "\": ";
        if constexpr (std::is_same_v<decltype(v), bool>) {
            s += v ? "true" : "false";
        } else if constexpr (std::is_floating_point_v<decltype(v)>) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.17g", v);
            s += buf;
        } else {
            s += std::to_string(v);
        }
    });
    return s + "}";
}

} // namespace sim

} // namespace profess
