/**
 * @file
 * The benchmark's measuring program.  Runs one workload (slices.hh)
 * repeatedly on the calling thread for a fixed time and prints one
 * JSON line with every repetition's host costs, job digests and,
 * when traced, per-layer metrics.  perfbench/run.py builds it, turns
 * the repetitions into medians and checks the digests.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *
 * --trace 0 times untraced repetitions only.  --trace 1 alternates
 * untraced and traced repetitions (layers.hh), so the traced digests
 * can be compared with untraced ones and the tracing overhead read
 * off the same process.
 */

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/telemetry.hh"
#include "layers.hh"
#include "sim/run_telemetry.hh"
#include "sim/scenario.hh"
#include "slices.hh"

extern char **environ;

namespace
{

using namespace perfbench;
using Clock = std::chrono::steady_clock;

[[noreturn]] void
refuse(const char *why, const char *what = "")
{
    std::fprintf(stderr, "perfbench: %s%s\n", why, what);
    std::exit(2);
}

/**
 * Refuse to measure anything but the plain optimised simulator: an
 * audit, determinism-sanitizer or sanitizer build changes the hot
 * path, and PROFESS_* variables change the program or its run size
 * (PROFESS_TRACE even adds a getenv printer to System::run).
 */
void
checkCleanRun()
{
#if PROFESS_AUDIT
    refuse("refusing to measure a PROFESS_AUDIT build");
#endif
#if PROFESS_DETSAN
    refuse("refusing to measure a PROFESS_DETSAN build");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    refuse("refusing to measure a sanitizer build");
#endif
#ifndef __OPTIMIZE__
    refuse("refusing to measure an unoptimised build");
#endif
    if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr)
        refuse("refusing to measure a sanitizer build: ",
               PERFBENCH_CXX_FLAGS);
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "PROFESS_", 8) == 0)
            refuse("refusing to run with ", *e);
    }
    if (profess::sim::TelemetryConfig::global().enabled() ||
        profess::sim::ScenarioConfig::global().loaded())
        refuse("telemetry or a fault scenario is switched on");
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/**
 * Peak resident set of this process image (VmHWM).  ru_maxrss is not
 * used: Linux carries the launching process's peak across exec into
 * it, so it would report the launching Python script's footprint.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        refuse("cannot read /proc/self/status");
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
            break;
    }
    std::fclose(f);
    if (kb < 0)
        refuse("no VmHWM in /proc/self/status");
    return static_cast<double>(kb) / 1024.0;
}

/** JSON number; non-finite values become null. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "\"%016llx\"",
                  static_cast<unsigned long long>(v));
    return buf;
}

using profess::telemetry::jsonQuote;

/** One repetition of the workload, rendered as a JSON object. */
std::string
runRep(const Slice &slice, std::uint64_t seed, LayerProbe *probe,
       std::vector<std::pair<std::string, double>> *headline_out)
{
    RepCost cost;
    double cpu0 = cpuSeconds();
    auto t0 = Clock::now();
    std::vector<JobResult> results = runSlice(slice, seed, cost, probe);
    double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    double cpu = cpuSeconds() - cpu0;

    std::string s = "{\"traced\":";
    s += probe != nullptr ? "true" : "false";
    s += ",\"wall_s\":" + num(wall) + ",\"cpu_s\":" + num(cpu) +
         ",\"setup_s\":" + num(cost.setupS) + ",\"run_s\":" +
         num(cost.runS) + ",\"accesses\":" + std::to_string(cost.accesses) +
         ",\"jobs\":[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const JobResult &jr = results[i];
        s += i == 0 ? "{" : ",{";
        s += "\"name\":" + jsonQuote(jr.name) + ",\"completed\":" +
             (jr.completed ? "true" : "false") +
             ",\"digest\":" + hex(jr.digest) + "}";
    }
    s += "]";
    if (probe != nullptr) {
        LayerMetrics layers = probe->finish();
        layers["sim.jobs"] = static_cast<double>(results.size());
        layers["sim.alone_runs"] = static_cast<double>(cost.aloneRuns);
        s += ",\"counts_digest\":" + hex(probe->countsDigest()) +
             ",\"layers\":{";
        const char *sep = "";
        for (const auto &[k, v] : layers) {
            s += sep;
            s += jsonQuote(k) + ":" + num(v);
            sep = ",";
        }
        s += "}";
    }
    s += "}";
    if (headline_out != nullptr)
        *headline_out = headline(slice, results);
    return s;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            refuse("missing value for ", argv[i]);
        const char *v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            seconds = std::strtod(v, nullptr);
        else if (a == "--trace")
            trace = std::atoi(v);
        else
            refuse("unknown argument ", a.c_str());
    }
    const Slice *slice = findSlice(workload);
    if (slice == nullptr)
        refuse("unknown workload ", workload.c_str());
    if (trace != 0 && trace != 1)
        refuse("--trace takes 0 or 1");
    checkCleanRun();

    std::vector<std::string> reps;
    std::vector<std::pair<std::string, double>> head;
    double os_ns_per_translate = 0.0;
    // Repeat while the next round still fits in --seconds (judged by
    // the previous round's duration), with a minimum number of
    // repetitions for a median.
    auto start = Clock::now();
    double prev = 0.0;
    auto another = [&](std::size_t min_reps) {
        double now =
            std::chrono::duration<double>(Clock::now() - start).count();
        double round = now - prev;
        prev = now;
        return reps.size() < min_reps || now + round <= seconds;
    };
    if (trace == 0) {
        while (another(3))
            reps.push_back(runRep(*slice, seed, nullptr,
                                  reps.empty() ? &head : nullptr));
    } else {
        // Untraced and traced repetitions alternate; the first traced
        // one also records the page stream for the os replay.
        std::unique_ptr<LayerProbe> recorder;
        while (another(4)) {
            reps.push_back(runRep(*slice, seed, nullptr,
                                  reps.empty() ? &head : nullptr));
            bool record = recorder == nullptr;
            auto probe = std::make_unique<LayerProbe>(record);
            reps.push_back(runRep(*slice, seed, probe.get(), nullptr));
            if (record)
                recorder = std::move(probe);
        }
        os_ns_per_translate = recorder->replayTranslations();
    }

    std::string out = "{\"workload\":" + jsonQuote(slice->name) +
                      ",\"seed\":" + std::to_string(seed) +
                      ",\"trace\":" + std::to_string(trace);
    out += ",\"provenance\":{\"compiler\":" + jsonQuote(__VERSION__) +
           ",\"build_type\":" + jsonQuote(PERFBENCH_BUILD_TYPE) +
           ",\"flags\":" + jsonQuote(PERFBENCH_CXX_FLAGS) + "}";
    out += ",\"peak_rss_mb\":" + num(peakRssMb());
    out += ",\"os_ns_per_translate\":" + num(os_ns_per_translate);
    out += ",\"headline\":{";
    for (std::size_t i = 0; i < head.size(); ++i) {
        out += i == 0 ? "" : ",";
        out += jsonQuote(head[i].first) + ":" + num(head[i].second);
    }
    out += "},\"reps\":[";
    for (std::size_t i = 0; i < reps.size(); ++i) {
        out += i == 0 ? "" : ",";
        out += reps[i];
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
    return 0;
}
