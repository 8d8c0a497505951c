#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/run_telemetry.hh"
#include "sim/scenario.hh"
#include "sim/workloads.hh"
#include "trace/spec_profiles.hh"

namespace profess
{

namespace sim
{

namespace
{

//
// Spec parsing
//

std::vector<std::string>
splitList(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t c = s.find(sep, pos);
        if (c == std::string::npos)
            c = s.size();
        if (c > pos)
            out.push_back(s.substr(pos, c - pos));
        pos = c + 1;
    }
    return out;
}

} // anonymous namespace

std::vector<std::string>
SweepSpec::mixPrograms(const std::string &mix)
{
    if (const WorkloadSpec *w = findWorkload(mix)) {
        return std::vector<std::string>(w->programs.begin(),
                                        w->programs.end());
    }
    std::vector<std::string> progs = splitList(mix, '+');
    fatal_if(progs.empty(), "sweep: empty workload mix");
    for (const std::string &p : progs) {
        fatal_if(trace::findProfile(p) == nullptr,
                 "sweep: '%s' in mix '%s' is neither a Table 10 "
                 "workload nor a Table 9 program",
                 p.c_str(), mix.c_str());
    }
    return progs;
}

SweepSpec
SweepSpec::fromFile(const std::string &path)
{
    SweepSpec s;
    s.seeds.clear();
    // Every knob value is applied to a scratch config as it is
    // read, so a bad key or value fails here with file:line, not
    // runs later.
    SystemConfig scratch;
    for (const std::vector<KeyValue> &line : readKeyValueLines(path)) {
        for (const KeyValue &kv : line) {
            const char *where = kv.where.c_str();
            if (kv.key == "preset") {
                fatal_if(kv.value != "quad" && kv.value != "single",
                         "%s: preset must be quad or single, got '%s'",
                         where, kv.value.c_str());
                s.preset = kv.value;
            } else if (kv.key == "policy") {
                for (const std::string &p : splitList(kv.value, ','))
                    s.policies.push_back(p);
            } else if (kv.key == "workload") {
                for (const std::string &m : splitList(kv.value, ','))
                    s.mixes.push_back(m);
            } else if (kv.key == "seed") {
                for (const std::string &v : splitList(kv.value, ','))
                    s.seeds.push_back(valueAs<std::uint64_t>(
                        KeyValue{kv.key, v, kv.where}));
            } else if (kv.key == "slowdowns") {
                s.slowdowns = valueAs<bool>(kv);
            } else if (kv.key == "sweep") {
                fatal_if(!s.sweepKey.empty(),
                         "%s: a sweep file sweeps at most one axis "
                         "(already sweeping '%s')",
                         where, s.sweepKey.c_str());
                std::size_t colon = kv.value.find(':');
                fatal_if(colon == std::string::npos || colon == 0 ||
                             colon + 1 >= kv.value.size(),
                         "%s: sweep needs <key>:<v1,v2,...>, got '%s'",
                         where, kv.value.c_str());
                s.sweepKey = kv.value.substr(0, colon);
                s.sweepValues =
                    splitList(kv.value.substr(colon + 1), ',');
                fatal_if(s.sweepValues.empty(),
                         "%s: sweep axis '%s' has no values", where,
                         s.sweepKey.c_str());
                for (const std::string &v : s.sweepValues)
                    applyKnob(scratch,
                              KeyValue{s.sweepKey, v, kv.where});
            } else {
                applyKnob(scratch, kv);
                s.overrides.push_back(kv);
            }
        }
    }
    fatal_if(s.policies.empty(), "%s: no policy= given",
             path.c_str());
    fatal_if(s.mixes.empty(), "%s: no workload= given",
             path.c_str());
    if (s.seeds.empty())
        s.seeds.push_back(1);
    for (const KeyValue &o : s.overrides) {
        fatal_if(o.key == s.sweepKey, "%s: '%s' is both fixed and swept",
                 o.where.c_str(), o.key.c_str());
    }
    for (const std::string &m : s.mixes)
        mixPrograms(m);
    return s;
}

std::uint64_t
SweepSpec::fingerprint() const
{
    std::uint64_t h = mix64(0x53eeb001ull);
    h = hashCombine(h, preset);
    h = hashCombine(h, policies.size());
    for (const std::string &p : policies)
        h = hashCombine(h, p);
    h = hashCombine(h, mixes.size());
    for (const std::string &m : mixes)
        h = hashCombine(h, m);
    h = hashCombine(h, seeds.size());
    for (std::uint64_t s : seeds)
        h = hashCombine(h, s);
    h = hashCombine(h, static_cast<std::uint64_t>(slowdowns));
    h = hashCombine(h, overrides.size());
    for (const KeyValue &o : overrides) {
        h = hashCombine(h, o.key);
        h = hashCombine(h, o.value);
    }
    h = hashCombine(h, sweepKey);
    h = hashCombine(h, sweepValues.size());
    for (const std::string &v : sweepValues)
        h = hashCombine(h, v);
    return h;
}

SystemConfig
SweepSpec::configAt(std::size_t point) const
{
    SystemConfig cfg = preset == "single"
                           ? SystemConfig::singleCore()
                           : SystemConfig::quadCore();
    for (const KeyValue &o : overrides)
        applyKnob(cfg, o);
    if (!sweepKey.empty())
        applyKnob(cfg, KeyValue{sweepKey, sweepValues.at(point),
                                "sweep axis"});
    return cfg;
}

std::size_t
SweepSpec::numRuns() const
{
    return numSweepPoints() * mixes.size() * policies.size() *
           seeds.size();
}

std::vector<RunJob>
SweepSpec::expand() const
{
    std::vector<RunJob> out;
    out.reserve(numRuns());
    const bool swept = !sweepKey.empty();
    for (std::size_t p = 0; p < numSweepPoints(); ++p) {
        SystemConfig cfg = configAt(p);
        for (const std::string &mix : mixes) {
            std::vector<std::string> progs = mixPrograms(mix);
            for (const std::string &pol : policies) {
                for (std::uint64_t seed : seeds) {
                    RunJob j;
                    j.cfg = cfg;
                    j.policy = pol;
                    j.programs = progs;
                    j.label = mix;
                    // Several seeds of one mix need distinct
                    // labels: the label seeds the run and names
                    // its telemetry shard.
                    if (seeds.size() > 1)
                        j.label += "_r" + std::to_string(seed);
                    // 1-based so every swept point gets an "_s<p>"
                    // telemetry suffix (sweepPoint 0 = unswept).
                    j.sweepPoint = swept ? p + 1 : 0;
                    j.slowdowns = slowdowns;
                    j.baseSeed = seed;
                    out.push_back(std::move(j));
                }
            }
        }
    }
    return out;
}

//
// Journal records
//

namespace
{

/** Append "%.17g" of `v` (round-trips binary64 exactly). */
void
appendG17(std::string &s, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    s += buf;
}

std::string
renderRecord(const SweepRunRecord &r)
{
    std::string s = "i=" + std::to_string(r.index);
    s += " key=" + r.key;
    s += " label=" + r.label;
    s += " policy=" + r.policy;
    s += " seed=" + std::to_string(r.seed);
    s += " sweep=" + std::to_string(r.sweepPoint);
    s += r.completed ? " completed=1" : " completed=0";
    s += " ws=";
    appendG17(s, r.weightedSpeedup);
    s += " maxsd=";
    appendG17(s, r.maxSlowdown);
    s += " eff=";
    appendG17(s, r.efficiency);
    s += " served=" + std::to_string(r.servedTotal);
    s += " swaps=" + std::to_string(r.swaps);
    return s + "\n";
}

/**
 * Parse one journal line.  A record is valid only if it renders back
 * to exactly the line read, so a missing, repeated, reordered or
 * non-canonical field is as fatal as a value that does not parse.
 */
SweepRunRecord
parseRecord(const std::vector<KeyValue> &line)
{
    SweepRunRecord r;
    std::string text;
    for (const KeyValue &kv : line) {
        text += (text.empty() ? "" : " ") + kv.key + "=" + kv.value;
        if (kv.key == "i")
            r.index = valueAs<std::size_t>(kv);
        else if (kv.key == "key")
            r.key = kv.value;
        else if (kv.key == "label")
            r.label = kv.value;
        else if (kv.key == "policy")
            r.policy = kv.value;
        else if (kv.key == "seed")
            r.seed = valueAs<std::uint64_t>(kv);
        else if (kv.key == "sweep")
            r.sweepPoint = valueAs<std::uint64_t>(kv);
        else if (kv.key == "completed")
            r.completed = valueAs<bool>(kv);
        else if (kv.key == "ws")
            r.weightedSpeedup = valueAs<double>(kv);
        else if (kv.key == "maxsd")
            r.maxSlowdown = valueAs<double>(kv);
        else if (kv.key == "eff")
            r.efficiency = valueAs<double>(kv);
        else if (kv.key == "served")
            r.servedTotal = valueAs<std::uint64_t>(kv);
        else if (kv.key == "swaps")
            r.swaps = valueAs<std::uint64_t>(kv);
    }
    fatal_if(renderRecord(r) != text + "\n",
             "%s: corrupt sweep journal record", line[0].where.c_str());
    return r;
}

std::string
renderHeader(std::uint64_t spec_fp, std::size_t runs)
{
    char buf[80];
    std::snprintf(buf, sizeof(buf),
                  "profess_sweep=2 spec=%016llx runs=%zu\n",
                  static_cast<unsigned long long>(spec_fp), runs);
    return buf;
}

bool
fileExists(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0;
}

void
flushSync(std::FILE *f, const std::string &path)
{
    fatal_if(std::fflush(f) != 0, "cannot flush '%s': %s",
             path.c_str(), std::strerror(errno));
    fatal_if(::fsync(::fileno(f)) != 0, "cannot fsync '%s': %s",
             path.c_str(), std::strerror(errno));
}

} // anonymous namespace

//
// SweepDriver
//

SweepDriver::SweepDriver(const SweepSpec &spec, const Options &opts,
                         RunOptions run_options)
    : spec_(spec), opts_(opts), runOptions_(std::move(run_options))
{
    fatal_if(opts_.outDir.empty(), "sweep: no output directory");
    fatal_if(!runOptions_.telemetry.metricsOut.empty(),
             "sweep: --metrics-out '%s' is not accepted; a sweep "
             "always writes its exposition to DIR/metrics.prom "
             "(here '%s')",
             runOptions_.telemetry.metricsOut.c_str(), metricsPath().c_str());
    runOptions_.telemetry.metricsOut = metricsPath();
    // The scenario schedule changes every run's trajectory, so a
    // journal written under one schedule must not satisfy a resume
    // under another.
    specFp_ = hashCombine(spec_.fingerprint(),
                          runOptions_.scenario.fingerprint());
    jobs_ = spec_.expand();
    keys_.reserve(jobs_.size());
    labels_.reserve(jobs_.size());
    runLabels_.reserve(jobs_.size());
    for (const RunJob &j : jobs_) {
        // Name each run as ParallelRunner::runOne does: the derived
        // seed, the jobLabel and the "<label>_<policy>" run label
        // must name the same run the DetSan journal and the metrics
        // shard see.
        std::uint64_t seed = deriveSeed(j.baseSeed, j.policy,
                                        j.label, j.sweepPoint);
        std::string tlabel = jobLabel(j);
        keys_.push_back(runIdentityKey(j.cfg, j.footprintScale,
                                       tlabel, j.policy, j.programs,
                                       seed));
        labels_.push_back(tlabel);
        runLabels_.push_back(tlabel + "_" + j.policy);
    }
    records_.assign(jobs_.size(), SweepRunRecord{});
    done_.assign(jobs_.size(), false);
}

SweepDriver::~SweepDriver()
{
    if (journal_ != nullptr)
        std::fclose(journal_);
}

void
SweepDriver::setRunCallback(
    std::function<void(std::size_t, std::size_t)> cb)
{
    callback_ = std::move(cb);
}

std::string
SweepDriver::journalPath() const
{
    return opts_.outDir + "/sweep.journal";
}

std::string
SweepDriver::metricsPath() const
{
    return opts_.outDir + "/metrics.prom";
}

void
SweepDriver::removeOutputs()
{
    ::unlink(journalPath().c_str());
    ::unlink(metricsPath().c_str());
    std::string dir = shardDir(metricsPath());
    if (::DIR *d = ::opendir(dir.c_str())) {
        std::vector<std::string> names;
        while (struct dirent *de = ::readdir(d)) {
            std::string name = de->d_name;
            if (name != "." && name != "..")
                names.push_back(std::move(name));
        }
        ::closedir(d);
        for (const std::string &name : names)
            ::unlink((dir + "/" + name).c_str());
    }
}

void
SweepDriver::loadJournal()
{
    const std::string path = journalPath();
    const std::string shard_dir = shardDir(metricsPath());
    std::string content;
    {
        std::ifstream in(path, std::ios::binary);
        content.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
    }

    // A record counts only once its newline is on disk: anything
    // after the last newline is a write torn by a crash.  Cut it
    // off; its run re-executes.
    std::size_t keep = content.rfind('\n');
    keep = keep == std::string::npos ? 0 : keep + 1;
    if (keep < content.size()) {
        warn("sweep: dropping a torn trailing journal record in "
             "'%s' (its run will re-execute)",
             path.c_str());
        fatal_if(::truncate(path.c_str(),
                            static_cast<off_t>(keep)) != 0,
                 "cannot truncate '%s': %s", path.c_str(),
                 std::strerror(errno));
        content.resize(keep);
    }

    const std::string header = renderHeader(specFp_, jobs_.size());
    if (content.empty()) {
        // New journal, or one torn inside its header: write the
        // header, durably, before any run can complete.
        journal_ = std::fopen(path.c_str(), "w");
        fatal_if(journal_ == nullptr,
                 "cannot write sweep journal '%s': %s", path.c_str(),
                 std::strerror(errno));
        std::fputs(header.c_str(), journal_);
        flushSync(journal_, path);
        return;
    }
    if (content.compare(0, header.size(), header) != 0) {
        fatal("%s: journal belongs to a different sweep (header "
              "'%s', this sweep '%.*s'); pass --fresh to discard it",
              path.c_str(), content.substr(0, content.find('\n')).c_str(),
              static_cast<int>(header.size() - 1), header.c_str());
    }

    std::vector<std::vector<KeyValue>> lines = readKeyValueLines(path);
    for (std::size_t k = 1; k < lines.size(); ++k) {
        SweepRunRecord rec = parseRecord(lines[k]);
        fatal_if(rec.index >= jobs_.size() ||
                     rec.key != keys_[rec.index],
                 "%s: journaled run identity does not match the "
                 "spec's expansion; pass --fresh to discard",
                 lines[k][0].where.c_str());
        if (!fileExists(shard_dir + "/" +
                        shardFileName(runLabels_[rec.index]))) {
            warn("sweep: journaled run %zu has no metrics shard; "
                 "re-running it",
                 rec.index);
            continue;
        }
        records_[rec.index] = rec;
        done_[rec.index] = true;
    }
    resumed_ = static_cast<std::size_t>(
        std::count(done_.begin(), done_.end(), true));

    journal_ = std::fopen(path.c_str(), "a");
    fatal_if(journal_ == nullptr,
             "cannot append to sweep journal '%s': %s", path.c_str(),
             std::strerror(errno));
}

void
SweepDriver::appendJournal(const SweepRunRecord &rec)
{
    // The run's shard is already durable (tmp+fsync+rename in
    // RunTelemetry::finish) by the time runOne() returned, so
    // journal line -> shard can never dangle after a crash.
    std::string line = renderRecord(rec);
    std::fputs(line.c_str(), journal_);
    flushSync(journal_, journalPath());
}

void
SweepDriver::finalize()
{
    // Rebuild the exposition from the on-disk shards: identical
    // whether the runs happened in this process, an earlier killed
    // one, or any mix.
    mergeShards(metricsPath(), runLabels_);

    // Rewrite the journal canonically — header plus one line per
    // run in job order — erasing completion order and any resume
    // history from the bytes.
    std::string text = renderHeader(specFp_, jobs_.size());
    for (const SweepRunRecord &rec : records_)
        text += renderRecord(rec);
    writeFileAtomic(journalPath(), text);
}

bool
SweepDriver::run()
{
    makeDirs(opts_.outDir);

    if (opts_.fresh)
        removeOutputs();
    loadJournal();

    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        if (!done_[i])
            pending.push_back(i);
    }
    const bool preempted =
        opts_.maxRuns != 0 && opts_.maxRuns < pending.size();
    if (preempted)
        pending.resize(opts_.maxRuns);

    ParallelRunner runner(opts_.jobs, runOptions_);
    runner.setProgress(false);
    std::atomic<std::size_t> journaled{resumed_};
    runner.forEach(
        pending.size(), [this, &runner, &pending,
                         &journaled](std::size_t k) {
            std::size_t i = pending[k];
            MultiMetrics m = runner.runOne(jobs_[i]);
            SweepRunRecord rec;
            rec.index = i;
            rec.key = keys_[i];
            rec.label = labels_[i];
            rec.policy = jobs_[i].policy;
            rec.seed = deriveSeed(jobs_[i].baseSeed,
                                  jobs_[i].policy, jobs_[i].label,
                                  jobs_[i].sweepPoint);
            rec.sweepPoint = jobs_[i].sweepPoint;
            rec.completed = m.run.completed;
            rec.weightedSpeedup = m.weightedSpeedup;
            rec.maxSlowdown = m.maxSlowdown;
            rec.efficiency = m.efficiency;
            rec.servedTotal = m.run.servedTotal;
            rec.swaps = m.run.swaps;
            std::size_t count;
            {
                std::lock_guard<std::mutex> lk(journalMu_);
                appendJournal(rec);
                records_[i] = rec;
                done_[i] = true;
                ++executed_;
                count = ++journaled;
            }
            if (opts_.progress) {
                std::fprintf(stderr, "[sweep %zu/%zu] %s/%s done\n",
                             count, jobs_.size(),
                             rec.label.c_str(), rec.policy.c_str());
            }
            if (callback_)
                callback_(count, jobs_.size());
        });

    std::fclose(journal_);
    journal_ = nullptr;

    if (std::count(done_.begin(), done_.end(), true) !=
        static_cast<std::ptrdiff_t>(jobs_.size()))
        return false;
    finalize();
    return true;
}

} // namespace sim

} // namespace profess
