#include "sim/system.hh"

#include <cmath>
#include <type_traits>

#include "common/invariant.hh"
#include "common/key_value.hh"

#include "core/mdm_policy.hh"
#include "core/profess.hh"
#include "core/rsm_guided.hh"
#include "policy/cameo.hh"
#include "policy/mempod.hh"
#include "policy/os_coarse.hh"
#include "policy/pom.hh"
#include "policy/silcfm.hh"
#include "policy/static_policies.hh"
#include "sim/run_telemetry.hh"

namespace profess
{

namespace sim
{

SystemConfig
SystemConfig::quadCore()
{
    // Paper (Table 8) scaled by 1/100 together with footprints and
    // instruction counts: 256 MB M1 -> ~2.9 MB of M1 data blocks
    // (1472 swap groups), 2 GB M2 -> ~23 MB, 64 KB STC -> 1 KB.
    SystemConfig c;
    c.numChannels = 2;
    c.m1BytesPerChannel = 1536 * KiB;
    c.m2BytesPerChannel = 12 * MiB;
    c.stc = hybrid::StCache::Params{2 * KiB, 8, 8};
    return c;
}

SystemConfig
SystemConfig::singleCore()
{
    // Paper: 64 MB M1 / 512 MB M2 / 32 KB STC, scaled by 1/100.
    // 1 MiB M1 yields 448 groups -> 7.9 MB visible, which keeps the
    // largest scaled footprint (milc, 5.5 MB) resident, mirroring
    // the paper's 547 MB milc in 576 MB visible.
    SystemConfig c;
    c.numChannels = 1;
    c.m1BytesPerChannel = 1 * MiB;
    c.m2BytesPerChannel = 8 * MiB;
    c.stc = hybrid::StCache::Params{1 * KiB, 8, 8};
    return c;
}

void
applyKnob(SystemConfig &cfg, const KeyValue &kv)
{
    bool known = false;
    forEachKnob(cfg, [&](const char *name, auto &field) {
        if (kv.key == name) {
            field = valueAs<std::remove_reference_t<decltype(field)>>(kv);
            known = true;
        }
    });
    fatal_if(!known, "%s: unknown key '%s'", kv.where.c_str(),
             kv.key.c_str());
}

unsigned
deriveMinBenefit(const mem::TimingParams &m1,
                 const mem::TimingParams &m2,
                 std::uint64_t block_bytes)
{
    Cycles swap = mem::swapLatencyCycles(m1, m2, block_bytes);
    Cycles read_diff = m2.tRCD - m1.tRCD;
    unsigned k = static_cast<unsigned>(ceilDiv(swap, read_diff));
    // Sec. 4.1: "like the authors of PoM, we choose a slightly
    // larger value".
    return k + 1;
}

namespace
{

using PolicyPtr = std::unique_ptr<policy::MigrationPolicy>;

core::Mdm::Params
mdmParams(const SystemConfig &cfg, unsigned num_programs)
{
    core::Mdm::Params p;
    p.numPrograms = num_programs;
    p.minBenefit = cfg.minBenefit;
    return p;
}

core::Rsm::Params
rsmParams(const SystemConfig &cfg, unsigned num_programs)
{
    core::Rsm::Params p;
    p.numPrograms = num_programs;
    p.numRegions = cfg.numRegions;
    p.sampleRequests = cfg.msamp;
    p.perRegionStats = cfg.rsmPerRegionStats;
    return p;
}

std::unique_ptr<policy::PomPolicy>
makePom(const SystemConfig &cfg, const hybrid::HybridLayout &layout)
{
    policy::PomPolicy::Params p;
    p.k = cfg.minBenefit;
    return std::make_unique<policy::PomPolicy>(layout.numGroups, p);
}

/** A built-in policy: its name and its factory. */
struct PolicyEntry
{
    const char *name;
    PolicyFactoryFn *make;
};

// The policy table.  Each factory takes (cfg, layout, alloc,
// num_programs) as PolicyFactoryFn declares them; parameters a
// policy does not use stay unnamed.
constexpr PolicyEntry policyTable[] = {
    {"profess",
     [](const auto &cfg, const auto &layout, const auto &alloc,
        unsigned n) -> PolicyPtr {
         core::ProfessPolicy::Params p;
         p.mdm = mdmParams(cfg, n);
         p.rsm = rsmParams(cfg, n);
         p.factorThreshold = cfg.professFactorThreshold;
         p.productThreshold = cfg.professProductThreshold;
         return std::make_unique<core::ProfessPolicy>(layout, alloc,
                                                      p);
     }},
    {"mdm",
     [](const auto &cfg, const auto &layout, const auto &alloc,
        unsigned n) -> PolicyPtr {
         return std::make_unique<core::MdmPolicy>(layout, alloc,
                                                  mdmParams(cfg, n));
     }},
    {"pom",
     [](const auto &cfg, const auto &layout, const auto &,
        unsigned) -> PolicyPtr { return makePom(cfg, layout); }},
    {"rsm-pom",
     [](const auto &cfg, const auto &layout, const auto &,
        unsigned n) -> PolicyPtr {
         return std::make_unique<core::RsmGuidedPolicy>(
             makePom(cfg, layout), rsmParams(cfg, n),
             cfg.professFactorThreshold, cfg.professProductThreshold);
     }},
    {"mempod",
     [](const auto &cfg, const auto &, const auto &,
        unsigned) -> PolicyPtr {
         return std::make_unique<policy::MemPodPolicy>(
             cfg.numChannels, cfg.numChannels);
     }},
    {"cameo",
     [](const auto &, const auto &, const auto &,
        unsigned) -> PolicyPtr {
         return std::make_unique<policy::CameoPolicy>(1);
     }},
    {"silcfm",
     [](const auto &, const auto &layout, const auto &,
        unsigned) -> PolicyPtr {
         return std::make_unique<policy::SilcFmPolicy>(
             layout.numGroups);
     }},
    {"never",
     [](const auto &, const auto &, const auto &,
        unsigned) -> PolicyPtr {
         return std::make_unique<policy::NeverPolicy>();
     }},
    {"always",
     [](const auto &, const auto &, const auto &,
        unsigned) -> PolicyPtr {
         return std::make_unique<policy::AlwaysPolicy>();
     }},
    {"oscoarse",
     [](const auto &, const auto &layout, const auto &,
        unsigned) -> PolicyPtr {
         return std::make_unique<policy::OsCoarsePolicy>(layout);
     }},
};

} // anonymous namespace

void
SystemConfig::validate(
    const std::function<std::string(const char *)> &where) const
{
    auto atLeastOne = [&where](bool ok, const char *knob) {
        if (ok)
            return;
        std::string at = where ? where(knob) : std::string();
        fatal("%s%s%s must be at least 1", at.c_str(),
              at.empty() ? "" : ": ", knob);
    };
    atLeastOne(numRegions >= 1, "num_regions");
    atLeastOne(core.instrQuota >= 1, "instr");
}

std::vector<const char *>
policyNames()
{
    std::vector<const char *> names;
    for (const PolicyEntry &e : policyTable)
        names.push_back(e.name);
    return names;
}

PolicyFactoryFn *
findPolicy(std::string_view name, const std::string &where)
{
    for (const PolicyEntry &e : policyTable) {
        if (name == e.name)
            return e.make;
    }
    std::string known;
    for (const PolicyEntry &e : policyTable)
        known += (known.empty() ? "" : ", ") + std::string(e.name);
    fatal("%s%sunknown policy '%.*s' (known: %s)", where.c_str(),
          where.empty() ? "" : ": ", static_cast<int>(name.size()),
          name.data(), known.c_str());
}

System::System(
    const SystemConfig &cfg, const std::string &policy_name,
    std::vector<std::unique_ptr<trace::TraceSource>> sources,
    std::vector<ProgramId> core_program)
    : System(cfg, findPolicy(policy_name), std::move(sources),
             std::move(core_program))
{
}

System::System(
    const SystemConfig &cfg, const PolicyFactory &make,
    std::vector<std::unique_ptr<trace::TraceSource>> sources,
    std::vector<ProgramId> core_program)
    : cfg_(cfg), sources_(std::move(sources)),
      coreProgram_(std::move(core_program))
{
    fatal_if(sources_.empty(), "system needs at least one program");
    cfg.validate();
    if (coreProgram_.empty()) {
        // Default single-threaded mapping: core i runs program i.
        for (std::size_t i = 0; i < sources_.size(); ++i)
            coreProgram_.push_back(static_cast<ProgramId>(i));
    }
    fatal_if(coreProgram_.size() != sources_.size(),
             "one program id per core required");
    ProgramId max_prog = 0;
    for (ProgramId p : coreProgram_) {
        fatal_if(p < 0, "negative program id");
        max_prog = std::max(max_prog, p);
    }
    numPrograms_ = static_cast<unsigned>(max_prog) + 1;
    unsigned num_programs = numPrograms_;

    mem::MemorySystemConfig mc;
    mc.numChannels = cfg.numChannels;
    mc.m1BytesPerChannel = cfg.m1BytesPerChannel;
    mc.m2BytesPerChannel = cfg.m2BytesPerChannel;
    mc.m1 = mem::m1Timing();
    mc.m2 = mem::m2Timing(cfg.m2WriteScale);
    memory_ = std::make_unique<mem::MemorySystem>(eq_, mc);

    layout_ = hybrid::HybridLayout::build(
        cfg.m1BytesPerChannel, cfg.m2BytesPerChannel,
        cfg.numChannels, cfg.numRegions, cfg.slotsPerGroup);

    allocator_ = std::make_unique<os::PageAllocator>(
        layout_.numGroups, cfg.slotsPerGroup, cfg.numRegions,
        num_programs, cfg.allocSeed);

    policy_ = make(cfg, layout_, *allocator_, num_programs);

    hybrid::HybridController::Params hp;
    hp.stc = cfg.stc;
    hp.modelStTraffic = cfg.modelStTraffic;
    hp.numPrograms = num_programs;
    hp.statsFoldInterval = cfg.statsFoldInterval;
    controller_ = std::make_unique<hybrid::HybridController>(
        eq_, *memory_, layout_, hp, *policy_, *allocator_);

    for (std::size_t i = 0; i < sources_.size(); ++i) {
        cores_.push_back(std::make_unique<cpu::CoreModel>(
            eq_, cfg.core, *sources_[i], *this, coreProgram_[i]));
    }
}

System::~System() = default;

void
System::issue(ProgramId program, Addr vaddr, bool is_write,
              InlineCallback done)
{
    std::uint64_t vpage = vaddr / os::pageBytes;
    std::uint64_t frame = allocator_->translate(program, vpage);
    Addr original =
        frame * os::pageBytes + vaddr % os::pageBytes;
    controller_->access(program, original, is_write,
                        std::move(done));
}

void
System::attachTelemetry(RunTelemetry &telemetry)
{
    telemetry_ = &telemetry;
    telemetry::StatRegistry &reg = telemetry.registry();

    // The controller also registers the STC, the per-program service
    // counters and the policy (under "policy.<name>").
    controller_->registerTelemetry(reg, "hybrid");
    telemetry::LatencyAttribution *attr =
        telemetry.attribution(numPrograms_);
    for (unsigned c = 0; c < memory_->numChannels(); ++c) {
        mem::Channel &ch = memory_->channel(c);
        ch.registerTelemetry(reg, "mem.ch" + std::to_string(c));
        ch.setSchedulerTimer(telemetry.schedulerTimer());
        ch.setLatencyAttribution(attr);
    }
    allocator_->registerTelemetry(reg, "os.alloc");
    for (unsigned i = 0; i < cores_.size(); ++i) {
        cores_[i]->registerTelemetry(reg,
                                     "core" + std::to_string(i));
    }

    policy_->setTraceSink(telemetry.decisionSink());
    controller_->setChromeTrace(telemetry.chromeSink());
    controller_->setAccessTimer(telemetry.accessTimer());
    controller_->setLatencyAttribution(attr);

    // Fairness gauges ride on RSM's slowdown factors, so they exist
    // exactly when the policy carries an RSM.
    if (const core::Rsm *rsm = policy_->rsm())
        registerFairnessGauges(reg, *rsm, numPrograms_);
}

void
System::auditInvariants() const
{
    controller_->auditInvariants();
    eq_.auditInvariants();
}

double
System::seconds() const
{
    return static_cast<double>(eq_.now()) /
           (mem::mcCyclesPerNs * 1e9);
}

double
System::measuredSeconds() const
{
    return static_cast<double>(eq_.now() - measureStart_) /
           (mem::mcCyclesPerNs * 1e9);
}

bool
System::run(Tick max_ticks)
{
    // When the last core finishes warm-up, zero the memory-side
    // statistics so every reported metric covers the same
    // measurement window as the IPCs.
    for (auto &c : cores_) {
        c->setOnWarmup([this]() {
            if (++coresWarm_ == cores_.size()) {
                controller_->resetStats();
                for (unsigned i = 0; i < memory_->numChannels(); ++i)
                    memory_->channel(i).resetStats();
                measureStart_ = eq_.now();
            }
        });
        c->setOnQuota([this]() { ++coresAtQuota_; });
        c->start();
    }
    controller_->startPeriodic();
    if (telemetry_ != nullptr)
        telemetry_->startSampler(eq_);

    const Tick limit = max_ticks != 0 ? max_ticks : tickNever;
    eq_.run([this, limit]() {
        return coresAtQuota_ == cores_.size() || eq_.now() >= limit;
    });
    controller_->stopPeriodic();
    if (telemetry_ != nullptr)
        telemetry_->stopSampler();
    for (auto &c : cores_)
        c->halt();

    // Full structural audit at teardown: cheap relative to the run
    // and catches corruption that slipped past the per-event hooks.
    PROFESS_AUDIT_ONLY(auditInvariants());

    bool ok = coresAtQuota_ == cores_.size();
    if (!ok) {
        warn("simulation stopped before all quotas were reached "
             "(tick %llu)",
             static_cast<unsigned long long>(eq_.now()));
    }
    return ok;
}

} // namespace sim

} // namespace profess
