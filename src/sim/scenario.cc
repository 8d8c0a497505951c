#include "sim/scenario.hh"

#include <cmath>
#include <cstring>
#include <utility>

#include "common/key_value.hh"
#include "common/logging.hh"
#include "common/telemetry.hh"
#include "common/trace_sink.hh"
#include "core/mdm.hh"
#include "core/rsm.hh"
#include "sim/system.hh"

namespace profess
{

namespace sim
{

namespace
{

/** Quiesce-audit retry spacing and bound: a busy controller gets
 *  re-polled every backoff ticks up to the deferral cap, after which
 *  the audit is abandoned (counted, never silent). */
constexpr Cycles quiesceBackoff = 128;
constexpr unsigned quiesceMaxDeferrals = 64;

/** Hash a double by bit pattern (fingerprints must be exact). */
std::uint64_t
doubleBits(double v)
{
    std::uint64_t u = 0;
    static_assert(sizeof(u) == sizeof(v));
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

} // anonymous namespace

const char *
interventionKindName(InterventionKind k)
{
    switch (k) {
      case InterventionKind::PinRsm:
        return "pin_rsm";
      case InterventionKind::UnpinRsm:
        return "unpin_rsm";
      case InterventionKind::PinMdm:
        return "pin_mdm";
      case InterventionKind::UnpinMdm:
        return "unpin_mdm";
      case InterventionKind::QuiesceAudit:
        return "quiesce_audit";
      default:
        return "unknown";
    }
}

ScenarioSchedule &
ScenarioSchedule::add(const Intervention &iv)
{
    fatal_if(iv.kind >= InterventionKind::NumKinds,
             "scenario: invalid intervention kind %u",
             static_cast<unsigned>(iv.kind));
    fatal_if(iv.kind == InterventionKind::PinRsm &&
                 !(std::isfinite(iv.sfA) && iv.sfA > 0.0 &&
                   std::isfinite(iv.sfB) && iv.sfB >= 1.0),
             "scenario: pinned factors sfA=%.3f sfB=%.3f violate "
             "SF_A > 0, SF_B >= 1",
             iv.sfA, iv.sfB);
    ivs_.push_back(iv);
    return *this;
}

ScenarioSchedule &
ScenarioSchedule::pinRsmFactors(Tick at, int program, double sf_a,
                                double sf_b)
{
    Intervention iv;
    iv.at = at;
    iv.kind = InterventionKind::PinRsm;
    iv.program = program;
    iv.sfA = sf_a;
    iv.sfB = sf_b;
    return add(iv);
}

ScenarioSchedule &
ScenarioSchedule::unpinRsmFactors(Tick at, int program)
{
    Intervention iv;
    iv.at = at;
    iv.kind = InterventionKind::UnpinRsm;
    iv.program = program;
    return add(iv);
}

ScenarioSchedule &
ScenarioSchedule::pinMdmDecision(Tick at, bool swap)
{
    Intervention iv;
    iv.at = at;
    iv.kind = InterventionKind::PinMdm;
    iv.decisionSwap = swap;
    return add(iv);
}

ScenarioSchedule &
ScenarioSchedule::unpinMdmDecision(Tick at)
{
    Intervention iv;
    iv.at = at;
    iv.kind = InterventionKind::UnpinMdm;
    return add(iv);
}

ScenarioSchedule &
ScenarioSchedule::quiesceAudit(Tick at)
{
    Intervention iv;
    iv.at = at;
    iv.kind = InterventionKind::QuiesceAudit;
    return add(iv);
}

std::uint64_t
ScenarioSchedule::fingerprint() const
{
    if (ivs_.empty())
        return 0;
    std::uint64_t h = 0x5ce7a810'5ce7a810ull;
    for (const Intervention &iv : ivs_) {
        h = hashCombine(h, iv.at);
        h = hashCombine(h, static_cast<std::uint64_t>(iv.kind));
        h = hashCombine(h, static_cast<std::uint64_t>(
                               static_cast<std::int64_t>(iv.program)));
        h = hashCombine(h, doubleBits(iv.sfA));
        h = hashCombine(h, doubleBits(iv.sfB));
        h = hashCombine(h,
                        static_cast<std::uint64_t>(iv.decisionSwap));
    }
    return h != 0 ? h : 0x9e3779b97f4a7c15ull;
}

namespace
{

InterventionKind
parseKind(const KeyValue &kv)
{
    for (unsigned k = 0;
         k < static_cast<unsigned>(InterventionKind::NumKinds); ++k) {
        auto kind = static_cast<InterventionKind>(k);
        if (kv.value == interventionKindName(kind))
            return kind;
    }
    fatal("%s: unknown intervention kind '%s'", kv.where.c_str(),
          kv.value.c_str());
}

} // anonymous namespace

ScenarioSchedule
ScenarioSchedule::fromFile(const std::string &path)
{
    ScenarioSchedule s;
    for (const std::vector<KeyValue> &line : readKeyValueLines(path)) {
        Intervention iv;
        bool have_kind = false;
        for (const KeyValue &kv : line) {
            if (kv.key == "at") {
                iv.at = valueAs<Tick>(kv);
            } else if (kv.key == "kind") {
                iv.kind = parseKind(kv);
                have_kind = true;
            } else if (kv.key == "program") {
                iv.program = valueAs<int>(kv);
            } else if (kv.key == "sf_a") {
                iv.sfA = valueAs<double>(kv);
            } else if (kv.key == "sf_b") {
                iv.sfB = valueAs<double>(kv);
            } else if (kv.key == "decision") {
                fatal_if(kv.value != "swap" && kv.value != "noswap",
                         "%s: decision must be swap or noswap, got '%s'",
                         kv.where.c_str(), kv.value.c_str());
                iv.decisionSwap = (kv.value == "swap");
            } else {
                fatal("%s: unknown key '%s'", kv.where.c_str(),
                      kv.key.c_str());
            }
        }
        fatal_if(!have_kind, "%s: intervention line without kind=",
                 line.front().where.c_str());
        s.add(iv);
    }
    return s;
}

const ScenarioConfig &
ScenarioConfig::global()
{
    // Never written: the default options, read only by
    // perfbench/perfbench.cc:77.
    static const ScenarioConfig cfg;
    return cfg;
}

const char *
ScenarioController::eventName(EventCode c)
{
    switch (c) {
      case EventCode::RsmPin:
        return "rsm_pin";
      case EventCode::RsmUnpin:
        return "rsm_unpin";
      case EventCode::MdmPin:
        return "mdm_pin";
      case EventCode::MdmUnpin:
        return "mdm_unpin";
      case EventCode::PinUnsupported:
        return "pin_unsupported";
      case EventCode::QuiesceAuditRun:
        return "quiesce_audit";
      case EventCode::QuiesceDeferred:
        return "quiesce_deferred";
      case EventCode::QuiesceGiveup:
        return "quiesce_giveup";
      default:
        return "unknown";
    }
}

ScenarioController::ScenarioController(const ScenarioSchedule &schedule)
    : schedule_(schedule)
{
    // Pre-create every event counter: StatSet entries materialize
    // on first inc(), but registerTelemetry() snapshots the set at
    // attach time — before any event fired — so zero counters must
    // already exist to be dumped (and "never happened" is itself a
    // result worth reporting).
    for (unsigned c = 0;
         c < static_cast<unsigned>(EventCode::NumCodes); ++c)
        stats_.inc(eventName(static_cast<EventCode>(c)), 0);
}

void
ScenarioController::attach(System &sys)
{
    panic_if(sys_ != nullptr, "scenario controller attached twice");
    sys_ = &sys;
    eq_ = &sys.eventQueue();
    Tick now = eq_->now();
    for (const Intervention &iv : schedule_.interventions()) {
        // schedule_ is owned by this controller, so the pointer
        // stays valid for the lifetime of the run.
        const Intervention *p = &iv;
        Cycles delay = iv.at > now ? iv.at - now : 0;
        eq_->scheduleIn(delay, [this, p]() { fire(*p); });
    }
}

void
ScenarioController::fire(const Intervention &iv)
{
    Tick now = eq_->now();
    switch (iv.kind) {
      case InterventionKind::PinRsm: {
        core::Rsm *rsm = sys_->policy().rsm();
        if (rsm == nullptr) {
            note(EventCode::PinUnsupported, now);
            break;
        }
        if (iv.program < 0) {
            for (unsigned p = 0; p < sys_->numPrograms(); ++p)
                rsm->pinFactors(static_cast<ProgramId>(p), iv.sfA,
                                iv.sfB);
        } else {
            rsm->pinFactors(static_cast<ProgramId>(iv.program),
                            iv.sfA, iv.sfB);
        }
        note(EventCode::RsmPin, now, iv.sfA, iv.sfB);
        break;
      }
      case InterventionKind::UnpinRsm: {
        core::Rsm *rsm = sys_->policy().rsm();
        if (rsm == nullptr) {
            note(EventCode::PinUnsupported, now);
            break;
        }
        if (iv.program < 0) {
            for (unsigned p = 0; p < sys_->numPrograms(); ++p)
                rsm->unpinFactors(static_cast<ProgramId>(p));
        } else {
            rsm->unpinFactors(static_cast<ProgramId>(iv.program));
        }
        note(EventCode::RsmUnpin, now);
        break;
      }
      case InterventionKind::PinMdm:
      case InterventionKind::UnpinMdm: {
        core::Mdm *mdm = sys_->policy().mdm();
        if (mdm == nullptr) {
            note(EventCode::PinUnsupported, now);
        } else if (iv.kind == InterventionKind::PinMdm) {
            mdm->pinDecision(iv.decisionSwap
                                 ? policy::Decision::Swap
                                 : policy::Decision::NoSwap);
            note(EventCode::MdmPin, now,
                 iv.decisionSwap ? 1.0 : 0.0);
        } else {
            mdm->unpinDecision();
            note(EventCode::MdmUnpin, now);
        }
        break;
      }
      case InterventionKind::QuiesceAudit:
        runQuiesceAudit(iv, 0);
        break;
      default:
        panic("scenario: firing invalid intervention kind %u",
              static_cast<unsigned>(iv.kind));
    }
}

void
ScenarioController::runQuiesceAudit(const Intervention &iv,
                                    unsigned deferrals)
{
    Tick now = eq_->now();
    if (!sys_->controller().quiescent()) {
        if (deferrals >= quiesceMaxDeferrals) {
            note(EventCode::QuiesceGiveup, now,
                 static_cast<double>(deferrals));
            return;
        }
        note(EventCode::QuiesceDeferred, now,
             static_cast<double>(deferrals));
        const Intervention *p = &iv;
        eq_->scheduleIn(quiesceBackoff, [this, p, deferrals]() {
            runQuiesceAudit(*p, deferrals + 1);
        });
        return;
    }
    // Quiescent: no fill or swap is in flight, so every cached
    // group's q_I snapshots must agree with the live ST QACs, and
    // all structural invariants must hold.
    sys_->controller().auditStcQacCoherence();
    sys_->auditInvariants();
    note(EventCode::QuiesceAuditRun, now,
         static_cast<double>(deferrals));
}

std::uint64_t
ScenarioController::eventTotal() const
{
    std::uint64_t total = 0;
    for (const auto &kv : stats_.counters())
        total += kv.second;
    return total;
}

void
ScenarioController::registerTelemetry(
    telemetry::StatRegistry &registry, const std::string &prefix)
{
    registry.addSet(prefix, stats_);
}

void
ScenarioController::note(EventCode code, Tick now, double a, double b)
{
    stats_.inc(eventName(code));
    if (PROFESS_UNLIKELY(trace_ != nullptr)) {
        telemetry::TraceRecord r;
        r.tick = now;
        r.a = a;
        r.b = b;
        r.detail = static_cast<std::uint32_t>(code);
        r.kind = static_cast<std::uint8_t>(
            telemetry::TraceKind::ScenarioEvent);
        trace_->push(r);
    }
}

} // namespace sim

} // namespace profess
