#include "cpu/core_model.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/telemetry.hh"

namespace profess
{

namespace cpu
{

CoreFrontier::CoreFrontier(unsigned width, unsigned cycles_per_tick)
    : width_(width), cpt_(cycles_per_tick)
{
    fatal_if(width == 0 || cycles_per_tick == 0, "bad core parameters");
    widthDiv_ = FastDivMod(width);
    cptDiv_ = FastDivMod(cycles_per_tick);
}

void
CoreFrontier::charge(std::uint32_t gap)
{
    // New cycles: (debt_ + gap + 1) / width.  With gap = q * width +
    // r that is q plus a carry, since debt_ + r + 1 < 2 * width.
    std::uint32_t q = widthDiv_.div(gap);
    std::uint64_t debt = std::uint64_t{debt_} + (gap - q * width_) + 1;
    std::uint32_t carry = debt >= width_;
    debt_ = static_cast<std::uint32_t>(debt - (carry ? width_ : 0));
    // The same split of the q + carry new cycles at tick boundaries:
    // rem_ + q % cpt + carry < 2 * cpt.
    std::uint32_t qt = cptDiv_.div(q);
    std::uint64_t rem = std::uint64_t{rem_} + (q - qt * cpt_) + carry;
    std::uint32_t tick_carry = rem >= cpt_;
    rem_ = static_cast<std::uint32_t>(rem - (tick_carry ? cpt_ : 0));
    tick_ += std::uint64_t{qt} + tick_carry;
}

CoreModel::CoreModel(EventQueue &eq, const CoreParams &params,
                     trace::TraceSource &source, MemPort &port,
                     ProgramId id)
    : eq_(eq), params_(params), source_(source), port_(port), id_(id),
      frontier_(params.width, params.coreCyclesPerTick)
{
    fatal_if(params.width == 0 || params.robSize == 0 ||
                 params.maxOutstanding == 0 ||
                 params.coreCyclesPerTick == 0,
             "bad core parameters");
    outstanding_.reserve(params.maxOutstanding);
}

void
CoreModel::start()
{
    scheduled_ = true;
    eq_.scheduleIn(0, [this]() {
        scheduled_ = false;
        advance();
    });
}

double
CoreModel::ipcAtQuota() const
{
    panic_if(!quotaReached_, "quota not reached yet");
    std::uint64_t cycles = quotaCycles_ - warmupCycles_;
    std::uint64_t instr = quotaInstrCount_ - warmupInstrCount_;
    return cycles == 0 ? 0.0
                       : static_cast<double>(instr) /
                             static_cast<double>(cycles);
}

void
CoreModel::onReadComplete(std::uint64_t instr_idx)
{
    auto it = std::find(outstanding_.begin(), outstanding_.end(),
                        instr_idx);
    panic_if(it == outstanding_.end(),
             "completion for unknown read");
    outstanding_.erase(it);
    if (waiting_ && !halted_) {
        waiting_ = false;
        syncFrontier_ = true; // stall time elapses on wall clock
        advance();
    }
}

void
CoreModel::advance()
{
    Tick now = eq_.now();
    while (!halted_) {
        if (!pendingValid_) {
            if (!source_.next(pending_)) {
                // Finite trace exhausted: restart it (the paper
                // repeats programs that finish early, Sec. 4.2).
                source_.reset();
                ++repetitions_;
                if (!source_.next(pending_)) {
                    halted_ = true; // empty trace
                    return;
                }
            }
            pendingValid_ = true;
            pendingCharged_ = false;
        }

        // Issue constraints.
        if (outstanding_.size() >= params_.maxOutstanding) {
            waiting_ = true;
            return;
        }
        std::uint64_t issue_instr =
            instrCount_ + pending_.instGap + 1;
        if (!outstanding_.empty() &&
            issue_instr > outstanding_.front() + params_.robSize) {
            waiting_ = true; // ROB full behind the oldest miss
            return;
        }

        // Account compute time for the gap plus the access itself -
        // exactly once per access.  The frontier only snaps forward
        // to wall-clock time when the core resumes from a stall
        // (syncFrontier_); a self-scheduled wake-up keeps the
        // sub-tick frontier so no phantom cycles accrue.
        if (syncFrontier_) {
            frontier_.syncTo(now);
            syncFrontier_ = false;
        }
        if (!pendingCharged_) {
            frontier_.charge(pending_.instGap);
            pendingCharged_ = true;
        }
        Tick issue_tick = frontier_.issueTick();
        if (issue_tick > now) {
            if (!scheduled_) {
                scheduled_ = true;
                eq_.schedule(issue_tick, [this]() {
                    scheduled_ = false;
                    advance();
                });
            }
            return;
        }

        // Issue.
        instrCount_ = issue_instr;
        if (!warmupDone_ && instrCount_ >= params_.warmupInstr) {
            warmupDone_ = true;
            warmupCycles_ = frontier_.cycles();
            warmupInstrCount_ = instrCount_;
            if (onWarmup_)
                onWarmup_();
            if (halted_)
                return;
        }
        if (!quotaReached_ && warmupDone_ &&
            instrCount_ >=
                warmupInstrCount_ + params_.instrQuota) {
            quotaReached_ = true;
            quotaTick_ = now;
            quotaCycles_ = frontier_.cycles();
            quotaInstrCount_ = instrCount_;
            if (onQuota_)
                onQuota_();
            if (halted_)
                return;
        }
        trace::MemAccess a = pending_;
        pendingValid_ = false;
        if (a.isWrite) {
            ++memWrites_;
            port_.issue(id_, a.vaddr, true, {});
        } else {
            ++memReads_;
            std::uint64_t idx = instrCount_;
            outstanding_.push_back(idx);
            port_.issue(id_, a.vaddr, false, [this, idx]() {
                onReadComplete(idx);
            });
        }
    }
}

void
CoreModel::registerTelemetry(telemetry::StatRegistry &registry,
                             const std::string &prefix) const
{
    registry.addCounter(prefix + ".retired", instrCount_);
    registry.addCounter(prefix + ".mem_reads", memReads_);
    registry.addCounter(prefix + ".mem_writes", memWrites_);
    registry.addProbe(prefix + ".outstanding", [this]() {
        return static_cast<double>(outstanding_.size());
    });
}

} // namespace cpu

} // namespace profess
