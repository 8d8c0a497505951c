#include "mem/channel.hh"

#include <algorithm>

#include "common/latency_attr.hh"
#include "common/telemetry.hh"

namespace profess
{

namespace mem
{

Channel::Channel(EventQueue &eq, const TimingParams &m1t,
                 const TimingParams &m2t, const ModuleGeometry &m1g,
                 const ModuleGeometry &m2g, const EnergyParams &ep,
                 const ChannelConfig &cfg)
    : eq_(eq), m1t_(m1t), m2t_(m2t), m1g_(m1g), m2g_(m2g), cfg_(cfg),
      banks_(m1g.banks + m2g.banks),
      hitRow_(m1g.banks + m2g.banks, noRow), energy_(ep),
      ctrDemandReads_(stats_.counterRef("demand_reads")),
      ctrDemandWrites_(stats_.counterRef("demand_writes")),
      ctrStReads_(stats_.counterRef("st_reads")),
      ctrStWrites_(stats_.counterRef("st_writes")),
      ctrRowHits_(stats_.counterRef("row_hits")),
      ctrRowMisses_(stats_.counterRef("row_misses")),
      ctrM1Activates_(stats_.counterRef("m1_activates")),
      ctrM2Activates_(stats_.counterRef("m2_activates")),
      ctrM1Accesses_(stats_.counterRef("m1_accesses")),
      ctrM2Accesses_(stats_.counterRef("m2_accesses")),
      ctrBusBusyCycles_(stats_.counterRef("bus_busy_cycles"))
{
    fatal_if(cfg.writeLowMark >= cfg.writeHighMark,
             "write low mark %u must be below the high mark %u",
             cfg.writeLowMark, cfg.writeHighMark);
    // Rows are stored in 32 bits, with noRow kept free.
    fatal_if(std::max(m1g.rowsPerBank, m2g.rowsPerBank) > noRow,
             "too many rows per bank");
    nextRefresh_ = m1t_.tREFI == 0 ? tickNever : m1t_.tREFI;
    readQ_.reserve(64);
    writeQ_.reserve(64);
    swapQ_.reserve(16);
}

Channel::~Channel()
{
    dropQueued();
}

void
Channel::push(RequestPtr req)
{
    Request *r = req.release(); // owned by its queue entry from here
    Tick now = eq_.now();
    r->enqueueTick = now;
    DecodedAddr d = geometry(r->module).decode(r->addr);
    if (r->cls == ReqClass::Demand)
        ++(r->isWrite ? ctrDemandWrites_ : ctrDemandReads_);
    else
        ++(r->isWrite ? ctrStWrites_ : ctrStReads_);
    (r->isWrite ? writeQ_ : readQ_)
        .push_back(Queued{static_cast<std::uint32_t>(d.row),
                          bankIndex(r->module, d.bank), r});
    // With every slot busy and no swap waiting to start, nothing can
    // commit before a completion re-runs the scheduler; the request
    // only waits (a due refresh is still applied here, as the
    // scheduler would).
    if (inflight_ >= cfg_.maxInflight && swapQ_.empty()) {
        applyRefresh(now);
        return;
    }
    trySchedule();
}

void
Channel::executeSwap(Addr m1_addr, Addr m2_addr,
                     std::uint64_t block_bytes,
                     InlineCallback done, bool slow)
{
    swapQ_.push(PendingSwap{m1_addr, m2_addr, block_bytes,
                            std::move(done), slow});
    trySchedule();
}

Cycles
Channel::swapLatency(std::uint64_t block_bytes) const
{
    return swapLatencyCycles(m1t_, m2t_, block_bytes);
}

void
Channel::injectBankBusy(Module m, Tick until)
{
    std::uint32_t first = bankIndex(m, 0);
    for (std::uint32_t i = first; i < first + geometry(m).banks; ++i) {
        banks_[i].readyAct = std::max(banks_[i].readyAct, until);
        banks_[i].readyCol = std::max(banks_[i].readyCol, until);
    }
    requestWake(until);
}

void
Channel::dropQueued()
{
    for (std::vector<Queued> *q : {&readQ_, &writeQ_}) {
        for (const Queued &e : *q)
            RequestDeleter{}(e.req);
        q->clear();
    }
    swapQ_.clear();
    for (std::size_t i = 0; i < activeSwapDones_.size(); ++i)
        activeSwapDones_[i] = nullptr;
}

void
Channel::resetStats()
{
    stats_.reset();
    readLat_.reset();
    energy_ = EnergyAccount(energy_.params());
}

void
Channel::applyDueRefreshes(Tick now)
{
    if (m1t_.tREFI == 0)
        return; // nextRefresh_ is tickNever; now reached it
    while (nextRefresh_ <= now) {
        Tick end = nextRefresh_ + m1t_.tRFC;
        for (std::uint32_t i = 0; i < m1g_.banks; ++i) {
            Bank &b = banks_[i];
            b.open = false;
            b.readyAct = std::max(b.readyAct, end);
            b.readyCol = std::max(b.readyCol, end);
            hitRow_[i] = noRow;
        }
        stats_.inc("m1_refreshes");
        nextRefresh_ += m1t_.tREFI;
    }
}

bool
Channel::claimWake(Tick when)
{
    Tick now = eq_.now();
    if (when <= now)
        when = now;
    // An earlier-or-equal pending wake already covers this one.
    if (wakeAt_ != tickNever && wakeAt_ <= when && wakeAt_ > now)
        return false;
    wakeAt_ = when;
    return true;
}

void
Channel::requestWake(Tick when)
{
    if (!claimWake(when))
        return;
    eq_.schedule(wakeAt_, [this, when = wakeAt_]() {
        if (wakeAt_ == when)
            wakeAt_ = tickNever;
        trySchedule();
    });
}

std::size_t
Channel::pickNext(const std::vector<Queued> &q) const
{
    // FR-FCFS-Cap: oldest row hit whose row has not exhausted the
    // consecutive-hit cap; otherwise the oldest request.
    const std::uint32_t *hit_row = hitRow_.data();
    for (std::size_t i = 0; i < q.size(); ++i) {
        if (hit_row[q[i].bank] == q[i].row)
            return i;
    }
    return 0;
}

void
Channel::commit(const Queued &e)
{
    Request *req = e.req;
    Tick now = eq_.now();
    bool m2 = req->module == Module::M2;
    const TimingParams &t = timing(req->module);
    Bank &bk = banks_[e.bank];

    bool hit = bk.open && bk.row == e.row;
    Tick col_ready;
    if (hit) {
        col_ready = std::max(now, bk.readyCol);
        ++bk.consecHits;
        ++ctrRowHits_;
    } else {
        Tick act_start;
        if (bk.open) {
            Tick pre_start = std::max(
                {now, bk.lastAct + t.tRAS, bk.wrRecoverEnd,
                 bk.readyCol});
            act_start = std::max(pre_start + t.tRP, bk.readyAct);
        } else {
            act_start = std::max(now, bk.readyAct);
        }
        bk.open = true;
        bk.row = e.row;
        bk.lastAct = act_start;
        bk.readyAct = act_start + t.tRC; // activate-to-activate
        bk.consecHits = 1;
        col_ready = act_start + t.tRCD;
        energy_.addActivate(m2);
        ++(m2 ? ctrM2Activates_ : ctrM1Activates_);
        ++ctrRowMisses_;
    }

    Cycles lat = req->isWrite ? t.tWL : t.tCL;
    Tick bus_earliest = busFreeAt_;
    if (req->isWrite != lastBusWrite_)
        bus_earliest += req->isWrite ? t.tRTW : t.tWTR;
    Tick data_start = std::max(col_ready + lat, bus_earliest);
    Tick data_end = data_start + t.tBurst;

    bk.readyCol = data_start - lat + t.tBurst;
    if (req->isWrite) {
        bk.wrRecoverEnd = data_end + t.tWR;
        if (t.writeRecoveryPerAccess)
            bk.readyCol = data_end + t.tWR;
    }
    // FR-FCFS-Cap (Sec. 4.1): after rowHitCap consecutive hits the
    // row is closed so one hot row cannot monopolize the bank.
    if (bk.consecHits >= cfg_.rowHitCap) {
        Tick pre_start =
            std::max({data_end, bk.wrRecoverEnd, bk.readyCol,
                      bk.lastAct + t.tRAS});
        bk.open = false;
        bk.consecHits = 0;
        bk.readyAct = std::max(bk.readyAct, pre_start + t.tRP);
    }
    updateHitRow(e.bank);
    busFreeAt_ = data_end;
    lastBusWrite_ = req->isWrite;
    ctrBusBusyCycles_ += t.tBurst;

    // Latency attribution (observational only): decompose this
    // request's life into queueing (arrival to commit), bank-busy
    // (commit to burst start) and transfer (the burst).
    if (PROFESS_UNLIKELY(attr_ != nullptr) &&
        req->cls == ReqClass::Demand) {
        using telemetry::LatencyAttribution;
        auto tier = m2 ? LatencyAttribution::Tier::M2
                       : LatencyAttribution::Tier::M1;
        auto kind = req->isWrite ? LatencyAttribution::Kind::Write
                                 : LatencyAttribution::Kind::Read;
        attr_->record(req->program, tier, kind,
                      LatencyAttribution::Phase::Queue,
                      static_cast<double>(now - req->enqueueTick));
        attr_->record(req->program, tier, kind,
                      LatencyAttribution::Phase::BankBusy,
                      static_cast<double>(data_start - now));
        attr_->record(req->program, tier, kind,
                      LatencyAttribution::Phase::Transfer,
                      static_cast<double>(t.tBurst));
    }

    if (req->isWrite)
        energy_.addWrite(m2);
    else
        energy_.addRead(m2);
    ++(m2 ? ctrM2Accesses_ : ctrM1Accesses_);

    eq_.schedule(data_end, [this, req]() {
        RequestPtr owner(req); // recycled (or freed) on return
        req->completeTick = eq_.now();
        if (!req->isWrite && req->cls == ReqClass::Demand) {
            readLat_.add(static_cast<double>(req->completeTick -
                                             req->enqueueTick));
        }
        panic_if(inflight_ == 0, "completion with no inflight");
        --inflight_;
        if (req->onComplete)
            req->onComplete();
        trySchedule();
    });
}

void
Channel::startSwap()
{
    Tick now = eq_.now();
    Tick start = std::max(now, busFreeAt_);
    PendingSwap s = swapQ_.pop();

    Cycles dur = swapLatency(s.blockBytes);
    if (s.slow)
        dur *= 2; // restore original mapping, then swap (Table 1)
    Tick end = start + dur;
    swapEndTick_ = end;
    busFreeAt_ = end;
    lastBusWrite_ = true;

    // Traffic and energy of the swap: block-sized reads and writes
    // on both modules, one activation each (2-KB blocks sit within
    // a single 8-KB row).
    std::uint64_t bursts = ceilDiv(s.blockBytes, 64);
    for (std::uint64_t i = 0; i < bursts; ++i) {
        energy_.addRead(false);
        energy_.addRead(true);
        energy_.addWrite(false);
        energy_.addWrite(true);
    }
    energy_.addActivate(false);
    energy_.addActivate(true);
    ++ctrM1Activates_;
    ++ctrM2Activates_;
    ctrSwaps_.inc();
    ctrSwapBusyCycles_.inc(dur);

    // Involved banks end up with the swapped rows open.
    auto open_row = [&](std::uint32_t i, std::uint64_t row) {
        Bank &b = banks_[i];
        b.open = true;
        b.row = static_cast<std::uint32_t>(row);
        b.readyCol = end;
        b.readyAct = end;
        b.lastAct = start;
        b.wrRecoverEnd = end;
        b.consecHits = 0;
        updateHitRow(i);
    };
    DecodedAddr d1 = m1g_.decode(s.m1Addr);
    DecodedAddr d2 = m2g_.decode(s.m2Addr);
    open_row(bankIndex(Module::M1, d1.bank), d1.row);
    open_row(bankIndex(Module::M2, d2.bank), d2.row);

    activeSwapDones_.push(std::move(s.done));
    eq_.schedule(end, [this]() {
        InlineCallback done = activeSwapDones_.pop();
        if (done)
            done();
        trySchedule();
    });
}

void
Channel::trySchedule()
{
    telemetry::ScopedTimer span(schedTimer_);
    ++schedulerCalls_;
    Tick now = eq_.now();
    applyRefresh(now);
    if (!swapQ_.empty() && now >= swapEndTick_)
        startSwap();
    if (now < swapEndTick_) {
        // The swap's completion event re-runs the scheduler at its
        // end; record that as the pending wake so a bank-busy wake
        // is deduplicated against it as against any other.
        claimWake(swapEndTick_);
        return;
    }
    while (inflight_ < cfg_.maxInflight) {
        if (drainingWrites_) {
            if (writeQ_.size() <= cfg_.writeLowMark)
                drainingWrites_ = false;
        } else if (writeQ_.size() >= cfg_.writeHighMark) {
            drainingWrites_ = true;
        }
        bool use_writes =
            drainingWrites_ || (readQ_.empty() && !writeQ_.empty());
        auto &q = use_writes ? writeQ_ : readQ_;
        if (q.empty())
            break;
        std::size_t idx = pickNext(q);
        Queued e = q[idx];
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(idx));
        ++inflight_;
        commit(e);
    }
}

void
Channel::registerTelemetry(telemetry::StatRegistry &registry,
                           const std::string &prefix) const
{
    registry.addSet(prefix, stats_);
    registry.addProbe(prefix + ".read_queue", [this]() {
        return static_cast<double>(readQueueSize());
    });
    registry.addProbe(prefix + ".write_queue", [this]() {
        return static_cast<double>(writeQueueSize());
    });
    registry.addProbe(prefix + ".read_latency_avg", [this]() {
        return readLat_.mean();
    });
}

} // namespace mem

} // namespace profess
