/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global event queue drives the whole simulation.  All
 * components share one clock domain: the memory-controller clock
 * (0.8 GHz by default, Table 8); faster components (cores) convert
 * their own cycles into MC ticks.
 *
 * Events are arbitrary callables.  Two events scheduled for the same
 * tick execute in scheduling order (a monotone sequence number breaks
 * ties), which keeps simulations deterministic.
 *
 * Implementation: an array of small `{when, seq, slot}` keys kept
 * sorted latest-first, so the next event is the last key and a pop
 * is a pop_back().  A new key's seq exceeds every pending one, so it
 * belongs right after the keys with a later tick: its index is their
 * count.  The insert walks the other keys from the back, shifting
 * each up by one, so it is O(pending) and touches only the keys that
 * run before the new one.  That wins at the model's queue depth:
 * about a dozen events are pending (13 in the quad-core runs), and
 * the most frequent new keys (core wake-ups a few ticks ahead) land
 * near the back, where a binary heap pays a data-dependent branch
 * per level on both push and pop.  bench/micro_components.cc's
 * BM_EventQueueModelShape reports ns per event at the model's shape,
 * so the choice can be checked again; DESIGN.md Sec. 4c has the
 * numbers.  The callbacks themselves (`InlineCallback`: no heap
 * allocation for captures up to 48 bytes) stay put in a free-listed
 * slab that the keys index, so inserts move 24-byte keys and never a
 * callback.  (when, seq) is a total order: the globally minimal pair
 * runs next, same-tick events keep FIFO scheduling order, and the
 * extraction order is the same as any other exact priority queue's
 * (tests/test_kernel_determinism.cc).
 */

#ifndef PROFESS_COMMON_EVENT_HH
#define PROFESS_COMMON_EVENT_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/inline_function.hh"
#include "common/invariant.hh"
#include "common/logging.hh"
#include "common/types.hh"

#if PROFESS_DETSAN
#include "common/detsan.hh"
#endif

namespace profess
{

/** Central time-ordered queue of callbacks. */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    /** @return current simulation time in ticks. */
    Tick now() const { return now_; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when Absolute tick, must be >= now().
     * @param cb Callback to run: a callable (built in place in its
     *        slot) or an rvalue Callback.
     */
    template <typename F>
    void
    schedule(Tick when, F &&cb)
    {
        panic_if(when < now_, "scheduling event in the past "
                 "(when=%llu now=%llu)",
                 static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(now_));
        std::uint32_t slot;
        if (freeSlots_.empty()) {
            slot = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back(std::forward<F>(cb));
        } else {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
            slots_[slot] = std::forward<F>(cb);
        }
        // Latest-first order: the new key goes right after the keys
        // with a later tick.  Same-tick keys have a smaller seq and
        // run first, so they stay behind it with the earlier ticks;
        // walk those from the back, shifting each up by one.
        std::size_t i = keys_.size();
        keys_.emplace_back();
        Key *k = keys_.data();
        while (i > 0 && k[i - 1].when <= when) {
            k[i] = k[i - 1];
            --i;
        }
        k[i] = Key{when, seq_++, slot};
        peak_ = std::max(peak_, keys_.size());
    }

    /** Schedule a callback delay ticks from now. */
    template <typename F>
    void
    scheduleIn(Cycles delay, F &&cb)
    {
        schedule(now_ + delay, std::forward<F>(cb));
    }

    /** @return true if no events are pending. */
    bool empty() const { return keys_.empty(); }

    /** @return number of pending events. */
    std::size_t size() const { return keys_.size(); }

    /** @return the most events ever pending at once. */
    std::size_t peakSize() const { return peak_; }

    /** @return tick of the next pending event (tickNever if none). */
    Tick
    nextTick() const
    {
        return keys_.empty() ? tickNever : keys_.back().when;
    }

    /** @return total events executed since construction. */
    std::uint64_t executed() const { return executed_; }

#if PROFESS_DETSAN
    /** @return chained FNV-1a over every extraction's (when, seq)
     *  pair — identical digests mean identical event order. */
    std::uint64_t detsanDigest() const { return detsan_.value(); }
#endif

    /**
     * Pop and execute the next event, advancing time.
     *
     * @return false when the queue was empty.
     */
    bool
    runOne()
    {
        if (keys_.empty())
            return false;
        Key k = keys_.back();
        keys_.pop_back();
        PROFESS_AUDIT_ONLY(auditExtraction(k.when, k.seq));
#if PROFESS_DETSAN
        // Fingerprint the extraction order the (when, seq)
        // contract promises; see common/detsan.hh.
        detsan_.mix(k.when);
        detsan_.mix(k.seq);
#endif
        now_ = k.when;
        ++executed_;
        // Take the callback out before running it: what it schedules
        // may reuse its slot or grow the slab.
        Callback cb = std::move(slots_[k.slot]);
        freeSlots_.push_back(k.slot);
        cb();
        return true;
    }

    /** Run events until the queue drains. @return events executed. */
    std::uint64_t
    run()
    {
        std::uint64_t n = 0;
        while (runOne())
            ++n;
        return n;
    }

    /**
     * Run events until the queue drains or a stop predicate holds.
     *
     * The predicate is a template parameter so the per-event check
     * inlines instead of going through a type-erased call.
     *
     * @param stop Callable checked after each event.
     * @return Number of events executed.
     */
    template <typename Stop>
    std::uint64_t
    run(Stop &&stop)
    {
        std::uint64_t n = 0;
        while (runOne()) {
            ++n;
            if (stop())
                break;
        }
        return n;
    }

    /** Run events with when <= limit. @return events executed. */
    std::uint64_t
    runUntil(Tick limit)
    {
        std::uint64_t n = 0;
        while (!keys_.empty() && keys_.back().when <= limit) {
            runOne();
            ++n;
        }
        if (now_ < limit && empty())
            now_ = limit;
        return n;
    }

    /**
     * Audit the queue's structural invariants: the keys are sorted
     * strictly latest-first by (when, seq), none lies in the past,
     * and every slab slot is either the engaged target of exactly
     * one key or on the free list.  Panics on violation.  Callable
     * in any build, also from inside a callback; the per-extraction
     * ordering check additionally runs on every runOne() in
     * PROFESS_AUDIT builds.
     */
    void
    auditInvariants() const
    {
        profess_audit(std::adjacent_find(keys_.begin(), keys_.end(),
                                         [](const Key &a,
                                            const Key &b) {
                                             return !Later{}(a, b);
                                         }) == keys_.end(),
                      "pending events are not sorted latest-first "
                      "by (when, seq)");
        profess_audit(keys_.size() + freeSlots_.size() ==
                          slots_.size(),
                      "%zu pending + %zu free slots but the slab "
                      "holds %zu",
                      keys_.size(), freeSlots_.size(), slots_.size());
        std::vector<bool> used(slots_.size(), false);
        for (const Key &k : keys_) {
            profess_audit(k.when >= now_,
                          "event at %llu is in the past (now %llu)",
                          static_cast<unsigned long long>(k.when),
                          static_cast<unsigned long long>(now_));
            profess_audit(k.slot < slots_.size() && !used[k.slot] &&
                              static_cast<bool>(slots_[k.slot]),
                          "event slot %u is out of range, shared or "
                          "empty",
                          k.slot);
            if (k.slot < slots_.size())
                used[k.slot] = true;
        }
    }

  private:
    /** Key of one pending event; the callback is slots_[slot]. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Key order: true if a runs later than b. */
    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            return a.when != b.when ? a.when > b.when
                                    : a.seq > b.seq;
        }
    };

    /**
     * Audit one extraction against the (when, seq) ordering
     * contract: strictly increasing seq within a tick, never a tick
     * before the previous extraction.  Only called (and the last-
     * extraction state only updated) in PROFESS_AUDIT builds.
     */
    void
    auditExtraction(Tick when, std::uint64_t seq)
    {
        profess_audit(!hasExtracted_ || when > lastWhen_ ||
                          (when == lastWhen_ && seq > lastSeq_),
                      "(when, seq) ordering violated: (%llu, %llu) "
                      "after (%llu, %llu)",
                      static_cast<unsigned long long>(when),
                      static_cast<unsigned long long>(seq),
                      static_cast<unsigned long long>(lastWhen_),
                      static_cast<unsigned long long>(lastSeq_));
        hasExtracted_ = true;
        lastWhen_ = when;
        lastSeq_ = seq;
    }

    std::vector<Key> keys_; ///< sorted latest-first by (when, seq)
    std::vector<Callback> slots_; ///< callbacks, indexed by Key::slot
    std::vector<std::uint32_t> freeSlots_; ///< unused slots_ entries
    std::size_t peak_ = 0;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    // Ordering-audit state; written only in PROFESS_AUDIT builds.
    Tick lastWhen_ = 0;
    std::uint64_t lastSeq_ = 0;
    bool hasExtracted_ = false;
#if PROFESS_DETSAN
    detsan::Digest detsan_; ///< extraction-order fingerprint
#endif
};

} // namespace profess

#endif // PROFESS_COMMON_EVENT_HH
