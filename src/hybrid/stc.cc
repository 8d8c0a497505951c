#include "hybrid/stc.hh"

#include <cstring>

#include "common/invariant.hh"
#include "common/telemetry.hh"

namespace profess
{

namespace hybrid
{

StCache::StCache(const Params &p) : ways_(p.ways)
{
    fatal_if(p.ways == 0, "STC needs at least one way");
    std::uint64_t entries = p.capacityBytes / p.entryBytes;
    fatal_if(entries < p.ways, "STC too small for %u ways", p.ways);
    numSets_ = entries / p.ways;
    if ((numSets_ & (numSets_ - 1)) == 0)
        setMask_ = numSets_ - 1;
    tags_.assign(numSets_ * ways_, noGroup);
    store_.resize(numSets_ * ways_);
}

StcMeta *
StCache::find(std::uint64_t group)
{
    std::size_t base = setBase(group);
    unsigned w = wayOf(&tags_[base], group);
    if (w == ways_) {
        ++misses_;
        return nullptr;
    }
    Way &way = store_[base + w];
    way.lastUse = ++useClock_;
    ++hits_;
    return &way.meta;
}

StcMeta *
StCache::peek(std::uint64_t group)
{
    std::size_t base = setBase(group);
    unsigned w = wayOf(&tags_[base], group);
    if (w == ways_)
        return nullptr;
    Way &way = store_[base + w];
    way.lastUse = ++useClock_;
    return &way.meta;
}

bool
StCache::contains(std::uint64_t group) const
{
    std::size_t base = setBase(group);
    return wayOf(&tags_[base], group) != ways_;
}

bool
StCache::insert(std::uint64_t group, const std::uint8_t *current_qac,
                StcEviction &ev)
{
    std::size_t base = setBase(group);
    std::uint64_t *tags = &tags_[base];
    Way *set = &store_[base];
    unsigned victim = ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        panic_if(tags[w] == group, "inserting group already present");
        if (tags[w] == noGroup) {
            victim = w;
            break;
        }
        if (set[w].meta.swapping)
            continue; // pinned: a migration is in flight
        if (victim == ways_ || set[w].lastUse < set[victim].lastUse)
            victim = w;
    }
    if (victim == ways_)
        return false; // whole set pinned; caller retries

    Way &way = set[victim];
    ev = StcEviction{};
    if (tags[victim] != noGroup) {
        ev.valid = true;
        ev.group = tags[victim];
        ev.meta = way.meta;
        // The writeback is needed whenever translations or counters
        // changed; a block with a non-zero AC will update its QAC
        // (read-modify-write of the ST entry, Sec. 3.2.1).
        ev.dirty = way.meta.dirty;
        for (unsigned s = 0; s < maxSlots && !ev.dirty; ++s)
            ev.dirty = way.meta.ac[s] > 0;
    }

    tags[victim] = group;
    way.lastUse = ++useClock_;
    way.meta = StcMeta{};
    std::memset(way.meta.ac, 0, sizeof(way.meta.ac));
    std::memcpy(way.meta.qacAtInsert, current_qac,
                sizeof(way.meta.qacAtInsert));
    return true;
}

void
StCache::auditSet(std::uint64_t group,
                  const SwapGroupTable &st) const
{
    const std::uint64_t num_groups = st.layout().numGroups;
    const unsigned slots = st.layout().slotsPerGroup;
    std::size_t base = setBase(group);
    const std::uint64_t *tags = &tags_[base];
    for (unsigned w = 0; w < ways_; ++w) {
        if (tags[w] == noGroup)
            continue;
        auto g = static_cast<unsigned long long>(tags[w]);
        profess_audit(tags[w] < num_groups,
                      "STC caches group %llu beyond the table (%llu "
                      "groups)",
                      g, static_cast<unsigned long long>(num_groups));
        for (unsigned v = w + 1; v < ways_; ++v) {
            profess_audit(tags[v] != tags[w],
                          "group %llu cached in two ways of one set",
                          g);
        }
        const StcMeta &m = store_[base + w].meta;
        for (unsigned s = 0; s < slots; ++s) {
            profess_audit(m.ac[s] <= 63,
                          "group %llu slot %u AC %u exceeds 6 bits", g,
                          s, m.ac[s]);
            profess_audit(m.qacAtInsert[s] < 4,
                          "group %llu slot %u q_I %u exceeds 2 bits",
                          g, s, m.qacAtInsert[s]);
        }
        profess_audit(!m.swapping || m.dirty,
                      "group %llu mid-swap but not dirty", g);
    }
}

void
StCache::auditInvariants(const SwapGroupTable &st) const
{
    for (std::uint64_t set = 0; set < numSets_; ++set)
        auditSet(set, st); // setBase(set) walks every set once
}

void
StCache::registerTelemetry(telemetry::StatRegistry &registry,
                           const std::string &prefix) const
{
    registry.addCounter(prefix + ".hits", hits_);
    registry.addCounter(prefix + ".misses", misses_);
    registry.addProbe(prefix + ".hit_rate",
                      [this]() { return hitRate(); });
}

} // namespace hybrid

} // namespace profess
