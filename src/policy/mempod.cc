#include "policy/mempod.hh"

#include <algorithm>

namespace profess
{

namespace policy
{

MemPodPolicy::MemPodPolicy(unsigned num_pods, unsigned channels,
                           const Params &p)
    : params_(p), channels_(channels), pods_(num_pods)
{
    fatal_if(num_pods == 0, "MemPod needs at least one pod");
    for (Pod &pod : pods_)
        pod.reserve(params_.countersPerPod);
}

Decision
MemPodPolicy::onM2Access(const AccessInfo &info)
{
    Pod &pod = pods_[info.group % channels_ % pods_.size()];
    BlockKey key = keyOf(info.group, info.slot);
    auto it = std::find_if(pod.begin(), pod.end(),
                           [key](const Counter &c) { return c.key == key; });
    if (it != pod.end()) {
        ++it->count;
    } else if (pod.size() < params_.countersPerPod) {
        pod.push_back(Counter{key, 1});
    } else {
        // MEA: decrement everyone; drop zeros to free counters.
        for (Counter &c : pod)
            --c.count;
        std::erase_if(pod, [](const Counter &c) { return c.count == 0; });
    }
    // MemPod never migrates on the access path.
    return Decision::NoSwap;
}

void
MemPodPolicy::onPeriodic()
{
    if (host_ == nullptr)
        return;
    for (Pod &pod : pods_) {
        // Promote the hottest tracked blocks first.  The counters
        // are cleared below, so they are sorted in place.
        std::sort(pod.begin(), pod.end(),
                  [](const Counter &a, const Counter &b) {
                      return a.count != b.count ? a.count > b.count
                                                : a.key < b.key;
                  });
        unsigned issued = 0;
        for (const Counter &c : pod) {
            if (issued >= params_.maxMigrationsPerInterval)
                break;
            std::uint64_t group = c.key / hybrid::maxSlots;
            unsigned slot =
                static_cast<unsigned>(c.key % hybrid::maxSlots);
            if (host_->requestSwap(group, slot)) {
                ++requested_;
                ++issued;
            }
        }
        pod.clear();
    }
}

} // namespace policy

} // namespace profess
