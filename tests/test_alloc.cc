/**
 * @file
 * The simulated per-access path does not touch the host heap.
 *
 * ProFess's mechanisms are fixed-size controller state (the ST/STC,
 * MDM's block counters, RSM's region samples), and the channel
 * queues and the baselines' counters keep their storage, so once
 * every core has warmed up a run should allocate nothing.  This binary replaces the
 * global allocation functions with counting ones and, for every
 * built-in policy on a single-core and a quad-core mix, counts the
 * allocations in a window of served accesses that opens after the
 * last core's warm-up.
 *
 * Two kinds of growth stay legal in the window.  A program's page
 * table doubles when first touches fill half of it; the test derives
 * those doublings exactly from the allocator's frame counts.  The
 * object pools' slabs and the event queue's arrays grow when the
 * run reaches a new high-water mark of requests or pending events;
 * `highWaterSlack` bounds those.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "sim/workloads.hh"
#include "trace/spec_profiles.hh"

namespace
{

/** Allocations are counted, into `counted`, only while this is set. */
bool counting = false;
std::uint64_t counted = 0;

void *
allocate(std::size_t bytes, std::size_t align)
{
    if (counting)
        ++counted;
    bytes = bytes == 0 ? 1 : bytes;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(bytes)
                  : std::aligned_alloc(align,
                                       (bytes + align - 1) / align * align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // anonymous namespace

// libstdc++'s nothrow and array forms forward to these (under ASan
// the sanitizer runtime's array forms are used instead).
void *
operator new(std::size_t bytes)
{
    return allocate(bytes, 0);
}

void *
operator new(std::size_t bytes, std::align_val_t align)
{
    return allocate(bytes, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace profess;
using namespace profess::sim;

namespace
{

constexpr std::uint64_t instr = 600000;
constexpr std::uint64_t warmup = 100000;
/** The window opens this many served accesses after warm-up ... */
constexpr std::uint64_t openAfter = 5000;
/** ... and closes at least this many served accesses later. */
constexpr std::uint64_t windowAccesses = 30000;
/** Ticks between the probe's looks at the served count. */
constexpr Cycles probePeriod = 500;
/** Growth past a high-water mark: ObjectPool slabs and free lists,
 *  EventQueue keys and slots. */
constexpr std::uint64_t highWaterSlack = 4;

/**
 * @return the doublings PageTable::insert performs while a table
 * grows from `from` to `to` mapped pages: it starts at 2^6 slots
 * and doubles when an insert would fill more than half.
 */
unsigned
tableDoublings(std::uint64_t from, std::uint64_t to)
{
    auto bits = [](std::uint64_t pages) {
        unsigned b = 6;
        while ((std::uint64_t{1} << b) < 2 * pages)
            ++b;
        return b;
    };
    return bits(to) - bits(from);
}

/**
 * An event that looks at the run every probePeriod ticks: it opens
 * the window once every core is past warm-up and openAfter accesses
 * have been served since, and closes it windowAccesses later.
 */
class Probe
{
  public:
    explicit Probe(System &sys) : sys_(sys) { schedule(); }

    // What the window saw, once closed.
    bool closed = false;
    std::uint64_t served = 0;
    std::uint64_t allocations = 0;
    unsigned doublings = 0;

  private:
    void
    schedule()
    {
        sys_.eventQueue().scheduleIn(probePeriod, [this]() { look(); });
    }

    bool
    warm() const
    {
        for (unsigned i = 0; i < sys_.numCores(); ++i) {
            if (!sys_.core(i).warmupDone())
                return false;
        }
        return true;
    }

    void
    look()
    {
        const std::uint64_t total = sys_.controller().servedTotal();
        if (!counting) {
            if (!warm() || total < openAfter) {
                schedule();
                return;
            }
            for (unsigned p = 0; p < sys_.numPrograms(); ++p)
                frames_.push_back(sys_.allocator().allocatedFrames(
                    static_cast<ProgramId>(p)));
            servedAtOpen_ = total;
            counted = 0;
            counting = true;
        } else if (total - servedAtOpen_ >= windowAccesses) {
            counting = false;
            closed = true;
            served = total - servedAtOpen_;
            allocations = counted;
            for (unsigned p = 0; p < sys_.numPrograms(); ++p)
                doublings += tableDoublings(
                    frames_[p], sys_.allocator().allocatedFrames(
                                    static_cast<ProgramId>(p)));
            return;
        }
        schedule();
    }

    System &sys_;
    std::vector<std::uint64_t> frames_;
    std::uint64_t servedAtOpen_ = 0;
};

/** A built-in policy on a mix: a Table 10 workload or one program. */
struct Case
{
    const char *policy;
    const char *mix;
};

/** Names each ctest entry, "policy=pom mix=w09". */
void
PrintTo(const Case &c, std::ostream *os)
{
    *os << "policy=" << c.policy << " mix=" << c.mix;
}

class AllocationFree : public ::testing::TestWithParam<Case>
{
};

TEST_P(AllocationFree, AfterWarmup)
{
    const auto [policy, mix] = GetParam();
    const WorkloadSpec *workload = findWorkload(mix);
    SystemConfig cfg = workload ? SystemConfig::quadCore()
                                : SystemConfig::singleCore();
    cfg.core.instrQuota = instr;
    cfg.core.warmupInstr = warmup;
    std::vector<std::string> programs{mix};
    if (workload != nullptr)
        programs.assign(workload->programs.begin(),
                        workload->programs.end());
    std::vector<std::unique_ptr<trace::TraceSource>> sources;
    for (std::size_t i = 0; i < programs.size(); ++i)
        sources.push_back(trace::makeSpecSource(
            programs[i], trace::defaultScale, 1 + 1009 * (i + 1)));

    System sys(cfg, policy, std::move(sources));
    Probe w(sys);
    ASSERT_TRUE(sys.run());
    counting = false;

    ASSERT_TRUE(w.closed) << "the run ended before the window closed";
    EXPECT_GE(w.served, windowAccesses);
    EXPECT_LE(w.allocations, w.doublings + highWaterSlack)
        << w.allocations << " allocations over " << w.served
        << " served accesses, " << w.doublings
        << " of them page-table doublings";
}

std::vector<Case>
cases()
{
    std::vector<Case> out;
    for (const char *policy : policyNames()) {
        out.push_back(Case{policy, "mcf"});
        out.push_back(Case{policy, "w09"});
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(Policies, AllocationFree,
                         ::testing::ValuesIn(cases()));

} // anonymous namespace
