/**
 * @file
 * Memory request descriptor exchanged between the hybrid memory
 * controller and the channel timing model.
 *
 * Addresses here are *device* byte addresses within one module (M1 or
 * M2) of one channel; the hybrid controller performs all original ->
 * actual translation before a request reaches a channel.
 *
 * Requests are recycled through an ObjectPool in the steady state:
 * RequestPtr's deleter returns pooled nodes to their pool instead of
 * freeing them, and plain heap-allocated requests (tests, simple
 * callers) keep working because a null pool falls back to delete.
 */

#ifndef PROFESS_MEM_REQUEST_HH
#define PROFESS_MEM_REQUEST_HH

#include <memory>

#include "common/inline_function.hh"
#include "common/pool.hh"
#include "common/types.hh"

namespace profess
{

namespace mem
{

/** Which module of a channel a request targets. */
enum class Module : std::uint8_t { M1 = 0, M2 = 1 };

/** What produced the request; drives statistics and scheduling. */
enum class ReqClass : std::uint8_t
{
    Demand = 0, ///< CPU load/store miss
    St = 1,     ///< swap-group-table fill or writeback
    Swap = 2,   ///< block migration traffic
};

/** A single 64-B memory request. */
struct Request
{
    Module module = Module::M1;
    bool isWrite = false;
    ReqClass cls = ReqClass::Demand;
    Addr addr = 0;             ///< device byte address within module
    ProgramId program = invalidProgram;
    Tick enqueueTick = 0;      ///< set by the channel on push
    Tick completeTick = 0;     ///< set by the channel on completion

    /** Owning pool, or nullptr for a heap-allocated request. */
    ObjectPool<Request> *pool = nullptr;

    /** Invoked at data completion (reads and writes), after
     *  completeTick is set; the request outlives the call. */
    InlineCallback onComplete;
};

/** Returns a request to its pool, or frees an unpooled one. */
struct RequestDeleter
{
    void
    operator()(Request *r) const
    {
        if (r == nullptr)
            return;
        if (r->pool != nullptr) {
            r->onComplete = nullptr;
            r->pool->release(r);
        } else {
            delete r;
        }
    }
};

using RequestPtr = std::unique_ptr<Request, RequestDeleter>;

/** Acquire a recycled request from a pool, reset for reuse. */
inline RequestPtr
acquireRequest(ObjectPool<Request> &pool)
{
    Request *r = pool.acquire();
    r->module = Module::M1;
    r->isWrite = false;
    r->cls = ReqClass::Demand;
    r->addr = 0;
    r->program = invalidProgram;
    r->enqueueTick = 0;
    r->completeTick = 0;
    r->pool = &pool;
    r->onComplete = nullptr;
    return RequestPtr(r);
}

} // namespace mem

} // namespace profess

#endif // PROFESS_MEM_REQUEST_HH
