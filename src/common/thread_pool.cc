#include "common/thread_pool.hh"

#include <chrono>

#include "common/logging.hh"

namespace profess
{

namespace
{

/** Which worker (if any) the current thread is; -1 = external. */
thread_local int tls_worker = -1;

} // anonymous namespace

unsigned
ThreadPool::defaultWorkers()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

ThreadPool::ThreadPool(unsigned workers)
{
    fatal_if(workers == 0, "ThreadPool needs at least one worker");
    queues_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        queues_.push_back(std::make_unique<Queue>());
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        threads_.emplace_back([this, i]() { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    wait();
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    // A worker pushes to its own deque (depth-first, no contention
    // with other submitters); external callers round-robin.
    bool own = tls_worker >= 0 &&
               static_cast<std::size_t>(tls_worker) < queues_.size() &&
               threads_[tls_worker].get_id() == std::this_thread::get_id();
    std::size_t target;
    {
        std::lock_guard<std::mutex> lk(mu_);
        // Count the task before any worker can see it: a thief that
        // finished it first would otherwise drive pending_ to zero
        // while the submitting task still runs, and wait() would
        // return early.
        ++pending_;
        if (own) {
            target = static_cast<std::size_t>(tls_worker);
        } else {
            target = nextQueue_;
            nextQueue_ = (nextQueue_ + 1) % queues_.size();
        }
    }
    {
        std::lock_guard<std::mutex> lk(queues_[target]->mu);
        queues_[target]->tasks.push_back(std::move(task));
    }
    // Notifying under mu_ orders the wake-up after any worker's
    // locked re-check of the queues, so it cannot be lost.
    std::lock_guard<std::mutex> lk(mu_);
    cv_.notify_one();
}

bool
ThreadPool::popOrSteal(unsigned self, std::function<void()> &out)
{
    // Own deque first, hot end.
    {
        Queue &q = *queues_[self];
        std::lock_guard<std::mutex> lk(q.mu);
        if (!q.tasks.empty()) {
            out = std::move(q.tasks.back());
            q.tasks.pop_back();
            return true;
        }
    }
    // Steal the oldest task of the first non-empty victim.  The
    // scan order is deterministic but the victim's content is not;
    // callers must not depend on execution order (see header).
    for (std::size_t d = 1; d < queues_.size(); ++d) {
        Queue &q = *queues_[(self + d) % queues_.size()];
        std::lock_guard<std::mutex> lk(q.mu);
        if (!q.tasks.empty()) {
            out = std::move(q.tasks.front());
            q.tasks.pop_front();
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(unsigned self)
{
    tls_worker = static_cast<int>(self);
    for (;;) {
        std::function<void()> task;
        if (popOrSteal(self, task)) {
            task();
            std::lock_guard<std::mutex> lk(mu_);
            if (--pending_ == 0)
                idle_.notify_all();
            continue;
        }
        std::unique_lock<std::mutex> lk(mu_);
        // Re-check under the lock: a submit may have raced with the
        // failed scan, and its notify would have been missed.
        bool maybe_work = false;
        for (const auto &q : queues_) {
            std::lock_guard<std::mutex> qlk(q->mu);
            if (!q->tasks.empty()) {
                maybe_work = true;
                break;
            }
        }
        if (maybe_work)
            continue;
        if (stop_)
            return;
        cv_.wait(lk);
    }
}

void
ThreadPool::wait()
{
    // External threads help drain the queues instead of blocking
    // idle; this also makes wait() safe at any pool size.
    for (;;) {
        std::function<void()> task;
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (pending_ == 0)
                return;
        }
        bool got = false;
        for (std::size_t i = 0; i < queues_.size() && !got; ++i) {
            Queue &q = *queues_[i];
            std::lock_guard<std::mutex> lk(q.mu);
            if (!q.tasks.empty()) {
                task = std::move(q.tasks.front());
                q.tasks.pop_front();
                got = true;
            }
        }
        if (got) {
            task();
            std::lock_guard<std::mutex> lk(mu_);
            if (--pending_ == 0)
                idle_.notify_all();
        } else {
            std::unique_lock<std::mutex> lk(mu_);
            if (pending_ == 0)
                return;
            idle_.wait_for(lk, std::chrono::milliseconds(1));
        }
    }
}

} // namespace profess
