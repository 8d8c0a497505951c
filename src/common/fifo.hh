/**
 * @file
 * First-in-first-out queue that keeps its storage.
 *
 * Elements live in a ring of default-constructed slots whose count is
 * a power of two.  Only reserve() and a push into a full ring (which
 * doubles it) allocate; a pop leaves its slot for reuse.  A queue whose
 * depth is bounded in steady state (the channel's pending swaps and
 * started-swap callbacks) therefore stops touching the heap once it
 * has held its deepest backlog, where a std::deque allocates a new
 * chunk every few elements as it advances.
 */

#ifndef PROFESS_COMMON_FIFO_HH
#define PROFESS_COMMON_FIFO_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

namespace profess
{

template <typename T>
class Fifo
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** @return elements it holds without allocating. */
    std::size_t capacity() const { return slots_.size(); }

    /** @return the i-th element from the front. */
    T &operator[](std::size_t i) { return slots_[index(i)]; }

    /** Make room for n elements (rounded up to a power of two). */
    void
    reserve(std::size_t n)
    {
        if (n > slots_.size())
            resize(std::bit_ceil(n));
    }

    void
    push(T v)
    {
        if (size_ == slots_.size())
            resize(std::max<std::size_t>(2 * slots_.size(), 4));
        slots_[index(size_)] = std::move(v);
        ++size_;
    }

    /** Remove and return the front element (the queue is not
     *  empty). */
    T
    pop()
    {
        T v = std::move(slots_[head_]);
        head_ = index(1);
        --size_;
        return v;
    }

    /** Destroy every element, keeping the storage. */
    void
    clear()
    {
        while (!empty())
            pop();
    }

  private:
    std::size_t
    index(std::size_t i) const
    {
        return (head_ + i) & (slots_.size() - 1);
    }

    void
    resize(std::size_t slots)
    {
        std::vector<T> bigger(slots);
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move(slots_[index(i)]);
        slots_.swap(bigger);
        head_ = 0;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace profess

#endif // PROFESS_COMMON_FIFO_HH
