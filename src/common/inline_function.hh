/**
 * @file
 * Small-buffer-optimized, move-only callable.
 *
 * The simulation kernel schedules millions of short-lived callbacks
 * per run; `std::function` heap-allocates any capture larger than
 * its ~16-byte internal buffer, which dominated the event hot path.
 * `InlineFunction` stores captures up to `BufBytes` (48 by default)
 * inline and only falls back to the heap beyond that, so the
 * steady-state simulation path performs zero allocations.
 *
 * Semantics:
 *  - move-only (callbacks own their captures exactly once);
 *  - an engaged target is invoked through one indirect call;
 *  - moved-from objects are empty; invoking an empty function
 *    panics (callers guard with `if (fn)` as with std::function).
 *
 * The inline path additionally requires the target to be
 * nothrow-move-constructible (true for every capture in this
 * codebase); throwing-move targets use the heap path so the
 * move constructor can stay noexcept.
 *
 * Inline targets that are trivially copyable and trivially
 * destructible (a lambda capturing `this` and a few integers, as
 * every kernel callback does) get no manager: a move copies the
 * buffer and destruction only disengages the function.
 */

#ifndef PROFESS_COMMON_INLINE_FUNCTION_HH
#define PROFESS_COMMON_INLINE_FUNCTION_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/logging.hh"

namespace profess
{

template <typename Sig, std::size_t BufBytes = 48>
class InlineFunction;

template <typename R, typename... Args, std::size_t BufBytes>
class InlineFunction<R(Args...), BufBytes>
{
  public:
    InlineFunction() = default;
    InlineFunction(std::nullptr_t) {}

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFunction> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    InlineFunction(F &&f)
    {
        assign(std::forward<F>(f));
    }

    InlineFunction(InlineFunction &&o) noexcept { moveFrom(o); }

    InlineFunction &
    operator=(InlineFunction &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFunction> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    InlineFunction &
    operator=(F &&f)
    {
        reset();
        assign(std::forward<F>(f));
        return *this;
    }

    InlineFunction &
    operator=(std::nullptr_t)
    {
        reset();
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    /** @return true if a target is engaged. */
    explicit operator bool() const { return invoke_ != nullptr; }

    R
    operator()(Args... args)
    {
        panic_if(invoke_ == nullptr,
                 "invoking an empty InlineFunction");
        return invoke_(buf_, std::forward<Args>(args)...);
    }

    /** Destroy the target, leaving the function empty. */
    void
    reset()
    {
        if (manage_ != nullptr) {
            manage_(buf_, nullptr);
            manage_ = nullptr;
        }
        invoke_ = nullptr;
    }

    /** @return true if a target of type F would be stored inline. */
    template <typename F>
    static constexpr bool
    storedInline()
    {
        using D = std::decay_t<F>;
        return sizeof(D) <= BufBytes &&
               alignof(D) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<D>;
    }

  private:
    using Invoke = R (*)(void *, Args &&...);
    /** dst == nullptr: destroy; else move-construct into dst and
     *  destroy the source.  Null for trivial inline targets. */
    using Manage = void (*)(void *, void *);

    template <typename F>
    static R
    invokeInline(void *b, Args &&...args)
    {
        return (*std::launder(static_cast<F *>(b)))(
            std::forward<Args>(args)...);
    }

    template <typename F>
    static void
    manageInline(void *src, void *dst)
    {
        F *f = std::launder(static_cast<F *>(src));
        if (dst != nullptr)
            ::new (dst) F(std::move(*f));
        f->~F();
    }

    template <typename F>
    static R
    invokeHeap(void *b, Args &&...args)
    {
        return (**std::launder(static_cast<F **>(b)))(
            std::forward<Args>(args)...);
    }

    template <typename F>
    static void
    manageHeap(void *src, void *dst)
    {
        F **p = std::launder(static_cast<F **>(src));
        if (dst != nullptr)
            ::new (dst) (F *)(*p);
        else
            delete *p;
    }

    template <typename F>
    void
    assign(F &&f)
    {
        using D = std::decay_t<F>;
        if constexpr (storedInline<D>()) {
            ::new (static_cast<void *>(buf_))
                D(std::forward<F>(f));
            invoke_ = &invokeInline<D>;
            if constexpr (!std::is_trivially_copyable_v<D> ||
                          !std::is_trivially_destructible_v<D>)
                manage_ = &manageInline<D>;
        } else {
            ::new (static_cast<void *>(buf_))
                (D *)(new D(std::forward<F>(f)));
            invoke_ = &invokeHeap<D>;
            manage_ = &manageHeap<D>;
        }
    }

    void
    moveFrom(InlineFunction &o) noexcept
    {
        if (o.invoke_ != nullptr) {
            if (o.manage_ != nullptr)
                o.manage_(o.buf_, buf_);
            else
                std::memcpy(buf_, o.buf_, BufBytes);
            invoke_ = o.invoke_;
            manage_ = o.manage_;
            o.invoke_ = nullptr;
            o.manage_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[BufBytes];
    Invoke invoke_ = nullptr;
    Manage manage_ = nullptr;
};

/** The kernel-wide completion-callback type (see EventQueue). */
using InlineCallback = InlineFunction<void(), 48>;

} // namespace profess

#endif // PROFESS_COMMON_INLINE_FUNCTION_HH
