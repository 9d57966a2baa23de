/**
 * @file
 * Small-buffer-optimized, move-only callable for the event hot path.
 *
 * The event loop schedules millions of callbacks per simulated run.
 * With `std::function`, each capture larger than the implementation's
 * small-object buffer (16-32 bytes on mainstream stdlibs — smaller
 * than many event captures) costs one heap allocation on
 * schedule and one deallocation on execute, plus an indirect call
 * through the allocated block. InlineFunction eliminates that traffic:
 * the capture is constructed directly into inline storage sized for
 * the largest capture the simulator actually creates, and oversized
 * captures are a *compile-time* error rather than a silent heap
 * fallback — so the no-allocation property is enforced, not hoped for.
 *
 * Differences from std::function, on purpose:
 *   - move-only (events fire once; copyability would forbid move-only
 *     captures and invite accidental deep copies of packet payloads);
 *   - void() signature only (all events are thunks);
 *   - no allocation, ever: sizeof(capture) must fit Capacity and its
 *     alignment must not exceed alignof(std::max_align_t).
 */
#ifndef PULSE_SIM_INLINE_FUNCTION_H
#define PULSE_SIM_INLINE_FUNCTION_H

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace pulse::sim {

/** Move-only `void()` callable with @p Capacity bytes of inline
 *  storage and no heap fallback. */
template <std::size_t Capacity>
class InlineFunction
{
  public:
    static constexpr std::size_t capacity = Capacity;

    InlineFunction() = default;

    template <typename Fn,
              typename = std::enable_if_t<!std::is_same_v<
                  std::decay_t<Fn>, InlineFunction>>>
    InlineFunction(Fn&& fn)  // NOLINT: implicit like std::function
    {
        using Decayed = std::decay_t<Fn>;
        static_assert(sizeof(Decayed) <= Capacity,
                      "capture exceeds InlineFunction storage; grow "
                      "Capacity or shrink the capture");
        static_assert(alignof(Decayed) <= alignof(std::max_align_t),
                      "over-aligned capture");
        static_assert(std::is_invocable_r_v<void, Decayed&>,
                      "callable must be invocable as void()");
        ::new (static_cast<void*>(storage_))
            Decayed(std::forward<Fn>(fn));
        invoke_ = [](void* target) {
            (*std::launder(reinterpret_cast<Decayed*>(target)))();
        };
        manage_ = [](ManageOp op, void* self, void* other) {
            auto* from =
                std::launder(reinterpret_cast<Decayed*>(other));
            switch (op) {
                case ManageOp::kMoveFrom:
                    ::new (self) Decayed(std::move(*from));
                    from->~Decayed();
                    break;
                case ManageOp::kDestroy:
                    std::launder(reinterpret_cast<Decayed*>(self))
                        ->~Decayed();
                    break;
            }
        };
    }

    InlineFunction(InlineFunction&& other) noexcept { steal(other); }

    InlineFunction&
    operator=(InlineFunction&& other) noexcept
    {
        if (this != &other) {
            reset();
            steal(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction&) = delete;
    InlineFunction& operator=(const InlineFunction&) = delete;

    ~InlineFunction() { reset(); }

    /** True when a callable is held. */
    explicit operator bool() const { return invoke_ != nullptr; }

    /** Invoke the held callable (undefined when empty, like moving
     *  from: the event loop never invokes an empty slot). */
    void
    operator()()
    {
        invoke_(storage_);
    }

  private:
    enum class ManageOp { kMoveFrom, kDestroy };

    using InvokeFn = void (*)(void*);
    using ManageFn = void (*)(ManageOp, void* self, void* other);

    void
    reset()
    {
        if (manage_ != nullptr) {
            manage_(ManageOp::kDestroy, storage_, nullptr);
            invoke_ = nullptr;
            manage_ = nullptr;
        }
    }

    /** Move @p other's callable into empty *this; leaves it empty. */
    void
    steal(InlineFunction& other)
    {
        if (other.manage_ != nullptr) {
            other.manage_(ManageOp::kMoveFrom, storage_,
                          other.storage_);
            invoke_ = other.invoke_;
            manage_ = other.manage_;
            other.invoke_ = nullptr;
            other.manage_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char storage_[Capacity];
    InvokeFn invoke_ = nullptr;
    ManageFn manage_ = nullptr;
};

}  // namespace pulse::sim

#endif  // PULSE_SIM_INLINE_FUNCTION_H
