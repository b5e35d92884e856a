// Fixed-capacity, non-allocating callable wrapper for event callbacks.
//
// std::function heap-allocates any closure past its small-buffer budget
// (16-32 bytes on mainstream ABIs), which put an allocator round-trip on
// every scheduled packet event. InlineCallback stores the closure inline in
// a fixed buffer and rejects oversized captures at compile time, so the
// event slab can hold callbacks by value and scheduling never allocates.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace ccfuzz::sim {

/// Move-only callable of signature void() with `Capacity` bytes of inline
/// storage. Closures larger than `Capacity` fail a static_assert — shrink
/// the capture (e.g. keep bulky payloads in the owner — an event lane — and
/// capture `this`) rather than raising the budget.
template <std::size_t Capacity>
class InlineCallback {
 public:
  InlineCallback() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineCallback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  InlineCallback(F&& f) {  // NOLINT: implicit by design, mirrors std::function
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Capacity,
                  "closure exceeds the inline callback budget; capture less "
                  "(an owner pointer instead of payloads)");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned closures are not supported");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "closures must be nothrow-move-constructible");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    ops_ = &kOps<Fn>;
  }

  InlineCallback(InlineCallback&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      relocate_from(o);
      o.ops_ = nullptr;
    }
  }
  InlineCallback& operator=(InlineCallback&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) {
        relocate_from(o);
        o.ops_ = nullptr;
      }
    }
    return *this;
  }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { reset(); }

  /// Invokes the stored closure. Requires a non-empty callback.
  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Destroys the stored closure (no-op when empty).
  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs the closure into `to` and destroys the one at `from`;
    /// null when a raw buffer copy suffices (trivially-copyable closure).
    void (*relocate)(void* from, void* to);
    /// Null for trivially-destructible closures — the hot path skips the
    /// indirect call entirely.
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr Ops kOps = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      std::is_trivially_copyable_v<Fn>
          ? nullptr
          : +[](void* from, void* to) {
              Fn* f = static_cast<Fn*>(from);
              ::new (to) Fn(std::move(*f));
              f->~Fn();
            },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* p) { static_cast<Fn*>(p)->~Fn(); },
  };

  void relocate_from(InlineCallback& o) {
    if (ops_->relocate != nullptr) {
      ops_->relocate(o.buf_, buf_);
    } else {
      std::memcpy(buf_, o.buf_, Capacity);
    }
  }

  alignas(std::max_align_t) unsigned char buf_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace ccfuzz::sim
