// Small-buffer-optimized callback type for the event engine (DESIGN.md §11).
//
// Every scheduled event used to pay one heap allocation for its
// std::function capture. InlineFn stores callables of up to kInlineCapacity
// bytes directly inside the event node and falls back to the heap only for
// oversized captures; the engine's hot-path callbacks (MAC timers, channel
// completions, HELLO beacons) are audited to fit inline, so a steady-state
// run performs no callback allocations at all. Unlike std::function it is
// move-only, which also lets callbacks own move-only state.
//
// Construction records engine.alloc.callback.{inline,heap} so allocation
// regressions (a capture growing past the buffer) show up in bench reports
// rather than only in profiles.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "obs/metrics.hpp"

namespace manet::sim {

/// Move-only `void()` callable with inline storage for small captures.
class InlineFn {
 public:
  /// Sized with headroom over the engine's hot-path captures (at most
  /// `this` plus an id today); growing a capture past this is a perf
  /// regression the engine.alloc.callback.heap counter makes visible.
  static constexpr std::size_t kInlineCapacity = 48;

  InlineFn() = default;

  template <typename F,
            typename D = std::remove_cvref_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineFn(F&& fn) {  // NOLINT(google-explicit-constructor): callback sink
    if constexpr (fitsInline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &opsFor<D, /*Heap=*/false>();
      obs::add(obs::Counter::kEngineAllocCallbackInline);
    } else {
      heap_ = new D(std::forward<F>(fn));
      ops_ = &opsFor<D, /*Heap=*/true>();
      obs::add(obs::Counter::kEngineAllocCallbackHeap);
    }
  }

  InlineFn(InlineFn&& other) noexcept { moveFrom(other); }
  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      moveFrom(other);
    }
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { reset(); }

  void operator()() { ops_->invoke(target()); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// True when the callable lives on the heap (capture exceeded the inline
  /// buffer). Exposed for the inline-vs-heap differential tests.
  bool heapAllocated() const { return ops_ != nullptr && ops_->heap; }

  /// Destroys the held callable (no-op when empty).
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(target());
      ops_ = nullptr;
      heap_ = nullptr;
    }
  }

  /// Compile-time probe: would a callable of type F be stored inline?
  template <typename F>
  static constexpr bool storesInline() {
    return fitsInline<std::remove_cvref_t<F>>();
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs the callable into `to` and destroys the source.
    /// Null for heap-held callables (moves just steal the pointer).
    void (*relocate)(void* from, void* to);
    void (*destroy)(void*);
    bool heap;
  };

  template <typename D>
  static constexpr bool fitsInline() {
    return sizeof(D) <= kInlineCapacity &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D, bool Heap>
  static constexpr Ops makeOps() {
    Ops ops{};
    ops.invoke = [](void* p) { (*static_cast<D*>(p))(); };
    if constexpr (Heap) {
      ops.relocate = nullptr;
      ops.destroy = [](void* p) { delete static_cast<D*>(p); };
    } else {
      ops.relocate = [](void* from, void* to) {
        ::new (to) D(std::move(*static_cast<D*>(from)));
        static_cast<D*>(from)->~D();
      };
      ops.destroy = [](void* p) { static_cast<D*>(p)->~D(); };
    }
    ops.heap = Heap;
    return ops;
  }

  template <typename D, bool Heap>
  static const Ops& opsFor() {
    static constexpr Ops ops = makeOps<D, Heap>();
    return ops;
  }

  void* target() { return ops_->heap ? heap_ : static_cast<void*>(storage_); }

  void moveFrom(InlineFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->heap) {
      heap_ = other.heap_;
      other.heap_ = nullptr;
    } else {
      ops_->relocate(other.storage_, storage_);
    }
    other.ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  void* heap_ = nullptr;
  const Ops* ops_ = nullptr;
};

}  // namespace manet::sim
