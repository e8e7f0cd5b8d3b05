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
// An inline callable that is trivially copyable (every engine capture:
// `this` plus an id) moves with one fixed-size copy of the buffer and has no
// destructor to run, so the several moves an event's callback makes between
// its construction and its call cost no indirect call (DESIGN.md §11.3).
//
// Construction records engine.alloc.callback.{inline,heap} so allocation
// regressions (a capture growing past the buffer) show up in bench reports
// rather than only in profiles.
#pragma once

#include <cstddef>
#include <cstring>
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
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
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

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// True when the callable lives on the heap (capture exceeded the inline
  /// buffer). Exposed for the inline-vs-heap differential tests.
  bool heapAllocated() const { return ops_ != nullptr && ops_->heap; }

  /// Destroys the held callable (no-op when empty).
  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// Compile-time probe: would a callable of type F be stored inline?
  template <typename F>
  static constexpr bool storesInline() {
    return fitsInline<std::remove_cvref_t<F>>();
  }

  /// Compile-time probe: would a callable of type F move by a plain copy
  /// of the buffer and need no destructor call? True for inline,
  /// trivially copyable captures (`this` plus ids: every engine hot path).
  template <typename F>
  static constexpr bool relocatesTrivially() {
    using D = std::remove_cvref_t<F>;
    return fitsInline<D>() && std::is_trivially_copyable_v<D>;
  }

 private:
  /// Every entry takes the buffer; a heap-held callable's buffer holds its
  /// pointer.
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs the callable into `to` and destroys the source.
    /// Null when a byte copy of the buffer moves it: a heap pointer or a
    /// trivially copyable callable.
    void (*relocate)(void* from, void* to);
    /// Null when there is nothing to destroy (trivially copyable).
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
    if constexpr (Heap) {
      ops.invoke = [](void* p) { (**static_cast<D**>(p))(); };
      ops.relocate = nullptr;
      ops.destroy = [](void* p) { delete *static_cast<D**>(p); };
    } else if constexpr (std::is_trivially_copyable_v<D>) {
      ops.invoke = [](void* p) { (*static_cast<D*>(p))(); };
      ops.relocate = nullptr;
      ops.destroy = nullptr;
    } else {
      ops.invoke = [](void* p) { (*static_cast<D*>(p))(); };
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

  void moveFrom(InlineFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate == nullptr) {
      std::memcpy(storage_, other.storage_, kInlineCapacity);
    } else {
      ops_->relocate(other.storage_, storage_);
    }
    other.ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace manet::sim
