// Discrete-event scheduler: the "event-driven engine" at the center of the
// paper's simulator (§4). Single-threaded, deterministic: events at equal
// timestamps run in scheduling (FIFO) order — every queue orders by
// (at, seq) where seq is the global schedule counter, a total order, so the
// execution sequence is independent of queue structure or memory layout.
//
// Memory layout (DESIGN.md §11): event nodes live in slab-allocated pools
// and are recycled through a free list, so a steady-state run performs no
// per-event allocations. Handles are generation-counted (slot, gen) pairs —
// plain values, no shared_ptr — and a handle outliving its event is detected
// by generation mismatch, which keeps cancel()/pending() safe on recycled
// slots.
//
// Two kinds of queue hold pending events (DESIGN.md §11.2). An indexed 4-ary
// min-heap takes any delay and removes a cancelled entry eagerly. Fixed-delay
// lanes take the constant delays a layer declares with addLane() (the DCF
// slot and DIFS, the PHY carrier-sense delay): a lane is a FIFO ring, already
// sorted because now() never goes back and seq only rises, and it drops a
// cancelled entry lazily, once the entry reaches the ring's head. The next
// event is the least (at, seq) among the heap top and the lane heads.
// pendingCount() is O(1), and the audit's live == heap-resident + live-lane
// count invariant holds after every pop/cancel.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "sim/inline_fn.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"
#include "util/tagged_id.hpp"

#if MANET_AUDIT_ENABLED
#include "audit/invariants.hpp"
#endif

namespace manet::ckpt {
struct StateAccess;
}

namespace manet::sim {

/// Slot index into the scheduler's pooled event slabs. Tagged (DESIGN.md
/// §13) so a slot can't be confused with a generation count or any other
/// uint32 riding through handle plumbing.
using EventSlot = util::TaggedId<struct EventSlotTag, std::uint32_t>;
/// Generation counter of one pool slot; a handle is stale when its
/// generation no longer matches the slot's.
using EventGen = util::TaggedId<struct EventGenTag, std::uint32_t>;

/// Pooled-slab event scheduler with cancellable events.
class Scheduler {
 public:
  using Callback = InlineFn;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Cancellable reference to a scheduled event: the owning scheduler plus
  /// an 8-byte (slot, generation) id into its node pool. Default-constructed
  /// handles are inert. Handles are trivially copyable values; a stale
  /// handle (its event fired or was cancelled, even if the slot has since
  /// been recycled) is detected by generation mismatch and ignored.
  class Handle {
   public:
    Handle() = default;

    /// Cancels the event if it has not fired yet; idempotent. A handle
    /// whose event already fired (most of them) costs one compare.
    void cancel() {
      if (owner_ != nullptr && owner_->slotPending(slot_, gen_)) {
        owner_->cancelSlot(slot_);
      }
    }

    /// True while the event is scheduled and neither fired nor cancelled.
    bool pending() const {
      return owner_ != nullptr && owner_->slotPending(slot_, gen_);
    }

   private:
    friend class Scheduler;
    Handle(Scheduler* owner, EventSlot slot, EventGen gen)
        : owner_(owner), slot_(slot), gen_(gen) {}
    Scheduler* owner_ = nullptr;
    EventSlot slot_{};
    EventGen gen_{};
  };

  /// Schedules `fn` to run at absolute time `at` (must be >= now()).
  /// Taken by reference so that a callable built at the call site moves
  /// once, into its event node (DESIGN.md §11.3).
  Handle schedule(TimePoint at, Callback&& fn);

  /// Schedules `fn` to run `delay` from now (delay >= 0).
  Handle scheduleAfter(Duration delay, Callback&& fn) {
    MANET_EXPECTS(delay >= Duration{});
    return schedule(now_ + delay, std::move(fn));
  }

  /// Declares a constant delay (> 0) the caller schedules at often. From
  /// then on every event whose `at - now()` equals `delay` queues in that
  /// delay's FIFO lane instead of the heap; the execution order is the same
  /// either way. Declaring a delay twice is a no-op.
  void addLane(Duration delay);

  /// Current simulation time (time of the most recently fired event).
  TimePoint now() const { return now_; }

  /// Number of live (non-cancelled) events still queued. O(1); cancelled
  /// lane entries still waiting to reach their ring's head do not count.
  std::size_t pendingCount() const { return live_; }

  /// Runs the next live event; returns false when the queue is empty.
  bool runOne();

  /// Runs events until simulation time exceeds `until` (events exactly at
  /// `until` are executed) or the queue drains. Afterwards now() >= `until`
  /// if any events remain. Returns events executed.
  std::size_t runUntil(TimePoint until);

  /// Drains the queue completely (bounded by maxEvents as a runaway guard).
  /// Returns events executed.
  std::size_t runAll(std::size_t maxEvents = SIZE_MAX);

 private:
  friend struct manet::ckpt::StateAccess;
  static constexpr std::uint32_t kNullIndex = 0xFFFFFFFFu;
  static constexpr EventSlot kNullSlot{kNullIndex};
  /// Nodes per slab. One slab covers a small scenario entirely; big runs
  /// amortize one allocation per kSlabNodes concurrent events.
  static constexpr std::uint32_t kSlabNodes = 256;

  /// One pooled event. `gen` increments every time the slot is released
  /// (fire or cancel), invalidating all outstanding handles to it.
  struct Node {
    Callback fn;
    TimePoint at{};
    std::uint64_t seq = 0;
    EventGen gen{};
    std::uint32_t heapIndex = kNullIndex;  // kNullIndex while not in heap
    std::uint32_t lane = kNullIndex;       // kNullIndex while not in a lane
    EventSlot nextFree = kNullSlot;        // free-list link while released
  };

  /// Heap entries carry the (at, seq) sort key inline so sift comparisons
  /// stay within the contiguous heap array and never dereference nodes —
  /// the node is only touched once per move, to update its heapIndex.
  struct HeapEntry {
    TimePoint at;
    std::uint64_t seq;
    EventSlot slot;
  };

  /// A lane's ring entry. Cancel leaves it in the ring; it is dead once the
  /// slot's generation moved past `gen`, and is dropped at the head.
  struct LaneEntry {
    TimePoint at;
    std::uint64_t seq;
    EventSlot slot;
    EventGen gen;
  };

  /// FIFO ring of the events scheduled exactly `delay` ahead. Pushes arrive
  /// in (at, seq) order, so the head is the lane's least entry. Invariant:
  /// the head, if any, is live. The ring is reserved when the lane is
  /// declared, doubles when full and never shrinks, so steady state
  /// allocates nothing.
  struct Lane {
    /// 6 KB per lane. A 100-station storm and a 2000-host crowd
    /// (bench/perf) both fit, dead entries included, so their runs never
    /// grow a ring.
    static constexpr std::size_t kInitialRing = 256;

    Duration delay;
    std::vector<LaneEntry> ring;  // size: a power of two
    std::size_t head = 0;
    std::size_t size = 0;

    const LaneEntry& front() const { return ring[head]; }
    const LaneEntry& entry(std::size_t i) const {
      return ring[(head + i) & (ring.size() - 1)];
    }
    void push(const LaneEntry& entry);
    void pop() {
      head = (head + 1) & (ring.size() - 1);
      --size;
    }
  };

  /// Where the least pending (at, seq) sits: lane index, or kNullIndex for
  /// the heap top.
  struct Next {
    TimePoint at;
    std::uint32_t lane;
  };

  Node& node(EventSlot slot) {
    return slabs_[slot.value() / kSlabNodes][slot.value() % kSlabNodes];
  }
  const Node& node(EventSlot slot) const {
    return slabs_[slot.value() / kSlabNodes][slot.value() % kSlabNodes];
  }

  EventSlot acquireSlot();
  void releaseSlot(EventSlot slot);
  /// Cancels the pending event in `slot`.
  void cancelSlot(EventSlot slot);
  bool slotPending(EventSlot slot, EventGen gen) const {
    return slot.value() < slotCount_ && node(slot).gen == gen;
  }

  /// Heap order: earliest (at, seq) at the root — exact FIFO tie-break.
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }
  /// Compares the heap top with every lane head; false when none is pending.
  bool next(Next& out) const;
  /// Pops the event `next()` found, advances now() and runs it.
  void fire(const Next& next);
  /// Drops the dead entries at the head of `lane`.
  void trimLane(Lane& lane);

  void siftUp(std::size_t i);
  void siftDown(std::size_t i);
  /// Removes the heap entry at position `i`, restoring the heap property.
  void heapRemove(std::size_t i);

  TimePoint now_{};
  std::uint64_t nextSeq_ = 0;
  /// Redundant live-event counter, cross-checked against heap_.size() +
  /// laneLive_ after every pop/cancel (the scheduler.count-drift audit
  /// invariant).
  std::size_t live_ = 0;
  std::size_t laneLive_ = 0;  // live entries across all lanes
  std::vector<std::unique_ptr<Node[]>> slabs_;
  std::uint32_t slotCount_ = 0;       // slots ever carved from slabs
  EventSlot freeHead_ = kNullSlot;    // released-slot free list
  std::vector<HeapEntry> heap_;          // 4-ary min-heap, keys inline
  std::vector<Lane> lanes_;              // one per declared delay
#if MANET_AUDIT_ENABLED
  audit::SchedulerAudit audit_;
#endif
};

}  // namespace manet::sim
