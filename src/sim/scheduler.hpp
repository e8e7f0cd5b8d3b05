// Discrete-event scheduler: the "event-driven engine" at the center of the
// paper's simulator (§4). Single-threaded, deterministic: events at equal
// timestamps run in scheduling (FIFO) order — plain events order by
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
// Two queues hold pending events (DESIGN.md §11.2). A timing wheel with one
// bucket per microsecond takes every event due within kWheelHorizon: a
// bucket's plain events sit in an intrusive list in schedule order, so a
// push, a pop and a cancel are O(1), and a bitmap of non-empty buckets finds
// the next one. An indexed 4-ary min-heap takes every later event; it was
// scheduled before any wheel event due at the same time, so it runs first.
//
// A countdown (scheduleCountdown) is one event standing for a chain of
// one-period re-arms: it fires where the chain's last tick would, and
// periodsLeft() says how many ticks are still owed at any point of the run.
// Its place among the events due at its instant follows from the schedule
// instants each node keeps (the ordering rule, DESIGN.md §11.2).
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

  /// How far ahead the timing wheel reaches, one bucket per microsecond.
  /// It covers a DCF backoff (DIFS + 31 slots of 20 us = 670 us), the
  /// carrier-sense delay, frame airtimes up to ~830 bytes and the forwarding
  /// jitter; any later event goes to the heap. A power of two, so a bucket
  /// index is a remainder the compiler turns into a mask.
  static constexpr Duration kWheelHorizon{1024};

  Scheduler();
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

    /// Periods a pending countdown still owes at this point of the run:
    /// the armed count less the ticks its chain of one-period re-arms would
    /// have fired by now. A tick due at this very instant counts only if it
    /// would have fired before the event now running. A pending plain event
    /// owes 1, a fired or cancelled one 0.
    std::int64_t periodsLeft() const {
      return pending() ? owner_->periodsLeft(slot_) : 0;
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

  /// Schedules `fn` to run once, `periods` periods from now, exactly where
  /// the last of a chain of `periods` one-period re-arms would run: the
  /// first scheduled now, each next one scheduleAfter(period) from inside
  /// the one before. Handle::periodsLeft() reads the ticks still owed, so
  /// cancelling a countdown freezes the chain. One period is a plain
  /// scheduleAfter(period). Needs periods >= 1 and the whole countdown
  /// inside kWheelHorizon.
  Handle scheduleCountdown(Duration period, std::int64_t periods,
                           Callback&& fn);

  /// Current simulation time (time of the most recently fired event).
  TimePoint now() const { return now_; }

  /// Number of live (non-cancelled) events still queued. O(1).
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
  static constexpr std::uint32_t kBuckets =
      static_cast<std::uint32_t>(kWheelHorizon / kMicrosecond);
  static constexpr std::uint32_t kBucketWords = kBuckets / 64;
  static_assert(kBuckets % 64 == 0 && kBucketWords <= 32);

  enum class Queue : std::uint8_t { kNone, kHeap, kWheel, kCountdown };

  /// One pooled event. `gen` increments every time the slot is released
  /// (fire or cancel), invalidating all outstanding handles to it.
  struct Node {
    Callback fn;
    TimePoint at{};
    std::uint64_t seq = 0;
    /// now() when it was scheduled; for a countdown, when it was armed.
    TimePoint scheduledAt{};
    /// The delay of the event that was running when it was scheduled. For a
    /// countdown, the period: the delay of the previous tick of its chain,
    /// which is the tick that would have scheduled the last one.
    Duration parentDelay{};
    EventGen gen{};
    /// Heap position while in the heap; previous node of its bucket list
    /// while in the wheel.
    std::uint32_t link = kNullIndex;
    /// Next node of its bucket list while in the wheel; free-list link
    /// while released.
    EventSlot next = kNullSlot;
    Queue queue = Queue::kNone;
    /// A countdown whose origin ran after the ticks other countdowns had
    /// due when it was armed (see countdownFirst()).
    bool late = false;
  };

  /// Heap entries carry the (at, seq) sort key inline so sift comparisons
  /// stay within the contiguous heap array and never dereference nodes —
  /// the node is only touched once per move, to update its heap position.
  struct HeapEntry {
    TimePoint at;
    std::uint64_t seq;
    EventSlot slot;
  };

  /// One microsecond of the wheel. Plain events are listed in schedule
  /// order, countdowns in firing order; `fire()` merges the two heads.
  struct Bucket {
    EventSlot head = kNullSlot;
    EventSlot tail = kNullSlot;
    EventSlot countdowns = kNullSlot;
    /// The countdown last inserted here, where the next insertion's search
    /// starts if it is still listed and ahead of the newcomer: countdowns
    /// armed at one instant queue up in arming order, so a burst of them
    /// is placed in O(1) each, not by a walk past the ones before.
    EventSlot lastInserted = kNullSlot;
  };

  /// The event now running, as the ordering rule sees it. A countdown
  /// stands for its chain's last tick, scheduled one period before it fires
  /// by a tick that was itself scheduled one period earlier. Between
  /// runUntil() calls it is a point after every event due at now().
  struct Firing {
    TimePoint scheduledAt;
    Duration parentDelay;
    std::uint64_t seq;
    Duration period;  // zero unless a countdown
    TimePoint armedAt;
    bool late;
  };

  /// Where the least pending event sits: a bucket, or kNullIndex for the
  /// heap top.
  struct Next {
    TimePoint at;
    std::uint32_t bucket;
  };

  Node& node(EventSlot slot) {
    return slabs_[slot.value() / kSlabNodes][slot.value() % kSlabNodes];
  }
  const Node& node(EventSlot slot) const {
    return slabs_[slot.value() / kSlabNodes][slot.value() % kSlabNodes];
  }

  EventSlot acquireSlot();
  void releaseSlot(EventSlot slot);
  /// Takes a slot for an event due at `at` and fills in its keys.
  EventSlot newNode(TimePoint at, Callback&& fn);
  /// Counts a newly queued event.
  Handle queued(EventSlot slot);
  /// Cancels the pending event in `slot`.
  void cancelSlot(EventSlot slot);
  bool slotPending(EventSlot slot, EventGen gen) const {
    return slot.value() < slotCount_ && node(slot).gen == gen;
  }
  std::int64_t periodsLeft(EventSlot slot) const;

  /// Heap order: earliest (at, seq) at the root — exact FIFO tie-break.
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }
  /// Compares the heap top with the first occupied bucket; false when
  /// nothing is pending.
  bool next(Next& out) const;
  /// Pops the event `next()` found, advances now() and runs it.
  void fire(const Next& next);

  // --- the ordering rule (DESIGN.md §11.2) ---
  /// Plain event `e` against countdown `c`, both due at c.at: true when the
  /// chain's last tick would have been scheduled after `e`.
  bool plainBeforeCountdown(const Node& e, const Node& c) const;
  /// Two countdowns whose ticks fall due at the same instant: true when
  /// `a`'s runs first. A chain falls in line at its first tick, behind the
  /// chains whose ticks ran before its origin: ahead of every one already
  /// ticking, or (`late`) behind all of them.
  static bool countdownFirst(const Node& a, const Node& b) {
    return countdownFirst(a.parentDelay, a.scheduledAt, a.seq, a.late,
                          b.parentDelay, b.scheduledAt, b.seq, b.late);
  }
  static bool countdownFirst(Duration aPeriod, TimePoint aArmed,
                             std::uint64_t aSeq, bool aLate,
                             Duration bPeriod, TimePoint bArmed,
                             std::uint64_t bSeq, bool bLate);
  /// Whether a countdown armed now with `period` is late: its origin, the
  /// event now running, ran after the ticks other countdowns have due now.
  bool armedLate(Duration period);
  /// A tick of countdown `c` due now (its `first`, or a later one): true
  /// when it would have fired before the event now running.
  bool tickBeforeFiring(const Node& c, bool first) const;
  /// A point after every event due at now(): outside any event.
  void settle() {
    firing_ = Firing{now_, Duration{}, UINT64_MAX, Duration{}, now_, false};
  }

  // --- wheel ---
  static std::uint32_t bucketOf(TimePoint at) {
    return static_cast<std::uint32_t>((at.sinceStart() % kWheelHorizon) /
                                      kMicrosecond);
  }
  /// First occupied bucket at or after `from`, circularly; kNullIndex if
  /// the wheel is empty.
  std::uint32_t firstOccupied(std::uint32_t from) const;
  void markOccupied(std::uint32_t bucket);
  void wheelAppend(EventSlot slot);
  void wheelInsertCountdown(EventSlot slot);
  void wheelUnlink(EventSlot slot);

  // --- heap ---
  void heapPush(EventSlot slot);
  void siftUp(std::size_t i);
  void siftDown(std::size_t i);
  /// Removes the heap entry at position `i`, restoring the heap property.
  void heapRemove(std::size_t i);

  TimePoint now_{};
  std::uint64_t nextSeq_ = 0;
  Firing firing_{};
  /// Redundant live-event counter, cross-checked against heap_.size() +
  /// wheelSize_ after every pop/cancel (the scheduler.count-drift audit
  /// invariant).
  std::size_t live_ = 0;
  std::size_t wheelSize_ = 0;  // events in the wheel, countdowns included
  std::vector<std::unique_ptr<Node[]>> slabs_;
  std::uint32_t slotCount_ = 0;       // slots ever carved from slabs
  EventSlot freeHead_ = kNullSlot;    // released-slot free list
  std::vector<HeapEntry> heap_;          // 4-ary min-heap, keys inline
  std::vector<Bucket> wheel_;            // kBuckets, bucket = at mod horizon
  /// Bit b of word w: bucket 64 w + b is non-empty.
  std::uint64_t occupied_[kBucketWords] = {};
  /// Bit w: occupied_[w] is non-zero.
  std::uint32_t occupiedWords_ = 0;
#if MANET_AUDIT_ENABLED
  // Mutable: the ordering rule reports unresolved ties from const reads.
  mutable audit::SchedulerAudit audit_;
#endif
};

}  // namespace manet::sim
