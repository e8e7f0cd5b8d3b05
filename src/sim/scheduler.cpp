#include "sim/scheduler.hpp"

#include <bit>
#include <utility>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace manet::sim {

Scheduler::Scheduler() : wheel_(kBuckets) { settle(); }

EventSlot Scheduler::acquireSlot() {
  if (freeHead_ != kNullSlot) {
    const EventSlot slot = freeHead_;
    Node& n = node(slot);
    freeHead_ = n.next;
    n.next = kNullSlot;
    obs::add(obs::Counter::kEngineAllocEventReused);
    return slot;
  }
  if (slotCount_ % kSlabNodes == 0) {
    slabs_.push_back(std::make_unique<Node[]>(kSlabNodes));
    obs::add(obs::Counter::kEngineAllocEventSlabs);
  }
  return EventSlot{slotCount_++};
}

void Scheduler::releaseSlot(EventSlot slot) {
  Node& n = node(slot);
  ++n.gen;  // invalidate every outstanding handle
  n.queue = Queue::kNone;
  n.link = kNullIndex;
  n.next = freeHead_;
  freeHead_ = slot;
}

EventSlot Scheduler::newNode(TimePoint at, Callback&& fn) {
  MANET_EXPECTS(at >= now_);
  MANET_EXPECTS(static_cast<bool>(fn));
  const EventSlot slot = acquireSlot();
  Node& n = node(slot);
  n.fn = std::move(fn);
  n.at = at;
  n.seq = nextSeq_++;
  n.scheduledAt = now_;
  n.parentDelay = now_ - firing_.scheduledAt;
  MANET_AUDIT_HOOK(audit_.onSchedule(at, now_));
  return slot;
}

Scheduler::Handle Scheduler::queued(EventSlot slot) {
  ++live_;
  obs::add(obs::Counter::kSchedulerScheduled);
  obs::gaugeMax(obs::Gauge::kSchedulerQueueDepth, live_);
  return Handle(this, slot, node(slot).gen);
}

Scheduler::Handle Scheduler::schedule(TimePoint at, Callback&& fn) {
  const EventSlot slot = newNode(at, std::move(fn));
  if (at - now_ < kWheelHorizon) {
    wheelAppend(slot);
  } else {
    heapPush(slot);
  }
  return queued(slot);
}

Scheduler::Handle Scheduler::scheduleCountdown(Duration period,
                                               std::int64_t periods,
                                               Callback&& fn) {
  MANET_EXPECTS(period > Duration{} && periods >= 1);
  MANET_EXPECTS(period * periods < kWheelHorizon);
  if (periods == 1) return scheduleAfter(period, std::move(fn));
  const bool late = armedLate(period);
  const EventSlot slot = newNode(now_ + period * periods, std::move(fn));
  node(slot).parentDelay = period;
  node(slot).late = late;
  wheelInsertCountdown(slot);
  return queued(slot);
}

void Scheduler::cancelSlot(EventSlot slot) {
  Node& n = node(slot);
  MANET_ASSERT(n.queue != Queue::kNone);
  MANET_ASSERT(live_ > 0);
  MANET_AUDIT_HOOK(audit_.onCancel(n.at, now_));
  if (n.queue == Queue::kHeap) {
    heapRemove(n.link);
  } else {
    wheelUnlink(slot);
  }
  n.fn.reset();  // release captured state promptly
  releaseSlot(slot);
  --live_;
  obs::add(obs::Counter::kSchedulerCancelled);
  MANET_ASSERT(live_ == heap_.size() + wheelSize_);
  MANET_AUDIT_HOOK(audit_.onCount(live_, heap_.size(), wheelSize_, now_));
}

bool Scheduler::next(Next& out) const {
  const std::uint32_t from = bucketOf(now_);
  const std::uint32_t bucket = firstOccupied(from);
  if (bucket != kNullIndex) {
    out = Next{now_ + kMicrosecond * ((bucket - from) & (kBuckets - 1)),
               bucket};
    // A heap event due at the same instant was scheduled a horizon or
    // more ahead, before every wheel event due then: it runs first.
    if (heap_.empty() || out.at < heap_[0].at) return true;
  } else if (heap_.empty()) {
    return false;
  }
  out = Next{heap_[0].at, kNullIndex};
  return true;
}

void Scheduler::fire(const Next& next) {
  EventSlot slot;
  if (next.bucket == kNullIndex) {
    slot = heap_[0].slot;
    heapRemove(0);
  } else {
    const Bucket& bucket = wheel_[next.bucket];
    slot = bucket.head;
    if (bucket.countdowns != kNullSlot &&
        (slot == kNullSlot ||
         !plainBeforeCountdown(node(slot), node(bucket.countdowns)))) {
      slot = bucket.countdowns;
    }
    wheelUnlink(slot);
  }
  Node& n = node(slot);
  MANET_ASSERT(n.at == next.at && n.at >= now_);
  MANET_AUDIT_HOOK(audit_.onPop(n.at));
  now_ = n.at;
  if (n.queue == Queue::kCountdown) {
    firing_ = Firing{n.at - n.parentDelay, n.parentDelay, n.seq,
                     n.parentDelay, n.scheduledAt, n.late};
  } else {
    firing_ = Firing{n.scheduledAt, n.parentDelay, n.seq, Duration{},
                     n.scheduledAt, false};
  }
  Callback fn = std::move(n.fn);
  releaseSlot(slot);
  MANET_ASSERT(live_ > 0);
  --live_;
  obs::add(obs::Counter::kSchedulerExecuted);
  MANET_ASSERT(live_ == heap_.size() + wheelSize_);
  MANET_AUDIT_HOOK(audit_.onCount(live_, heap_.size(), wheelSize_, now_));
  fn();  // may schedule/cancel freely: the slot is already released
}

bool Scheduler::runOne() {
  Next n{};
  if (!next(n)) return false;
  fire(n);
  return true;
}

std::size_t Scheduler::runUntil(TimePoint until) {
  std::size_t executed = 0;
  Next n{};
  while (next(n) && n.at <= until) {
    fire(n);
    ++executed;
  }
  if (now_ < until) now_ = until;
  settle();
  return executed;
}

std::size_t Scheduler::runAll(std::size_t maxEvents) {
  std::size_t executed = 0;
  while (executed < maxEvents && runOne()) ++executed;
  return executed;
}

// --- the ordering rule -------------------------------------------------------
//
// A chain of one-period re-arms armed at S by an event O (its first tick is
// scheduled inside O, each later tick inside the one before) schedules its
// tick k >= 2 at S + (k-1)·period. Among the events due at one instant the
// engine runs them in schedule order, so a tick falls among them by when it
// was scheduled: after every event scheduled earlier, before every one
// scheduled later. Only an event scheduled at the very instant the tick was
// needs more: its parent and the previous tick ran at that instant, in the
// order their own schedule instants give. Two chains on one grid tick in
// lockstep: their order is set at the later one's first tick, by whether
// its origin ran before the ticks due when it was armed (an early chain,
// ahead of them all) or after them (a late one, behind them all). A deeper
// tie — an event one period after a parent one period after its own, an
// origin between two ticks — never occurs in the engine's layers, and the
// audit build reports it. See DESIGN.md §11.2.

bool Scheduler::plainBeforeCountdown(const Node& e, const Node& c) const {
  const TimePoint rearm = c.at - c.parentDelay;  // the chain's last re-arm
  if (e.scheduledAt != rearm) return e.scheduledAt < rearm;
  MANET_AUDIT_HOOK(if (e.parentDelay == c.parentDelay) {
    audit_.onCountdownTie(now_, "event and its parent both one period ahead");
  });
  return e.parentDelay > c.parentDelay;
}

bool Scheduler::countdownFirst(Duration aPeriod, TimePoint aArmed,
                               std::uint64_t aSeq, bool aLate,
                               Duration bPeriod, TimePoint bArmed,
                               std::uint64_t bSeq, bool bLate) {
  // The chain that scheduled its tick earlier (the longer period) first.
  if (aPeriod != bPeriod) return aPeriod > bPeriod;
  // A late chain went behind every chain ticking when it was armed, and
  // every later one ahead of it unless also late: the early chains first.
  if (aLate != bLate) return bLate;
  // Early chains: the one armed later overtook the others at its first
  // tick. Late ones: each fell in behind the one before. Of two armed at
  // one instant, the first armed.
  if (!aLate && aArmed != bArmed) return aArmed > bArmed;
  return aSeq < bSeq;
}

bool Scheduler::armedLate(Duration period) {
  // The origin's place among the ticks due now: it runs after every tick
  // scheduled before it. Ticks due now were scheduled one period ago (the
  // first ones inside their own origins then).
  const TimePoint rearm = now_ - period;
  if (firing_.period == Duration{} && firing_.scheduledAt != rearm) {
    return firing_.scheduledAt > rearm;
  }
  // An origin scheduled exactly one period ago, or a countdown's end: rank
  // it against each countdown ticking now. Only a split — some ticks
  // before it, some after — is out of the rule's reach.
  bool before = false;
  bool after = false;
  for (const Bucket& bucket : wheel_) {
    for (EventSlot s = bucket.countdowns; s != kNullSlot; s = node(s).next) {
      const Node& c = node(s);
      const Duration elapsed = now_ - c.scheduledAt;
      if (c.parentDelay != period || elapsed % period != Duration{}) continue;
      const std::int64_t ticks = elapsed / period;
      if (ticks == 0 || ticks >= (c.at - c.scheduledAt) / period) continue;
      (tickBeforeFiring(c, ticks == 1) ? before : after) = true;
    }
  }
  MANET_AUDIT_HOOK(if (before && after) {
    audit_.onCountdownTie(now_, "countdown armed between two ticks due now");
  });
  return before && !after;
}

bool Scheduler::tickBeforeFiring(const Node& c, bool first) const {
  if (firing_.period > Duration{}) {
    return countdownFirst(c.parentDelay, c.scheduledAt, c.seq, c.late,
                          firing_.period, firing_.armedAt, firing_.seq,
                          firing_.late);
  }
  // The first tick is an event scheduled when the countdown was armed.
  if (first) return c.seq < firing_.seq;
  const TimePoint rearm = now_ - c.parentDelay;  // when tick k was scheduled
  if (firing_.scheduledAt != rearm) return firing_.scheduledAt > rearm;
  MANET_AUDIT_HOOK(if (firing_.parentDelay == c.parentDelay) {
    audit_.onCountdownTie(now_, "event and its parent both one period ahead");
  });
  return firing_.parentDelay < c.parentDelay;
}

std::int64_t Scheduler::periodsLeft(EventSlot slot) const {
  const Node& c = node(slot);
  if (c.queue != Queue::kCountdown) return 1;
  const Duration period = c.parentDelay;
  const Duration ahead = c.at - now_;
  // Ticks due after now, the countdown's own included. Off the grid that
  // is every tick owed; at the arming instant too. A countdown still
  // pending at its own instant has not run, and a tick due now counts
  // only if it ran first.
  const std::int64_t after = ahead / period;
  if (ahead % period != Duration{}) return after + 1;
  if (now_ == c.scheduledAt) return after;
  if (after == 0) return 1;
  return tickBeforeFiring(c, now_ - c.scheduledAt == period) ? after
                                                             : after + 1;
}


// --- timing wheel ------------------------------------------------------------
//
// Every wheel event is due in [now(), now() + kWheelHorizon), so its bucket,
// at mod horizon, is unique to its instant, and the buckets read circularly
// from now()'s are in time order.

std::uint32_t Scheduler::firstOccupied(std::uint32_t from) const {
  if (occupiedWords_ == 0) return kNullIndex;
  const std::uint32_t word = from / 64;
  const std::uint64_t here = occupied_[word] & (~std::uint64_t{0} << (from % 64));
  if (here != 0) return word * 64 + std::countr_zero(here);
  const std::uint32_t later = occupiedWords_ & ~((2u << word) - 1u);
  // Past the last word the search wraps to bucket 0 (word `word` again
  // included: its bits below `from`).
  const auto w = static_cast<std::uint32_t>(
      std::countr_zero(later != 0 ? later : occupiedWords_));
  return w * 64 + std::countr_zero(occupied_[w]);
}

void Scheduler::markOccupied(std::uint32_t bucket) {
  occupied_[bucket / 64] |= std::uint64_t{1} << (bucket % 64);
  occupiedWords_ |= 1u << (bucket / 64);
}

void Scheduler::wheelAppend(EventSlot slot) {
  Node& n = node(slot);
  const std::uint32_t b = bucketOf(n.at);
  Bucket& bucket = wheel_[b];
  n.queue = Queue::kWheel;
  n.link = bucket.tail.value();
  n.next = kNullSlot;
  if (bucket.tail != kNullSlot) {
    node(bucket.tail).next = slot;
  } else {
    bucket.head = slot;
  }
  bucket.tail = slot;
  markOccupied(b);
  ++wheelSize_;
}

void Scheduler::wheelInsertCountdown(EventSlot slot) {
  Node& c = node(slot);
  const std::uint32_t b = bucketOf(c.at);
  Bucket& bucket = wheel_[b];
  c.queue = Queue::kCountdown;
  // The list is sorted, so the search may start at any countdown listed
  // here that runs before the newcomer.
  EventSlot prev = kNullSlot;
  EventSlot after = bucket.countdowns;
  const EventSlot hint = bucket.lastInserted;
  if (hint != kNullSlot) {
    const Node& h = node(hint);
    if (h.queue == Queue::kCountdown && h.at == c.at && countdownFirst(h, c)) {
      prev = hint;
      after = h.next;
    }
  }
  while (after != kNullSlot) {
    const Node& o = node(after);
    if (!countdownFirst(o, c)) break;
    prev = after;
    after = o.next;
  }
  c.link = prev.value();
  c.next = after;
  if (prev != kNullSlot) {
    node(prev).next = slot;
  } else {
    bucket.countdowns = slot;
  }
  if (after != kNullSlot) node(after).link = slot.value();
  bucket.lastInserted = slot;
  markOccupied(b);
  ++wheelSize_;
}

void Scheduler::wheelUnlink(EventSlot slot) {
  Node& n = node(slot);
  const std::uint32_t b = bucketOf(n.at);
  Bucket& bucket = wheel_[b];
  const EventSlot prev{n.link};
  if (prev != kNullSlot) {
    node(prev).next = n.next;
  } else if (n.queue == Queue::kCountdown) {
    bucket.countdowns = n.next;
  } else {
    bucket.head = n.next;
  }
  if (n.next != kNullSlot) {
    node(n.next).link = n.link;
  } else if (n.queue == Queue::kWheel) {
    bucket.tail = prev;
  }
  n.link = kNullIndex;
  n.next = kNullSlot;
  MANET_ASSERT(wheelSize_ > 0);
  --wheelSize_;
  if (bucket.head == kNullSlot && bucket.countdowns == kNullSlot) {
    std::uint64_t& word = occupied_[b / 64];
    word &= ~(std::uint64_t{1} << (b % 64));
    if (word == 0) occupiedWords_ &= ~(1u << (b / 64));
  }
}

// --- indexed 4-ary min-heap ------------------------------------------------
//
// 4-ary rather than binary: one level shallower per 2 bits of queue size,
// and sibling entries are adjacent in the contiguous entry array, so the
// four-way min scan in siftDown stays inside at most two cache lines.
// Every move updates the moved node's heap position so cancel() can remove
// an arbitrary entry eagerly.

void Scheduler::heapPush(EventSlot slot) {
  Node& n = node(slot);
  n.queue = Queue::kHeap;
  heap_.push_back(HeapEntry{n.at, n.seq, slot});
  siftUp(heap_.size() - 1);
}

void Scheduler::siftUp(std::size_t i) {
  const HeapEntry moving = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(moving, heap_[parent])) break;
    heap_[i] = heap_[parent];
    node(heap_[i].slot).link = static_cast<std::uint32_t>(i);
    i = parent;
  }
  heap_[i] = moving;
  node(moving.slot).link = static_cast<std::uint32_t>(i);
}

void Scheduler::siftDown(std::size_t i) {
  const HeapEntry moving = heap_[i];
  const std::size_t size = heap_.size();
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= size) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < size ? first + 4 : size;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], moving)) break;
    heap_[i] = heap_[best];
    node(heap_[i].slot).link = static_cast<std::uint32_t>(i);
    i = best;
  }
  heap_[i] = moving;
  node(moving.slot).link = static_cast<std::uint32_t>(i);
}

void Scheduler::heapRemove(std::size_t i) {
  MANET_ASSERT(i < heap_.size());
  node(heap_[i].slot).link = kNullIndex;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // removed the tail entry
  heap_[i] = last;
  node(last.slot).link = static_cast<std::uint32_t>(i);
  siftDown(i);
  siftUp(node(last.slot).link);
}

}  // namespace manet::sim
