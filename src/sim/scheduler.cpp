#include "sim/scheduler.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace manet::sim {

void Scheduler::Handle::cancel() {
  if (owner_ == nullptr) return;
  owner_->cancelSlot(slot_, gen_);
}

bool Scheduler::Handle::pending() const {
  return owner_ != nullptr && owner_->slotPending(slot_, gen_);
}

EventSlot Scheduler::acquireSlot() {
  if (freeHead_ != kNullSlot) {
    const EventSlot slot = freeHead_;
    Node& n = node(slot);
    freeHead_ = n.nextFree;
    n.nextFree = kNullSlot;
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
  ++n.gen;  // invalidate every outstanding handle and lane entry
  n.heapIndex = kNullIndex;
  n.lane = kNullIndex;
  n.nextFree = freeHead_;
  freeHead_ = slot;
}

Scheduler::Handle Scheduler::schedule(TimePoint at, Callback fn) {
  MANET_EXPECTS(at >= now_);
  MANET_EXPECTS(static_cast<bool>(fn));
  const EventSlot slot = acquireSlot();
  Node& n = node(slot);
  n.fn = std::move(fn);
  n.at = at;
  const std::uint64_t seq = nextSeq_++;
  n.seq = seq;
  MANET_AUDIT_HOOK(audit_.onSchedule(at, now_));
  const Duration delay = at - now_;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i].delay != delay) continue;
    n.lane = static_cast<std::uint32_t>(i);
    lanes_[i].push(LaneEntry{at, seq, slot, n.gen});
    ++laneLive_;
    break;
  }
  if (n.lane == kNullIndex) {
    n.heapIndex = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(HeapEntry{at, seq, slot});
    siftUp(heap_.size() - 1);
  }
  ++live_;
  obs::add(obs::Counter::kSchedulerScheduled);
  obs::gaugeMax(obs::Gauge::kSchedulerQueueDepth, live_);
  return Handle(this, slot, n.gen);
}

Scheduler::Handle Scheduler::scheduleAfter(Duration delay, Callback fn) {
  MANET_EXPECTS(delay >= Duration{});
  return schedule(now_ + delay, std::move(fn));
}

void Scheduler::addLane(Duration delay) {
  MANET_EXPECTS(delay > Duration{});
  for (const Lane& lane : lanes_) {
    if (lane.delay == delay) return;
  }
  lanes_.push_back(
      Lane{delay, std::vector<LaneEntry>(Lane::kInitialRing), 0, 0});
}

void Scheduler::cancelSlot(EventSlot slot, EventGen gen) {
  if (!slotPending(slot, gen)) return;  // stale handle: fired or cancelled
  Node& n = node(slot);
  MANET_ASSERT(n.heapIndex != kNullIndex || n.lane != kNullIndex);
  MANET_ASSERT(live_ > 0);
  MANET_AUDIT_HOOK(audit_.onCancel(n.at, now_));
  const std::uint32_t lane = n.lane;
  if (lane == kNullIndex) heapRemove(n.heapIndex);
  n.fn.reset();  // release captured state promptly
  releaseSlot(slot);
  if (lane != kNullIndex) {
    // The ring entry stays queued, dead by generation; drop it now if it
    // is the head, to keep every lane head live.
    MANET_ASSERT(laneLive_ > 0);
    --laneLive_;
    trimLane(lanes_[lane]);
  }
  --live_;
  obs::add(obs::Counter::kSchedulerCancelled);
  MANET_ASSERT(live_ == heap_.size() + laneLive_);
  MANET_AUDIT_HOOK(audit_.onCount(live_, heap_.size(), laneLive_, now_));
}

bool Scheduler::next(Next& out) const {
  bool found = !heap_.empty();
  std::uint64_t seq = 0;
  if (found) {
    out = Next{heap_[0].at, kNullIndex};
    seq = heap_[0].seq;
  }
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const Lane& lane = lanes_[i];
    if (lane.size == 0) continue;
    const LaneEntry& head = lane.front();
    if (!found || head.at < out.at || (head.at == out.at && head.seq < seq)) {
      found = true;
      out = Next{head.at, static_cast<std::uint32_t>(i)};
      seq = head.seq;
    }
  }
  return found;
}

void Scheduler::fire(const Next& next) {
  EventSlot slot;
  if (next.lane == kNullIndex) {
    slot = heap_[0].slot;
    heapRemove(0);
  } else {
    Lane& lane = lanes_[next.lane];
    slot = lane.front().slot;
    lane.pop();
    trimLane(lane);
    MANET_ASSERT(laneLive_ > 0);
    --laneLive_;
  }
  Node& n = node(slot);
  MANET_ASSERT(n.at == next.at && n.at >= now_);
  MANET_AUDIT_HOOK(audit_.onPop(n.at));
  now_ = n.at;
  Callback fn = std::move(n.fn);
  releaseSlot(slot);
  MANET_ASSERT(live_ > 0);
  --live_;
  obs::add(obs::Counter::kSchedulerExecuted);
  MANET_ASSERT(live_ == heap_.size() + laneLive_);
  MANET_AUDIT_HOOK(audit_.onCount(live_, heap_.size(), laneLive_, now_));
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
  return executed;
}

std::size_t Scheduler::runAll(std::size_t maxEvents) {
  std::size_t executed = 0;
  while (executed < maxEvents && runOne()) ++executed;
  return executed;
}

// --- fixed-delay lanes ------------------------------------------------------
//
// A lane holds every event scheduled exactly `delay` ahead. Its entries are
// pushed with at = now() + delay and a fresh seq; now() never decreases, so
// the ring is sorted by (at, seq) as it stands and a push or pop is O(1).

void Scheduler::Lane::push(const LaneEntry& entry) {
  if (size == ring.size()) {
    std::vector<LaneEntry> bigger(2 * ring.size());
    for (std::size_t i = 0; i < size; ++i) bigger[i] = this->entry(i);
    ring = std::move(bigger);
    head = 0;
  }
  ring[(head + size) & (ring.size() - 1)] = entry;
  ++size;
}

void Scheduler::trimLane(Lane& lane) {
  while (lane.size > 0 && node(lane.front().slot).gen != lane.front().gen) {
    lane.pop();
  }
}

// --- indexed 4-ary min-heap ------------------------------------------------
//
// 4-ary rather than binary: one level shallower per 2 bits of queue size,
// and sibling entries are adjacent in the contiguous entry array, so the
// four-way min scan in siftDown stays inside at most two cache lines.
// Every move updates the moved node's heapIndex so cancel() can remove an
// arbitrary entry eagerly.

void Scheduler::siftUp(std::size_t i) {
  const HeapEntry moving = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(moving, heap_[parent])) break;
    heap_[i] = heap_[parent];
    node(heap_[i].slot).heapIndex = static_cast<std::uint32_t>(i);
    i = parent;
  }
  heap_[i] = moving;
  node(moving.slot).heapIndex = static_cast<std::uint32_t>(i);
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
    node(heap_[i].slot).heapIndex = static_cast<std::uint32_t>(i);
    i = best;
  }
  heap_[i] = moving;
  node(moving.slot).heapIndex = static_cast<std::uint32_t>(i);
}

void Scheduler::heapRemove(std::size_t i) {
  MANET_ASSERT(i < heap_.size());
  node(heap_[i].slot).heapIndex = kNullIndex;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // removed the tail entry
  heap_[i] = last;
  node(last.slot).heapIndex = static_cast<std::uint32_t>(i);
  siftDown(i);
  siftUp(node(last.slot).heapIndex);
}

}  // namespace manet::sim
