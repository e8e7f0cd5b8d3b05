// Scheduler memory-layout microbench (DESIGN.md §11): schedule/cancel/fire
// churn at MAC-realistic cancel rates and DCF backoff countdowns that
// freeze and resume. Not a paper figure — a regression guard for the
// engine's allocation behaviour.
//
// Every case reports `allocs_per_item`, measured by a global operator
// new/delete override: the pooled scheduler should hold it near zero in
// steady state, so a capture outgrowing InlineFn's buffer or a pool bypass
// shows up as a counter jump, not just a throughput dip.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace {

std::atomic<std::uint64_t> gHeapAllocs{0};

}  // namespace

// Count every heap allocation in the process. The bench runs single-threaded
// and the counter is relaxed: we only ever read it quiesced, between phases.
// noinline: keeps GCC from pairing the builtin operator-new semantics with
// the free() inside delete at inlined call sites (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t bytes) {
  gHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t bytes) {
  return ::operator new(bytes);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

using namespace manet;

namespace {

/// Steady-state event churn: a warm scheduler fires batches of MAC-like
/// timers, a fraction of which are cancelled before they fire (the range
/// argument, percent). Each callback captures what the engine's hot
/// callbacks capture (DESIGN.md §11.3): an owner pointer plus a 32-bit id,
/// like `Channel`'s `[this, slot]`, so the capture shape and its InlineFn
/// fit match the engine's. The fig13 run measures ~8% cancels
/// (sim.scheduler.cancelled / scheduled); 50% models suppression-heavy
/// schemes where most rebroadcasts are inhibited.
void BM_SchedulerChurn(benchmark::State& state) {
  const int cancelPct = static_cast<int>(state.range(0));
  constexpr std::uint32_t kBatch = 256;
  constexpr sim::Duration kMaxDelay{977};

  struct Owner {
    long sink = 0;
    void fire(std::uint32_t id) { sink += id; }
  } owner;
  sim::Scheduler s;
  sim::Rng rng(42);
  std::vector<sim::Scheduler::Handle> handles(kBatch);
  auto schedule = [&](std::uint32_t id) {
    auto cb = [o = &owner, id] { o->fire(id); };
    static_assert(sim::InlineFn::storesInline<decltype(cb)>());
    return s.scheduleAfter(
        sim::kMicrosecond + rng.uniformDuration(sim::Duration{}, kMaxDelay),
        std::move(cb));
  };

  // Warm the node pool so the (bounded) slab carving happens off-clock.
  for (std::uint32_t i = 0; i < kBatch; ++i) handles[i] = schedule(i);
  s.runUntil(s.now() + 2 * kMaxDelay);

  const std::uint64_t allocsBefore = gHeapAllocs.load();
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < kBatch; ++i) handles[i] = schedule(i);
    for (std::uint32_t i = 0; i < kBatch; ++i) {
      if (rng.uniformInt(0, 99) < cancelPct) handles[i].cancel();
    }
    s.runUntil(s.now() + 2 * kMaxDelay);
  }
  benchmark::DoNotOptimize(owner.sink);

  const auto items = static_cast<double>(state.iterations()) * kBatch;
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.counters["allocs_per_item"] = benchmark::Counter(
      static_cast<double>(gHeapAllocs.load() - allocsBefore) / items);
}
BENCHMARK(BM_SchedulerChurn)->Arg(8)->Arg(50);

/// DCF backoff pattern (DESIGN.md §11.2): N stations each count a backoff
/// down. Every slot a carrier-sense event, scheduled two slots ahead like a
/// frame's, makes a quarter of the stations sense the medium busy: each
/// freezes (reads the slots it still owes and cancels) and resumes at once
/// with what it owes. A station whose count reaches zero waits a DIFS and
/// draws 1-31 slots again (a zero draw of the 0-31 window counts nothing
/// down; the frame it would send in between is left out, as the other
/// stations would sit frozen through it). Items are slots counted down. Range
/// arguments: `countdown` 1 arms one scheduleCountdown per run, 0 the
/// slot-by-slot chain of scheduleAfter(slot) re-arms it replaced (both fire
/// in the same order, so both count the same slots); the station count.
void BM_BackoffCountdown(benchmark::State& state) {
  const bool countdown = state.range(0) != 0;
  const auto stations = static_cast<std::size_t>(state.range(1));
  constexpr sim::Duration kSlot{20};
  constexpr sim::Duration kDifs{50};
  constexpr int kFreezePct = 25;

  struct Stations {
    bool countdown = false;
    sim::Scheduler s;
    sim::Rng rng{11};
    std::vector<sim::Scheduler::Handle> runs;
    /// A countdown's armed count; a chain's slots still owed.
    std::vector<std::int64_t> owed;
    long slots = 0;
    void arm(std::size_t i, std::int64_t periods) {
      owed[i] = periods;
      if (countdown) {
        runs[i] = s.scheduleCountdown(kSlot, periods, [this, i] {
          slots += owed[i];
          rest(i);
        });
      } else {
        runs[i] = s.scheduleAfter(kSlot, [this, i] { tick(i); });
      }
    }
    void tick(std::size_t i) {
      ++slots;
      if (--owed[i] > 0) {
        runs[i] = s.scheduleAfter(kSlot, [this, i] { tick(i); });
        return;
      }
      rest(i);
    }
    void rest(std::size_t i) {
      s.scheduleAfter(kDifs, [this, i] { arm(i, rng.uniformInt(1, 31)); });
    }
    void sense() {
      for (std::size_t i = 0; i < runs.size(); ++i) {
        if (!runs[i].pending() || rng.uniformInt(0, 99) >= kFreezePct) continue;
        const std::int64_t left = countdown ? runs[i].periodsLeft() : owed[i];
        runs[i].cancel();
        if (countdown) slots += owed[i] - left;
        arm(i, left);
      }
    }
  } t;
  t.countdown = countdown;
  t.runs.resize(stations);
  t.owed.resize(stations);
  for (std::size_t i = 0; i < stations; ++i) t.arm(i, t.rng.uniformInt(1, 31));
  const auto slot = [&t] {
    t.s.scheduleAfter(2 * kSlot, [&t] { t.sense(); });
    t.s.runUntil(t.s.now() + kSlot);
  };
  for (int i = 0; i < 200; ++i) slot();  // warm the pool off-clock

  const std::uint64_t allocsBefore = gHeapAllocs.load();
  const long slotsBefore = t.slots;
  for (auto _ : state) slot();
  benchmark::DoNotOptimize(t.slots);

  const auto items = static_cast<double>(t.slots - slotsBefore);
  state.SetItemsProcessed(t.slots - slotsBefore);
  state.counters["allocs_per_item"] = benchmark::Counter(
      static_cast<double>(gHeapAllocs.load() - allocsBefore) / items);
}
BENCHMARK(BM_BackoffCountdown)
    ->ArgNames({"countdown", "stations"})
    ->Args({0, 100})
    ->Args({1, 100})
    ->Args({0, 2000})
    ->Args({1, 2000});

/// Worst-case heap discipline: every event cancelled, none fire. Guards the
/// eager-removal path (heapRemove from arbitrary positions) staying
/// allocation-free and O(log n) rather than degrading to lazy tombstones.
void BM_SchedulerCancelAll(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  sim::Scheduler s;
  sim::Rng rng(7);
  std::vector<sim::Scheduler::Handle> handles(
      static_cast<std::size_t>(batch));
  long sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      handles[static_cast<std::size_t>(i)] =
          s.scheduleAfter(sim::kMicrosecond + rng.uniformDuration(sim::Duration{}, sim::Duration{997}),
                          [&sink] { ++sink; });
    }
    // Cancel in a shuffled order so removals hit interior heap positions.
    for (int i = batch - 1; i > 0; --i) {
      std::swap(handles[static_cast<std::size_t>(i)],
                handles[static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<std::uint32_t>(i)))]);
    }
    for (auto& h : handles) h.cancel();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SchedulerCancelAll)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
