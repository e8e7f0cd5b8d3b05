// Driver of the performance benchmark (README.md in this directory). Runs
// one single-World workload in this process and prints one JSON object:
//
//   perf_driver <workload> [--seed N] [--smoke] [--trace]
//   perf_driver --exec <program> [args...]
//
// Untraced, it builds the World and calls beginRun(), reports when it was
// ready to run, times runToEnd(), and prints the output digest.
// With --trace it installs an obs::Registry, records spans around its own
// calls into each layer (no instrumentation inside src/), runs the
// per-layer probes on the final state, and reports the raw counters run.py
// reconciles. Tracing only observes: the digest must not change.
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/digest.hpp"
#include "experiment/scenario.hpp"
#include "experiment/world.hpp"
#include "net/packet.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "phy/channel.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

// --- allocation counting -------------------------------------------------
// Every heap allocation of the process goes through this replacement (the
// array and nothrow forms forward to it). One relaxed increment is all the
// untraced runs pay; alloc.per_frame reads the count across runToEnd().
namespace {
std::atomic<std::uint64_t> gAllocations{0};
}  // namespace

void* operator new(std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace manet;
using experiment::ScenarioConfig;
using experiment::World;

// --- workloads ------------------------------------------------------------
// Why each one exists is recorded in README.md; the shapes must stay in step
// with the table there and with run.py's WORKLOADS.
bool makeConfig(const std::string& name, bool smoke, ScenarioConfig& c) {
  if (name == "storm_dense") {
    c.mapUnits = 1;
    c.scheme = experiment::SchemeSpec::flooding();
    c.numBroadcasts = smoke ? 10 : 500;
  } else if (name == "sparse_hello") {
    c.mapUnits = 11;
    c.scheme = experiment::SchemeSpec::neighborCoverage();
    c.scheme.label = "NC-DHI";
    c.neighborSource = experiment::NeighborSource::kHello;
    c.hello.dynamic = true;
    c.numBroadcasts = smoke ? 40 : 4000;
  } else if (name == "crowd_2000") {
    c.mapUnits = 11;
    c.numHosts = smoke ? 400 : 2000;
    c.scheme = experiment::SchemeSpec::counter(3);
    c.numBroadcasts = smoke ? 2 : 40;
  } else if (name == "fig13_cell") {
    // fig13_overall's first cell (1x1/flooding) at REPRO_BROADCASTS=20:
    // the state the fig13_e2e workload's probes run on.
    c.mapUnits = 1;
    c.scheme = experiment::SchemeSpec::flooding();
    c.numBroadcasts = smoke ? 2 : 20;
  } else {
    return false;
  }
  return true;
}

// --- clocks and spans ------------------------------------------------------

double monoSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Span {
  std::string name;
  int parent = -1;
  double start = 0.0;  // seconds since the tracer's origin
  double duration = 0.0;
  std::vector<std::pair<std::string, double>> args;
};

/// Spans kept in memory and printed once the run ends.
class Tracer {
 public:
  int open(std::string name, int parent = -1) {
    spans_.push_back({std::move(name), parent, monoSeconds() - origin_, 0.0,
                      {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.duration = monoSeconds() - origin_ - s.start;
    return s.duration;
  }
  Span& at(int id) { return spans_[static_cast<std::size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double origin_ = monoSeconds();
  std::vector<Span> spans_;
};

// --- output digest -----------------------------------------------------------

/// Simulation outputs only: the ordered per-broadcast records, the channel
/// totals and the final clock. Engine counters stay out, because they are
/// exactly what optimisations change.
std::string outputDigest(World& world) {
  ckpt::Digest h;
  for (const stats::PerBroadcast& b : world.metrics().broadcasts()) {
    h.add(b.bid.origin.value());
    h.add(b.bid.seq.value());
    h.add(b.start);
    h.add(b.reachable);
    h.add(b.received);
    h.add(b.rebroadcast);
    h.add(b.lastFinal);
  }
  h.add(world.channel().framesTransmitted());
  h.add(world.channel().framesDelivered());
  h.add(world.channel().framesCorrupted());
  h.add(world.scheduler().now());
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << h.value();
  return out.str();
}

std::uint64_t receptions(const obs::Registry& r) {
  return r.counter(obs::Counter::kChannelDelivered) +
         r.counter(obs::Counter::kChannelDropCollision) +
         r.counter(obs::Counter::kChannelDropHalfDuplex) +
         r.counter(obs::Counter::kChannelDropFault) +
         r.counter(obs::Counter::kChannelDropHostDown);
}

// --- probes ----------------------------------------------------------------
// Fixed-count loops of public calls, run on the traced run's final state
// (after its digest is taken). Each stores a per-call cost; the probe
// order matters only in that the last two advance the mobility models past
// the world's clock.

class NullListener final : public phy::Channel::Listener {
 public:
  void onFrameReceived(const phy::Frame&, phy::DropReason) override {}
};

class Probes {
 public:
  Probes(World& world, Tracer& tracer, int parent)
      : world_(world), tracer_(tracer), parent_(parent) {}

  /// Per-layer metric name -> measured per-call cost.
  std::map<std::string, double> values;

  /// Times `iterations` calls of `body`; records a span named `probe.<metric>`
  /// and stores the mean cost in `unitSeconds` units under `metric`.
  template <typename Fn>
  void time(const std::string& metric, std::size_t iterations,
            double unitSeconds, Fn&& body) {
    const int span = tracer_.open("probe." + metric, parent_);
    const double start = monoSeconds();
    for (std::size_t i = 0; i < iterations; ++i) body(i);
    const double elapsed = monoSeconds() - start;
    tracer_.close(span);
    tracer_.at(span).args.push_back(
        {"iterations", static_cast<double>(iterations)});
    values[metric] =
        elapsed / static_cast<double>(iterations) / unitSeconds;
  }

  void scheduleFire(std::size_t depth, double cancelRatio) {
    depth = std::max<std::size_t>(depth, 1);
    sim::Scheduler scheduler;
    sim::Rng rng(0x5C);
    std::vector<sim::Duration> delays(depth);
    for (auto& d : delays) d = sim::Duration{rng.uniformInt(1, 1000)};
    std::vector<sim::Scheduler::Handle> handles(depth);
    std::uint64_t fired = 0;
    const std::size_t rounds = std::max<std::size_t>(1, 200000 / depth);
    time("sim.schedule_fire_ns", rounds, 1e-9 * static_cast<double>(depth),
         [&](std::size_t) {
           for (std::size_t i = 0; i < depth; ++i) {
             handles[i] = scheduler.scheduleAfter(delays[i], [&fired] {
               ++fired;
             });
           }
           double owed = 0.0;
           for (auto& h : handles) {
             owed += cancelRatio;
             if (owed >= 1.0) {
               owed -= 1.0;
               h.cancel();
             }
           }
           scheduler.runAll();
         });
    sink_ += fired;
  }

  /// Channel::transmit plus the drain of its receptions, on a probe channel
  /// whose nodes sit still at the world's final positions.
  void transmitDrain() {
    sim::Scheduler scheduler;
    phy::Channel channel(scheduler, world_.config().phy);
    NullListener listener;
    const std::vector<geom::Vec2> positions =
        world_.channel().snapshotPositions();
    for (std::size_t i = 0; i < positions.size(); ++i) {
      const geom::Vec2 p = positions[i];
      channel.attach(net::HostId{static_cast<std::uint32_t>(i)}, &listener,
                     [p] { return p; });
    }
    const std::size_t n = positions.size();
    const std::size_t frames = 400;
    const double start = monoSeconds();
    time("phy.transmit_drain_us", frames, 1e-6, [&](std::size_t i) {
      const net::HostId src{static_cast<std::uint32_t>((i * 7919) % n)};
      channel.transmit(
          src,
          net::makeDataPacket(
              net::BroadcastId{src,
                               net::BroadcastSeq{static_cast<std::uint32_t>(i)}},
              src),
          net::kDataPacketBytes);
      scheduler.runAll();
    });
    const double elapsed = monoSeconds() - start;
    const auto rx = channel.framesDelivered() + channel.framesCorrupted();
    values["phy.ns_per_rx"] =
        rx > 0 ? elapsed / static_cast<double>(rx) * 1e9 : 0.0;
  }

  void rangeQuery() {
    const std::size_t n = world_.hostCount();
    std::vector<net::HostId> out;
    world_.channel().nodesInRange(net::HostId{0}, out);  // grid current
    time("phy.range_query_ns", 20000, 1e-9, [&](std::size_t i) {
      world_.channel().nodesInRange(
          net::HostId{static_cast<std::uint32_t>(i % n)}, out);
      sink_ += out.size();
    });
  }

  void tableQuery() {
    const std::size_t n = world_.hostCount();
    const sim::TimePoint now = world_.scheduler().now();
    time("net.table_query_ns", 20000, 1e-9, [&](std::size_t i) {
      net::NeighborTable& table =
          world_.host(net::HostId{static_cast<std::uint32_t>(i % n)}).table();
      const std::vector<net::HostId> ids = table.neighborIds(now);
      sink_ += ids.size();
      if (!ids.empty()) {
        if (auto two = table.neighborsOf(ids.front(), now)) {
          sink_ += two->size();
        }
      }
    });
  }

  /// One broadcast's scheme decisions at a host: makeDecider on the first
  /// copy, shouldProceed, then three duplicates.
  void decide() {
    const std::size_t n = world_.hostCount();
    const sim::TimePoint now = world_.scheduler().now();
    std::vector<std::vector<core::Reception>> heard(n);
    for (std::size_t h = 0; h < n; ++h) {
      std::vector<net::HostId> from =
          world_.oracleNeighbors(net::HostId{static_cast<std::uint32_t>(h)});
      if (from.empty()) {
        from.push_back(net::HostId{static_cast<std::uint32_t>((h + 1) % n)});
      }
      for (std::size_t k = 0; k < 4; ++k) {
        const net::HostId f = from[k % from.size()];
        heard[h].push_back({f, world_.channel().positionOf(f), now});
      }
    }
    const core::RebroadcastPolicy& policy = world_.policy();
    time("core.decide_ns", 5000, 1e-9, [&](std::size_t i) {
      const std::size_t h = i % n;
      experiment::Host& host =
          world_.host(net::HostId{static_cast<std::uint32_t>(h)});
      auto decider = policy.makeDecider(host, heard[h][0]);
      bool waiting = decider->shouldProceed(host);
      for (std::size_t k = 1; k < 4 && waiting; ++k) {
        waiting = decider->onDuplicate(host, heard[h][k]);
      }
      sink_ += waiting ? 1 : 0;
    });
  }

  void bfs() {
    const std::size_t n = world_.hostCount();
    time("stats.bfs_us", std::max<std::size_t>(10, 200000 / n), 1e-6,
         [&](std::size_t i) {
           sink_ += static_cast<std::uint64_t>(world_.reachableFrom(
               net::HostId{static_cast<std::uint32_t>(i % n)}));
         });
  }

  /// Advance 1 ms, then one inRangeCount: a full grid rebuild over the
  /// world's moving hosts. Moves the mobility models past the world's clock.
  void gridRebuild() {
    sim::Scheduler scheduler;
    phy::Channel channel(scheduler, world_.config().phy);
    NullListener listener;
    const std::size_t n = world_.hostCount();
    for (std::size_t i = 0; i < n; ++i) {
      const net::HostId id{static_cast<std::uint32_t>(i)};
      mobility::MobilityModel* model = &world_.host(id).mobility();
      channel.attach(id, &listener, [model, &scheduler] {
        return model->positionAt(scheduler.now());
      });
    }
    scheduler.schedule(world_.scheduler().now(), [] {});
    scheduler.runOne();
    time("phy.grid_rebuild_us", 400, 1e-6, [&](std::size_t i) {
      scheduler.scheduleAfter(sim::kMillisecond, [] {});
      scheduler.runOne();
      sink_ += channel.inRangeCount(
          net::HostId{static_cast<std::uint32_t>(i % n)});
    });
    clock_ = scheduler.now();
  }

  /// MobilityModel::positionAt at t beyond the run horizon, 1 ms apart.
  void position() {
    const std::size_t n = world_.hostCount();
    const std::size_t rounds = std::max<std::size_t>(10, 200000 / n);
    time("mobility.position_ns", rounds, 1e-9 * static_cast<double>(n),
         [&](std::size_t) {
           clock_ += sim::kMillisecond;
           for (std::size_t h = 0; h < n; ++h) {
             const geom::Vec2 p =
                 world_.host(net::HostId{static_cast<std::uint32_t>(h)})
                     .mobility()
                     .positionAt(clock_);
             sink_ += p.x > 0.0 ? 1 : 0;
           }
         });
  }

  std::uint64_t sink() const { return sink_; }

 private:
  World& world_;
  Tracer& tracer_;
  int parent_;
  sim::TimePoint clock_{};
  std::uint64_t sink_ = 0;  // keeps the probed results observable
};

/// Peak resident set of this process image, in KiB. A process forked from
/// run.py inherits Python's high-water mark in its rusage, so perf_driver
/// reports its own from /proc instead.
std::uint64_t peakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

/// `perf_driver --exec <program> [args...]`: runs the program (stdout and
/// stderr inherited) from this small process, so its rusage high-water mark
/// starts clean, then appends "perf_driver: peak_rss_kb=<n>" to stderr and
/// exits with the program's status.
int execAndMeasure(char** argv) {
  const pid_t pid = fork();
  if (pid < 0) return 127;
  if (pid == 0) {
    execv(argv[0], argv);
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) return 127;
  std::cerr << "perf_driver: peak_rss_kb=" << usage.ru_maxrss << "\n";
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

int usage() {
  std::cerr << "usage: perf_driver <storm_dense|sparse_hello|crowd_2000|"
               "fig13_cell> [--seed N] [--smoke] [--trace]\n"
               "       perf_driver --exec <program> [args...]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string workload = argv[1];
  if (workload == "--exec") {
    return argc > 2 ? execAndMeasure(argv + 2) : usage();
  }
  std::uint64_t seed = 42;
  bool smoke = false;
  bool trace = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--trace") {
      trace = true;
    } else {
      return usage();
    }
  }
  ScenarioConfig config;
  if (!makeConfig(workload, smoke, config)) return usage();
  config.seed = seed;

  Tracer tracer;
  std::unique_ptr<obs::Registry> registry;
  if (trace) registry = std::make_unique<obs::Registry>();
  obs::ScopedRegistry installed(registry.get());

  const int build = tracer.open("experiment.build");
  auto world = std::make_unique<World>(config);
  const double buildS = tracer.close(build);
  const int begin = tracer.open("experiment.begin_run");
  world->beginRun();
  const double beginS = tracer.close(begin);
  // run.py's setup_s runs from its launch of this process to here, on the
  // same CLOCK_MONOTONIC.
  const double readyMono = monoSeconds();

  // The run: one runToEnd(), or with --trace the same clock advanced in
  // 10-simulated-second continueUntil() slices (byte-identical by the
  // World contract), each slice carrying its counter deltas.
  const std::uint64_t allocBefore = gAllocations.load();
  const double cpuStart = cpuSeconds();
  const int run = tracer.open("sim.run");
  if (!trace) {
    world->runToEnd();
  } else {
    const sim::TimePoint horizon = world->horizonTime();
    sim::TimePoint until = world->scheduler().now();
    while (until < horizon) {
      until = std::min(horizon, until + 10 * sim::kSecond);
      const std::uint64_t events0 =
          registry->counter(obs::Counter::kSchedulerExecuted);
      const std::uint64_t frames0 = registry->counter(obs::Counter::kChannelTx);
      const std::uint64_t rx0 = receptions(*registry);
      const int slice = tracer.open("sim.run_slice", run);
      world->continueUntil(until);
      tracer.close(slice);
      auto& args = tracer.at(slice).args;
      args.push_back({"events", static_cast<double>(registry->counter(
                                    obs::Counter::kSchedulerExecuted) -
                                events0)});
      args.push_back(
          {"frames", static_cast<double>(
                         registry->counter(obs::Counter::kChannelTx) - frames0)});
      args.push_back(
          {"receptions", static_cast<double>(receptions(*registry) - rx0)});
    }
  }
  const double wallS = tracer.close(run);
  const double cpuS = cpuSeconds() - cpuStart;
  const std::uint64_t allocRun = gAllocations.load() - allocBefore;

  obs::json::Writer j(std::cout);
  j.beginObject();
  j.field("workload", workload);
  j.field("seed", seed);
  j.field("smoke", smoke);
  j.field("hosts", world->hostCount());
  j.field("broadcasts", world->metrics().broadcasts().size());
  j.field("schedule_size", world->workloadSchedule().size());
  j.field("digest", outputDigest(*world));
  j.field("ready_mono_s", readyMono);
  j.field("build_s", buildS);
  j.field("begin_run_s", beginS);
  j.field("wall_s", wallS);
  j.field("cpu_s", cpuS);
  j.field("allocations_run", allocRun);
  j.field("peak_rss_kb", peakRssKb());
  const phy::Channel& channel = world->channel();
  j.key("channel");
  j.beginObject();
  j.field("tx", channel.framesTransmitted());
  j.field("delivered", channel.framesDelivered());
  j.field("corrupted", channel.framesCorrupted());
  j.field("fault", channel.framesLostToFault());
  j.field("host_down", channel.framesDroppedHostDown());
  j.endObject();

  if (trace) {
    j.field("scheduler_pending", world->scheduler().pendingCount());
    j.key("counters");
    j.beginObject();
    for (std::size_t c = 0; c < static_cast<std::size_t>(obs::Counter::kCount);
         ++c) {
      const auto counter = static_cast<obs::Counter>(c);
      j.field(obs::name(counter), registry->counter(counter));
    }
    j.endObject();
    j.key("gauges");
    j.beginObject();
    for (std::size_t g = 0; g < static_cast<std::size_t>(obs::Gauge::kCount);
         ++g) {
      const auto gauge = static_cast<obs::Gauge>(g);
      j.field(obs::name(gauge), registry->gauge(gauge));
    }
    j.endObject();

    // Probes run with no registry installed, so they leave the reported
    // counters alone.
    obs::ScopedRegistry quiet(nullptr);
    const int probesSpan = tracer.open("probes");
    Probes probes(*world, tracer, probesSpan);
    const auto scheduled =
        registry->counter(obs::Counter::kSchedulerScheduled);
    probes.scheduleFire(
        registry->gauge(obs::Gauge::kSchedulerQueueDepth),
        scheduled > 0 ? static_cast<double>(registry->counter(
                            obs::Counter::kSchedulerCancelled)) /
                            static_cast<double>(scheduled)
                      : 0.0);
    probes.transmitDrain();
    probes.rangeQuery();
    probes.tableQuery();
    probes.decide();
    probes.bfs();
    probes.gridRebuild();
    probes.position();
    tracer.close(probesSpan);
    j.key("probes");
    j.beginObject();
    for (const auto& [name, v] : probes.values) j.field(name, v);
    j.endObject();
    j.field("probe_sink", probes.sink());

    j.key("spans");
    j.beginArray();
    for (const Span& s : tracer.spans()) {
      j.beginObject();
      j.field("name", s.name);
      j.field("parent", s.parent);
      j.field("start_s", s.start);
      j.field("dur_s", s.duration);
      j.key("args");
      j.beginObject();
      for (const auto& [k, v] : s.args) j.field(k, v);
      j.endObject();
      j.endObject();
    }
    j.endArray();
  }
  j.endObject();
  std::cout << "\n";
  return 0;
}
