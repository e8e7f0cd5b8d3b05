#include "core/policy.hpp"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "ckpt/digest.hpp"
#include "geom/coverage.hpp"
#include "util/assert.hpp"
#include "util/table.hpp"

namespace manet::core {
namespace {

// ---------------------------------------------------------------- flooding

class FloodingDecider final : public PacketDecider {
 public:
  bool shouldProceed(HostView&) override { return true; }
  bool onDuplicate(HostView&, const Reception&) override { return true; }
};

// ----------------------------------------------------- counter (fixed C)

class CounterDecider final : public PacketDecider {
 public:
  explicit CounterDecider(int threshold) : threshold_(threshold) {}
  bool shouldProceed(HostView&) override {
    return counter_ < threshold_;  // c = 1 after the first reception
  }
  bool onDuplicate(HostView&, const Reception&) override {
    ++counter_;
    return counter_ < threshold_;
  }
  std::uint64_t stateDigest() const override {
    ckpt::Digest d;
    d.add(static_cast<std::int64_t>(counter_));
    return d.value();
  }

 private:
  int threshold_;
  int counter_ = 1;
};

// -------------------------------------------------- adaptive counter C(n)

class AdaptiveCounterDecider final : public PacketDecider {
 public:
  explicit AdaptiveCounterDecider(const CounterThreshold& fn) : fn_(fn) {}
  bool shouldProceed(HostView& host) override {
    return counter_ < fn_(host.neighborCount());
  }
  bool onDuplicate(HostView& host, const Reception&) override {
    ++counter_;
    // n is re-read on every evaluation: the threshold tracks the host's
    // current neighborhood, which is the whole point of the scheme.
    return counter_ < fn_(host.neighborCount());
  }
  std::uint64_t stateDigest() const override {
    ckpt::Digest d;
    d.add(static_cast<std::int64_t>(counter_));
    return d.value();
  }

 private:
  const CounterThreshold& fn_;
  int counter_ = 1;
};

// --------------------------------- location (fixed A / adaptive A(n))

/// Monte-Carlo resolution of the location-based schemes' residual additional
/// coverage.
constexpr int kCoverageSamples = 512;

/// Shared machinery: accumulates heard-sender positions and decides whether
/// the residual additional coverage reaches a threshold supplied by the
/// decider (constant or A(n)). Each decision takes 2 * kCoverageSamples
/// scheme-RNG draws, however early the verdict settles.
class CoverageTracker {
 public:
  void addSender(geom::Vec2 pos) { senders_.push_back(pos); }

  /// Accumulated heard-sender positions, in arrival order.
  std::uint64_t digest() const {
    ckpt::Digest d;
    d.add(static_cast<std::uint64_t>(senders_.size()));
    for (geom::Vec2 p : senders_) {
      d.add(p.x);
      d.add(p.y);
    }
    return d.value();
  }

  /// ac >= threshold, where ac is the sampled fraction of the host's disk
  /// not covered by any heard sender.
  bool coverageAtLeast(HostView& host, double threshold) const {
    return geom::uncoveredFractionAtLeast(host.position(), senders_,
                                          host.radius(), threshold,
                                          host.rng(), kCoverageSamples);
  }

 private:
  std::vector<geom::Vec2> senders_;
};

class LocationDecider final : public PacketDecider {
 public:
  LocationDecider(double threshold, const Reception& first)
      : threshold_(threshold) {
    tracker_.addSender(first.fromPos);
  }
  bool shouldProceed(HostView& host) override {
    return tracker_.coverageAtLeast(host, threshold_);
  }
  bool onDuplicate(HostView& host, const Reception& dup) override {
    tracker_.addSender(dup.fromPos);
    return tracker_.coverageAtLeast(host, threshold_);
  }
  std::uint64_t stateDigest() const override { return tracker_.digest(); }

 private:
  double threshold_;
  CoverageTracker tracker_;
};

class AdaptiveLocationDecider final : public PacketDecider {
 public:
  AdaptiveLocationDecider(const AreaThreshold& fn, const Reception& first)
      : fn_(fn) {
    tracker_.addSender(first.fromPos);
  }
  bool shouldProceed(HostView& host) override {
    const double threshold = fn_(host.neighborCount());
    if (threshold <= 0.0) return true;  // n <= n1 forces the rebroadcast
    return tracker_.coverageAtLeast(host, threshold);
  }
  bool onDuplicate(HostView& host, const Reception& dup) override {
    tracker_.addSender(dup.fromPos);
    const double threshold = fn_(host.neighborCount());
    if (threshold <= 0.0) return true;
    return tracker_.coverageAtLeast(host, threshold);
  }
  std::uint64_t stateDigest() const override { return tracker_.digest(); }

 private:
  const AreaThreshold& fn_;
  CoverageTracker tracker_;
};

// ------------------------------------------------------ neighbor coverage

class NeighborCoverageDecider final : public PacketDecider {
 public:
  explicit NeighborCoverageDecider(const Reception& first) : first_(first) {}

  bool shouldProceed(HostView& host) override {
    // T = N_x - N_{x,h} - {h}
    for (net::HostId id : host.neighborIds()) pending_.insert(id);
    subtractCoveredBy(host, first_.from);
    return !pending_.empty();
  }

  bool onDuplicate(HostView& host, const Reception& dup) override {
    // T = T - N_{x,h'} - {h'}
    subtractCoveredBy(host, dup.from);
    return !pending_.empty();
  }

  std::uint64_t stateDigest() const override {
    // NOLINT-determinism(collected into a vector and sorted before folding)
    std::vector<net::HostId> pending(pending_.begin(), pending_.end());
    std::sort(pending.begin(), pending.end());
    ckpt::Digest d;
    d.add(static_cast<std::uint64_t>(pending.size()));
    for (net::HostId id : pending) d.add(id.value());
    return d.value();
  }

 private:
  void subtractCoveredBy(HostView& host, net::HostId h) {
    pending_.erase(h);
    if (const auto* theirs = host.neighborsOf(h)) {
      for (net::HostId id : *theirs) pending_.erase(id);
    }
  }

  Reception first_;
  std::unordered_set<net::HostId> pending_;  // T: neighbors still uncovered
};

}  // namespace

RebroadcastPolicy RebroadcastPolicy::flooding() { return {}; }

RebroadcastPolicy RebroadcastPolicy::counter(int c) {
  return {.type = Type::kCounter, .counterC = c};
}

RebroadcastPolicy RebroadcastPolicy::location(double a) {
  return {.type = Type::kLocation, .areaA = a};
}

RebroadcastPolicy RebroadcastPolicy::adaptiveCounter(CounterThreshold fn,
                                                     std::string label) {
  return {.type = Type::kAdaptiveCounter,
          .counterFn = std::move(fn),
          .label = std::move(label)};
}

RebroadcastPolicy RebroadcastPolicy::adaptiveLocation(AreaThreshold fn,
                                                      std::string label) {
  return {.type = Type::kAdaptiveLocation,
          .areaFn = std::move(fn),
          .label = std::move(label)};
}

RebroadcastPolicy RebroadcastPolicy::neighborCoverage() {
  return {.type = Type::kNeighborCoverage};
}

std::unique_ptr<PacketDecider> RebroadcastPolicy::makeDecider(
    HostView&, const Reception& first) const {
  switch (type) {
    case Type::kFlooding:
      return std::make_unique<FloodingDecider>();
    case Type::kCounter:
      return std::make_unique<CounterDecider>(counterC);
    case Type::kLocation:
      return std::make_unique<LocationDecider>(areaA, first);
    case Type::kAdaptiveCounter:
      return std::make_unique<AdaptiveCounterDecider>(counterFn);
    case Type::kAdaptiveLocation:
      return std::make_unique<AdaptiveLocationDecider>(areaFn, first);
    case Type::kNeighborCoverage:
      return std::make_unique<NeighborCoverageDecider>(first);
  }
  MANET_ASSERT(false);
  return nullptr;
}

std::string RebroadcastPolicy::name() const {
  if (!label.empty()) return label;
  switch (type) {
    case Type::kFlooding:
      return "flooding";
    case Type::kCounter:
      return "C=" + std::to_string(counterC);
    case Type::kLocation:
      return "A=" + util::fmt(areaA, 4);
    case Type::kAdaptiveCounter:
      return "AC";
    case Type::kAdaptiveLocation:
      return "AL";
    case Type::kNeighborCoverage:
      return "NC";
  }
  MANET_ASSERT(false);
  return {};
}

bool RebroadcastPolicy::needsNeighborInfo() const {
  return type == Type::kAdaptiveCounter || type == Type::kAdaptiveLocation ||
         type == Type::kNeighborCoverage;
}

}  // namespace manet::core
