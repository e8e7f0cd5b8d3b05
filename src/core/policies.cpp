#include "core/policies.hpp"

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

// ----------------------------------------------------------- probabilistic

class ProbabilisticDecider final : public PacketDecider {
 public:
  explicit ProbabilisticDecider(double p) : p_(p) {}
  bool shouldProceed(HostView& host) override {
    return host.rng().bernoulli(p_);
  }
  bool onDuplicate(HostView&, const Reception&) override {
    // The gamble is taken once, at first reception; duplicates are ignored.
    return true;
  }

 private:
  double p_;
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

// --------------------------------------------------- distance (fixed D)

class DistanceDecider final : public PacketDecider {
 public:
  DistanceDecider(double threshold, const Reception& first)
      : threshold_(threshold), minDistance_(0.0) {
    firstPos_ = first.fromPos;
  }
  bool shouldProceed(HostView& host) override {
    minDistance_ = geom::distance(host.position(), firstPos_);
    return minDistance_ >= threshold_;
  }
  bool onDuplicate(HostView& host, const Reception& dup) override {
    minDistance_ = std::min(minDistance_,
                            geom::distance(host.position(), dup.fromPos));
    return minDistance_ >= threshold_;
  }
  std::uint64_t stateDigest() const override {
    ckpt::Digest d;
    d.add(minDistance_);
    d.add(firstPos_.x);
    d.add(firstPos_.y);
    return d.value();
  }

 private:
  double threshold_;
  double minDistance_;
  geom::Vec2 firstPos_;
};

// --------------------------------- location (fixed A / adaptive A(n))

/// Shared machinery: accumulates heard-sender positions and decides whether
/// the residual additional coverage reaches a threshold supplied by the
/// decider (constant or A(n)). Each decision takes 2 * samples scheme-RNG
/// draws, however early the verdict settles.
class CoverageTracker {
 public:
  explicit CoverageTracker(CoverageSampling sampling) : sampling_(sampling) {}

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
                                          host.rng(), sampling_.samples);
  }

 private:
  CoverageSampling sampling_;
  std::vector<geom::Vec2> senders_;
};

class LocationDecider final : public PacketDecider {
 public:
  LocationDecider(double threshold, CoverageSampling sampling,
                  const Reception& first)
      : threshold_(threshold), tracker_(sampling) {
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
  AdaptiveLocationDecider(const AreaThreshold& fn, CoverageSampling sampling,
                          const Reception& first)
      : fn_(fn), tracker_(sampling) {
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

std::unique_ptr<PacketDecider> FloodingPolicy::makeDecider(
    HostView&, const Reception&) const {
  return std::make_unique<FloodingDecider>();
}

ProbabilisticPolicy::ProbabilisticPolicy(double p) : p_(p) {
  MANET_EXPECTS(p >= 0.0 && p <= 1.0);
}

std::unique_ptr<PacketDecider> ProbabilisticPolicy::makeDecider(
    HostView&, const Reception&) const {
  return std::make_unique<ProbabilisticDecider>(p_);
}

std::string ProbabilisticPolicy::name() const {
  return "P=" + util::fmt(p_, 2);
}

CounterPolicy::CounterPolicy(int threshold) : threshold_(threshold) {
  MANET_EXPECTS(threshold >= 1);
}

std::unique_ptr<PacketDecider> CounterPolicy::makeDecider(
    HostView&, const Reception&) const {
  return std::make_unique<CounterDecider>(threshold_);
}

std::string CounterPolicy::name() const {
  return "C=" + std::to_string(threshold_);
}

DistancePolicy::DistancePolicy(double thresholdMeters)
    : thresholdMeters_(thresholdMeters) {
  MANET_EXPECTS(thresholdMeters >= 0.0);
}

std::unique_ptr<PacketDecider> DistancePolicy::makeDecider(
    HostView&, const Reception& first) const {
  return std::make_unique<DistanceDecider>(thresholdMeters_, first);
}

std::string DistancePolicy::name() const {
  return "D=" + util::fmt(thresholdMeters_, 0);
}

LocationPolicy::LocationPolicy(double threshold, CoverageSampling sampling)
    : threshold_(threshold), sampling_(sampling) {
  MANET_EXPECTS(threshold >= 0.0 && threshold <= 1.0);
  MANET_EXPECTS(sampling.samples > 0);
}

std::unique_ptr<PacketDecider> LocationPolicy::makeDecider(
    HostView&, const Reception& first) const {
  return std::make_unique<LocationDecider>(threshold_, sampling_, first);
}

std::string LocationPolicy::name() const {
  return "A=" + util::fmt(threshold_, 4);
}

AdaptiveCounterPolicy::AdaptiveCounterPolicy(CounterThreshold fn,
                                             std::string label)
    : fn_(std::move(fn)), label_(std::move(label)) {}

std::unique_ptr<PacketDecider> AdaptiveCounterPolicy::makeDecider(
    HostView&, const Reception&) const {
  return std::make_unique<AdaptiveCounterDecider>(fn_);
}

AdaptiveLocationPolicy::AdaptiveLocationPolicy(AreaThreshold fn,
                                               std::string label,
                                               CoverageSampling sampling)
    : fn_(std::move(fn)), label_(std::move(label)), sampling_(sampling) {
  MANET_EXPECTS(sampling.samples > 0);
}

std::unique_ptr<PacketDecider> AdaptiveLocationPolicy::makeDecider(
    HostView&, const Reception& first) const {
  return std::make_unique<AdaptiveLocationDecider>(fn_, sampling_, first);
}

std::unique_ptr<PacketDecider> NeighborCoveragePolicy::makeDecider(
    HostView&, const Reception& first) const {
  return std::make_unique<NeighborCoverageDecider>(first);
}

}  // namespace manet::core
