// Simulation time, as two strong types (DESIGN.md §13).
//
// All MAC/PHY constants in IEEE 802.11 DSSS are integral microseconds (slot
// 20 us, DIFS 50 us, PLCP preamble 144 us), so time is signed
// 64-bit microsecond ticks: exact arithmetic, no floating-point drift over a
// multi-hour simulated run.
//
// The tick count is wrapped in two distinct types so the compiler rejects
// unit and role confusion that a bare int64_t accepts silently:
//
//   Duration   a span of simulated time (an interval, a timeout, an airtime)
//   TimePoint  an instant on the simulation clock (microseconds since t=0)
//
// Only the physically meaningful algebra compiles:
//
//   TimePoint - TimePoint -> Duration      TimePoint + Duration -> TimePoint
//   Duration  +/- Duration -> Duration     Duration * int / int -> Duration
//   Duration  / Duration   -> int64 ratio  comparisons within each type
//
// TimePoint + TimePoint, Duration -> int, int -> Duration are all compile
// errors; construction from raw ticks is explicit. The raw tick count leaks
// only through .ticks(), which tools/manet_lint.py confines to sanctioned
// serialization/reporting/audit homes (escape: NOLINT-units(reason)).
//
// Both types are layout-identical to the int64_t they replace: the strong
// layer is zero-cost and every committed bench baseline is byte-identical.
#pragma once

#include <cstdint>

namespace manet::sim {

/// A span of simulated time in integral microsecond ticks. Value-semantic,
/// explicitly constructed, default-zero.
class Duration {
 public:
  constexpr Duration() = default;
  /// Wraps a raw microsecond tick count. Explicit: a bare integer is not a
  /// duration until the caller says which unit it carries.
  constexpr explicit Duration(std::int64_t ticks) : ticks_(ticks) {}

  /// Raw microsecond ticks. Confined by manet_lint to sanctioned homes
  /// (serialization, reports, audit) — prefer the typed algebra elsewhere.
  constexpr std::int64_t ticks() const { return ticks_; }

  // --- named-unit factories ---
  static constexpr Duration microseconds(std::int64_t us) {
    return Duration(us);
  }
  static constexpr Duration milliseconds(std::int64_t ms) {
    return Duration(ms * 1000);
  }
  static constexpr Duration seconds(std::int64_t s) {
    return Duration(s * 1'000'000);
  }

  // --- duration algebra ---
  friend constexpr Duration operator+(Duration a, Duration b) {
    return Duration(a.ticks_ + b.ticks_);
  }
  friend constexpr Duration operator-(Duration a, Duration b) {
    return Duration(a.ticks_ - b.ticks_);
  }
  constexpr Duration operator-() const { return Duration(-ticks_); }
  friend constexpr Duration operator*(Duration d, std::int64_t k) {
    return Duration(d.ticks_ * k);
  }
  friend constexpr Duration operator*(std::int64_t k, Duration d) {
    return Duration(k * d.ticks_);
  }
  friend constexpr Duration operator/(Duration d, std::int64_t k) {
    return Duration(d.ticks_ / k);
  }
  /// How many times `b` fits in `a` (integer ratio — e.g. slots per window).
  friend constexpr std::int64_t operator/(Duration a, Duration b) {
    return a.ticks_ / b.ticks_;
  }
  friend constexpr Duration operator%(Duration a, Duration b) {
    return Duration(a.ticks_ % b.ticks_);
  }
  constexpr Duration& operator+=(Duration o) {
    ticks_ += o.ticks_;
    return *this;
  }
  constexpr Duration& operator-=(Duration o) {
    ticks_ -= o.ticks_;
    return *this;
  }
  constexpr Duration& operator*=(std::int64_t k) {
    ticks_ *= k;
    return *this;
  }

  friend constexpr bool operator==(Duration, Duration) = default;
  friend constexpr bool operator<(Duration a, Duration b) {
    return a.ticks_ < b.ticks_;
  }
  friend constexpr bool operator>(Duration a, Duration b) { return b < a; }
  friend constexpr bool operator<=(Duration a, Duration b) {
    return !(b < a);
  }
  friend constexpr bool operator>=(Duration a, Duration b) {
    return !(a < b);
  }

 private:
  std::int64_t ticks_ = 0;
};

/// An instant on the simulation clock: microseconds since the start of the
/// run. Default-constructed = t0 (the run start).
class TimePoint {
 public:
  constexpr TimePoint() = default;
  /// Wraps a raw microseconds-since-t0 tick count; explicit for the same
  /// reason as Duration(int64_t).
  constexpr explicit TimePoint(std::int64_t ticks) : ticks_(ticks) {}

  /// Raw microsecond ticks since t0. Same lint confinement as
  /// Duration::ticks().
  constexpr std::int64_t ticks() const { return ticks_; }

  /// Span since the run start (t - t0). Unlike ticks() this stays inside
  /// the type system, so it is legal everywhere.
  constexpr Duration sinceStart() const { return Duration(ticks_); }

  // --- point/duration algebra ---
  friend constexpr TimePoint operator+(TimePoint p, Duration d) {
    return TimePoint(p.ticks_ + d.ticks());
  }
  friend constexpr TimePoint operator+(Duration d, TimePoint p) {
    return p + d;
  }
  friend constexpr TimePoint operator-(TimePoint p, Duration d) {
    return TimePoint(p.ticks_ - d.ticks());
  }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) {
    return Duration(a.ticks_ - b.ticks_);
  }
  constexpr TimePoint& operator+=(Duration d) {
    ticks_ += d.ticks();
    return *this;
  }
  constexpr TimePoint& operator-=(Duration d) {
    ticks_ -= d.ticks();
    return *this;
  }

  friend constexpr bool operator==(TimePoint, TimePoint) = default;
  friend constexpr bool operator<(TimePoint a, TimePoint b) {
    return a.ticks_ < b.ticks_;
  }
  friend constexpr bool operator>(TimePoint a, TimePoint b) { return b < a; }
  friend constexpr bool operator<=(TimePoint a, TimePoint b) {
    return !(b < a);
  }
  friend constexpr bool operator>=(TimePoint a, TimePoint b) {
    return !(a < b);
  }

 private:
  std::int64_t ticks_ = 0;
};

inline constexpr Duration kMicrosecond = Duration::microseconds(1);
inline constexpr Duration kMillisecond = Duration::milliseconds(1);
inline constexpr Duration kSecond = Duration::seconds(1);

/// The simulation origin, t = 0.
inline constexpr TimePoint kTimeZero{};

/// "Never happened" sentinel for optional timestamps (one tick before t0;
/// no event can fire there, the scheduler starts at t0).
inline constexpr TimePoint kNever{-1};

/// Converts a floating-point second count to a Duration, rounding to the
/// nearest microsecond.
constexpr Duration fromSeconds(double seconds) {
  return Duration(static_cast<std::int64_t>(
      seconds * 1e6 + (seconds >= 0 ? 0.5 : -0.5)));
}

/// Converts a Duration to floating-point seconds (for reporting only).
constexpr double toSeconds(Duration d) {
  return static_cast<double>(d.ticks()) / 1e6;
}

/// Converts a TimePoint to floating-point seconds since the run start.
constexpr double toSeconds(TimePoint t) { return toSeconds(t.sinceStart()); }

/// Scales a duration by a floating-point factor, truncating toward zero
/// (bit-identical to the historical static_cast<int64>(f * ticks) sites).
constexpr Duration scaleTrunc(Duration d, double factor) {
  return Duration(
      static_cast<std::int64_t>(factor * static_cast<double>(d.ticks())));
}

/// Scales a duration by a floating-point factor, rounding half up.
constexpr Duration scaleRound(Duration d, double factor) {
  return Duration(static_cast<std::int64_t>(
      factor * static_cast<double>(d.ticks()) + 0.5));
}

}  // namespace manet::sim
