// Threshold functions C(n) and A(n) for the adaptive schemes (§3.1, §3.2)
// including every candidate shape the tuning experiments of §4.1/§4.2
// evaluate (Figs. 5, 6, 8).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace manet::core {

/// Decay shapes between n1 and n2 tested in Fig. 5d.
enum class DecayShape {
  kLinear,   // straight line from C(n1) down to 2 at n2
  kConvex,   // slow start, fast finish (quadratic, curving below the line... stays high longer)
  kConcave,  // fast start, slow finish
  kStep,     // stays at C(n1) until just before n2, then drops to 2
};

/// Integer counter threshold C(n), n >= 0. Immutable value type.
///
/// The paper denotes candidates as digit sequences x1 x2 x3 ... meaning
/// C(1)=x1, C(2)=x2, ...; the last digit repeats for all larger n. C(0) is
/// defined as C(1) (a host that knows of no neighbors behaves like one with
/// a single neighbor — it must try to rebroadcast).
class CounterThreshold {
 public:
  /// Fixed-threshold baseline: C(n) = c for all n.
  static CounterThreshold fixed(int c);

  /// Parses the paper's digit-sequence notation, e.g. "22334455555".
  static CounterThreshold fromDigits(std::string_view digits);

  /// The §3.1 shape: C(n) = n+1 up to n1 (so C(n1) = n1+1), then decays to
  /// the floor of 2 at n2 with the given shape, and stays 2 afterwards.
  static CounterThreshold rampAndDecay(int n1, int n2,
                                       DecayShape shape = DecayShape::kLinear);

  /// The tuned function the paper recommends (n1 = 4, n2 = 12, the solid
  /// line of Fig. 6).
  static CounterThreshold suggested();

  int operator()(int n) const;

  /// Digit-sequence rendering (for table labels), truncated after the value
  /// stabilizes: e.g. "23455433222".
  std::string toDigits() const;

  friend bool operator==(const CounterThreshold&,
                         const CounterThreshold&) = default;

 private:
  explicit CounterThreshold(std::vector<int> values);
  std::vector<int> values_;  // values_[i] = C(i+1); last repeats
};

/// Additional-coverage threshold A(n) for the (adaptive) location-based
/// scheme. A(n) = 0 forces rebroadcast; larger values inhibit more.
class AreaThreshold {
 public:
  /// Fixed-threshold baseline: A(n) = a for all n.
  static AreaThreshold fixed(double a);

  /// The §3.2 shape: 0 for n <= n1, linear up to `high` at n2, constant
  /// afterwards. `high` defaults to EAC(2)/(pi r^2) = 0.187.
  static AreaThreshold piecewise(int n1, int n2, double high = 0.187);

  /// The tuned function the paper recommends: (n1, n2) = (6, 12).
  static AreaThreshold suggested();

  double operator()(int n) const;

  int n1() const { return n1_; }
  int n2() const { return n2_; }

  friend bool operator==(const AreaThreshold&, const AreaThreshold&) = default;

 private:
  AreaThreshold(double low, double high, int n1, int n2);
  double low_ = 0.0;
  double high_ = 0.0;
  int n1_ = 0;
  int n2_ = 0;
};

}  // namespace manet::core
