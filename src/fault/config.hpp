// Fault-injection configuration (DESIGN.md §8): link impairment models and
// host churn. Everything defaults to off, and a disabled FaultConfig leaves
// a run bit-identical to one that predates the fault subsystem — fault RNG
// streams are forked from dedicated stream ids, so enabling or disabling
// faults never shifts mobility, traffic, or MAC draws.
#pragma once

#include "sim/time.hpp"

namespace manet::fault {

struct FaultConfig {
  // --- link impairment -----------------------------------------------------
  enum class Loss {
    kNone,            // bit-identical to the fault-free channel
    kIid,             // i.i.d. per-reception loss with probability `per`
    kGilbertElliott,  // two-state bursty model, per-(src,dst) chain state
  };
  Loss loss = Loss::kNone;

  /// kIid: probability each reception is dropped.
  double per = 0.0;

  /// kGilbertElliott: loss probability in the Good/Bad states and the
  /// state-transition probabilities, evaluated once per reception on that
  /// link (draw loss from the current state, then maybe transition). The
  /// stationary Bad-state share is gb/(gb+bg); defaults give a long-run
  /// average loss of ~0.19 concentrated in bursts of mean length 1/bg = 4.
  double geLossGood = 0.0;
  double geLossBad = 0.75;
  double geGoodToBad = 0.085;  // P(Good -> Bad) per reception
  double geBadToGood = 0.25;   // P(Bad -> Good) per reception

  // --- host churn ----------------------------------------------------------
  /// Random up/down cycling: each host independently joins the churn pool
  /// with probability `churnFraction`; pool members alternate exponentially
  /// distributed up/down dwell times.
  bool churn = false;
  double churnFraction = 0.3;
  sim::Duration meanUpTime = 20 * sim::kSecond;
  sim::Duration meanDownTime = 5 * sim::kSecond;

  bool enabled() const { return loss != Loss::kNone || churn; }
};

}  // namespace manet::fault
