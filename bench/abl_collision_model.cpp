// Ablation (supports the §4.4 claim): "The main reason for a lot of hosts
// missing the broadcast message is collision." Rerun flooding and the
// adaptive schemes with a perfect PHY (no collisions): flooding's RE becomes
// ~1.0 everywhere, showing the storm's damage is collision-induced — and
// showing the suppression schemes' RE advantage over flooding disappears
// while their SRB advantage remains.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "experiment/runner.hpp"
#include "util/table.hpp"

using namespace manet;

namespace {

int run() {
  const auto scale = experiment::benchScale(40);
  bench::banner("Ablation - collision model on/off",
                "flooding's RE loss is collision-induced (paper §4.4)",
                scale);

  const std::vector<experiment::SchemeSpec> schemes{
      experiment::SchemeSpec::flooding(),
      experiment::SchemeSpec::counter(2),
      experiment::SchemeSpec::adaptiveCounter(),
  };

  const std::vector<int> maps{1, 3, 5};

  // Two cells per (map, scheme): the real PHY, then the collision-free one.
  std::vector<experiment::ScenarioConfig> configs;
  for (int units : maps) {
    for (const auto& scheme : schemes) {
      experiment::ScenarioConfig real;
      real.mapUnits = units;
      real.scheme = scheme;
      experiment::applyScale(real, scale);
      experiment::ScenarioConfig perfect = real;
      perfect.collisions = false;
      configs.push_back(real);
      configs.push_back(perfect);
    }
  }
  const auto results = experiment::runCells(configs, scale.repetitions);

  auto r = results.begin();
  for (int units : maps) {
    std::cout << "--- " << bench::mapLabel(units) << " map ---\n";
    util::Table table({"scheme", "RE(real PHY)", "RE(perfect PHY)",
                       "SRB(real)", "SRB(perfect)"});
    for (const auto& scheme : schemes) {
      const auto& rReal = *r++;
      const auto& rPerfect = *r++;
      table.addRow({scheme.name(), util::fmt(rReal.re(), 3),
                    util::fmt(rPerfect.re(), 3), util::fmt(rReal.srb(), 3),
                    util::fmt(rPerfect.srb(), 3)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}

}  // namespace

int main() { return experiment::benchMain(run); }
