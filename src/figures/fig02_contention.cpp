// Fig. 2: cf(n, k) - the probability that exactly k of n receiving hosts
// experience no contention when all rebroadcast. Paper's shape: cf(n, 0)
// rises above 0.8 by n = 6; cf(n, 1) drops sharply; cf(n, k >= 2) negligible;
// cf(n, n-1) = 0 structurally.
#include "figures/figure.hpp"
#include "geom/contention.hpp"
#include "sim/random.hpp"
#include "util/env.hpp"

namespace manet::figures {

const Figure kFig02{
    "fig02_contention", "Fig. 2 - cf(n,k)",
    "cf(n,0) > 0.8 for n >= 6; cf(n,1) drops sharply", 60, nullptr,
    [](Results, const Scale& scale, std::ostream& out) {
      const int trials =
          static_cast<int>(util::envInt("REPRO_MC_TRIALS", 20000));
      sim::Rng rng(scale.seed);

      util::Table table(
          {"n", "cf(n,0)", "cf(n,1)", "cf(n,2)", "cf(n,3)", "cf(n,4)"});
      for (int n = 1; n <= 10; ++n) {
        const auto dist =
            geom::contentionFreeDistribution(n, 500.0, rng, trials);
        std::vector<std::string> row{std::to_string(n)};
        for (std::size_t k = 0; k <= 4; ++k) {
          row.push_back(k < dist.size() ? util::fmt(dist[k], 4) : "-");
        }
        table.addRow(std::move(row));
      }
      table.print(out);
      out << "\n";
    }};

}  // namespace manet::figures
