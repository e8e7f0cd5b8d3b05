// Fig. 5 (a-d) + Fig. 6: tuning the adaptive counter threshold C(n).
//
// Reproduces the paper's four-step tuning methodology (§4.1):
//   (a) slope before n1   - candidates 222333444555.., 22334455.., 23455..
//   (b) value of n1       - 233.., 2344.., 23455.., 234566..
//   (c) value of n2       - linear decay from C(4)=5 to 2 at n2 = 8, 12, 16
//   (d) decay shape       - linear / convex / concave / step between 4 and 12
// Each candidate is run across all six maps; RE and SRB are reported.
// Paper's conclusions: slope 1 (23455..) wins in sparse maps; n1 = 4;
// n2 = 12; and the linear decay (solid line of Fig. 6) is the suggestion.
#include "core/threshold.hpp"
#include "figures/figure.hpp"

namespace manet::figures {
namespace {

using CT = core::CounterThreshold;
using core::DecayShape;

struct Panel {
  std::string tag;
  std::string title;
  std::vector<experiment::SchemeSpec> candidates;
};

experiment::SchemeSpec ac(std::string label, CT fn) {
  return experiment::SchemeSpec::adaptiveCounter(std::move(fn),
                                                 std::move(label));
}

std::vector<Panel> panels() {
  return {
      {"5a", "Fig. 5a: slope before n1",
       {ac("s1/3", CT::fromDigits("22233344455555")),
        ac("s1/2", CT::fromDigits("22334455555")),
        ac("s1", CT::fromDigits("23455555"))}},
      {"5b", "Fig. 5b: choosing n1",
       {ac("n1=2", CT::fromDigits("233")), ac("n1=3", CT::fromDigits("2344")),
        ac("n1=4", CT::fromDigits("23455")),
        ac("n1=5", CT::fromDigits("234566"))}},
      {"5c", "Fig. 5c: choosing n2 (linear decay from 5 to 2)",
       {ac("n2=8", CT::rampAndDecay(4, 8)),
        ac("n2=12", CT::rampAndDecay(4, 12)),
        ac("n2=16", CT::rampAndDecay(4, 16))}},
      {"5d", "Fig. 5d: decay shape between n1=4 and n2=12",
       {ac("linear", CT::rampAndDecay(4, 12, DecayShape::kLinear)),
        ac("convex", CT::rampAndDecay(4, 12, DecayShape::kConvex)),
        ac("concave", CT::rampAndDecay(4, 12, DecayShape::kConcave)),
        ac("step", CT::rampAndDecay(4, 12, DecayShape::kStep))}},
  };
}

}  // namespace

const Figure kFig05{
    "fig05_tune_counter",
    "Fig. 5 - tuning C(n) for the adaptive counter scheme",
    "slope 1 best in sparse maps; n1=4, n2=12; linear decay", 40,
    [] {
      std::vector<Cell> cells;
      for (const Panel& panel : panels()) {
        for (Cell& cell : schemeByMap(panel.candidates)) {
          cell.label = panel.tag + "/" + cell.config.scheme.name() + "/" +
                       mapLabel(cell.config.mapUnits);
          cells.push_back(std::move(cell));
        }
      }
      return cells;
    },
    [](Results results, const Scale&, std::ostream& out) {
      for (const Panel& panel : panels()) {
        out << "--- " << panel.title << " ---\n";
        const std::size_t n = panel.candidates.size() * paperMapSizes().size();
        schemeMapTable(out, results.first(n), /*latency=*/false);
        results = results.subspan(n);
      }

      // Fig. 6: the candidate functions themselves.
      out << "--- Fig. 6: C(n) candidates (value per n) ---\n";
      util::Table fig6({"n", "linear(sugg.)", "convex", "concave", "step"});
      const CT shapes[] = {CT::suggested(),
                           CT::rampAndDecay(4, 12, DecayShape::kConvex),
                           CT::rampAndDecay(4, 12, DecayShape::kConcave),
                           CT::rampAndDecay(4, 12, DecayShape::kStep)};
      for (int n = 1; n <= 14; ++n) {
        std::vector<std::string> row{std::to_string(n)};
        for (const CT& shape : shapes) row.push_back(std::to_string(shape(n)));
        fig6.addRow(std::move(row));
      }
      fig6.print(out);
      out << "\nSuggested C(n) as digit sequence: " << shapes[0].toDigits()
          << "\n\n";
    }};

}  // namespace manet::figures
