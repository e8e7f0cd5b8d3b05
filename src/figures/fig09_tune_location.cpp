// Fig. 8 + Fig. 9: tuning the adaptive location threshold A(n).
//
// Fig. 8 defines the candidate functions: A(n) = 0 up to n1, linear to
// 0.187 at n2, constant after. Fig. 9 compares the (n1, n2) candidates
// across maps; the paper picks (6, 12) after weighing RE against SRB
// ((8,12) and (8,10) have comparable RE but worse SRB in sparse maps).
#include <utility>

#include "core/threshold.hpp"
#include "figures/figure.hpp"

namespace manet::figures {
namespace {

using core::AreaThreshold;

constexpr std::pair<int, int> kCandidates[] = {
    {2, 8}, {4, 8}, {4, 10}, {6, 10}, {6, 12}, {8, 12}, {8, 10}, {2, 16}};

/// "(n1,n2)" per candidate.
std::vector<std::string> tags() {
  std::vector<std::string> out;
  for (auto [n1, n2] : kCandidates) {
    out.push_back("(" + std::to_string(n1) + "," + std::to_string(n2) + ")");
  }
  return out;
}

}  // namespace

const Figure kFig09{
    "fig09_tune_location",
    "Fig. 9 - tuning A(n) for the adaptive location scheme",
    "(6,12), (8,12), (8,10) all give high RE; (6,12) wins on SRB", 60,
    [] {
      const std::vector<std::string> labels = tags();
      std::vector<experiment::SchemeSpec> schemes;
      for (std::size_t c = 0; c < labels.size(); ++c) {
        const auto [n1, n2] = kCandidates[c];
        schemes.push_back(experiment::SchemeSpec::adaptiveLocation(
            AreaThreshold::piecewise(n1, n2), "AL" + labels[c]));
      }
      return schemeByMap(schemes);
    },
    [](Results results, const Scale&, std::ostream& out) {
      out << "--- Fig. 8: A(n) candidates ---\n";
      std::vector<std::string> header{"n"};
      for (const std::string& tag : tags()) header.push_back(tag);
      util::Table fig8(header);
      for (int n = 0; n <= 16; n += 2) {
        std::vector<std::string> row{std::to_string(n)};
        for (auto [n1, n2] : kCandidates) {
          row.push_back(util::fmt(AreaThreshold::piecewise(n1, n2)(n), 3));
        }
        fig8.addRow(std::move(row));
      }
      fig8.print(out);
      out << "\n--- Fig. 9: RE / SRB per candidate per map ---\n";
      schemeMapTable(out, results, /*latency=*/false, tags());
    }};

}  // namespace manet::figures
