// The figure list, in README-table order. An explicit list in a translation
// unit of its own: a figure binary that does not call registeredFigures()
// links only its own figure, not all twelve.
#include "figures/figure.hpp"

namespace manet::figures {

std::span<const Figure* const> registeredFigures() {
  static const Figure* const figures[] = {
      &kFig01, &kFig02, &kFig05, &kFig07,  &kFig09,      &kFig10,
      &kFig11, &kFig12, &kFig13, &kJitter, &kCollisions, &kDensity};
  return figures;
}

}  // namespace manet::figures
