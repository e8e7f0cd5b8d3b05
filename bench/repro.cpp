// Every registered figure, in README-table order, through one runCells
// fan-out. Stdout is the single figure binaries' stdout, concatenated;
// MANET_BENCH_JSON=<dir> writes the same BENCH_<name>.json reports.
#include <iostream>

#include "figures/figure.hpp"
using namespace manet::figures;
int main() {
  return benchMain([] {
    runFigures(registeredFigures(), std::cout);
    return 0;
  });
}
