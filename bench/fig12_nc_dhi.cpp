#include "figures/figure.hpp"
using namespace manet::figures;
int main(int argc, char** argv) { return figureMain(kFig12, argc, argv); }
