// Trace inspector: record every protocol event of a small run and print a
// per-broadcast timeline — who relayed, who was suppressed and when, where
// frames were lost (tallied per drop reason: collision, half-duplex,
// injected fault loss, host crash). The event stream can also be dumped as
// CSV for plotting. Fault losses and crashes tally zero unless main() sets
// `config.fault`; bench/ext_fault sweeps both.
//
//   ./build/examples/trace_inspector [mapUnits] [broadcasts] [--csv]
#include <climits>
#include <cstring>
#include <iostream>

#include "experiment/world.hpp"
#include "parse_int.hpp"
#include "trace/recorder.hpp"
#include "trace/timeline.hpp"
#include "trace/writer.hpp"

using namespace manet;

int main(int argc, char** argv) {
  int mapUnits = 3;
  int broadcasts = 3;
  const bool csv = argc > 3 && std::strcmp(argv[3], "--csv") == 0;
  if (argc > 4 || (argc > 3 && !csv) ||
      (argc > 1 && !examples::parseInt(argv[1], 1, INT_MAX, mapUnits)) ||
      (argc > 2 && !examples::parseInt(argv[2], 0, INT_MAX, broadcasts))) {
    std::cerr << "usage: " << argv[0]
              << " [mapUnits >= 1] [broadcasts >= 0] [--csv]\n";
    return 1;
  }

  experiment::ScenarioConfig config;
  config.mapUnits = mapUnits;
  config.numHosts = 30;
  config.numBroadcasts = broadcasts;
  config.scheme = experiment::SchemeSpec::adaptiveCounter();
  config.seed = 3;

  trace::Recorder recorder;
  experiment::World world(config);
  world.setTraceSink(&recorder);
  world.run();

  if (csv) {
    trace::writeCsv(std::cout, recorder.events());
    return 0;
  }

  std::cout << "Recorded " << recorder.totalSeen() << " events ("
            << recorder.countOf(trace::EventKind::kDrop) << " drops, "
            << recorder.countOf(trace::EventKind::kInhibited)
            << " inhibitions)\n";
  std::cout << "Drops by reason:";
  for (const phy::DropReason reason :
       {phy::DropReason::kCollision, phy::DropReason::kHalfDuplex,
        phy::DropReason::kFaultLoss, phy::DropReason::kHostDown}) {
    std::cout << ' ' << phy::dropReasonName(reason) << '='
              << recorder.countOfDrop(reason);
  }
  std::cout << "\n";
  if (recorder.countOf(trace::EventKind::kHostDown) > 0) {
    std::cout << "Churn: " << recorder.countOf(trace::EventKind::kHostDown)
              << " crashes, " << recorder.countOf(trace::EventKind::kHostUp)
              << " recoveries\n";
  }
  std::cout << "\n";
  for (const net::BroadcastId bid : trace::broadcastsIn(recorder.events())) {
    const auto tl = trace::buildTimeline(recorder.events(), bid);
    if (tl) std::cout << tl->render() << "\n";
  }
  std::cout << "Tip: pass --csv to dump the raw event stream for plotting.\n";
  return 0;
}
