#include "ckpt/checkpoint.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>

#include "ckpt/config_io.hpp"
#include "ckpt/digest.hpp"
#include "ckpt/state_access.hpp"
#include "experiment/runner.hpp"
#include "experiment/world.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"

namespace manet::ckpt {

std::vector<std::uint8_t> capture(const experiment::World& world) {
  return encodeFingerprint(StateAccess::captureWorld(world));
}

Resumed resume(const std::vector<std::uint8_t>& blob) {
  WorldFingerprint stored = decodeFingerprint(blob);
  const experiment::ScenarioConfig config = decodeConfig(stored.configBlob);

  // Replay must run in the same metrics-collection mode the capture saw, or
  // the metrics word can't match. A standalone resume (no registry on this
  // thread) of a collection-on checkpoint gets a private registry for the
  // replay window.
  std::unique_ptr<obs::Registry> privateRegistry;
  if (stored.hasRegistry && obs::current() == nullptr) {
    privateRegistry = std::make_unique<obs::Registry>();
  }
  obs::ScopedRegistry scope(privateRegistry != nullptr ? privateRegistry.get()
                                                       : obs::current());

  auto world = std::make_unique<experiment::World>(config);
  world->beginRun();
  world->continueUntil(stored.anchor);
  const WorldFingerprint replayed = StateAccess::captureWorld(*world);
  const std::vector<std::string> diffs = diffFingerprints(stored, replayed);
  if (!diffs.empty()) {
    std::string msg =
        "resume verification failed: replay to the anchor diverged from the "
        "checkpoint (different binary, env overrides, or a determinism bug):";
    for (const std::string& d : diffs) {
      msg += "\n  ";
      msg += d;
    }
    throw Error(msg);
  }
  Resumed out;
  out.world = std::move(world);
  out.fingerprint = std::move(stored);
  return out;
}

void writeBlobFile(const std::string& path,
                   const std::vector<std::uint8_t>& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) throw Error("cannot open checkpoint file for writing: " + path);
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  if (!file) throw Error("short write to checkpoint file: " + path);
}

std::vector<std::uint8_t> readBlobFile(const std::string& path) {
  // A directory opens as a stream on some platforms and reports size -1.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    throw Error("not a regular checkpoint file: " + path);
  }
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) throw Error("cannot open checkpoint file: " + path);
  const std::streamsize size = file.tellg();
  file.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  file.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!file) throw Error("short read from checkpoint file: " + path);
  return bytes;
}

AnchorSpec parseAnchorSpec(const std::string& text) {
  const bool percent = !text.empty() && text.back() == '%';
  const std::string number = percent ? text.substr(0, text.size() - 1) : text;
  double value = 0.0;
  std::size_t used = 0;
  try {
    value = std::stod(number, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != number.size()) {
    throw Error("malformed checkpoint anchor (want seconds or N%): " + text);
  }
  AnchorSpec spec;
  if (percent) {
    if (!(value >= 0.0 && value <= 100.0)) {
      throw Error("checkpoint anchor percentage out of [0, 100]: " + text);
    }
    spec.fraction = value / 100.0;
  } else {
    // sim::fromSeconds casts seconds * 1e6 to int64: NaN, infinities and
    // anything at or past 2^63 microseconds have no TimePoint.
    if (!(value >= 0.0 && value * 1e6 < 0x1p63)) {
      throw Error("checkpoint anchor seconds out of range: " + text);
    }
    spec.seconds = value;
  }
  return spec;
}

namespace {

std::string blobFileName(const std::string& tag,
                         const std::vector<std::uint8_t>& blob) {
  const std::uint64_t digest = fnv1a(blob.data(), blob.size());
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  return "ck_" + tag + "_" + hex + ".mckpt";
}

}  // namespace

std::unique_ptr<experiment::World> runCheckpointCycle(
    const experiment::ScenarioConfig& config, const AnchorSpec& anchor,
    const std::string& blobDir, const std::string& tag) {
  std::vector<std::uint8_t> blob;
  {
    // Phase A (prefix): run to the anchor and capture. Its metric events go
    // to a scratch registry — the resumed world replays the same prefix
    // under the real one, so counting both would double every prefix event.
    obs::Registry scratch;
    obs::ScopedRegistry scope(obs::current() != nullptr ? &scratch : nullptr);
    experiment::World prefix(config);
    prefix.beginRun();
    sim::TimePoint at = prefix.horizonTime();
    if (anchor.seconds >= 0.0) {
      at = sim::kTimeZero + sim::fromSeconds(anchor.seconds);
    } else if (anchor.fraction >= 0.0) {
      at = sim::kTimeZero +
           sim::scaleRound(prefix.horizonTime().sinceStart(), anchor.fraction);
    }
    if (at > prefix.horizonTime()) at = prefix.horizonTime();
    if (at < sim::kTimeZero) at = sim::kTimeZero;
    prefix.continueUntil(at);
    blob = capture(prefix);
  }
  // The encode+decode+replay+verify path runs even without a blob dir; the
  // file write is only for artifacts (CI uploads them when the gate fails).
  if (!blobDir.empty()) {
    std::filesystem::create_directories(blobDir);
    writeBlobFile((std::filesystem::path(blobDir) / blobFileName(tag, blob))
                      .string(),
                  blob);
  }
  Resumed resumed = resume(blob);
  resumed.world->runToEnd();
  return std::move(resumed.world);
}

experiment::SchemeSpec parseSchemeOverride(const std::string& text) {
  using experiment::SchemeSpec;
  if (text == "flooding") return SchemeSpec::flooding();
  if (text == "nc") return SchemeSpec::neighborCoverage();
  if (text == "ac") return SchemeSpec::adaptiveCounter();
  if (text == "al") return SchemeSpec::adaptiveLocation();
  if (text == "cluster") return SchemeSpec::clusterBased();
  if (text.size() > 2 && text[1] == '=') {
    try {
      const std::string value = text.substr(2);
      std::size_t used = 0;
      if (text[0] == 'c') {
        const int c = std::stoi(value, &used);
        if (used == value.size() && c >= 1) return SchemeSpec::counter(c);
      } else {
        const double v = std::stod(value, &used);
        if (used == value.size() && std::isfinite(v) && v >= 0.0) {
          if (text[0] == 'p' && v <= 1.0) return SchemeSpec::probabilistic(v);
          if (text[0] == 'd') return SchemeSpec::distance(v);
          if (text[0] == 'a') return SchemeSpec::location(v);
        }
      }
    } catch (const std::exception&) {
      // fall through to the unified error below
    }
  }
  throw Error("bad MANET_CKPT_SCHEME '" + text +
              "' (want flooding|nc|ac|al|cluster|p=<prob in [0,1]>|"
              "c=<n >= 1>|d=<m >= 0>|a=<frac >= 0>)");
}

bool configureFromCli(int argc, char** argv, const std::string& benchName) {
  std::string resumePath;
  std::string anchorText;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--resume-from" && i + 1 < argc) {
      resumePath = argv[++i];
    } else if (arg == "--checkpoint-at" && i + 1 < argc) {
      anchorText = argv[++i];
    }
  }
  if (resumePath.empty()) {
    if (auto v = util::envString("MANET_CKPT_RESUME")) resumePath = *v;
  }
  if (anchorText.empty()) {
    if (auto v = util::envString("MANET_CKPT_AT")) anchorText = *v;
  }

  if (!resumePath.empty()) {
    // Parsed before the replay, so a bad spec fails fast.
    std::optional<experiment::SchemeSpec> tailScheme;
    if (auto spec = util::envString("MANET_CKPT_SCHEME")) {
      tailScheme = parseSchemeOverride(*spec);
    }
    Resumed resumed = resume(readBlobFile(resumePath));
    experiment::World& world = *resumed.world;
    std::printf("resume %s at t=%.3fs of %.3fs\n", resumePath.c_str(),
                sim::toSeconds(resumed.fingerprint.anchor),
                sim::toSeconds(resumed.fingerprint.horizon));
    if (tailScheme) {
      world.overrideScheme(*tailScheme);
      std::printf("tail scheme override: %s\n", tailScheme->name().c_str());
    }
    world.runToEnd();
    const stats::RunSummary summary = world.metrics().summarize();
    std::printf("scheme=%s broadcasts=%llu RE=%.4f SRB=%.4f latency=%.6fs\n",
                world.config().scheme.name().c_str(),
                static_cast<unsigned long long>(summary.broadcasts),
                summary.meanRe, summary.meanSrb, summary.meanLatencySeconds);
    std::printf(
        "framesTransmitted=%llu framesDelivered=%llu framesCorrupted=%llu\n",
        static_cast<unsigned long long>(world.channel().framesTransmitted()),
        static_cast<unsigned long long>(world.channel().framesDelivered()),
        static_cast<unsigned long long>(world.channel().framesCorrupted()));
    std::exit(0);
  }

  if (anchorText.empty()) return false;
  const AnchorSpec anchor = parseAnchorSpec(anchorText);
  std::string blobDir;
  if (auto v = util::envString("MANET_CKPT_DIR")) blobDir = *v;
  experiment::setWorldRunOverride(
      [anchor, blobDir,
       benchName](const experiment::ScenarioConfig& scenario) {
        return runCheckpointCycle(scenario, anchor, blobDir, benchName);
      });
  return true;
}

}  // namespace manet::ckpt

namespace manet::experiment {

void World::checkpoint(const std::string& path) const {
  ckpt::writeBlobFile(path, ckpt::capture(*this));
}

std::unique_ptr<World> World::resume(const std::string& path) {
  return ckpt::resume(ckpt::readBlobFile(path)).world;
}

}  // namespace manet::experiment
