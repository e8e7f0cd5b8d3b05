// Checkpoint/resume orchestration (DESIGN.md §14).
//
// A checkpoint is replay-anchored: the blob carries the resolved
// ScenarioConfig, the anchor TimePoint, and a WorldFingerprint — one digest
// word per subsystem and per host component. Resume rebuilds the world from
// the config, deterministically replays it to the anchor (the engine is
// byte-deterministic from a seed, so replay IS restoration), re-captures,
// and verifies the replayed fingerprint equals the stored one word for word
// before the tail runs. Any divergence — a changed binary, a different env
// override, a nondeterminism bug — aborts resume with a per-subsystem diff
// instead of silently producing a near-miss run. Checkpoints are taken at
// event boundaries only (the quiescent-boundary rule): continueUntil() stops
// between events, never inside one.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ckpt/fingerprint.hpp"
#include "ckpt/io.hpp"
#include "experiment/scenario.hpp"

namespace manet::experiment {
class World;
}

namespace manet::ckpt {

/// Captures the checkpoint blob of `world` at its current scheduler time.
/// The capture only reads raw state — it never perturbs the world's future
/// draws.
std::vector<std::uint8_t> capture(const experiment::World& world);

/// A world rebuilt from a checkpoint and verified at the anchor.
struct Resumed {
  std::unique_ptr<experiment::World> world;
  WorldFingerprint fingerprint;  // the blob's (== the replayed one)
};

/// Rebuild + replay-to-anchor + verify. Throws Error (with the subsystem
/// diff list in the message) when the replayed fingerprint does not match
/// the checkpoint's.
Resumed resume(const std::vector<std::uint8_t>& blob);

/// Raw blob file I/O (binary, whole-file). Throws Error on I/O failure or
/// when `path` is not a regular file.
void writeBlobFile(const std::string& path,
                   const std::vector<std::uint8_t>& bytes);
std::vector<std::uint8_t> readBlobFile(const std::string& path);

/// Where to anchor a mid-run checkpoint: an absolute simulated second, or a
/// fraction of the run's horizon (resolved once the horizon is known).
/// Exactly one of the two is >= 0 when active.
struct AnchorSpec {
  double seconds = -1.0;
  double fraction = -1.0;
  bool active() const { return seconds >= 0.0 || fraction >= 0.0; }
};

/// Parses "12.5" (seconds) or "50%" (fraction of horizon). Throws Error on
/// malformed input, NaN, and anchors outside [0, 100]% or beyond what a
/// sim::Duration can hold.
AnchorSpec parseAnchorSpec(const std::string& text);

/// The checkpoint-equivalence driver behind --checkpoint-at: runs `config`
/// to the anchor, captures, round-trips the blob through encode+decode
/// (always — even without a blob dir, the serialization path is exercised),
/// optionally writes the blob under `blobDir`, then resumes from the blob
/// and runs the tail. The returned world's final state is byte-identical to
/// a straight-through run of the same config.
std::unique_ptr<experiment::World> runCheckpointCycle(
    const experiment::ScenarioConfig& config, const AnchorSpec& anchor,
    const std::string& blobDir, const std::string& tag);

/// Parses a MANET_CKPT_SCHEME override spec:
///   flooding | nc | ac | al | cluster | p=<prob> | c=<counter> |
///   d=<meters> | a=<fraction>
/// with p in [0, 1], c >= 1, and d, a finite and >= 0. Throws Error on
/// anything else, including trailing characters.
experiment::SchemeSpec parseSchemeOverride(const std::string& text);

/// Bench wiring, called by bench::Report before any sweep runs:
///  * `--resume-from <file>` (or MANET_CKPT_RESUME): load the checkpoint,
///    resume+verify, optionally swap the scheme (MANET_CKPT_SCHEME), run the
///    tail, print a one-run summary, and exit(0) — the bench's sweeps never
///    run.
///  * `--checkpoint-at <seconds|N%>` (or MANET_CKPT_AT): install a runner
///    override so every scenario the bench runs goes through
///    runCheckpointCycle at that anchor. MANET_CKPT_DIR names a directory
///    for blob files (default: in-memory only).
/// Returns true when a checkpoint mode was activated.
bool configureFromCli(int argc, char** argv, const std::string& benchName);

}  // namespace manet::ckpt
