#!/usr/bin/env python3
"""Compare bench run reports against committed baselines (DESIGN.md §10).

Consumes the `manet.bench-report` JSON documents the benches emit with
`--json <path>` / MANET_BENCH_JSON=<dir> and compares each against the
baseline of the same filename under bench/baselines/.

Failure policy — two severities, deliberately asymmetric:

  HARD FAIL (exit 1): schema/shape mismatches. Wrong schema name or
  version, a baseline row label missing from the candidate, a missing
  result key, a retired metric name, or a REPRO_* scale mismatch between
  the two reports. These mean the reports are not comparable (or a
  metric/key was removed without the schema-version bump the policy in
  src/obs/report.hpp requires) and must never pass silently.

  WARN ONLY (exit 0, `::warning::` annotations on GitHub Actions):
  value drift — differing deterministic values. Simulation results are
  bit-stable for a fixed platform, but baselines are recorded on one
  machine and CI runs on another: different glibc/libm versions round
  transcendentals differently. Tracking the trajectory is the point;
  gating merges on it would only teach people to ignore CI.

  Wall-clock fields are never compared against baselines: frames per
  wall-second measured on another host under another load cannot tell a
  regression from a busy co-tenant. bench/perf gates wall time with paired
  runs on one host.

A third mode backs the serial-vs-threads CI gate (DESIGN.md §10.4):

  --require-identical: every value in the two reports must be EXACTLY equal
  — results, metrics, environment — except the fields that measure host
  wall-clock rather than simulation output (per-row wallSeconds and
  framesPerWallSecond, the metrics `profile` scope timings) and the two
  environment echo entries that differ between the legs by construction
  (MANET_THREADS and MANET_BENCH_JSON). Any other difference, float or int,
  is a HARD FAIL: the two reports come from the same binary on the same
  machine in the same job, so "close" is not a thing — a one-bit drift means
  the output depends on the worker count.

Usage:
  compare_bench.py --baselines bench/baselines --candidates out/
  compare_bench.py baseline.json candidate.json
  compare_bench.py --require-identical serial.json threads4.json

Exit status: 0 comparable (possibly with warnings), 1 shape mismatch,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

SCHEMA = "manet.bench-report"

# Result-row keys whose absence in a candidate row is a shape error.
REQUIRED_ROW_KEYS = (
    "label", "scheme", "seed", "re", "srb", "latencySeconds",
    "hellosPerHostPerSecond", "broadcasts", "offeredBroadcasts",
    "framesTransmitted", "framesDelivered", "framesCorrupted",
    "simulatedSeconds", "wallSeconds", "framesPerWallSecond",
)

# Deterministic per-row values: identical platform => identical bits. Drift
# here is worth a warning (usually a different libm, sometimes a real
# behaviour change that should come with a baseline refresh).
DETERMINISTIC_KEYS = (
    "seed", "re", "srb", "latencySeconds", "broadcasts",
    "offeredBroadcasts", "framesTransmitted", "framesDelivered",
    "framesCorrupted",
)


def on_actions() -> bool:
    return os.environ.get("GITHUB_ACTIONS") == "true"


class Comparison:
    def __init__(self, name: str) -> None:
        self.name = name
        self.errors: list[str] = []
        self.warnings: list[str] = []

    def error(self, msg: str) -> None:
        self.errors.append(msg)

    def warn(self, msg: str) -> None:
        self.warnings.append(msg)

    def emit(self) -> None:
        for msg in self.errors:
            print(f"{self.name}: ERROR: {msg}")
        for msg in self.warnings:
            if on_actions():
                print(f"::warning title=bench-trajectory {self.name}::{msg}")
            else:
                print(f"{self.name}: warning: {msg}")


def load(path: Path, cmp: Comparison) -> dict | None:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        cmp.error(f"cannot load {path}: {exc}")
        return None
    if not isinstance(doc, dict):
        cmp.error(f"{path}: top level is not an object")
        return None
    return doc


def check_schema(doc: dict, which: str, cmp: Comparison) -> bool:
    if doc.get("schema") != SCHEMA:
        cmp.error(f"{which}: schema is {doc.get('schema')!r}, want {SCHEMA!r}")
        return False
    if not isinstance(doc.get("schemaVersion"), int):
        cmp.error(f"{which}: schemaVersion missing or not an int")
        return False
    return True


def rows_by_label(doc: dict, which: str, cmp: Comparison) -> dict | None:
    results = doc.get("results")
    if not isinstance(results, list):
        cmp.error(f"{which}: results missing or not an array")
        return None
    out: dict[str, dict] = {}
    for row in results:
        if not isinstance(row, dict) or "label" not in row:
            cmp.error(f"{which}: result row without a label")
            return None
        if row["label"] in out:
            cmp.error(f"{which}: duplicate row label {row['label']!r}")
            return None
        out[row["label"]] = row
    return out


def repro_env(doc: dict) -> dict[str, str]:
    env = doc.get("environment", {}).get("env", {})
    if not isinstance(env, dict):
        return {}
    return {k: v for k, v in env.items() if k.startswith("REPRO_")}


def compare_metrics(base_row: dict, cand_row: dict, label: str,
                    cmp: Comparison) -> None:
    base_m = base_row.get("metrics")
    cand_m = cand_row.get("metrics")
    if base_m is None:
        return
    if cand_m is None:
        cmp.error(f"row {label!r}: baseline has metrics, candidate does not")
        return
    for section in ("counters", "gauges", "histograms"):
        base_names = set(base_m.get(section, {}))
        cand_names = set(cand_m.get(section, {}))
        gone = base_names - cand_names
        if gone:
            cmp.error(
                f"row {label!r}: metric name(s) retired from {section} "
                f"without a schema bump: {', '.join(sorted(gone))}"
            )
    for prefix, meaning in TRACKED_COUNTER_FAMILIES:
        compare_counter_family(base_m, cand_m, label, prefix, meaning, cmp)


# Counter families whose per-row values are deterministic for a fixed
# scenario, so any drift is a behaviour change worth a warning with the
# exact counters (name shape is enforced by the retired-name hard fail in
# compare_metrics):
#   engine.alloc.* — allocation discipline (DESIGN.md §11): event-slab
#       carving, InlineFn heap spills, air-frame slot reuse. Drift means a
#       capture outgrew the inline buffer or a pool stopped recycling.
#   traffic.*      — workload accounting (DESIGN.md §12): offered/injected/
#       completed requests and delivered copies. Drift means the generator's
#       draw sequence or the delivery accounting changed.
TRACKED_COUNTER_FAMILIES = (
    ("engine.alloc.", "allocation discipline changed"),
    ("traffic.", "workload generation or delivery accounting changed"),
)


def compare_counter_family(base_m: dict, cand_m: dict, label: str,
                           prefix: str, meaning: str,
                           cmp: Comparison) -> None:
    base_family = {k: v for k, v in base_m.get("counters", {}).items()
                   if k.startswith(prefix)}
    cand_c = cand_m.get("counters", {})
    drifted = [
        f"{name} {value!r} -> {cand_c.get(name)!r}"
        for name, value in sorted(base_family.items())
        if name in cand_c and cand_c.get(name) != value
    ]
    if drifted:
        cmp.warn(
            f"row {label!r}: {prefix}* counters drifted ({meaning}; refresh "
            f"the baseline if intentional): {'; '.join(drifted)}"
        )


def compare_values(base_row: dict, cand_row: dict, label: str,
                   cmp: Comparison) -> None:
    drifted = []
    for key in DETERMINISTIC_KEYS:
        b, c = base_row.get(key), cand_row.get(key)
        if isinstance(b, float) or isinstance(c, float):
            same = (isinstance(b, (int, float)) and
                    isinstance(c, (int, float)) and
                    math.isclose(b, c, rel_tol=1e-9, abs_tol=1e-12))
        else:
            same = b == c
        if not same:
            drifted.append(f"{key} {b!r} -> {c!r}")
    if drifted:
        cmp.warn(
            f"row {label!r}: deterministic values drifted (differing "
            f"platform/libm, or a behaviour change needing a baseline "
            f"refresh): {'; '.join(drifted)}"
        )


# --require-identical exclusions: the only report content allowed to differ
# between a serial and a multi-worker run of the same bench on the same
# machine. Wall-clock fields measure the host, not the simulation; the two
# env entries select the leg; every counter must match bit for bit.
WALL_ROW_KEYS = ("wallSeconds", "framesPerWallSecond")
WALL_METRIC_KEYS = ("profile",)
LEG_ENV_KEYS = ("MANET_THREADS", "MANET_BENCH_JSON")


def strip_wall_clock(doc: dict) -> dict:
    """Deep-copies `doc` minus wall-clock fields and the leg's env entries."""
    out = json.loads(json.dumps(doc))
    env = out.get("environment")
    if isinstance(env, dict) and isinstance(env.get("env"), dict):
        for key in LEG_ENV_KEYS:
            env["env"].pop(key, None)
    results = out.get("results")
    if isinstance(results, list):
        for row in results:
            if not isinstance(row, dict):
                continue
            for key in WALL_ROW_KEYS:
                row.pop(key, None)
            metrics = row.get("metrics")
            if isinstance(metrics, dict):
                for key in WALL_METRIC_KEYS:
                    metrics.pop(key, None)
    return out


def deep_diff(base, cand, path: str, out: list[str], limit: int = 40) -> None:
    """Collects human-readable paths of every difference (exact equality —
    floats included: both documents come from the same binary and platform,
    so thread-count independence means bit-equality, not closeness)."""
    if len(out) >= limit:
        return
    if isinstance(base, dict) and isinstance(cand, dict):
        for key in sorted(set(base) | set(cand)):
            where = f"{path}.{key}" if path else str(key)
            if key not in base:
                out.append(f"{where}: only in candidate")
            elif key not in cand:
                out.append(f"{where}: only in baseline")
            else:
                deep_diff(base[key], cand[key], where, out, limit)
    elif isinstance(base, list) and isinstance(cand, list):
        if len(base) != len(cand):
            out.append(f"{path}: length {len(base)} vs {len(cand)}")
            return
        for i, (b, c) in enumerate(zip(base, cand)):
            deep_diff(b, c, f"{path}[{i}]", out, limit)
    elif base != cand or type(base) is not type(cand):
        out.append(f"{path}: {base!r} != {cand!r}")


def compare_identical(base_path: Path, cand_path: Path) -> Comparison:
    """The zero-drift gate: reports must match exactly outside wall-clock."""
    cmp = Comparison(f"{base_path.name} == {cand_path.name}")
    base = load(base_path, cmp)
    cand = load(cand_path, cmp)
    if base is None or cand is None:
        return cmp
    if not check_schema(base, "baseline", cmp):
        return cmp
    if not check_schema(cand, "candidate", cmp):
        return cmp
    diffs: list[str] = []
    deep_diff(strip_wall_clock(base), strip_wall_clock(cand), "", diffs)
    for d in diffs:
        cmp.error(f"worker-count drift: {d}")
    return cmp


def compare_reports(base_path: Path, cand_path: Path) -> Comparison:
    cmp = Comparison(cand_path.name)
    base = load(base_path, cmp)
    cand = load(cand_path, cmp)
    if base is None or cand is None:
        return cmp
    if not check_schema(base, "baseline", cmp):
        return cmp
    if not check_schema(cand, "candidate", cmp):
        return cmp
    if base["schemaVersion"] != cand["schemaVersion"]:
        cmp.error(
            f"schemaVersion mismatch: baseline {base['schemaVersion']}, "
            f"candidate {cand['schemaVersion']} — refresh the baseline"
        )
        return cmp
    if base.get("bench") != cand.get("bench"):
        cmp.error(
            f"bench name mismatch: {base.get('bench')!r} vs "
            f"{cand.get('bench')!r}"
        )
        return cmp

    base_env, cand_env = repro_env(base), repro_env(cand)
    if base_env != cand_env:
        cmp.error(
            f"REPRO_* scale mismatch (reports not comparable): baseline "
            f"{base_env}, candidate {cand_env}"
        )
        return cmp

    base_rows = rows_by_label(base, "baseline", cmp)
    cand_rows = rows_by_label(cand, "candidate", cmp)
    if base_rows is None or cand_rows is None:
        return cmp

    missing = set(base_rows) - set(cand_rows)
    if missing:
        cmp.error(f"row label(s) missing from candidate: "
                  f"{', '.join(sorted(missing))}")
    extra = set(cand_rows) - set(base_rows)
    if extra:
        cmp.warn(f"new row label(s) not in baseline (additive, consider a "
                 f"baseline refresh): {', '.join(sorted(extra))}")

    for label in sorted(set(base_rows) & set(cand_rows)):
        base_row, cand_row = base_rows[label], cand_rows[label]
        absent = [k for k in REQUIRED_ROW_KEYS if k not in cand_row]
        if absent:
            cmp.error(f"row {label!r}: missing key(s) {', '.join(absent)}")
            continue
        compare_metrics(base_row, cand_row, label, cmp)
        compare_values(base_row, cand_row, label, cmp)
    return cmp


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*",
                    help="explicit BASELINE CANDIDATE pair")
    ap.add_argument("--baselines", type=Path,
                    help="directory of committed baseline reports")
    ap.add_argument("--candidates", type=Path,
                    help="directory of freshly produced reports")
    ap.add_argument("--require-identical", action="store_true",
                    help="hard-fail on ANY difference outside wall-clock "
                         "fields (the serial-vs-threads gate)")
    args = ap.parse_args(argv)

    pairs: list[tuple[Path, Path]] = []
    if args.files:
        if len(args.files) != 2 or args.baselines or args.candidates:
            ap.error("positional usage is exactly: BASELINE CANDIDATE")
        pairs.append((Path(args.files[0]), Path(args.files[1])))
    elif args.baselines and args.candidates:
        baselines = sorted(args.baselines.glob("BENCH_*.json"))
        if not baselines:
            print(f"compare_bench: no BENCH_*.json under {args.baselines}",
                  file=sys.stderr)
            return 2
        # A baseline without a fresh report fails inside compare_reports —
        # the trajectory must not silently stop being tracked.
        for base in baselines:
            pairs.append((base, args.candidates / base.name))
    else:
        ap.error("need either BASELINE CANDIDATE or --baselines/--candidates")

    failed = 0
    warned = 0
    for base, cand in pairs:
        if args.require_identical:
            cmp = compare_identical(base, cand)
        else:
            cmp = compare_reports(base, cand)
        cmp.emit()
        failed += len(cmp.errors)
        warned += len(cmp.warnings)

    n = len(pairs)
    if failed:
        what = "drift" if args.require_identical else "shape error"
        print(f"compare_bench: {failed} {what}(s) across {n} report(s)")
        return 1
    if args.require_identical:
        print(f"compare_bench: {n} report pair(s) identical outside "
              f"wall-clock fields")
    else:
        print(f"compare_bench: {n} report(s) comparable, {warned} warning(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
