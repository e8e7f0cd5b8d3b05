#!/usr/bin/env python3
"""Tests `compare_bench.py` (DESIGN.md §10.4).

Writes pairs of synthetic bench reports to a temporary directory and runs
the `--require-identical` gate on each: reports that differ only in
wall-clock fields (`wallSeconds`, `framesPerWallSecond`, the metrics
`profile` section) or only in the leg's `MANET_THREADS` echo must pass; a
single counter differing by 1, a counter the candidate no longer has, a
differing `schemaVersion` and a differing `REPRO_BROADCASTS` echo must each
fail. In `--baselines` mode, a candidate that only ran 3x slower must pass
without a warning.

Usage: test_compare_bench.py
Exit status: 0 every case behaved, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

COMPARE = Path(__file__).resolve().with_name("compare_bench.py")


def report() -> dict:
    row = {
        "label": "1x1/flooding",
        "scheme": "flooding",
        "seed": 42,
        "re": 0.97,
        "srb": 0.01,
        "latencySeconds": 0.05,
        "hellosPerHostPerSecond": 0,
        "broadcasts": 5,
        "offeredBroadcasts": 5,
        "framesTransmitted": 480,
        "framesDelivered": 9000,
        "framesCorrupted": 36000,
        "simulatedSeconds": 20.5,
        "wallSeconds": 0.25,
        "framesPerWallSecond": 1920.0,
        "metrics": {
            "counters": {
                "sim.scheduler.executed": 27000,
                "engine.alloc.event.slabs": 1,
                "traffic.completed": 5,
            },
            "gauges": {"sim.scheduler.queue_depth_hw": 120},
            "histograms": {},
            "profile": {"scenario.run": {"calls": 1, "totalSeconds": 0.24}},
        },
    }
    return {
        "schema": "manet.bench-report",
        "schemaVersion": 2,
        "bench": "synthetic",
        "environment": {"gitSha": "0", "env": {"MANET_THREADS": "1",
                                              "REPRO_BROADCASTS": "5"}},
        "results": [row],
    }


def wall_clock_only(doc: dict) -> None:
    row = doc["results"][0]
    row["wallSeconds"] = 0.5
    row["framesPerWallSecond"] = 960.0
    row["metrics"]["profile"]["scenario.run"]["totalSeconds"] = 0.49


def three_times_slower(doc: dict) -> None:
    doc["results"][0]["wallSeconds"] *= 3


def one_counter(doc: dict) -> None:
    doc["results"][0]["metrics"]["counters"]["sim.scheduler.executed"] += 1


def counter_dropped(doc: dict) -> None:
    del doc["results"][0]["metrics"]["counters"]["traffic.completed"]


def schema_bumped(doc: dict) -> None:
    doc["schemaVersion"] += 1


def threads_echo(doc: dict) -> None:
    doc["environment"]["env"]["MANET_THREADS"] = "4"


def scale_echo(doc: dict) -> None:
    doc["environment"]["env"]["REPRO_BROADCASTS"] = "20"


# (name, edit applied to the candidate, expected exit status)
CASES = (
    ("wall-clock fields only pass", wall_clock_only, 0),
    ("one counter off by 1 fails", one_counter, 1),
    ("baseline-only counter key fails", counter_dropped, 1),
    ("schemaVersion mismatch fails", schema_bumped, 1),
    ("MANET_THREADS echo only passes", threads_echo, 0),
    ("REPRO_BROADCASTS echo mismatch fails", scale_echo, 1),
)


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="compare_bench_test_") as tmp:
        base = Path(tmp) / "base.json"
        base.write_text(json.dumps(report()), encoding="utf-8")
        for name, edit, expected in CASES:
            cand_doc = report()
            edit(cand_doc)
            cand = Path(tmp) / "cand.json"
            cand.write_text(json.dumps(cand_doc), encoding="utf-8")
            proc = subprocess.run(
                [sys.executable, str(COMPARE), "--require-identical",
                 str(base), str(cand)],
                capture_output=True, text=True, check=False)
            if proc.returncode == expected:
                print(f"ok   {name}")
            else:
                failures += 1
                print(f"FAIL {name}: exit {proc.returncode}, want {expected}")
                print(proc.stdout, end="")

        # --baselines mode: wall time measures the host, not the simulation.
        baselines, candidates = Path(tmp) / "base", Path(tmp) / "cand"
        baselines.mkdir()
        candidates.mkdir()
        name = "BENCH_synthetic.json"
        (baselines / name).write_text(json.dumps(report()), encoding="utf-8")
        slower = report()
        three_times_slower(slower)
        (candidates / name).write_text(json.dumps(slower), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(COMPARE), "--baselines", str(baselines),
             "--candidates", str(candidates)],
            capture_output=True, text=True, check=False)
        if proc.returncode == 0 and "0 warning(s)" in proc.stdout:
            print("ok   3x wallSeconds passes --baselines without a warning")
        else:
            failures += 1
            print(f"FAIL 3x wallSeconds under --baselines: exit "
                  f"{proc.returncode}")
            print(proc.stdout, end="")
    if failures:
        print(f"test_compare_bench: {failures} case(s) failed")
        return 1
    print(f"test_compare_bench: {len(CASES) + 1} case(s) passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
