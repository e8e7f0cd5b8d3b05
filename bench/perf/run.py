#!/usr/bin/env python3
"""Performance benchmark of the broadcast-storm simulator (README.md here).

Builds this directory's CMake project (the engine, fig13_overall and
perf_driver) into build/perf/, runs the named workloads as fresh processes
one at a time, checks every output digest, and prints the end-to-end
metrics (tracing off) or the per-layer metrics (one traced repetition).

  python3 bench/perf/run.py                  # every workload, 5 reps each
  python3 bench/perf/run.py --trace          # ... plus one traced rep each
  python3 bench/perf/run.py --seed 7         # held-out seed
  python3 bench/perf/run.py --smoke          # tiny scale, 1 rep, traced too
  python3 bench/perf/run.py --record         # rewrite reference/seed<N>.json
  python3 bench/perf/run.py --workload storm_dense --seed 3 --seconds 25 \\
      --trace 0                              # one workload, time-boxed; the
                                             # last stdout line is JSON

Metric names, units and bounds come from BENCHMARK.json at the repo root.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build" / "perf"
CMAKE_DIR = BUILD / "cmake"
TRACE_DIR = BUILD / "trace"
TMP = BUILD / "tmp"
REFERENCE = HERE / "reference"

# Round-robin order. "driver" workloads are one World inside perf_driver;
# fig13_e2e is the whole fig13_overall figure bench. Why each exists is in
# README.md.
WORKLOADS = ["storm_dense", "sparse_hello", "crowd_2000", "fig13_e2e"]
FIGURE = "fig13_e2e"
FIG13_BROADCASTS = {False: "20", True: "2"}  # by smoke
REP_TIMEOUT_S = 120.0
RUN_LIMIT_S = 170.0  # one --workload invocation must end within 180 s
REPS = 5  # per workload, without --workload
MIN_REPS = 3  # per --workload invocation
THREADS = min(len(os.sched_getaffinity(0)), 4)  # fig13_e2e and the build

RECEPTION_COUNTERS = [
    "phy.channel.delivered", "phy.channel.drop.collision",
    "phy.channel.drop.half_duplex", "phy.channel.drop.fault_loss",
    "phy.channel.drop.host_down",
]


class BenchError(Exception):
    """A failure that ends the run without a result."""


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


# --- statistics ---------------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def ratio(num, den):
    return num / den if den else 0.0


# --- environment and build -------------------------------------------------

def clean_env(extra=None):
    """The caller's environment minus every REPRO_*/MANET_* knob, plus
    exactly what a workload needs."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "MANET_"))}
    env.update(extra or {})
    return env


def read_cache():
    cache = {}
    path = CMAKE_DIR / "CMakeCache.txt"
    if path.is_file():
        for line in path.read_text().splitlines():
            if line.startswith(("#", "//")) or "=" not in line:
                continue
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    return cache


def check_build_config(cache):
    """Refuses anything but a plain optimised build."""
    problems = []
    if cache.get("CMAKE_BUILD_TYPE") != "RelWithDebInfo":
        problems.append(f"build type {cache.get('CMAKE_BUILD_TYPE')!r}")
    if cache.get("MANET_SANITIZE", ""):
        problems.append(f"sanitizer {cache['MANET_SANITIZE']!r}")
    if cache.get("MANET_AUDIT", "OFF").upper() not in ("OFF", "0", "FALSE"):
        problems.append("invariant auditor compiled in")
    flags = " ".join(v for k, v in cache.items()
                     if k.startswith(("CMAKE_CXX_FLAGS", "CMAKE_EXE_LINKER")))
    if "-fsanitize" in flags:
        problems.append("-fsanitize in the compiler or linker flags")
    if problems:
        raise BenchError("refusing to benchmark this build: "
                         + "; ".join(problems))


def build():
    for needed in ("src/CMakeLists.txt", "bench/fig13_overall.cpp"):
        if not (ROOT / needed).is_file():
            raise BenchError(f"{ROOT / needed} is missing; run from a full "
                             "checkout")
    # fig13_e2e's set-up ends at the figure's first stdout line, which a
    # pipe only delivers early when stdout is line-buffered.
    if not shutil.which("stdbuf"):
        raise BenchError("stdbuf (coreutils) is required")
    TMP.mkdir(parents=True, exist_ok=True)
    # Compiler temporaries stay in the build tree, and git (asked for the
    # sha by src/obs) never searches above the checkout.
    env = clean_env({"TMPDIR": str(TMP),
                     "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    log = BUILD / "build.log"
    with open(log, "w") as out:
        if not (CMAKE_DIR / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR)]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                raise BenchError(f"configure failed, see {log}")
        cmd = ["cmake", "--build", str(CMAKE_DIR), "-j", str(THREADS)]
        if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                          env=env).returncode != 0:
            raise BenchError(f"build failed, see {log}")
    cache = read_cache()
    check_build_config(cache)
    return cache


def manifest(cache):
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    sha = "unknown"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--short=12", "HEAD"], capture_output=True,
                             text=True).stdout.strip() or "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE"), "git_sha": sha,
            "loadavg_start": os.getloadavg()[0],
            "python": platform.python_version(),
            # compare.py checks that parent/change pairs alternate.
            "started_unix": time.time()}


# --- one repetition ---------------------------------------------------------------

def spawn(cmd, env, timeout, first_line=False):
    """Runs `cmd` as a fresh process. Returns its exit code, stdout, launch
    time (time.monotonic()), wall seconds, seconds to its first stdout line
    and resource usage."""
    TMP.mkdir(parents=True, exist_ok=True)
    with open(TMP / "stderr", "wb") as err:
        start = time.monotonic()
        # Its own process group, so a kill reaches the figure that
        # perf_driver --exec starts as well.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=env, start_new_session=True)
        expired = threading.Event()

        def kill_group():
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)

        def expire():
            expired.set()
            kill_group()

        killer = threading.Timer(max(timeout, 1.0), expire)
        killer.start()
        status = None
        try:
            head = proc.stdout.readline() if first_line else b""
            first = time.monotonic() - start
            # EOF comes once every process holding stdout has ended.
            out = head + proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
        finally:
            killer.cancel()
            if status is None:
                kill_group()
                os.wait4(proc.pid, 0)
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "timed_out": expired.is_set(), "stdout": out,
            "start": start, "wall": wall, "first": first, "usage": usage}


def run_rep(name, seed, smoke, traced, timeout, threads=THREADS,
            json_path=None):
    """One repetition. Returns its measurements, its output digest and, for
    traced perf_driver reps, its full report under "data"."""
    driver = str(CMAKE_DIR / "perf_driver")
    if name == FIGURE:
        # perf_driver --exec measures the figure's peak RSS (see there).
        cmd = [driver, "--exec", shutil.which("stdbuf"), "-oL",
               str(CMAKE_DIR / "fig13_overall")]
        if json_path:
            cmd += ["--json", str(json_path)]
        env = clean_env({"REPRO_BROADCASTS": FIG13_BROADCASTS[smoke],
                         "REPRO_SEED": str(seed),
                         "MANET_THREADS": str(threads)})
        p = spawn(cmd, env, timeout, first_line=True)
        rss = [line for line in (TMP / "stderr").read_text().splitlines()
               if line.startswith("perf_driver: peak_rss_kb=")]
        rep = {"wall_s": p["wall"], "setup_s": p["first"],
               "cpu_s": p["usage"].ru_utime + p["usage"].ru_stime,
               "digest": hashlib.sha256(p["stdout"]).hexdigest(),
               "peak_rss_mb": int(rss[-1].split("=")[1]) / 1024 if rss
               else 0.0}
    else:
        cmd = [driver, name, "--seed", str(seed)]
        cmd += ["--smoke"] * smoke + ["--trace"] * traced
        p = spawn(cmd, clean_env(), timeout)
        rep = {}
        if p["rc"] == 0:
            data = json.loads(p["stdout"])
            rep = {"wall_s": data["wall_s"], "cpu_s": data["cpu_s"],
                   # time.monotonic() and perf_driver's steady_clock are
                   # both CLOCK_MONOTONIC.
                   "setup_s": data["ready_mono_s"] - p["start"],
                   "peak_rss_mb": data["peak_rss_kb"] / 1024,
                   "digest": data["digest"], "data": data}
    rep["process_wall_s"] = p["wall"]
    rep["ok"] = p["rc"] == 0
    rep["why"] = ("timed out" if p["timed_out"] else
                  f"exit code {p['rc']}" if p["rc"] != 0 else "")
    return rep


def check_digest(rep, expected):
    """Marks a repetition failed when its digest differs from `expected`
    (a committed reference, or the first digest this invocation saw)."""
    if rep["ok"] and expected is not None and rep["digest"] != expected:
        rep["ok"] = False
        rep["why"] = f"digest {rep['digest'][:16]} != expected {expected[:16]}"
    return rep


def reference_digests(seed, smoke):
    path = REFERENCE / f"seed{seed}.json"
    if smoke or not path.is_file():
        return {}
    return json.loads(path.read_text())


# --- end-to-end summary -------------------------------------------------------------

def summarize(reps, e2e_specs):
    """Median, quartiles and n of every end-to-end metric over the
    successful reps, plus attempted/failed counts (failed_frac)."""
    good = [r for r in reps if r["ok"]]
    metrics = {}
    for spec in e2e_specs:
        values = [r[spec["name"]] for r in good]
        if values:
            q1, med, q3 = quartiles(values)
            metrics[spec["name"]] = {"median": med, "q1": q1, "q3": q3,
                                     "n": len(values), "unit": spec["unit"],
                                     "values": values}
    failed = len(reps) - len(good)
    return {"attempted": len(reps), "failed": failed,
            "failed_frac": ratio(failed, len(reps)),
            "failures": [r["why"] for r in reps if not r["ok"]],
            "metrics": metrics}


# --- traced repetition: per-layer metrics -------------------------------------------

def span_seconds(data, name):
    return sum(s["dur_s"] for s in data["spans"] if s["name"] == name)


def receptions(counters):
    return sum(counters[c] for c in RECEPTION_COUNTERS)


def reconcile_driver(data):
    """Counter identities of one traced World run; returns the mismatches."""
    c, ch = data["counters"], data["channel"]
    slices = [s["args"] for s in data["spans"] if s["name"] == "sim.run_slice"]
    checks = {
        "receptions == delivered + drops (channel totals)":
            (receptions(c), ch["delivered"] + ch["corrupted"] + ch["fault"]
             + ch["host_down"]),
        "phy.channel.delivered == channel delivered":
            (c["phy.channel.delivered"], ch["delivered"]),
        "collision + half_duplex == channel corrupted":
            (c["phy.channel.drop.collision"]
             + c["phy.channel.drop.half_duplex"], ch["corrupted"]),
        "phy.channel.tx == channel tx": (c["phy.channel.tx"], ch["tx"]),
        "scheduled == executed + cancelled + pending":
            (c["sim.scheduler.scheduled"], c["sim.scheduler.executed"]
             + c["sim.scheduler.cancelled"] + data["scheduler_pending"]),
        "traffic.offered == workload schedule":
            (c["traffic.offered"], data["schedule_size"]),
        "traffic.injected + blocked == offered":
            (c["traffic.injected"] + c["traffic.blocked.host_down"],
             c["traffic.offered"]),
        # The World counts traffic.injected; traffic.completed is folded in
        # only by experiment::runScenario, which perf_driver bypasses.
        "traffic.injected == summary broadcasts":
            (c["traffic.injected"], data["broadcasts"]),
        "sum of slice events == executed":
            (sum(a["events"] for a in slices), c["sim.scheduler.executed"]),
        "sum of slice frames == tx":
            (sum(a["frames"] for a in slices), c["phy.channel.tx"]),
    }
    return [f"{k}: {a} != {b}" for k, (a, b) in checks.items() if a != b]


def reconcile_figure(report):
    problems = []
    for row in report["results"]:
        c = row["metrics"]["counters"]
        checks = {
            "phy.channel.tx == framesTransmitted":
                (c["phy.channel.tx"], row["framesTransmitted"]),
            "phy.channel.delivered == framesDelivered":
                (c["phy.channel.delivered"], row["framesDelivered"]),
            "collision + half_duplex == framesCorrupted":
                (c["phy.channel.drop.collision"]
                 + c["phy.channel.drop.half_duplex"], row["framesCorrupted"]),
            "traffic.completed == broadcasts":
                (c["traffic.completed"], row["broadcasts"]),
            "traffic.offered == offeredBroadcasts":
                (c["traffic.offered"], row["offeredBroadcasts"]),
        }
        problems += [f"{row['label']}: {k}: {a} != {b}"
                     for k, (a, b) in checks.items() if a != b]
        done = c["sim.scheduler.executed"] + c["sim.scheduler.cancelled"]
        if done > c["sim.scheduler.scheduled"]:
            problems.append(f"{row['label']}: executed + cancelled > "
                            "scheduled")
    return problems


def probe_metrics(data):
    p = data["probes"]
    return {k: p[k] for k in (
        "sim.schedule_fire_ns", "phy.transmit_drain_us", "phy.ns_per_rx",
        "phy.grid_rebuild_us", "phy.range_query_ns", "mobility.position_ns",
        "net.table_query_ns", "core.decide_ns", "stats.bfs_us")}


def counter_metrics(c, g, run_s, tx_override=None):
    tx = c["phy.channel.tx"] if tx_override is None else tx_override
    rx = receptions(c)
    return {
        "sim.events_per_frame": ratio(c["sim.scheduler.executed"], tx),
        "sim.cancel_ratio": ratio(c["sim.scheduler.cancelled"],
                                  c["sim.scheduler.scheduled"]),
        "sim.queue_depth_hw": g["sim.scheduler.queue_depth_hw"],
        "sim.ns_per_event": ratio(run_s, c["sim.scheduler.executed"]) * 1e9,
        "phy.rx_per_frame": ratio(rx, tx),
        "phy.rx_useful_ratio": ratio(c["phy.channel.delivered"], rx),
        "phy.grid_rebuilds_per_frame": ratio(c["phy.grid.rebuilds"], tx),
        "phy.cells_scanned_per_query": ratio(c["phy.grid.cells_scanned"],
                                             c["phy.grid.queries"]),
        "mac.backoff_draws_per_frame": ratio(c["mac.backoff.draws"], tx),
        "net.hello_share": ratio(c["net.hello.tx"], tx),
        "net.neighbor_churn": c["net.neighbor.joins"]
                              + c["net.neighbor.leaves"],
    }


def driver_layers(rep, untraced_wall):
    data = rep["data"]
    run_s = span_seconds(data, "sim.run")
    build_s = span_seconds(data, "experiment.build")
    begin_s = span_seconds(data, "experiment.begin_run")
    cell = build_s + begin_s + run_s
    layers = counter_metrics(data["counters"], data["gauges"], run_s)
    layers.update(probe_metrics(data))
    layers.update({
        "stats.bfs_share": layers["stats.bfs_us"] * 1e-6
                           * data["broadcasts"] / run_s,
        "experiment.build_ms": build_s * 1e3,
        "experiment.begin_run_ms": begin_s * 1e3,
        "experiment.cell_wall_sum_s": cell,
        "experiment.cell_wall_max_s": cell,
        # One cell on one thread: the share of the traced process's
        # non-probe time spent inside the cell.
        "experiment.parallel_efficiency":
            ratio(cell, rep["process_wall_s"]
                  - span_seconds(data, "probes")),
        "alloc.per_frame": ratio(data["allocations_run"],
                                 data["counters"]["phy.channel.tx"]),
        "trace.overhead_frac": ratio(run_s, untraced_wall) - 1.0,
    })
    return layers


def figure_layers(report, process_wall, cell_rep, untraced_wall):
    """fig13_e2e: counters and spans from the traced --json report (all 48
    cells); probes, allocations and begin_run from a traced driver run of
    the figure's first cell."""
    rows = report["results"]
    counters, gauges = {}, {}
    for row in rows:
        for k, v in row["metrics"]["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, v in row["metrics"]["gauges"].items():
            gauges[k] = max(gauges.get(k, 0), v)

    def scope(name):
        return sum(r["metrics"]["profile"].get(name, {}).get(
            "totalSeconds", 0.0) for r in rows)

    walls = [r["wallSeconds"] for r in rows]
    cell = cell_rep["data"]
    layers = counter_metrics(counters, gauges, scope("scenario.run"))
    layers.update(probe_metrics(cell))
    layers.update({
        "stats.bfs_share": layers["stats.bfs_us"] * 1e-6
                           * sum(r["broadcasts"] for r in rows) / sum(walls),
        "experiment.build_ms": scope("scenario.build") * 1e3,
        "experiment.begin_run_ms": span_seconds(cell, "experiment.begin_run")
                                   * 1e3,
        "experiment.cell_wall_sum_s": sum(walls),
        "experiment.cell_wall_max_s": max(walls),
        "experiment.parallel_efficiency":
            ratio(sum(walls), process_wall * THREADS),
        "alloc.per_frame": ratio(cell["allocations_run"],
                                 cell["counters"]["phy.channel.tx"]),
        "trace.overhead_frac": ratio(process_wall, untraced_wall) - 1.0,
    })
    return layers


def write_chrome_trace(path, data, extra=()):
    spans = data["spans"]
    events = []
    for s in spans:
        args = dict(s["args"])
        if s["parent"] >= 0:
            args["parent"] = spans[s["parent"]]["name"]
        events.append({"name": s["name"], "ph": "X", "pid": 1, "tid": 1,
                       "ts": s["start_s"] * 1e6, "dur": s["dur_s"] * 1e6,
                       "args": args})
    events.extend(extra)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))


def traced_rep(name, seed, smoke, expected, untraced_wall, deadline):
    """One traced repetition. Returns (layers, problems); every problem
    fails the run."""
    problems = []

    def timeout():
        return min(REP_TIMEOUT_S, deadline - time.monotonic())

    trace_path = TRACE_DIR / f"{name}.json"
    if name != FIGURE:
        rep = check_digest(run_rep(name, seed, smoke, True, timeout()),
                           expected)
        if not rep["ok"]:
            return {}, [f"traced rep: {rep['why']}"]
        problems += reconcile_driver(rep["data"])
        write_chrome_trace(trace_path, rep["data"])
        return driver_layers(rep, untraced_wall), problems

    report_path = TRACE_DIR / f"{name}.report.json"
    report_path.parent.mkdir(parents=True, exist_ok=True)
    rep = check_digest(run_rep(name, seed, smoke, True, timeout(),
                               json_path=report_path), expected)
    serial = check_digest(run_rep(name, seed, smoke, False, timeout(),
                                  threads=1), expected)
    cell = run_rep("fig13_cell", seed, smoke, True, timeout())
    for label, r in (("traced rep", rep), ("MANET_THREADS=1 rep", serial),
                     ("fig13_cell traced rep", cell)):
        if not r["ok"]:
            problems.append(f"{label}: {r['why']}")
    if problems:
        return {}, problems
    report = json.loads(report_path.read_text())
    problems += reconcile_figure(report)
    problems += [f"fig13_cell: {p}" for p in reconcile_driver(cell["data"])]
    write_chrome_trace(trace_path, cell["data"], extra=[{
        "name": "fig13_overall", "ph": "X", "pid": 2, "tid": 1, "ts": 0,
        "dur": rep["process_wall_s"] * 1e6,
        "args": {"cells": len(report["results"]), "threads": THREADS}}])
    return figure_layers(report, rep["process_wall_s"], cell,
                         untraced_wall), problems


# --- modes ----------------------------------------------------------------------

def check_layer_names(layers, spec):
    names = [m["name"] for m in spec["per_layer"]]
    if sorted(layers) != sorted(names):
        raise BenchError("per-layer metrics out of step with BENCHMARK.json: "
                         f"{sorted(set(layers) ^ set(names))}")


def measure_workload(name, seed, seconds, smoke, trace, spec):
    """--workload mode: untraced reps until `seconds` are used (at least
    MIN_REPS), then optionally one traced rep. The build before it is not
    counted against RUN_LIMIT_S."""
    deadline = time.monotonic() + RUN_LIMIT_S
    expected = reference_digests(seed, smoke).get(name)
    reps = []
    began = time.monotonic()
    while True:
        timeout = min(REP_TIMEOUT_S, deadline - time.monotonic())
        if timeout <= 0:
            break
        rep = check_digest(run_rep(name, seed, smoke, False, timeout),
                           expected)
        reps.append(rep)
        if expected is None and rep["ok"]:
            expected = rep["digest"]
        elapsed = time.monotonic() - began
        typical = statistics.median(r["process_wall_s"] for r in reps)
        if len(reps) >= MIN_REPS and elapsed + typical > seconds:
            break
    summary = summarize(reps, spec["end_to_end"])
    result = {"workload": name, "seed": seed, "smoke": smoke,
              "summary": summary}
    if trace:
        wall = summary["metrics"].get("wall_s", {}).get("median", 0.0)
        layers, problems = traced_rep(name, seed, smoke, expected, wall,
                                      deadline)
        result.update(layers=layers, problems=problems)
    return result


def contract_line(result, spec, trace):
    summary = result["summary"]
    correct = summary["failed"] == 0 and not result.get("problems")
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in result.get("layers", {}).items()}
        correct = correct and len(metrics) == len(units)
    else:
        metrics = {m["name"]: {"value": summary["metrics"][m["name"]]["median"],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"] if m["name"] in
                   summary["metrics"]}
        correct = correct and len(metrics) == len(spec["end_to_end"])
    return {"correct": correct, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def full_run(args, spec):
    """Every workload, round-robin, fresh process per rep."""
    refs = reference_digests(args.seed, args.smoke)
    expected = {w: refs.get(w) for w in WORKLOADS}
    reps = {w: [] for w in WORKLOADS}
    n = 1 if args.smoke else REPS
    for _ in range(n):
        for w in WORKLOADS:
            rep = check_digest(run_rep(w, args.seed, args.smoke, False,
                                       REP_TIMEOUT_S), expected[w])
            reps[w].append(rep)
            if expected[w] is None and rep["ok"]:
                expected[w] = rep["digest"]
    results = {}
    for w in WORKLOADS:
        summary = summarize(reps[w], spec["end_to_end"])
        results[w] = {"summary": summary, "digest": expected[w]}
        if args.trace or args.smoke:
            wall = summary["metrics"].get("wall_s", {}).get("median", 0.0)
            layers, problems = traced_rep(w, args.seed, args.smoke,
                                          expected[w], wall, float("inf"))
            results[w].update(layers=layers, problems=problems)
    return results


def print_tables(results, spec):
    print(f"{'workload':<13} {'metric':<12} {'unit':<6} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'n':>3}")
    for w, r in results.items():
        s = r["summary"]
        for m in spec["end_to_end"]:
            v = s["metrics"].get(m["name"])
            if v:
                print(f"{w:<13} {m['name']:<12} {m['unit']:<6} "
                      f"{v['median']:>11.5g} {v['q1']:>11.5g} "
                      f"{v['q3']:>11.5g} {v['n']:>3}")
        print(f"{w:<13} {'failed_frac':<12} {'ratio':<6} "
              f"{s['failed_frac']:>11.5g} {'':>11} {'':>11} "
              f"{s['attempted']:>3}")
        for why in s["failures"]:
            print(f"  FAILED: {why}")
    if any("layers" in r for r in results.values()):
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"\n{'per-layer metric':<32} {'unit':<6} "
              + " ".join(f"{w:>13}" for w in results))
        for name in units:
            cells = [r.get("layers", {}).get(name) for r in results.values()]
            print(f"{name:<32} {units[name]:<6} " + " ".join(
                f"{c:>13.5g}" if c is not None else f"{'-':>13}"
                for c in cells))
        for w, r in results.items():
            for p in r.get("problems", []):
                print(f"  {w}: RECONCILIATION FAILED: {p}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="measure one workload for --seconds and print the "
                         "result as a JSON last line")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float,
                    help="measuring time of --workload (default: "
                         "BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1], help="add one traced rep per workload "
                                         "and report per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny scale: 1 rep, traced vs untraced digests")
    ap.add_argument("--record", action="store_true",
                    help="write reference/seed<SEED>.json from one rep each")
    ap.add_argument("--out", type=Path, default=BUILD / "result.json",
                    help="where to write the result set")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seed >= 2 ** 63:
        ap.error("--seed must be in [0, 2^63)")
    try:
        spec = load_spec()
        cache = build()
        env_manifest = manifest(cache)
        if args.record:
            digests = {}
            for w in WORKLOADS:
                rep = run_rep(w, args.seed, False, False, REP_TIMEOUT_S)
                if not rep["ok"]:
                    raise BenchError(f"{w}: {rep['why']}")
                digests[w] = rep["digest"]
            REFERENCE.mkdir(exist_ok=True)
            path = REFERENCE / f"seed{args.seed}.json"
            path.write_text(json.dumps(digests, indent=2) + "\n")
            print(f"wrote {path}")
            return 0
        if args.workload:
            seconds = args.seconds or spec["run_seconds"]
            result = measure_workload(args.workload, args.seed, seconds,
                                      args.smoke, bool(args.trace), spec)
            if args.trace and not result["problems"]:
                check_layer_names(result["layers"], spec)
            results = {args.workload: result}
        else:
            results = full_run(args, spec)
            for r in results.values():
                if "layers" in r and not r["problems"]:
                    check_layer_names(r["layers"], spec)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"manifest": env_manifest, "seed": args.seed, "smoke": args.smoke,
         "workloads": results}, indent=1) + "\n")
    print_tables(results, spec)
    if args.workload:
        line = contract_line(results[args.workload], spec, bool(args.trace))
        print(json.dumps(line))
        return 0 if line["correct"] else 1
    ok = all(r["summary"]["failed"] == 0 and not r.get("problems")
             for r in results.values())
    print(f"\nresult set: {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
