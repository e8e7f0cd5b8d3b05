#!/usr/bin/env python3
"""Compares two sets of benchmark results: the parent commit's and a change's.

  python3 bench/perf/compare.py --parent p1.json p2.json ... \\
      --change c1.json c2.json ... [--claim wall_s@storm_dense]

Each file is a result set written by run.py (--out). Files pair up in the
order given: parent i with change i, and the two sides of consecutive pairs
must have run in alternating order. A set's median is one run of its side.
With two sets or more per side the spread is taken over those medians;
with one set per side, over that set's per-rep values.

The rules (choosing-metrics, section 8):
  * a claimed metric counts as a gain only over at least 10 alternating
    pairs, when the change wins at least 9/10 of them (ties count for
    neither) and the medians differ by more than the parent's spread (the
    distance between its quartiles);
  * every other (metric, workload) must stay within its BENCHMARK.json bound
    (setup_s: and at least SETUP_FLOOR_S), or reads "unresolved" when the
    parent's own spread is wider than the bound, unless every change run
    beats every parent run;
  * failed_frac must not rise.

Prints one row per workload; exits 1 on a regression or an unmet claim.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import WORKLOADS, load_spec, quartiles  # noqa: E402

# setup_s is a few ms from process launch; below this much its change is
# launch jitter, not cost.
SETUP_FLOOR_S = 0.0005
MIN_PAIRS = 10
WIN_SHARE = 0.9


def worse_by(value, base, better):
    """How much worse `value` is than `base` (negative when better)."""
    return value - base if better == "lower" else base - value


def allowance(metric, parent_median):
    """Absolute worsening a metric may show before it counts as a regression."""
    allowed = metric["bound"] * abs(parent_median)
    if metric["name"] == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    return allowed


def bound_verdict(metric, parent_runs, change_runs):
    """'ok', 'better', 'unresolved' or 'REGRESSED' for one (metric,
    workload), plus the relative change of the medians."""
    p_q1, p_med, p_q3 = quartiles(parent_runs)
    _, c_med, _ = quartiles(change_runs)
    allowed = allowance(metric, p_med)
    rel = (c_med - p_med) / p_med if p_med else 0.0
    if p_q3 - p_q1 > allowed:
        if all(worse_by(c, p, metric["better"]) < 0
               for c in change_runs for p in parent_runs):
            return "better", rel
        return "unresolved", rel
    if worse_by(c_med, p_med, metric["better"]) > allowed:
        return "REGRESSED", rel
    return "ok", rel


def claim_verdict(metric, parent_runs, change_runs, alternating):
    """The gain rule for the claimed (metric, workload); runs pair up by
    index. Returns (met, why)."""
    pairs = list(zip(parent_runs, change_runs))
    wins = sum(worse_by(c, p, metric["better"]) < 0 for p, c in pairs)
    p_q1, p_med, p_q3 = quartiles(parent_runs)
    _, c_med, _ = quartiles(change_runs)
    gap = -worse_by(c_med, p_med, metric["better"])
    why = (f"{wins}/{len(pairs)} pairs won, medians {p_med:.6g} -> "
           f"{c_med:.6g}, parent spread {p_q3 - p_q1:.6g}")
    if len(pairs) < MIN_PAIRS:
        return False, f"only {len(pairs)} pairs (need {MIN_PAIRS}); {why}"
    if not alternating:
        return False, f"pairs did not alternate which side ran first; {why}"
    if wins < WIN_SHARE * len(pairs):
        return False, why
    if gap <= p_q3 - p_q1:
        return False, f"medians differ by no more than the spread; {why}"
    return True, why


def failure_verdict(parent_sets, change_sets, workload):
    def frac(sets):
        attempted = sum(s["workloads"][workload]["summary"]["attempted"]
                        for s in sets)
        failed = sum(s["workloads"][workload]["summary"]["failed"]
                     for s in sets)
        return failed / attempted if attempted else 0.0

    p, c = frac(parent_sets), frac(change_sets)
    return ("REGRESSED" if c > p else "ok"), p, c


def alternates(parent_sets, change_sets):
    """True when consecutive pairs swap which side started first."""
    firsts = [p["manifest"]["started_unix"] < c["manifest"]["started_unix"]
              for p, c in zip(parent_sets, change_sets)]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def runs(sets, workload, metric):
    """Each set's median of `metric`, or None when a set lacks it (every rep
    of the workload failed)."""
    medians = [s["workloads"][workload]["summary"]["metrics"].get(metric)
               for s in sets]
    return None if None in medians else [m["median"] for m in medians]


def samples(sets, workload, metric):
    """What a side's spread is taken over for the bound check: each set's
    median when there are two sets or more, else the one set's per-rep
    values (a single median has no spread)."""
    if len(sets) > 1:
        return runs(sets, workload, metric)
    m = sets[0]["workloads"][workload]["summary"]["metrics"].get(metric)
    return None if m is None else m["values"]


def compare(parent_sets, change_sets, spec, claim=None):
    """Returns (rows, claim_result, ok); rows are printable per workload."""
    workloads = [w for w in WORKLOADS
                 if all(w in s["workloads"] for s in parent_sets + change_sets)]
    rows, ok, claim_result = [], True, None
    alternating = alternates(parent_sets, change_sets)
    for w in workloads:
        cells = []
        for metric in spec["end_to_end"]:
            claimed = claim == (metric["name"], w)
            pick = runs if claimed else samples
            p_runs = pick(parent_sets, w, metric["name"])
            c_runs = pick(change_sets, w, metric["name"])
            if p_runs is None or c_runs is None:
                cells.append(f"{metric['name']} missing")
                ok = False
                continue
            if claimed:
                met, why = claim_verdict(metric, p_runs, c_runs, alternating)
                claim_result = (met, why)
                ok = ok and met
                cells.append(f"{metric['name']} {'GAIN' if met else 'no gain'}")
                continue
            status, rel = bound_verdict(metric, p_runs, c_runs)
            ok = ok and status != "REGRESSED"
            cells.append(f"{metric['name']} {status} {rel:+.1%}")
        status, p, c = failure_verdict(parent_sets, change_sets, w)
        ok = ok and status == "ok"
        cells.append(f"failed_frac {status} {p:.3g}->{c:.3g}")
        rows.append((w, cells))
    if claim is not None and claim_result is None:
        claim_result = (False, f"no data for {claim[0]}@{claim[1]}")
        ok = False
    return rows, claim_result, ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--parent", nargs="+", type=Path, required=True)
    ap.add_argument("--change", nargs="+", type=Path, required=True)
    ap.add_argument("--claim", help="metric@workload the change claims to "
                                    "improve, e.g. wall_s@storm_dense")
    args = ap.parse_args(argv)
    if len(args.parent) != len(args.change):
        ap.error("--parent and --change need the same number of result sets")
    claim = tuple(args.claim.split("@", 1)) if args.claim else None
    if claim is not None and len(claim) != 2:
        ap.error("--claim takes metric@workload")
    spec = load_spec()
    parent = [json.loads(p.read_text()) for p in args.parent]
    change = [json.loads(c.read_text()) for c in args.change]
    rows, claim_result, ok = compare(parent, change, spec, claim)
    print(f"{len(parent)} pair(s); order "
          f"{'alternates' if alternates(parent, change) else 'does not alternate'}")
    for workload, cells in rows:
        print(f"{workload:<13} " + " | ".join(cells))
    if claim_result is not None:
        met, why = claim_result
        print(f"claim {args.claim}: {'MET' if met else 'NOT MET'} ({why})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
