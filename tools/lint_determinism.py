#!/usr/bin/env python3
"""Determinism lint (DESIGN.md §9).

The simulator's contract is bit-identical runs from a single seed (DESIGN.md
§5): every random draw flows from sim::Rng streams, and no observable value
may depend on wall clock, address-space layout, or thread identity. This
lint statically bans the hazard classes that have historically broken that
contract in DES codebases:

  H1  ambient entropy:   rand()/srand(), std::random_device, time(),
                         clock(), gettimeofday, std::chrono::*_clock::now
                         outside src/sim/random* (the one sanctioned seam)
  H2  unordered iteration: range-for / begin() iteration over a variable
                         declared as std::unordered_map/unordered_set in the
                         same file — iteration order is stdlib-specific, so
                         anything it feeds (output, RNG draws, event
                         scheduling) varies across platforms
  H3  unseeded shuffle:  std::random_shuffle (ambient RNG) or std::shuffle
                         whose engine argument is constructed inline from
                         ambient entropy
  H4  thread identity:   std::this_thread::get_id, pthread_self,
                         omp_get_thread_num outside src/experiment/parallel*
                         (the sweep runner may partition by thread; results
                         must not)
  H5  address order:     std::map/std::set (and their unordered cousins)
                         keyed on raw pointers — the iteration order (for
                         ordered) or bucket layout (for unordered) follows
                         the allocator's address assignment, which varies
                         run to run under ASLR and changed with the §11
                         slab/arena work; key on stable ids instead
  H6  stdlib randomness: <random> engines and distributions
                         (std::mt19937, std::uniform_int_distribution,
                         std::exponential_distribution, ...) outside
                         src/sim/random. Distribution output is
                         implementation-defined — the standard pins the
                         engine sequences but not the distribution
                         algorithms, so draws differ across stdlibs. All
                         subsystem randomness (traffic arrivals included)
                         goes through sim::Rng, whose transforms are owned
                         by this repo.

Escape hatch: a site that is genuinely order-insensitive (e.g. cancelling
timers, erasing from the same container) carries

    // NOLINT-determinism(reason why order/entropy cannot be observed)

on the same or the preceding line. A bare NOLINT-determinism without a
reason is itself an error — the reason is the review artifact.

Usage: lint_determinism.py [--root DIR] [PATHS...]   (default: <repo>/src)
       lint_determinism.py --self-test
Exit status: 0 clean, 1 findings, 2 usage error.

--self-test lints a synthetic fixture tree instead of the repo: one file
per hazard class that must fire, plus one file per sanctioned home and
suppression form that must stay clean. CI runs it before the real lint so
a regex regression can't silently turn the lint into a no-op.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile
from pathlib import Path

# Files allowed to touch ambient entropy (H1): the RNG seam itself.
ENTROPY_ALLOWED = ("src/sim/random",)
# Files allowed wall-clock reads (H1 chrono): measurement-only call sites —
# wall-clock throughput in RunResult and the obs profiling scopes (src/obs/profile is the sanctioned steady_clock home; all
# other code times itself through obs::ProfileScope rather than reading a
# clock directly). Simulation state must never depend on them. A site
# outside these files that must read a clock carries a reasoned
# `// NOLINT-determinism(...)` instead of widening this list — the list is
# for homes whose whole purpose is measurement, the escape hatch is for
# exceptional single sites.
WALLCLOCK_ALLOWED = (
    "src/experiment/runner",
    "src/obs/profile",
)
# Files allowed thread-identity logic (H4): the parallel sweep partitioner,
# the one home where pool plumbing may legitimately need identity-adjacent
# calls. Results must not depend on which OS thread ran a chunk.
THREAD_ALLOWED = ("src/experiment/parallel",)
# Homes allowed to iterate unordered containers (H2): fingerprint capture
# (DESIGN.md §14) reads every container once, collect-then-sort by a stable
# key, so state fingerprints never depend on hash iteration order. The
# pattern is pervasive there; one home beats NOLINT scattering.
H2_SORTED_ALLOWED = ("src/ckpt/",)

SUPPRESS = re.compile(r"//\s*NOLINT-determinism\((?P<reason>[^)]*)\)")
LINE_COMMENT = re.compile(r"//.*$")

H1_ENTROPY = re.compile(
    r"(?<![\w:])(?:std::)?(?:random_device\b|s?rand\s*\(|rand_r\s*\()"
)
H1_WALLCLOCK = re.compile(
    r"(?<![\w:])(?:std::)?(?:time\s*\(\s*(?:NULL|nullptr|0|&)|"
    r"clock\s*\(\s*\)|gettimeofday\s*\(|clock_gettime\s*\()"
    r"|std::chrono::(?:system|steady|high_resolution)_clock::now"
)
H2_DECL = re.compile(
    r"(?:std::)?unordered_(?:map|set)\s*<[^;()]*?>\s*\n?\s*(?P<name>\w+)\s*"
    r"(?:;|=|\{)"
)
H3_RANDOM_SHUFFLE = re.compile(r"(?<![\w:])(?:std::)?random_shuffle\s*\(")
H3_INLINE_ENGINE = re.compile(
    r"(?<![\w:])(?:std::)?shuffle\s*\([^;]*?(?:std::)?"
    r"(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine)\s*[({]"
)
H4_THREAD_ID = re.compile(
    r"std::this_thread::get_id|pthread_self\s*\(|omp_get_thread_num\s*\("
)
# A map/set whose FIRST template argument is a pointer type (`T*`,
# `const T*`, including template-ids like `Foo<int>*`). Matching stops at
# the first comma so pointer-valued maps (`map<Id, Node*>`) stay legal —
# values never drive iteration order.
H5_PTR_KEYED = re.compile(
    r"(?<![\w:])(?:std::)?(?:unordered_)?(?:map|set|multimap|multiset)\s*<"
    r"\s*(?:const\s+)?[\w:]+(?:<[^<>,]*>)?\s*(?:const\s*)?\*"
)
# Homes sanctioned to key on addresses (must prove order-insensitivity some
# other way). Deliberately empty: src currently has none, and a new one
# should be a reviewed NOLINT-determinism site, not a silent list entry.
PTR_KEY_ALLOWED: tuple[str, ...] = ()
# <random> engines and distributions (H6). The engine names overlap H3's
# inline-shuffle check; H6 bans them anywhere outside the RNG seam, shuffled
# or not.
H6_STD_RANDOM = re.compile(
    r"(?<![\w:])(?:std::)?(?:mt19937(?:_64)?|minstd_rand0?|"
    r"ranlux(?:24|48)(?:_base)?|knuth_b|default_random_engine|"
    r"(?:uniform_(?:int|real)|normal|lognormal|exponential|poisson|"
    r"bernoulli|binomial|geometric|gamma|weibull|cauchy|chi_squared|"
    r"student_t|fisher_f|discrete|piecewise_(?:constant|linear))"
    r"_distribution)\s*[<({]"
)


def allowed(rel: str, prefixes: tuple[str, ...]) -> bool:
    return any(rel.startswith(p) for p in prefixes)


def strip_strings(line: str) -> str:
    """Blanks out string/char literals so banned names inside text don't trip."""
    return re.sub(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'', '""', line)


def suppressed(lines: list[str], idx: int, findings: list) -> bool:
    """True when line idx (0-based) carries a reasoned suppression."""
    for probe in (idx, idx - 1):
        if probe < 0:
            continue
        m = SUPPRESS.search(lines[probe])
        if m:
            if not m.group("reason").strip():
                findings.append(
                    (probe + 1, "NOLINT-determinism without a reason")
                )
            return True
    return False


def lint_file(path: Path, rel: str) -> list[tuple[int, str]]:
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.split("\n")
    findings: list[tuple[int, str]] = []

    # H2 needs the file's unordered-container variable names first. Scan the
    # raw text so multi-line declarations are caught; a .cpp also inherits
    # the declarations of its companion header (members live in the .hpp,
    # the iteration in the .cpp).
    decl_text = text
    companion = path.with_suffix(".hpp")
    if path.suffix == ".cpp" and companion.is_file():
        decl_text += companion.read_text(encoding="utf-8", errors="replace")
    unordered_names = set(m.group("name") for m in H2_DECL.finditer(decl_text))
    unordered_names.discard("")
    h2_iter = (
        re.compile(
            r"for\s*\([^;)]*:\s*(?:\w+(?:\.|->))?(?P<n>"
            + "|".join(sorted(unordered_names))
            + r")\s*\)"
            r"|(?P<m>" + "|".join(sorted(unordered_names)) + r")\s*\.\s*"
            r"c?begin\s*\("
        )
        if unordered_names
        else None
    )

    for idx, raw in enumerate(lines):
        code = strip_strings(LINE_COMMENT.sub("", raw))
        if not code.strip():
            continue

        def report(msg: str) -> None:
            if not suppressed(lines, idx, findings):
                findings.append((idx + 1, msg))

        if H1_ENTROPY.search(code) and not allowed(rel, ENTROPY_ALLOWED):
            report("H1 ambient entropy (use a sim::Rng stream)")
        if H1_WALLCLOCK.search(code) and not allowed(rel, WALLCLOCK_ALLOWED):
            report("H1 wall-clock read (simulation state must use sim::Time)")
        if (h2_iter is not None and h2_iter.search(code)
                and not allowed(rel, H2_SORTED_ALLOWED)):
            report(
                "H2 iteration over unordered container (order is "
                "stdlib-specific; sort first or justify with "
                "NOLINT-determinism)"
            )
        if H3_RANDOM_SHUFFLE.search(code):
            report("H3 std::random_shuffle (ambient RNG; use an Rng stream)")
        if H3_INLINE_ENGINE.search(code):
            report("H3 shuffle with inline-constructed engine (seed it from "
                   "a sim::Rng stream)")
        if H4_THREAD_ID.search(code) and not allowed(rel, THREAD_ALLOWED):
            report("H4 thread-identity-dependent logic")
        if H5_PTR_KEYED.search(code) and not allowed(rel, PTR_KEY_ALLOWED):
            report(
                "H5 pointer-keyed map/set (iteration follows address-space "
                "layout; key on a stable id, or justify with "
                "NOLINT-determinism)"
            )
        if H6_STD_RANDOM.search(code) and not allowed(rel, ENTROPY_ALLOWED):
            report(
                "H6 <random> engine/distribution (implementation-defined "
                "output; draw through sim::Rng instead)"
            )

    return findings


# --self-test fixtures: (relative path, source, expected message fragments).
# An empty expectation list means the file must lint clean — those cases pin
# the sanctioned homes (ENTROPY/WALLCLOCK/THREAD/H2 allowed lists) and the
# reasoned-NOLINT escape hatch. Non-empty lists are hazards that must fire;
# every fragment must appear in some finding (extra findings are fine — the
# inline-engine shuffle legitimately trips H3 and H6 at once).
SELF_TEST_CASES: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("src/net/h1_entropy.cpp", "int x = rand();\n",
     ("H1 ambient entropy",)),
    ("src/net/h1_wallclock.cpp",
     "auto t = std::chrono::steady_clock::now();\n",
     ("H1 wall-clock read",)),
    # The worker pool's thread-identity exemption is not a clock exemption.
    ("src/experiment/parallel.cpp",
     "auto t = std::chrono::steady_clock::now();\n",
     ("H1 wall-clock read",)),
    ("src/net/h2_iteration.cpp",
     "std::unordered_map<int, int> table;\n"
     "void f() { for (auto& kv : table) { (void)kv; } }\n",
     ("H2 iteration over unordered container",)),
    ("src/net/h3_shuffle.cpp",
     "void f() { std::random_shuffle(v.begin(), v.end()); }\n",
     ("H3 std::random_shuffle",)),
    ("src/net/h3_engine.cpp",
     "void f() { std::shuffle(v.begin(), v.end(), std::mt19937(7)); }\n",
     ("H3 shuffle with inline-constructed engine",)),
    ("src/net/h4_thread_id.cpp",
     "auto id = std::this_thread::get_id();\n",
     ("H4 thread-identity",)),
    # The event engine is single-threaded: no thread-identity exemption.
    ("src/sim/scheduler.cpp",
     "auto id = std::this_thread::get_id();\n",
     ("H4 thread-identity",)),
    ("src/net/h5_ptr_key.cpp", "std::map<Node*, int> byAddress;\n",
     ("H5 pointer-keyed map/set",)),
    ("src/net/h6_distribution.cpp",
     "std::uniform_int_distribution<int> d(0, 9);\n",
     ("H6 <random> engine/distribution",)),
    ("src/net/bare_nolint.cpp",
     "int x = rand();  // NOLINT-determinism()\n",
     ("NOLINT-determinism without a reason",)),
    # Clean: the reasoned escape hatch and every sanctioned home.
    ("src/net/reasoned_nolint.cpp",
     "int x = rand();  // NOLINT-determinism(fixture seeds a test vector)\n",
     ()),
    ("src/sim/random.cpp",
     "std::mt19937 engine(seed);\nint x = rand();\n", ()),
    ("src/experiment/parallel.cpp",
     "auto id = std::this_thread::get_id();\n", ()),
    ("src/ckpt/state_access.cpp",
     "std::unordered_map<int, int> table;\n"
     "void f() { for (auto& kv : table) { (void)kv; } }\n",
     ()),
    ("src/obs/profile.cpp",
     "auto t = std::chrono::steady_clock::now();\n", ()),
)


def self_test() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="lint_selftest_") as tmp:
        root = Path(tmp)
        for rel, source, expected in SELF_TEST_CASES:
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
            findings = lint_file(path, rel)
            messages = [msg for _, msg in findings]
            problems: list[str] = []
            if expected:
                for fragment in expected:
                    if not any(fragment in m for m in messages):
                        problems.append(f"expected {fragment!r}, "
                                        f"got {messages!r}")
            elif messages:
                problems.append(f"expected clean, got {messages!r}")
            if problems:
                failures += 1
                for p in problems:
                    print(f"self-test FAIL {rel}: {p}")
            else:
                print(f"self-test ok   {rel}")
    if failures:
        print(f"lint_determinism --self-test: {failures} case(s) failed")
        return 1
    print(f"lint_determinism --self-test: "
          f"{len(SELF_TEST_CASES)} case(s) passed")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None, help="repo root (default: auto)")
    ap.add_argument("--self-test", action="store_true",
                    help="lint synthetic fixtures proving every hazard "
                         "class fires and every sanctioned home is honored")
    ap.add_argument("paths", nargs="*", help="files/dirs to lint")
    args = ap.parse_args(argv)

    if args.self_test:
        if args.paths or args.root:
            ap.error("--self-test takes no paths")
        return self_test()

    root = Path(args.root) if args.root else Path(__file__).resolve().parents[1]
    targets = [Path(p) for p in args.paths] or [root / "src"]

    files: list[Path] = []
    for t in targets:
        if t.is_dir():
            files.extend(sorted(t.rglob("*.cpp")) + sorted(t.rglob("*.hpp")))
        elif t.is_file():
            files.append(t)
        else:
            print(f"lint_determinism: no such path: {t}", file=sys.stderr)
            return 2

    total = 0
    for f in files:
        try:
            rel = f.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = f.as_posix()
        for line, msg in lint_file(f, rel):
            print(f"{rel}:{line}: {msg}")
            if os.environ.get("GITHUB_ACTIONS", "") == "true":
                # Inline PR annotation; the plain line above stays for
                # local runs and the job log.
                print(f"::error file={rel},line={line}"
                      f"::lint_determinism: {msg}")
            total += 1

    if total:
        print(f"lint_determinism: {total} finding(s) in {len(files)} files")
        return 1
    print(f"lint_determinism: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
