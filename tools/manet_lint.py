#!/usr/bin/env python3
"""Unit/identity type-safety lint (DESIGN.md §13).

PR 8 split `sim::Time` into `sim::TimePoint`/`sim::Duration` and wrapped
identities in `util::TaggedId` (net::HostId, net::BroadcastSeq, the
scheduler's EventSlot/EventGen). The compiler now rejects unit and identity
confusion — but only while code keeps using the strong types. This lint
guards the three regression channels that would quietly reopen the holes:

  U1  raw-unit parameters: a function parameter of raw integral type whose
      name matches `*_us`, `*_time`, or `*_id` in src/ — the naming says
      "this is a duration/timestamp/identity" while the type says "any
      integer"; the parameter must take sim::Duration / sim::TimePoint / a
      TaggedId instead. (Swapped-argument and seconds-vs-microseconds bugs
      compile silently through such parameters.)
  U2  tag-family casts: `static_cast` whose target is one of the strong
      types (TimePoint, Duration, HostId, BroadcastSeq, EventSlot,
      EventGen, or any util::TaggedId instantiation). A static_cast
      launders any integer — including a *different* tag's raw value —
      into the target family. Construct from a checked source instead
      (brace-init from the raw rep at a genuine boundary is fine and
      greppable; a cast is not).
  U3  .ticks() escapes: reading a TimePoint/Duration back out as a raw
      microsecond count outside the sanctioned homes (serialization,
      reports, audit, and the time/RNG seams themselves). Every other
      site must stay inside the algebra; a raw read is where unit bugs
      re-enter.

Engines: when the libclang python bindings and a compile_commands.json are
available the checks run on the clang AST (exact parameter types, exact
cast targets, member-call resolution). The CI container and the dev image
ship only libclang-cpp (no python bindings), so the default engine is a
pure-python lexical pass over the same rules: it strips comments/strings
and matches declaration-context patterns. The lexical engine is the one the
blocking gate runs; the AST engine is a strictly-more-precise drop-in that
activates automatically where bindings exist (`--engine ast` to force).

Escape hatch (same grammar as lint_determinism): a genuine boundary site
carries, on the same or the preceding line:

    // NOLINT-units(reason why the raw value is correct here)

A bare NOLINT-units without a reason is itself an error.

Usage: manet_lint.py [--root DIR] [--engine auto|ast|lexical] [PATHS...]
       manet_lint.py --self-test   (prove every rule fires on violating TUs)
Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile
from pathlib import Path

# Homes sanctioned to read raw ticks (U3): serialization, reports, audit,
# and the seams that define/transform time itself. Directories end with /.
TICKS_ALLOWED = (
    "src/sim/time.hpp",      # the algebra's own definition
    "src/sim/random.cpp",    # draw transforms scale raw tick counts
    "src/trace/writer.cpp",  # trace serialization writes integers
    "src/audit/",            # invariant messages print raw clocks
    "src/obs/",              # metrics registry / run reports serialize
    "src/ckpt/",             # state digests fold raw tick counts
)

# Strong-type names whose static_cast construction is banned (U2).
TAG_TYPES = (
    "TimePoint",
    "Duration",
    "HostId",
    "BroadcastSeq",
    "EventSlot",
    "EventGen",
    "TaggedId",
)

# Raw integral type spellings for U1's parameter check.
RAW_INTEGRAL = (
    r"(?:std::)?u?int(?:8|16|32|64)_t|(?:std::)?size_t|"
    r"(?:unsigned\s+)?(?:long\s+)?long|unsigned(?:\s+int)?|int|short"
)

SUPPRESS = re.compile(r"//\s*NOLINT-units\((?P<reason>[^)]*)\)")
LINE_COMMENT = re.compile(r"//.*$")

# U1: inside a parameter-ish context — after '(' or ',' — a raw integral
# type followed by an identifier with a unit/identity suffix. References
# and cv-qualifiers are part of the same hazard (const int64_t& delay_us).
U1_PARAM = re.compile(
    r"[(,]\s*(?:const\s+)?(?:" + RAW_INTEGRAL + r")\s*[&]?\s+"
    r"(?P<name>\w*_(?:us|time|id))\s*(?:[,)=]|$)"
)
# U2: static_cast to a tag family, qualified or not.
U2_CAST = re.compile(
    r"static_cast\s*<\s*(?:const\s+)?(?:[\w:]+::)?(?:"
    + "|".join(TAG_TYPES)
    + r")\s*[<>&]?"
)
# U3: member access .ticks() / ->ticks().
U3_TICKS = re.compile(r"(?:\.|->)\s*ticks\s*\(\s*\)")


def github_annotations_enabled() -> bool:
    return os.environ.get("GITHUB_ACTIONS", "") == "true"


def emit(rel: str, line: int, msg: str) -> None:
    print(f"{rel}:{line}: {msg}")
    if github_annotations_enabled():
        print(f"::error file={rel},line={line}::manet_lint: {msg}")


def ticks_allowed(rel: str) -> bool:
    return any(
        rel.startswith(p) if p.endswith("/") else rel == p
        for p in TICKS_ALLOWED
    )


def strip_strings(line: str) -> str:
    return re.sub(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'', '""', line)


def suppressed(lines: list[str], idx: int, findings: list) -> bool:
    """True when line idx (0-based) carries a reasoned suppression."""
    for probe in (idx, idx - 1):
        if probe < 0:
            continue
        m = SUPPRESS.search(lines[probe])
        if m:
            if not m.group("reason").strip():
                findings.append((probe + 1, "NOLINT-units without a reason"))
            return True
    return False


# --------------------------------------------------------------- lexical


def lint_file_lexical(path: Path, rel: str) -> list[tuple[int, str]]:
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.split("\n")
    findings: list[tuple[int, str]] = []

    for idx, raw in enumerate(lines):
        code = strip_strings(LINE_COMMENT.sub("", raw))
        if not code.strip():
            continue

        def report(msg: str) -> None:
            if not suppressed(lines, idx, findings):
                findings.append((idx + 1, msg))

        m = U1_PARAM.search(code)
        if m:
            report(
                f"U1 raw integral parameter '{m.group('name')}' — a name "
                "with a unit/identity suffix must take sim::Duration / "
                "sim::TimePoint / a TaggedId, not a bare integer"
            )
        if U2_CAST.search(code):
            report(
                "U2 static_cast into a strong type family — casts launder "
                "any integer across tag families; construct from a checked "
                "source (or brace-init the raw rep at a real boundary)"
            )
        if U3_TICKS.search(code) and not ticks_allowed(rel):
            report(
                "U3 raw .ticks() read outside sanctioned homes "
                "(serialization/reports/audit) — stay inside the "
                "TimePoint/Duration algebra or justify with NOLINT-units"
            )

    return findings


# ------------------------------------------------------------------ AST


def lint_file_ast(path: Path, rel: str, index, compdb) -> list[tuple[int, str]]:
    """libclang engine: same rules, resolved on the AST."""
    from clang import cindex

    args = ["-std=c++20", "-Isrc"]
    if compdb is not None:
        cmds = compdb.getCompileCommands(str(path))
        if cmds:
            got = [a for a in list(cmds[0].arguments)[1:-1] if a != "-c"]
            if got:
                args = got
    tu = index.parse(str(path), args=args)
    lines = path.read_text(encoding="utf-8", errors="replace").split("\n")
    findings: list[tuple[int, str]] = []

    def in_this_file(cursor) -> bool:
        loc = cursor.location
        return loc.file is not None and Path(loc.file.name).resolve() == path.resolve()

    def report(cursor, msg: str) -> None:
        idx = cursor.location.line - 1
        if not suppressed(lines, idx, findings):
            findings.append((cursor.location.line, msg))

    integral_kinds = {
        k for k in dir(cindex.TypeKind) if k.startswith(("INT", "UINT", "LONG",
                                                         "ULONG", "SHORT",
                                                         "USHORT", "CHAR"))
    }

    def walk(cursor) -> None:
        for c in cursor.get_children():
            if not in_this_file(c):
                continue
            k = c.kind
            if k == cindex.CursorKind.PARM_DECL:
                name = c.spelling or ""
                if re.search(r"_(us|time|id)$", name):
                    canon = c.type.get_canonical()
                    if canon.kind.name in integral_kinds:
                        report(c, f"U1 raw integral parameter '{name}'")
            elif k == cindex.CursorKind.CXX_STATIC_CAST_EXPR:
                target = c.type.spelling
                if any(t in target for t in TAG_TYPES):
                    report(c, "U2 static_cast into a strong type family")
            elif k == cindex.CursorKind.CXX_METHOD or k == cindex.CursorKind.CALL_EXPR:
                if c.spelling == "ticks" and not ticks_allowed(rel):
                    report(c, "U3 raw .ticks() read outside sanctioned homes")
            walk(c)

    walk(tu.cursor)
    return findings


def ast_engine_available() -> bool:
    try:
        from clang import cindex  # noqa: F401

        cindex.Index.create()
        return True
    except Exception:
        return False


# ------------------------------------------------------------ self-test

# One violating TU per rule; each MUST produce exactly the named finding,
# and the suppressed twin must not. This is the ctest proof that every
# rule actually fires (ISSUE 8 acceptance).
SELF_TEST_CASES = [
    (
        "U1",
        "void schedule(long delay_us);\n",
        "U1",
    ),
    (
        "U1-suppressed",
        "// NOLINT-units(FFI boundary: caller is C code)\n"
        "void schedule(long delay_us);\n",
        None,
    ),
    (
        "U2",
        "auto h = static_cast<net::HostId>(index);\n",
        "U2",
    ),
    (
        "U2-qualified-duration",
        "auto d = static_cast<sim::Duration>(raw);\n",
        "U2",
    ),
    (
        "U3",
        "long raw = deadline.ticks();\n",
        "U3",
    ),
    (
        "U3-suppressed",
        "long raw = deadline.ticks();  // NOLINT-units(metric sample)\n",
        None,
    ),
    (
        "bare-nolint-is-error",
        "long raw = deadline.ticks();  // NOLINT-units()\n",
        "NOLINT-units without a reason",
    ),
    (
        "clean",
        "void schedule(sim::Duration delay);\n"
        "net::HostId h{raw};\n",
        None,
    ),
]


def self_test() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as td:
        for name, code, expect in SELF_TEST_CASES:
            tu = Path(td) / f"{name}.cpp"
            tu.write_text(code)
            findings = lint_file_lexical(tu, f"src/selftest/{name}.cpp")
            fired = [msg for _, msg in findings]
            if expect is None:
                if fired:
                    print(f"self-test FAIL [{name}]: unexpected {fired}")
                    failures += 1
            elif not any(expect in msg for msg in fired):
                print(f"self-test FAIL [{name}]: wanted '{expect}', got {fired}")
                failures += 1
    if failures:
        print(f"manet_lint --self-test: {failures} case(s) failed")
        return 1
    print(f"manet_lint --self-test: OK ({len(SELF_TEST_CASES)} cases)")
    return 0


# ---------------------------------------------------------------- driver


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None, help="repo root (default: auto)")
    ap.add_argument(
        "--engine",
        choices=("auto", "ast", "lexical"),
        default="auto",
        help="analysis engine (auto: AST when libclang bindings exist)",
    )
    ap.add_argument("--self-test", action="store_true",
                    help="run the rule-firing proof and exit")
    ap.add_argument("paths", nargs="*", help="files/dirs to lint")
    args = ap.parse_args(argv)

    if args.self_test:
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
            print(f"manet_lint: no such path: {t}", file=sys.stderr)
            return 2

    engine = args.engine
    if engine == "auto":
        engine = "ast" if ast_engine_available() else "lexical"
    if engine == "ast" and not ast_engine_available():
        print("manet_lint: libclang python bindings unavailable", file=sys.stderr)
        return 2

    index = compdb = None
    if engine == "ast":
        from clang import cindex

        index = cindex.Index.create()
        try:
            compdb = cindex.CompilationDatabase.fromDirectory(
                str(root / "build")
            )
        except cindex.CompilationDatabaseError:
            compdb = None

    total = 0
    for f in files:
        try:
            rel = f.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = f.as_posix()
        if engine == "ast" and f.suffix == ".cpp":
            findings = lint_file_ast(f, rel, index, compdb)
        else:
            findings = lint_file_lexical(f, rel)
        for line, msg in findings:
            emit(rel, line, msg)
            total += 1

    if total:
        print(f"manet_lint[{engine}]: {total} finding(s) in {len(files)} files")
        return 1
    print(f"manet_lint[{engine}]: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
