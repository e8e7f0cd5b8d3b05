#!/usr/bin/env python3
"""Inspect a .mckpt checkpoint container (DESIGN.md §14).

Walks the TLV container with nothing but the tag table: verifies the magic,
the format version, and every per-section FNV-1a payload digest, then prints
a section listing with sizes. The META section (anchor/horizon tick pair) and
the HOST section's count prefix are decoded and pretty-printed; everything
else is reported by tag, length, and digest status only — the binary layouts
live in src/ckpt/image.cpp and this tool deliberately does not mirror them.

Usage: ckpt_inspect.py FILE.mckpt [FILE2.mckpt ...]
Exit status: 0 all files well-formed, 1 any corruption/mismatch, 2 usage.
"""

from __future__ import annotations

import struct
import sys

MAGIC = b"MCKPT1\n"
FORMAT_VERSION = 2  # src/ckpt/io.hpp kFormatVersion

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
FNV_MASK = (1 << 64) - 1

# Known section tags, in encoder order (src/ckpt/image.cpp). An unknown tag
# is listed as `unknown(tag, len)` but is NOT a problem: the container is
# designed for forward-compatible appends (a newer encoder may add sections
# this tool predates), and its digest is still verified. Only a *missing*
# known section or a digest mismatch fails the exit status.
KNOWN_TAGS = {
    "CFG0": "resolved ScenarioConfig",
    "META": "anchor/horizon timestamps",
    "SCHD": "scheduler heap image",
    "CHAN": "channel counters + per-node state",
    "TRAF": "traffic cursor, schedule, churn ledgers",
    "FALT": "fault-injection chains",
    "STAT": "metrics collector + obs registry",
    "HOST": "per-host protocol state",
}


def fnv1a(payload: bytes) -> int:
    h = FNV_OFFSET
    for b in payload:
        h = ((h ^ b) * FNV_PRIME) & FNV_MASK
    return h


def ticks_to_seconds(ticks: int) -> float:
    return ticks / 1e6  # one tick == one simulated microsecond


def inspect(path: str) -> int:
    """Prints a report for one file; returns the number of problems found."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        print(f"{path}: unreadable: {e}")
        return 1

    problems = 0
    print(f"{path}: {len(data)} bytes")

    if data[: len(MAGIC)] != MAGIC:
        print(f"  BAD magic {data[:len(MAGIC)]!r} (want {MAGIC!r})")
        return 1
    pos = len(MAGIC)
    if len(data) < pos + 4:
        print("  truncated before version field")
        return 1
    (version,) = struct.unpack_from("<I", data, pos)
    pos += 4
    ok = "ok" if version == FORMAT_VERSION else f"UNSUPPORTED (tool knows {FORMAT_VERSION})"
    print(f"  magic ok, version {version} {ok}")
    if version != FORMAT_VERSION:
        problems += 1

    sections: dict[str, bytes] = {}
    while pos < len(data):
        if len(data) - pos < 4 + 8:
            print(f"  truncated section header at offset {pos}")
            return problems + 1
        tag = data[pos : pos + 4].decode("ascii", errors="replace")
        (length,) = struct.unpack_from("<Q", data, pos + 4)
        pos += 12
        if len(data) - pos < length + 8:
            print(
                f"  section {tag}: truncated (need {length + 8} bytes "
                f"at offset {pos}, have {len(data) - pos})"
            )
            return problems + 1
        payload = data[pos : pos + length]
        (stored,) = struct.unpack_from("<Q", data, pos + length)
        pos += length + 8
        computed = fnv1a(payload)
        status = "digest ok" if computed == stored else (
            f"DIGEST MISMATCH (stored {stored:016x}, computed {computed:016x})"
        )
        if computed != stored:
            problems += 1
        note = KNOWN_TAGS.get(tag)
        if note is None:
            note = f"unknown({tag}, {length})"
        print(f"  {tag}  {length:>8} bytes  {status}  -- {note}")
        sections[tag] = payload

    meta = sections.get("META")
    if meta is not None and len(meta) == 16:
        anchor, horizon = struct.unpack("<qq", meta)
        print(
            f"  anchor t={ticks_to_seconds(anchor):.6f}s of "
            f"{ticks_to_seconds(horizon):.6f}s horizon"
        )
    elif meta is not None:
        print(f"  META payload has {len(meta)} bytes (want 16)")
        problems += 1
    host = sections.get("HOST")
    if host is not None and len(host) >= 8:
        (count,) = struct.unpack_from("<Q", host, 0)
        print(f"  hosts: {count}")
    missing = sorted(set(KNOWN_TAGS) - set(sections))
    if missing:
        print(f"  MISSING sections: {', '.join(missing)}")
        problems += 1
    return problems


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    total = 0
    for path in argv:
        total += inspect(path)
    if total:
        print(f"ckpt_inspect: {total} problem(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
