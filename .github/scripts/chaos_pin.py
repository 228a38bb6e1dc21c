"""Pins a fresh seeded chaos result to the committed one.

Usage: chaos_pin.py KIND COMMITTED FRESH

KIND names what must reproduce:
  reliability  every row of `data` in BENCH_reliability.json;
  recovery     every field of `data` in BENCH_recovery.json except the
               three replay_* timings;
  forensics    `live_digest` in results/forensics.json.

The chaos runs are pure functions of their seeds, at every thread count,
so a difference means the recovering-epoch semantics moved. A change
that moves them on purpose re-commits these files with the new values.
"""

import json
import sys

TIMINGS = {"replay_ms", "replay_records_per_sec", "replay_mb_per_sec"}


def pinned(kind, path):
    data = json.load(open(path))["data"]
    if kind == "reliability":
        return {row["scenario"]: row for row in data}
    if kind == "recovery":
        return {k: v for k, v in data.items() if k not in TIMINGS}
    if kind == "forensics":
        return {"live_digest": data["live_digest"]}
    sys.exit(f"unknown kind {kind!r}\n{__doc__}")


def main(kind, committed_path, fresh_path):
    committed = pinned(kind, committed_path)
    fresh = pinned(kind, fresh_path)
    moved = sorted(k for k in committed.keys() | fresh.keys()
                   if committed.get(k) != fresh.get(k))
    for k in moved:
        print(f"{kind}: {k} moved: {committed.get(k)} -> {fresh.get(k)}")
    print(f"{kind}: {len(committed) - len(moved)} of {len(committed)} pinned "
          f"entries reproduce the committed file (gate: all)")
    if moved:
        sys.exit(f"committed {kind} results not reproduced")


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    main(*sys.argv[1:])
