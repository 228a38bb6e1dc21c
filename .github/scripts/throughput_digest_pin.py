"""Pins a fresh BENCH_throughput.json to the committed one.

Usage: throughput_digest_pin.py COMMITTED FRESH

The other digest checks compare configurations with each other (threads,
prewarm), so a change that moved every digest the same way would pass
them all. This check pins the committed file instead: every row the
fresh run shares with the committed file (keyed by section, n, layout,
threads, prewarmed) must keep its result_digest, and at least 13 rows
must be shared. A `repro throughput --seed 42 --max-n 10000` run at the
default 20 epochs (the committed file's epoch count) shares at least 13
rows with N <= 10k: the 3 serial sweep rows, 4 scale and 6 prewarm rows.
The committed file was written on 2 cores, so a run on 2 or more cores
also shares its 3 two-thread sweep rows.
"""

import json
import sys

MIN_SHARED = 13


def rows(path):
    data = json.load(open(path))["data"]
    out = {}
    for section in ("sweep", "scale", "prewarm"):
        for r in data[section]:
            key = (section, r.get("n"), r.get("layout"), r["threads"],
                   r.get("prewarmed"))
            out[key] = r["result_digest"]
    return out


def main(committed_path, fresh_path):
    committed = rows(committed_path)
    fresh = rows(fresh_path)
    shared = sorted(set(committed) & set(fresh), key=str)
    moved = [k for k in shared if committed[k] != fresh[k]]
    for k in moved:
        print(f"digest moved: {k}: {committed[k]} -> {fresh[k]}")
    print(f"{len(shared) - len(moved)} of {len(shared)} shared rows reproduce "
          f"their committed digest (gate: all, and at least {MIN_SHARED} shared)")
    if moved or len(shared) < MIN_SHARED:
        sys.exit("committed throughput digests not reproduced")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
