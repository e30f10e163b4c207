#!/usr/bin/env python3
"""Compare two benchmark result files (perfbench/out/result-*.json).

    python3 perfbench/compare.py BASE.json NEW.json

Prints every metric with its relative change. Exits 1 when an exact
count (the result's "exact" list) differs, or when the two results are
for different workloads or seeds: those counts repeat exactly for one
seed, so a difference means the program computes something else.
"""

import json
import sys


def metrics(result):
    merged = {}
    for key in ("end_to_end", "per_layer"):
        merged.update(result.get(key) or {})
    return merged


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        base = json.load(f)
    with open(sys.argv[2]) as f:
        new = json.load(f)
    for key in ("workload", "seed"):
        if base["meta"][key] != new["meta"][key]:
            print(f"different {key}: {base['meta'][key]} vs {new['meta'][key]}")
            sys.exit(1)
    exact = set(base.get("exact", [])) | set(new.get("exact", []))
    a, b = metrics(base), metrics(new)
    moved = []
    for name in a:
        if name not in b:
            continue
        va, vb, unit = a[name]["value"], b[name]["value"], a[name]["unit"]
        change = f"{(vb - va) / va:+.1%}" if va else ("same" if vb == va else "new")
        tag = ""
        if name in exact:
            tag = "exact" if va == vb else "EXACT COUNT MOVED"
            if va != vb:
                moved.append(name)
        print(f"{name:28s} {va:14.6g} -> {vb:14.6g} {unit:6s} {change:>8s} {tag}")
    for key in ("train_hash", "test_hash", "flow_fingerprint"):
        ha, hb = base["info"].get(key), new["info"].get(key)
        print(f"{key:28s} {ha} -> {hb} {'same' if ha == hb else 'DIFFERENT'}")
    if moved:
        print("exact counts moved: " + ", ".join(moved))
        sys.exit(1)


if __name__ == "__main__":
    main()
