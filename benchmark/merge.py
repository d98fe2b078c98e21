#!/usr/bin/env python3
"""Merge and compare benchmark runs (helper of run.sh).

merge <set> <workload>...   collect the last result line of every run into
                            benchmark/out/merged-<set>.json
compare <a> <b>             print, per (workload, end-to-end metric), the
                            relative difference of set b from set a in the
                            metric's worse direction against its bound;
                            exit 1 if any pair breaches it
"""
import json
import sys

OUT = "benchmark/out"


def last_json_line(path):
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    return json.loads(lines[-1])


def merge(name, workloads):
    merged = {}
    for w in workloads:
        merged[w] = {}
        for t in (0, 1):
            r = last_json_line(f"{OUT}/last-{w}-trace{t}.json")
            merged[w]["correct"] = merged[w].get("correct", True) and r["correct"]
            merged[w][f"attempted_trace{t}"] = r["attempted"]
            merged[w][f"failed_trace{t}"] = r["failed"]
            merged[w].setdefault("metrics", {}).update(r["metrics"])
    with open(f"{OUT}/merged-{name}.json", "w") as f:
        json.dump(merged, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {OUT}/merged-{name}.json")


def compare(a, b):
    spec = json.load(open("BENCHMARK.json"))
    ra = json.load(open(f"{OUT}/merged-{a}.json"))
    rb = json.load(open(f"{OUT}/merged-{b}.json"))
    breach = False
    print(f"{'workload':<18}{'metric':<24}{'set ' + a:>14}{'set ' + b:>14}{'worse by':>10}{'bound':>8}")
    for w in spec["workloads"]:
        name = w["name"]
        if not (ra[name]["correct"] and rb[name]["correct"]):
            print(f"{name:<18}incorrect answers in one of the sets")
            breach = True
        for m in spec["end_to_end"]:
            va = ra[name]["metrics"][m["name"]]["value"]
            vb = rb[name]["metrics"][m["name"]]["value"]
            worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            flag = ""
            if worse > m["bound"]:
                flag, breach = "  BREACH", True
            print(f"{name:<18}{m['name']:<24}{va:>14.6g}{vb:>14.6g}{100 * worse:>9.2f}%{100 * m['bound']:>7.0f}%{flag}")
    return 1 if breach else 0


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "merge":
        merge(sys.argv[2], sys.argv[3:])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
