#!/usr/bin/env python3
"""Compare two sets of BENCH JSON files emitted by ddc_driver.

Usage:
    tools/bench_compare.py BASELINE_DIR CANDIDATE_DIR [--threshold=R]
                           [--key=full|base] [--metrics[=N]]

Pairs files by (scenario, method), prints per-pair throughput ratios
(candidate / baseline, > 1 is faster) plus p50/p99 update-latency ratios,
and a geometric-mean summary per method. A key present on only one side is
reported as a missing pair and not compared; directories with entirely
non-overlapping method sets are legal input (every key reports as missing
and the run says so instead of crashing or silently passing).

--metrics[=N] adds a report of the v3 `metrics` sections: for every metric
name present in both sides of a pair it computes the candidate/baseline
ratio, aggregates per name across pairs (geometric mean), and prints the N
(default 10) largest relative shifts in either direction. Purely
informational — it never affects the exit status; pairs or sides without a
metrics section are skipped.

--key=base pairs on the method's *base name* (the spec before ':'), for
comparing runs of one method at different knob settings — e.g. a
bench/sharded shards=1 directory against a shards=8 directory. With
--key=base each directory must hold at most one spec per (scenario, base
name); duplicates abort.

Exit status: 0 on a normal report, 1 when --threshold is given and a pair
falls below it, 2 on unusable input (no files, no comparable pairs, or
unreadable documents). The default CI wiring runs without a threshold as a
non-blocking report.
"""

import argparse
import json
import math
import sys
from pathlib import Path


# Every field this tool reads exists unchanged in all three versions, so
# the committed v1 and v2 trajectory dirs compare against v3 candidates
# transparently: v2 only added read-side fields (run.query_threads,
# run.reader_*, latency_us.reader_query), v3 run.interrupted and a metrics
# section.
ACCEPTED_SCHEMAS = (1, 2, 3)


def load_bench_dir(path, key_mode):
    """(scenario, method-key) -> parsed BENCH document."""
    docs = {}
    for f in sorted(Path(path).glob("BENCH_*.json")):
        try:
            with open(f) as fh:
                doc = json.load(fh)
            schema = doc["schema_version"]
            scenario = doc["scenario"]
            method = doc["method"]
            doc["run"]["throughput_ops_per_sec"]
            doc["workload"]["num_updates"]
        except (json.JSONDecodeError, KeyError, TypeError) as err:
            print(f"skipping {f}: not a valid BENCH document ({err})",
                  file=sys.stderr)
            continue
        if schema not in ACCEPTED_SCHEMAS:
            print(f"skipping {f}: schema_version {schema} not in "
                  f"{ACCEPTED_SCHEMAS}", file=sys.stderr)
            continue
        if key_mode == "base":
            method = method.split(":", 1)[0]
        key = (scenario, method)
        if key in docs:
            print(f"{f}: duplicate key {key} under --key={key_mode}; "
                  "keep one spec per (scenario, method) and directory",
                  file=sys.stderr)
            sys.exit(2)
        docs[key] = doc
    return docs


def latency_quantile(doc, op, q):
    hist = doc.get("latency_us", {}).get(op)
    if not hist or not hist.get("count"):
        return None
    return hist.get(q)


def fmt_ratio(r):
    return "     n/a" if r is None else f"{r:7.2f}x"


def report_metric_shifts(base, cand, common, top_n):
    """Top-N relative shifts across the pairs' v3 `metrics` sections.

    Informational only: counters that doubled or latency quantiles that
    collapsed stand out here long before they move the throughput gate.
    """
    ratios = {}  # metric name -> [candidate/baseline ratio per pair]
    for key in common:
        bm = base[key].get("metrics")
        cm = cand[key].get("metrics")
        if not isinstance(bm, dict) or not isinstance(cm, dict):
            continue
        for name in bm.keys() & cm.keys():
            b, c = bm[name], cm[name]
            if not isinstance(b, (int, float)) or not isinstance(c, (int, float)):
                continue
            if b > 0 and c > 0:
                ratios.setdefault(name, []).append(c / b)

    print()
    if not ratios:
        print("metric shifts: no overlapping numeric metrics "
              "(need schema v3 on both sides)")
        return
    shifts = []
    for name, rs in ratios.items():
        geo = math.exp(sum(math.log(r) for r in rs) / len(rs))
        shifts.append((abs(math.log(geo)), geo, name, len(rs)))
    shifts.sort(reverse=True)

    print(f"top {min(top_n, len(shifts))} metric shifts "
          f"(candidate/baseline geomean, {len(ratios)} comparable metrics; "
          "informational)")
    for _, geo, name, pairs in shifts[:top_n]:
        print(f"  {name:<44} {geo:9.3f}x over {pairs} pair(s)")


def main():
    parser = argparse.ArgumentParser(
        description="Diff two BENCH JSON directories.")
    parser.add_argument("baseline", help="directory with baseline BENCH_*.json")
    parser.add_argument("candidate",
                        help="directory with candidate BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=None,
                        help="fail if any throughput ratio is below this")
    parser.add_argument("--key", choices=("full", "base"), default="full",
                        help="pair on the full method spec (default) or on "
                             "the base method name before ':'")
    parser.add_argument("--metrics", nargs="?", type=int, const=10,
                        default=None, metavar="N",
                        help="also report the top-N relative shifts in the "
                             "v3 metrics sections (default N=10; never "
                             "affects the exit status)")
    args = parser.parse_args()

    base = load_bench_dir(args.baseline, args.key)
    cand = load_bench_dir(args.candidate, args.key)
    if not base:
        print(f"no BENCH_*.json files in {args.baseline}", file=sys.stderr)
        return 2
    if not cand:
        print(f"no BENCH_*.json files in {args.candidate}", file=sys.stderr)
        return 2

    common = sorted(base.keys() & cand.keys())
    only_base = sorted(base.keys() - cand.keys())
    only_cand = sorted(cand.keys() - base.keys())

    print(f"baseline : {args.baseline} ({len(base)} files)")
    print(f"candidate: {args.candidate} ({len(cand)} files)")
    print()
    header = (f"{'scenario':<16} {'method':<16} {'thru-ratio':>10} "
              f"{'p50-upd':>8} {'p99-upd':>8}  note")
    print(header)
    print("-" * len(header))

    failures = []
    per_method = {}
    for key in common:
        scenario, method = key
        b, c = base[key], cand[key]
        bt = b["run"]["throughput_ops_per_sec"]
        ct = c["run"]["throughput_ops_per_sec"]
        ratio = ct / bt if bt > 0 else None

        # Latency ratios are baseline/candidate so that > 1 is faster, like
        # the throughput ratio.
        lat = []
        for q in ("p50", "p99"):
            bq = latency_quantile(b, "insert", q)
            cq = latency_quantile(c, "insert", q)
            lat.append(bq / cq if bq and cq else None)

        notes = []
        if b["run"]["timed_out"] or c["run"]["timed_out"]:
            notes.append("TIMEOUT")
        # v3: a signal truncated the run; the prefix is still comparable
        # but the note flags the short measurement.
        if b["run"].get("interrupted") or c["run"].get("interrupted"):
            notes.append("INTERRUPTED")
        if b.get("params") != c.get("params"):
            notes.append("params differ")
        if b.get("seed") != c.get("seed"):
            notes.append("seeds differ")
        if (b["workload"]["num_updates"] != c["workload"]["num_updates"]):
            notes.append("N differs")

        print(f"{scenario:<16} {method:<16} {fmt_ratio(ratio):>10} "
              f"{fmt_ratio(lat[0]):>8} {fmt_ratio(lat[1]):>8}  "
              f"{' '.join(notes)}")

        if ratio is not None:
            if ratio > 0:  # keep log() defined in the geomean
                per_method.setdefault(method, []).append(ratio)
            if args.threshold is not None and ratio < args.threshold:
                failures.append((scenario, method, ratio))

    for key in only_base:
        print(f"{key[0]:<16} {key[1]:<16}  missing pair (baseline only)")
    for key in only_cand:
        print(f"{key[0]:<16} {key[1]:<16}  missing pair (candidate only)")

    print()
    for method, ratios in sorted(per_method.items()):
        geo = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        print(f"geomean {method}: {geo:.2f}x over {len(ratios)} scenario(s)")

    if args.metrics is not None and common:
        report_metric_shifts(base, cand, common, args.metrics)

    if not common:
        print("no comparable pairs: the method sets do not overlap "
              f"({len(only_base)} baseline-only, {len(only_cand)} "
              "candidate-only keys; try --key=base to pair method specs "
              "by base name)", file=sys.stderr)
        return 2

    if failures:
        print(f"\nFAIL: {len(failures)} pair(s) below threshold "
              f"{args.threshold}:", file=sys.stderr)
        for scenario, method, ratio in failures:
            print(f"  {scenario}/{method}: {ratio:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
