#!/usr/bin/env python3
"""Perf-regression gate: diff two BENCH_*.json baseline recordings.

Compares a fresh recording against a committed reference, per
(workload, policy) point:

  - simulated results (ipc, cycles, insts, demandTxns, segMeans) must
    be BIT-IDENTICAL: the simulator is deterministic, so any drift in
    simulated numbers is a correctness regression, not noise;
  - wall-clock (host time per point) may drift with machine load; it
    only fails the gate when the total slows down by more than the
    threshold (--max-wall-ratio, default 1.5x), and the report then
    attributes the slowdown per workload so the offender is named.
    Per-point wall time also depends on the worker count, so the
    wall-clock line prints each side's "jobs" (ACP_JOBS of the
    recording; "?" for recordings made before it was stored);
  - provenance manifests are reported but never compared: two builds
    legitimately differ in SHA/host/timestamps.

Exit status 0 = pass; mismatched simulated results or a wall-clock
regression beyond the threshold prints a report and exits 1.

Usage: tools/bench_diff.py reference.json fresh.json
           [--max-wall-ratio 1.5] [--report report.txt]
       tools/bench_diff.py --self-test
"""

import argparse
import json
import sys

SIM_KEYS = ("ipc", "cycles", "insts", "demandTxns")


def load(path):
    with open(path) as handle:
        doc = json.load(handle)
    if doc.get("version") != "acp-bench-baseline-v1":
        raise SystemExit(
            f"bench_diff: {path}: unexpected version "
            f"{doc.get('version')!r}")
    points = {}
    for p in doc.get("points", []):
        points[(p["workload"], p["policy"])] = p
    if not points:
        raise SystemExit(f"bench_diff: {path}: no points")
    return doc, points


def describe_manifest(doc):
    m = doc.get("manifest")
    if not isinstance(m, dict):
        return "no manifest (pre-telemetry recording)"
    dirty = " (dirty)" if m.get("gitDirty") else ""
    return (f"git {str(m.get('gitSha', '?'))[:12]}{dirty}, "
            f"{m.get('buildType', '?')}, {m.get('compiler', '?')}, "
            f"host {m.get('hostname', '?')}, {m.get('timestampUtc', '?')}")


def diff(ref_doc, ref_points, new_doc, new_points, max_wall_ratio):
    """Return (ok, report_lines)."""
    lines = []
    ok = True

    lines.append(f"reference: {describe_manifest(ref_doc)}")
    lines.append(f"fresh:     {describe_manifest(new_doc)}")

    # Window identity: different scales are not comparable at all.
    for key in ("measureInsts", "warmupInsts", "workingSetBytes"):
        if ref_doc.get(key) != new_doc.get(key):
            ok = False
            lines.append(f"FAIL: window mismatch: {key} "
                         f"{ref_doc.get(key)} vs {new_doc.get(key)}")

    missing = sorted(set(ref_points) - set(new_points))
    extra = sorted(set(new_points) - set(ref_points))
    if missing:
        ok = False
        lines.append(f"FAIL: fresh recording is missing points: "
                     f"{missing}")
    if extra:
        lines.append(f"note: fresh recording has extra points: {extra}")

    mismatches = 0
    for key in sorted(set(ref_points) & set(new_points)):
        ref, new = ref_points[key], new_points[key]
        for field in SIM_KEYS:
            if ref.get(field) != new.get(field):
                ok = False
                mismatches += 1
                lines.append(
                    f"FAIL: {key[0]}/{key[1]}: {field} "
                    f"{ref.get(field)} -> {new.get(field)} "
                    f"(simulated results must be bit-identical)")
        ref_segs = ref.get("segMeans", {})
        new_segs = new.get("segMeans", {})
        if ref_segs != new_segs:
            ok = False
            mismatches += 1
            moved = [s for s in set(ref_segs) | set(new_segs)
                     if ref_segs.get(s) != new_segs.get(s)]
            lines.append(
                f"FAIL: {key[0]}/{key[1]}: segMeans moved in "
                f"{sorted(moved)} (path decomposition changed)")
    if mismatches == 0:
        lines.append(f"simulated results: bit-identical over "
                     f"{len(set(ref_points) & set(new_points))} points")

    # Wall-clock: gate on the total, attribute per workload.
    ref_wall = sum(p.get("wallSeconds", 0.0) for p in ref_points.values())
    new_wall = sum(p.get("wallSeconds", 0.0) for p in new_points.values())
    if ref_wall > 0:
        ratio = new_wall / ref_wall
        lines.append(f"wall-clock: {ref_wall:.2f}s "
                     f"(jobs {ref_doc.get('jobs', '?')}) -> "
                     f"{new_wall:.2f}s (jobs {new_doc.get('jobs', '?')}) "
                     f"({ratio:.2f}x, threshold {max_wall_ratio:.2f}x)")
        if ratio > max_wall_ratio:
            ok = False
            lines.append("FAIL: wall-clock regression beyond threshold; "
                         "per-workload attribution:")
            by_workload = {}
            for (workload, _), p in ref_points.items():
                by_workload.setdefault(workload, [0.0, 0.0])[0] += \
                    p.get("wallSeconds", 0.0)
            for (workload, _), p in new_points.items():
                by_workload.setdefault(workload, [0.0, 0.0])[1] += \
                    p.get("wallSeconds", 0.0)
            rows = sorted(by_workload.items(),
                          key=lambda kv: kv[1][1] - kv[1][0],
                          reverse=True)
            for workload, (r, n) in rows:
                per = n / r if r > 0 else float("inf")
                lines.append(f"  {workload:<12} {r:8.2f}s -> {n:8.2f}s "
                             f"({per:.2f}x, +{n - r:.2f}s)")
    else:
        lines.append("wall-clock: reference carries no timings; skipped")

    lines.append("RESULT: " + ("PASS" if ok else "FAIL"))
    return ok, lines


def self_test():
    """Hermetic gate checks (run by ctest): the diff must catch an
    injected IPC flip and a synthetic 2x wall-clock regression, and
    must pass identical recordings with noisy-but-bounded wall time."""
    def doc(ipc_scale=1.0, wall_scale=1.0):
        return {
            "version": "acp-bench-baseline-v1",
            "manifest": {"schema": "acp-manifest-v1", "gitSha": "aaa"},
            "measureInsts": 60000, "warmupInsts": 30000,
            "workingSetBytes": 2 << 20, "jobs": 4,
            "points": [
                {"workload": w, "policy": p,
                 "ipc": round(0.5 * ipc_scale, 6), "cycles": 120000,
                 "insts": 60000, "wallSeconds": 2.0 * wall_scale,
                 "demandTxns": 900,
                 "segMeans": {"bus_queue": 3.25, "dram_burst": 40.0}}
                for w in ("mcf", "art") for p in ("baseline", "commit")
            ],
        }

    def run(ref, new, ratio=1.5):
        ref_points = {(p["workload"], p["policy"]): p
                      for p in ref["points"]}
        new_points = {(p["workload"], p["policy"]): p
                      for p in new["points"]}
        ok, lines = diff(ref, ref_points, new, new_points, ratio)
        return ok, "\n".join(lines)

    ok, report = run(doc(), doc())
    assert ok, "identical recordings must pass"

    # Both sides' worker counts ride on the wall-clock line.
    single = doc()
    single["jobs"] = 1
    ok, report = run(single, doc())
    assert ok, "a worker-count difference alone must not fail the gate"
    assert "(jobs 1) -> " in report and "(jobs 4) (" in report, \
        "wall-clock line must name both sides' jobs"
    legacy = doc()
    del legacy["jobs"]
    _, report = run(legacy, doc())
    assert "(jobs ?) -> " in report, "a missing jobs field prints '?'"

    # Bounded wall noise passes; simulated numbers still identical.
    ok, _ = run(doc(), doc(wall_scale=1.3))
    assert ok, "1.3x wall drift within a 1.5x threshold must pass"

    # Injected IPC flip: one point's IPC moves by one ULP-ish step.
    flipped = doc()
    flipped["points"][2]["ipc"] += 1e-6
    ok, report = run(doc(), flipped)
    assert not ok, "injected IPC flip not caught"
    assert "FAIL: art/baseline: ipc" in report, \
        "IPC mismatch not attributed to its point"

    # Synthetic 2x wall regression: fails and names the workloads.
    ok, report = run(doc(), doc(wall_scale=2.0))
    assert not ok, "2x wall-clock regression not caught"
    assert "mcf" in report and "art" in report, \
        "per-workload attribution missing"

    # Manifest differences alone never fail the gate.
    other = doc()
    other["manifest"] = {"schema": "acp-manifest-v1", "gitSha": "bbb",
                         "gitDirty": True}
    ok, _ = run(doc(), other)
    assert ok, "manifest-only difference must not fail the gate"

    # Segment-mean drift is a simulated-result mismatch.
    seg = doc()
    seg["points"][0]["segMeans"]["bus_queue"] = 3.5
    ok, report = run(doc(), seg)
    assert not ok and "segMeans" in report, "segMeans drift not caught"

    print("bench_diff: self-test OK")
    return 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--self-test":
        return self_test()

    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json recordings.")
    parser.add_argument("reference")
    parser.add_argument("fresh")
    parser.add_argument("--max-wall-ratio", type=float, default=1.5,
                        help="allowed fresh/reference total wall-clock "
                             "ratio (default: 1.5)")
    parser.add_argument("--report", default="",
                        help="also write the report to this file")
    args = parser.parse_args(argv[1:])

    ref_doc, ref_points = load(args.reference)
    new_doc, new_points = load(args.fresh)
    ok, lines = diff(ref_doc, ref_points, new_doc, new_points,
                     args.max_wall_ratio)
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(report)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
