#!/usr/bin/env python3
"""Host-time benchmark of the ACP simulator.

Builds the simulator and the load generator (loadgen.cc) from source
into .bench_build/, runs one workload and prints, as the last line of
stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones of a step-through run, which also writes a Chrome
trace-event file and a self-time table under .bench_build/out/.

    python3 hostbench/run.py --workload paper_sweep --seed 42 \\
        --seconds 10 --trace 0

Run it from the checkout root. README.md says what each workload and
metric is for. --record-golden rewrites golden.json (seed 42 only).
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
LOADGEN = os.path.join(CMAKE_DIR, "hostbench_loadgen")
ACPSIM = os.path.join(CMAKE_DIR, "src", "sim", "acpsim")
GOLDEN = os.path.join(HERE, "golden.json")
BENCH_REFERENCE = os.path.join(ROOT, "BENCH_event_loop.json")

WORKLOADS = ["paper_sweep", "long_window", "cold_start", "figure_rerun"]
GOLDEN_SEED = 42
# Set-up repetitions per run; figure_rerun's set-up simulates 126 points.
SETUP_SAMPLES = {"figure_rerun": 3}
DEFAULT_SETUP_SAMPLES = 9
# Seconds one load-generator process may run (a run must end within 180 s).
LOADGEN_TIMEOUT = 120
# Environment the simulator reads; any of it would reroute or rescale
# a run, so it never reaches the benchmark's processes.
SCRUBBED = ("ACP_JOBS", "ACP_CONNECT", "ACP_CACHE_MAX_ENTRIES")
SCRUBBED_PREFIX = "REPRO_"

# Step-through spans summed into per-layer seconds.
LAYER_SPANS = {
    "workloads.build_s": ["workloads.build"],
    "sim.construct_s": ["sim.construct"],
    "sim.fast_forward_s": ["sim.fast_forward"],
    "sim.create_cores_s": ["sim.create_cores"],
    "sim.measure_timed_s": ["sim.measure_timed"],
    "sim.destroy_s": ["sim.destroy"],
    "obs.capture_s": ["obs.capture"],
    "obs.path_profile_s": ["obs.path_profile"],
    "exp.codec_s": ["exp.encode", "exp.decode"],
    "exp.store_s": ["exp.store_open", "exp.digest", "exp.store_lookup",
                    "exp.store_put"],
}
# Spans that do not run on every workload: printed, not in the JSON.
DETAIL_SPANS = ["exp.digest", "exp.encode", "exp.decode", "exp.store_open",
                "exp.store_lookup", "exp.store_put"]
# Simulated work units: denominators that a host-only change leaves
# exact, so at seed 42 they must equal golden.json.
SIM_COUNTS = [
    "cpu.committed", "cpu.cycles", "cpu.issued", "cpu.squashed",
    "secmem.extmem_fetches", "secmem.extmem_stores",
    "secmem.auth_requests", "secmem.lines_materialized",
    "cache.l2_misses", "mem.bus_grants", "mem.dram_accesses",
]
# Counts of the host implementation: they move when sealing, the timed
# core or the store format changes, so golden.json does not hold them.
# The load generator checks instead that they repeat when the same code
# steps a point twice, and that the store's match the untraced submit.
HOST_COUNTS = [
    "workloads.data_bytes", "secmem.lines_sealed", "sim.core_wakes",
    "mem.txn_allocs", "exp.store_hits", "exp.store_misses",
    "exp.store_puts", "exp.store_evictions", "exp.store_data_bytes",
    "exp.store_index_bytes",
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    """Exit non-zero without printing a result line."""
    log("hostbench: " + msg)
    sys.exit(1)


def scrub_env():
    for k in list(os.environ):
        if k in SCRUBBED or k.startswith(SCRUBBED_PREFIX):
            del os.environ[k]


def build():
    """Build the load generator and acpsim; quiet unless it fails."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not any(os.path.exists(os.path.join(CMAKE_DIR, f))
               for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    steps.append(["cmake", "--build", CMAKE_DIR, "--target",
                  "hostbench_loadgen", "acpsim", "-j", "4"])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT):
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                fail("build failed (" + log_path + "):\n" + tail)


def read_records(path):
    recs = []
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                try:
                    recs.append(json.loads(line))
                except ValueError:
                    pass  # a torn last line of a crashed load generator
    return recs


def run_loadgen(workload, seed, seconds, tmp, tag, flags):
    """Run the load generator once; returns (records, seconds from spawn to
    its first op or None, exit status)."""
    out = os.path.join(tmp, tag + ".jsonl")
    work = os.path.join(tmp, tag)
    os.makedirs(work)
    cmd = [LOADGEN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--tmp", work, "--out", out,
           "--acpsim", ACPSIM] + flags
    with open(os.path.join(tmp, tag + ".log"), "w") as err:
        t0 = time.monotonic()
        try:
            rc = subprocess.call(cmd, stdout=err, stderr=err,
                                 timeout=LOADGEN_TIMEOUT)
        except subprocess.TimeoutExpired:
            rc = -9  # call() has killed and reaped it
    recs = read_records(out)
    first = [r["mono"] for r in recs if r["t"] == "first_op"]
    return recs, (first[0] - t0 if first else None), rc


def children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def load_golden():
    if not os.path.exists(GOLDEN):
        return None
    with open(GOLDEN) as f:
        return json.load(f)


class Verdict:
    """Failed ops and wrong outputs found while checking a run."""

    def __init__(self):
        self.failed = set()
        self.wrong = []

    def fail_op(self, op_id, why):
        self.failed.add(op_id)
        log("FAILED %s: %s" % (op_id, why))

    def mismatch(self, op_id, why):
        self.fail_op(op_id, why)
        self.wrong.append(why)


def lost_ops(verdict, header, done, rc):
    """A load generator that exited early lost the ops of its pass that
    it had not finished, at least one: each is a failed op. Returns how
    many."""
    per_pass = header["opsPerPass"] if header else 1
    lost = max(per_pass - done, 1)
    for k in range(lost):
        verdict.fail_op("lost %d" % k,
                        "load generator exited with status %d" % rc)
    return lost


def same_result(a, b):
    return all(a.get(k) == b.get(k) for k in ("insts", "cycles", "reason",
                                              "fp"))


def check_against_golden(workload, seed, recs, verdict, golden):
    """Golden results (seed 42) and, for paper_sweep, the committed
    BENCH_event_loop.json numbers of the 63 INT points."""
    if seed != GOLDEN_SEED or golden is None:
        return
    gw = golden["workloads"][workload]
    for r in recs:
        if r["t"] not in ("op", "fill") or "fp" not in r:
            continue
        table = gw["ops"] if r["t"] == "op" else gw["fills"]
        ref = table.get(r["key"])
        op_id = "%s %d %s" % (r["t"], r.get("pass", 0), r["key"])
        if ref is not None and "error" not in ref and not same_result(r, ref):
            verdict.mismatch(op_id, "differs from golden.json")
        bench = golden["bench_event_loop"].get(r["key"])
        if r["t"] == "op" and workload == "paper_sweep" and bench:
            if (r["insts"] != bench["insts"] or r["cycles"] != bench["cycles"]
                    or abs(r["ipc"] - bench["ipc"]) > 5e-6):
                verdict.mismatch(op_id, "differs from BENCH_event_loop.json")


def check_ops(workload, recs, verdict, golden, seed):
    ops = [r for r in recs if r["t"] == "op"]
    seen = {}
    for r in ops:
        op_id = "op %d %s" % (r["pass"], r["key"])
        if not r["ok"]:
            verdict.fail_op(op_id, r["err"])
            continue
        if "fp" in r and r["fp"]:
            # Repeat == repeat: the same op in a later pass.
            first = seen.setdefault(r["key"], r)
            if first is not r and not same_result(first, r):
                verdict.mismatch(op_id, "differs from pass %d" % first["pass"])
    for r in recs:
        if r["t"] == "check":
            verdict.mismatch("check", r["msg"])
    check_against_golden(workload, seed, recs, verdict, golden)
    return ops


def end_to_end(workload, seed, seconds, tmp, golden):
    verdict = Verdict()
    setups = []
    for k in range(SETUP_SAMPLES.get(workload, DEFAULT_SETUP_SAMPLES) - 1):
        _, setup, rc = run_loadgen(workload, seed, seconds, tmp,
                                   "setup%d" % k, ["--setup-only"])
        if rc != 0 or setup is None:
            # One failed op; its time is left out of setup_s.
            verdict.fail_op("set-up %d" % k,
                            "set-up run exited with status %d" % rc)
        else:
            setups.append(setup)
    setup_failures = len(verdict.failed)
    cpu0 = children_cpu()
    recs, setup, rc = run_loadgen(workload, seed, seconds, tmp, "run", [])
    if setup is not None:
        setups.append(setup)

    ops = check_ops(workload, recs, verdict, golden, seed)
    passes = [r for r in recs if r["t"] == "pass"]
    header = next((r for r in recs if r["t"] == "header"), None)
    end = next((r for r in recs if r["t"] == "end"), None)
    ops_attempted = len(ops) + setup_failures
    if rc != 0 or end is None:
        # A panic ends the pass in progress: its missing ops failed,
        # and the ops it finished count as a pass of their own.
        partial = [r for r in ops if r["pass"] == len(passes)]
        ops_attempted += lost_ops(verdict, header, len(partial), rc)
        if partial:
            passes.append({"start": min(r["start"] for r in partial),
                           "end": max(r["end"] for r in partial),
                           "cpu": children_cpu() - cpu0})
        end = {"maxrssSelfKb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss, "maxrssChildrenKb": 0}
    # Each statistic is taken per pass, then the median over passes, so
    # that a burst of load from outside slows one pass and not the
    # figure.
    per_pass = [[r for r in ops if r["ok"] and r["pass"] == k]
                for k in range(len(passes))]
    per_pass = [sorted(r["end"] - r["start"] for r in p) for p in per_pass]
    per_pass = [p for p in per_pass if p]
    # A run in which no op succeeded measured nothing: its figures read
    # 0, and its failed ops say why.
    median = lambda values: statistics.median(values) if values else 0.0
    pass_walls = [p["end"] - p["start"] for p in passes]
    insts = sum(r.get("insts", 0) for r in ops if r["ok"])
    sweep_s = median(pass_walls)
    metrics = {
        "sweep_s": (sweep_s, "s"),
        "op_s_p50": (median([statistics.median(p) for p in per_pass]), "s"),
        "op_s_p90": (median([percentile(p, 0.9) for p in per_pass]), "s"),
        "sim_kips": (insts / len(passes) / sweep_s / 1000.0
                     if per_pass else 0.0, "kinst/s"),
        "setup_s": (median(setups), "s"),
        "cpu_s": (median([p["cpu"] for p in passes]), "s"),
        "peak_rss_mb": (max(end["maxrssSelfKb"], end["maxrssChildrenKb"])
                        / 1024.0, "MB"),
    }
    log("workload %s: %d passes, %d ops (%d ok), fail_ratio %d/%d, "
        "%d set-up samples" % (workload, len(passes), ops_attempted,
                               sum(len(p) for p in per_pass),
                               len(verdict.failed), ops_attempted,
                               len(setups)))
    log_header(header)
    return verdict, ops_attempted, metrics, recs


def log_header(header):
    """The effective config, obs::manifest() and nproc of a run."""
    if header is None:
        log("the load generator exited before it named its config")
        return
    log("effective config: data seed %d, rng seed %d, nproc %d, jobs %d, "
        "ws %d, window %d+%d; manifest %s" % (
            header["dataSeed"], header["rngSeed"], header["nproc"],
            header["jobs"], header["workingSetBytes"], header["warmupInsts"],
            header["measureInsts"], json.dumps(header["manifest"])))
    log("simulator config: " + header["config"].replace("\n", " "))


def span_tables(spans):
    """Per-name total and self seconds; checks nesting."""
    by_id = {s["id"]: s for s in spans}
    child_time = {}
    problems = []
    for s in spans:
        p = by_id.get(s["parent"])
        if s["parent"] and p is None:
            problems.append("span %s has no parent" % s["name"])
        if p is not None:
            if (s["start"] < p["start"] or s["end"] > p["end"]
                    or s["tid"] != p["tid"]):
                problems.append("%s is not inside its %s" % (s["name"],
                                                             p["name"]))
            child_time[p["id"]] = (child_time.get(p["id"], 0.0)
                                   + s["end"] - s["start"])
    total, self_time = {}, {}
    for s in spans:
        dur = s["end"] - s["start"]
        own = dur - child_time.get(s["id"], 0.0)
        if own < -1e-6:
            problems.append("%s has negative self time" % s["name"])
        total[s["name"]] = total.get(s["name"], 0.0) + dur
        self_time[s["name"]] = self_time.get(s["name"], 0.0) + own
    return total, self_time, problems


def write_chrome_trace(path, spans, t0):
    events = [{"name": s["name"], "cat": s["phase"], "ph": "X",
               "ts": (s["start"] - t0) * 1e6,
               "dur": (s["end"] - s["start"]) * 1e6, "pid": 1,
               "tid": s["tid"], "args": {"point": s["point"]}}
              for s in spans]
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def per_layer(workload, seed, seconds, tmp, golden):
    recs, _, rc = run_loadgen(workload, seed, seconds, tmp, "trace",
                             ["--trace"])
    verdict = Verdict()
    ops = check_ops(workload, recs, verdict, golden, seed)
    for r in recs:
        if r["t"] == "step_failed":
            verdict.fail_op("op 0 " + r["key"],
                            "step-through exited with %d" % r["status"])
    header = next((r for r in recs if r["t"] == "header"), None)
    attempted = len(ops)
    finished = rc == 0 and any(r["t"] == "end" for r in recs)
    if not finished:
        # The untraced pass's unfinished ops failed; if it had finished,
        # the step-through is the one failed op. Spans and counts are
        # written at exit, so those of a lost run read 0.
        attempted += lost_ops(verdict, header, len(ops), rc)

    layer = {}
    for r in recs:
        if r["t"] == "layer":
            layer[r["name"]] = layer.get(r["name"], 0.0) + r["value"]
    spans = [r for r in recs if r["t"] == "span"]
    counted = [s for s in spans if s["phase"] != "probe"]
    total, self_time, problems = span_tables(spans)
    counted_total, _, _ = span_tables(counted)
    for p in problems:
        verdict.mismatch("trace", p)

    timed = [s for s in counted if s["phase"] == "timed"]
    timed_total, _, _ = span_tables(timed)
    roots = [s for s in timed if s["parent"] == 0 and
             s["name"] in ("point", "rerun")]
    root_time = sum(s["end"] - s["start"] for s in roots)
    if workload == "figure_rerun" and any(
            s["name"].startswith("sim.") for s in timed):
        verdict.mismatch("trace", "sim.* span in figure_rerun's timed phase")

    def span_sum(names, table=counted_total):
        return sum(table.get(n, 0.0) for n in names)

    metrics = {}
    for name, names in LAYER_SPANS.items():
        metrics[name] = (span_sum(names), "s")
    for name in SIM_COUNTS + HOST_COUNTS:
        metrics[name] = (layer.get(name, 0.0), "count")
    for name in ("workloads.data_bytes", "exp.store_data_bytes",
                 "exp.store_index_bytes"):
        metrics[name] = (metrics[name][0], "bytes")
    lines = max(layer.get("secmem.lines_sealed", 0.0), 1.0)
    metrics["sim.construct_us_per_line"] = (
        metrics["sim.construct_s"][0] / lines * 1e6, "us")
    metrics["sim.fast_forward_ns_per_inst"] = (
        metrics["sim.fast_forward_s"][0]
        / max(layer.get("sim.warmup_insts", 0.0), 1.0) * 1e9, "ns")
    measure = metrics["sim.measure_timed_s"][0]
    metrics["sim.measure_ns_per_cycle"] = (
        measure / max(layer.get("sim.timed_cycles", 0.0), 1.0) * 1e9, "ns")
    metrics["sim.measure_ns_per_inst"] = (
        measure / max(layer.get("sim.timed_insts", 0.0), 1.0) * 1e9, "ns")
    metrics["sim.cycles_per_wake"] = (
        layer.get("cpu.cycles", 0.0) / max(layer.get("sim.core_wakes", 0.0),
                                           1.0), "cycles")
    metrics["cpu.ruu_occupancy_mean"] = (
        layer.get("cpu.ruu_occupancy_sum", 0.0)
        / max(layer.get("cpu.ruu_occupancy_samples", 0.0), 1.0), "entries")
    observed = layer.get("obs.observed_measure_s", 0.0)
    plain = layer.get("obs.plain_measure_s", 0.0)
    metrics["obs.overhead_s"] = (observed - plain, "s")
    metrics["obs.overhead_ratio"] = ((observed - plain) / plain
                                     if plain else 0.0, "ratio")
    jobs = header["jobs"] if header else 1
    metrics["exp.pool_idle_s"] = (
        jobs * layer.get("pass.wall_s", 0.0) - layer.get("pass.busy_s", 0.0),
        "s")
    untraced = layer.get("untraced.point_wall_s", 0.0)
    metrics["trace.overhead_s"] = (root_time - untraced, "s")
    metrics["trace.overhead_ratio"] = ((root_time - untraced) / untraced
                                       if untraced else 0.0, "ratio")
    share = lambda names: (span_sum(names, timed_total) / root_time
                           if root_time else 0.0)
    metrics["sim.construct_share"] = (share(["sim.construct"]), "ratio")
    metrics["sim.measure_timed_share"] = (share(["sim.measure_timed"]),
                                          "ratio")
    metrics["exp.store_share"] = (share(["exp.store_open", "exp.store_lookup",
                                         "exp.store_put"]), "ratio")

    # Simulated work units are exact: against golden.json at seed 42.
    if finished and seed == GOLDEN_SEED and golden is not None:
        ref = golden["workloads"][workload].get("layers", {})
        for name in SIM_COUNTS:
            if name in ref and ref[name] != metrics[name][0]:
                verdict.mismatch("layer " + name, "%s is %r, golden %r" % (
                    name, metrics[name][0], ref[name]))

    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d" % (workload, seed))
    t0 = min((s["start"] for s in spans), default=0.0)
    write_chrome_trace(stem + ".trace.json", spans, t0)
    with open(stem + ".selftime.json", "w") as f:
        json.dump({"total_s": total, "self_s": self_time}, f, indent=1,
                  sort_keys=True)
    log("step-through of %s: %d spans; trace %s.trace.json" % (
        workload, len(spans), stem))
    log("  %-22s %12s %12s" % ("span", "total s", "self s"))
    for name in sorted(total, key=lambda n: -self_time[n]):
        log("  %-22s %12.6f %12.6f" % (name, total[name], self_time[name]))
    for name in DETAIL_SPANS:
        log("  %s_s = %.6f s" % (name, counted_total.get(name, 0.0)))
    log_header(header)
    return verdict, max(attempted, 1), metrics, recs


def record_golden(seconds):
    """Rewrite golden.json from runs at the golden seed."""
    golden = {"seed": GOLDEN_SEED, "workloads": {}, "bench_event_loop": {}}
    with open(BENCH_REFERENCE) as f:
        bench = json.load(f)
    for p in bench["points"]:
        golden["bench_event_loop"][p["workload"] + "/" + p["policy"]] = {
            "ipc": p["ipc"], "cycles": p["cycles"], "insts": p["insts"]}
    for workload in WORKLOADS:
        tmp = fresh_tmp(workload)
        verdict, _, _, recs = end_to_end(workload, GOLDEN_SEED, seconds, tmp,
                                         None)
        entry = {"ops": {}, "fills": {}}
        for r in recs:
            if r["t"] == "op" and r["key"].startswith("rerun"):
                continue
            if r["t"] in ("op", "fill"):
                table = entry["ops" if r["t"] == "op" else "fills"]
                table[r["key"]] = (
                    {k: r[k] for k in ("insts", "cycles", "ipc", "reason",
                                       "fp")}
                    if r["ok"] else {"error": r["err"]})
        golden["workloads"][workload] = entry
        # The recording must pass its own checks, and paper_sweep must
        # match the committed BENCH_event_loop.json.
        check_against_golden(workload, GOLDEN_SEED, recs, verdict, golden)
        traced, _, metrics, _ = per_layer(workload, GOLDEN_SEED, seconds,
                                          tmp, None)
        if verdict.wrong or traced.wrong:
            fail("not recording golden.json: %s" % (verdict.wrong +
                                                     traced.wrong)[:5])
        entry["layers"] = {n: metrics[n][0] for n in SIM_COUNTS}
        shutil.rmtree(tmp, ignore_errors=True)
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote " + GOLDEN)


def fresh_tmp(workload):
    tmp = os.path.join(BUILD, "run", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    return tmp


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()
    if not args.record_golden and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    scrub_env()
    build()
    if args.record_golden:
        record_golden(args.seconds)
        return
    golden = load_golden()
    if golden is None:
        fail("golden.json is missing")

    tmp = fresh_tmp(args.workload)
    try:
        measure = per_layer if args.trace else end_to_end
        verdict, attempted, metrics, _ = measure(
            args.workload, args.seed, args.seconds, tmp, golden)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        log("  %-30s %16.6f %s" % (name, value, unit))
    failed = min(len(verdict.failed), attempted)
    print(json.dumps({
        "correct": not verdict.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
