#!/usr/bin/env python3
"""End-to-end benchmark of the DMetabench simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the measuring binary (perfbench.cpp, with the library from src/)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then
runs repetitions of one workload, each in a fresh single-threaded
process, for about S seconds, and prints one JSON object as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the untraced
repetitions); --trace 1 reports the per-layer metrics, from a replay
repetition plus alternating untraced and traced repetitions. Every
repetition's output is checked: identical digests across repetitions and
modes, a clean quiescence report, no failed requests, a clean fsck on
Lustre, the reference digest and identity counts in reference.json
wherever the seed fixes them, and in traced runs self times that account
for the run phase and as many reply callbacks and replayed ops as
submits. A failed check prints the result with
"correct": false and every op counted as failed, and exits 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["nfs_create_stat", "wide_create", "lustre_wb_lossy"]

# Replayed MetaOps reported one by one (absent ops report 0).
FS_OPS = ["mkdir", "open", "close", "stat", "unlink", "rmdir"]

# Simulated counts that must repeat exactly between repetitions.
IDENTITY_COUNTS = [
    "cache_hits", "cache_misses", "retransmits", "timed_out", "wb_enqueued",
    "wb_coalesced", "wb_issued", "wb_flushes", "server_requests", "drc_hits",
    "cp_count", "server_cpu_busy_frac",
]

MIN_PLAIN_REPS = 3
CHILD_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the binary; returns its path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def run_rep(exe, workload, seed, mode):
    """Runs one repetition ("plain", "traced" or "replay")."""
    cmd = [exe, "--workload", workload, "--seed", str(seed)]
    if mode != "plain":
        cmd.append("--" + mode)
    return run_cmd(cmd)


def run_cmd(cmd):
    """Runs the binary to completion; returns its JSON line."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd), proc.returncode,
                                                 proc.stderr[-2000:]))
    return json.loads(lines[-1])


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def check(reps, workload, seed, reference):
    """Returns the list of failed output checks (empty = correct)."""
    problems = []
    for r in reps:
        tag = "%s rep" % r["mode"]
        if not r["diagnostics_clean"]:
            problems.append(tag + ": quiescence report lists issues")
        if not r["fsck_clean"]:
            problems.append(tag + ": fsck of the MDS volume is not clean")
        if r["failed_requests"] != 0:
            problems.append("%s: %d failed requests"
                            % (tag, r["failed_requests"]))
        if not r["complete"] or r["sim_ops"] <= 0:
            problems.append(tag + ": result set is incomplete")
        spans = r.get("spans")
        if spans:
            self_ns = (spans["submit_self_ns"] + spans["callback_self_ns"] +
                       spans["outside_self_ns"])
            run_ns = r["phases_ns"]["run"]
            if not 0.99 * run_ns < self_ns <= run_ns:
                problems.append("%s: self times %d ns do not account for the "
                                "run phase %d ns" % (tag, self_ns, run_ns))
            if spans["submits"] != spans["callback_calls"]:
                problems.append("%s: %d submits but %d reply callbacks"
                                % (tag, spans["submits"],
                                   spans["callback_calls"]))
    # Every traced submit, and no other request, is replayed.
    submits = ({r["spans"]["submits"] for r in reps if "spans" in r} |
               {r["replay"]["ops"] for r in reps if "replay" in r})
    if len(submits) > 1:
        problems.append("traced submits and replayed ops differ: %s"
                        % sorted(submits))
    digests = sorted({r["digest"] for r in reps})
    if len(digests) != 1:
        problems.append("output digests differ between repetitions: %s"
                        % ", ".join(digests))
    for key in IDENTITY_COUNTS:
        values = {r["counts"][key] for r in reps}
        if len(values) != 1:
            problems.append("identity count %s differs between repetitions"
                            % key)
    # The seed drives only the fault rolls of a seeded workload, so the
    # reference holds for unseeded workloads at every seed.
    if not reps[0]["seeded"] or seed == reference["default_seed"]:
        ref = reference["workloads"][workload]
        if digests[0] != ref["digest"]:
            problems.append("digest %s != reference %s"
                            % (digests[0], ref["digest"]))
        for key, want in ref["counts"].items():
            if reps[0]["counts"][key] != want:
                problems.append("count %s = %r, reference %r"
                                % (key, reps[0]["counts"][key], want))
    return problems


def phase_s(reps, phase):
    return statistics.median([r["phases_ns"][phase] * 1e-9 for r in reps])


def end_to_end(plain):
    ops_per_s = [r["sim_ops"] / (r["phases_ns"]["total"] * 1e-9)
                 for r in plain]
    rss_mb = [r["vmhwm_kb"] / 1024.0 for r in plain]
    return {
        "total_s": (phase_s(plain, "total"), "s"),
        "setup_s": (phase_s(plain, "setup"), "s"),
        "run_s": (phase_s(plain, "run"), "s"),
        "sim_ops_per_s": (statistics.median(ops_per_s), "1/s"),
        "peak_rss_mb": (statistics.median(rss_mb), "MB"),
    }


def per_layer(plain, traced, replay, failed_frac):
    counts = plain[0]["counts"]
    spans = [r["spans"] for r in traced]
    rep = replay["replay"]
    run_s = phase_s(plain, "run")
    traced_run_s = phase_s(traced, "run")
    span_s = lambda key: statistics.median([s[key] * 1e-9 for s in spans])
    span_n = lambda key: statistics.median([s[key] for s in spans])
    lookups = counts["cache_hits"] + counts["cache_misses"]
    events = counts["events"]
    sim_ops = plain[0]["sim_ops"]
    dispatch_ns = rep["dispatch_ns_per_event"]
    m = {
        "cluster.build_s": (phase_s(plain, "cluster_build"), "s"),
        "cluster.mount_s": (phase_s(plain, "mount"), "s"),
        "dfs.fs_build_s": (phase_s(plain, "fs_build"), "s"),
        "core.master_ctor_s": (phase_s(plain, "master_ctor"), "s"),
        "teardown.master_s": (phase_s(plain, "teardown_master"), "s"),
        "teardown.cluster_s": (phase_s(plain, "teardown_cluster"), "s"),
        "teardown.fs_s": (phase_s(plain, "teardown_fs"), "s"),
        "teardown.sched_s": (phase_s(plain, "teardown_sched"), "s"),
        "analysis.gather_s": (phase_s(plain, "gather"), "s"),
        "trace.run_s": (traced_run_s, "s"),
        "dfs.client.submits": (span_n("submits"), "count"),
        "dfs.client.submit_self_s": (span_s("submit_self_ns"), "s"),
        "dfs.client.submit_ns.p50": (span_n("submit_ns_p50"), "ns"),
        "dfs.client.submit_ns.p99.9": (span_n("submit_ns_p99_9"), "ns"),
        "core.worker_cb_calls": (span_n("callback_calls"), "count"),
        "core.worker_cb_self_s": (span_s("callback_self_ns"), "s"),
        "other_self_s": (span_s("outside_self_ns"), "s"),
        "fs.replayed_ops": (rep["ops"], "count"),
        "fs.execute_ns_per_op": (rep["ns"] / max(rep["ops"], 1), "ns/op"),
        "sim.events": (events, "count"),
        "sim.events_per_op": (events / max(sim_ops, 1), "events/op"),
        "sim.peak_pending": (counts["peak_pending"], "count"),
        "sim.dispatch_ns_per_event": (dispatch_ns, "ns"),
        "sim.dispatch_share": (events * dispatch_ns * 1e-9 / run_s, "fraction"),
        "dfs.client.cache_lookups": (lookups, "count"),
        "dfs.client.cache_hit_frac": (counts["cache_hits"] / lookups
                                      if lookups else 0.0, "fraction"),
        "dfs.client.retransmits": (counts["retransmits"], "count"),
        "dfs.client.timed_out": (counts["timed_out"], "count"),
        "dfs.wb.enqueued": (counts["wb_enqueued"], "count"),
        "dfs.wb.coalesced": (counts["wb_coalesced"], "count"),
        "dfs.wb.issued": (counts["wb_issued"], "count"),
        "dfs.wb.flushes": (counts["wb_flushes"], "count"),
        "dfs.server.requests": (counts["server_requests"], "count"),
        "dfs.server.drc_hits": (counts["drc_hits"], "count"),
        "dfs.server.cp_count": (counts["cp_count"], "count"),
        "dfs.server.cpu_busy_frac": (counts["server_cpu_busy_frac"],
                                     "fraction"),
        "trace.overhead_frac": (phase_s(traced, "total") /
                                phase_s(plain, "total") - 1.0, "fraction"),
        "ops_failed_frac": (failed_frac, "fraction"),
    }
    for op in FS_OPS:
        entry = rep["by_op"].get(op)
        m["fs.execute_ns." + op] = (entry["ns"] / entry["ops"]
                                    if entry else 0.0, "ns")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 2
    reference = load_reference()

    start = time.monotonic()
    deadline = start + args.seconds
    plain, traced, replay = [], [], None
    try:
        if args.trace:
            replay = run_rep(exe, args.workload, args.seed, "replay")
            while not traced or time.monotonic() < deadline:
                plain.append(run_rep(exe, args.workload, args.seed, "plain"))
                traced.append(run_rep(exe, args.workload, args.seed, "traced"))
        else:
            while len(plain) < MIN_PLAIN_REPS or time.monotonic() < deadline:
                plain.append(run_rep(exe, args.workload, args.seed, "plain"))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        log("perfbench: repetition failed: %s" % err)
        return 2
    log("perfbench: %s seed %d: %d plain, %d traced repetitions in %.1f s"
        % (args.workload, args.seed, len(plain), len(traced),
           time.monotonic() - start))
    log("perfbench: plain total_s per repetition: " +
        " ".join("%.4f" % (r["phases_ns"]["total"] * 1e-9) for r in plain))

    reps = plain + traced + ([replay] if replay else [])
    problems = check(reps, args.workload, args.seed, reference)
    for p in problems:
        log("perfbench: CHECK FAILED: " + p)
    correct = not problems
    attempted = sum(r["sim_ops"] for r in reps)
    failed = (sum(r["failed_requests"] for r in reps) if correct
              else attempted)
    failed_frac = failed / attempted if attempted else 1.0

    if args.trace:
        metrics = per_layer(plain, traced, replay, failed_frac)
    else:
        metrics = end_to_end(plain)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
