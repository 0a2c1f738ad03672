#!/usr/bin/env python3
"""Golden corpus: every deterministic experiment and every CLI model pinned
by digest.

Entries:
  - each bench/bench_* experiment except bench_engine_throughput, which
    prints host timings: its stdout;
  - each CLI model (nfs, lustre, lustre-wb, afs, gx, cxfs, localfs,
    sharded): the files `dmetabench --fs M --operations MakeFiles,StatFiles
    --problemsize 200 --timelimit 1 --outdir D` writes into D (its stdout
    names D, so it is not compared).

The corpus lives in bench/golden/, one file per entry. An experiment's
file holds the digest of each stdout line, a CLI model's the relative path
and digest of each result file. The digest is 64-bit FNV-1a, the same
function as dmb::fnv1a64 (src/dfs/PartitionMap.cpp), which also digests
perfbench's output.

An entry fails when its process exits nonzero: E29, E30 and E31 check
themselves. E30 and E31 also write BENCH_E30.json / BENCH_E31.json into
their working directory, which must reproduce the committed copy at the
root of the repo.

Entries run as concurrent processes, longest first, at most -j at once
(default: the CPU count), each in its own temporary working directory.
On a mismatch the runner names the entry and its first differing line
(experiments) or file (CLI models, written JSON) and exits 1.

Usage:
  tools/golden.py [--build DIR] [-j N] [--update]

--update rewrites the corpus from this build; a change that needs it says
why in CHANGES.md. It leaves the committed JSON alone, which the benches'
--out option rewrites.
"""

import argparse
import concurrent.futures
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "bench", "golden")

# Experiments whose stdout is host timing, not simulation output.
HOST_TIMED = {"bench_engine_throughput"}

# Files an experiment writes into its working directory, each compared
# with the committed copy of the same name at the root of the repo.
WRITES = {"bench_sharded_saturation": "BENCH_E30.json",
          "bench_writebehind_audit": "BENCH_E31.json"}

CLI_MODELS = ["nfs", "lustre", "lustre-wb", "afs", "gx", "cxfs", "localfs",
              "sharded"]
CLI_ARGS = ["--operations", "MakeFiles,StatFiles", "--problemsize", "200",
            "--timelimit", "1", "--outdir", "out"]

# Wall seconds of the slowest entries (Release build, 4-vCPU host); they
# only order the queue, so the longest start first.
COST_HINT = {
    "bench_specsfs_curve": 37, "bench_smp_intranode": 20,
    "bench_large_directory": 16, "bench_sharded_saturation": 15,
    "bench_plugin_matrix": 14, "bench_nfs_vs_lustre_create": 13,
    "bench_fault_degradation": 12,
}

MASK = (1 << 64) - 1


def fnv1a64(data):
    h = 0xcbf29ce484222325
    for b in data:
        h = ((h ^ b) * 0x100000001b3) & MASK
    return h


def digest(data):
    return "%016x" % fnv1a64(data)


def entries(build):
    """Entry name -> argv, for every experiment binary and CLI model."""
    bench_dir = os.path.join(build, "bench")
    out = {}
    for name in sorted(os.listdir(bench_dir)):
        path = os.path.join(bench_dir, name)
        if (name.startswith("bench_") and name not in HOST_TIMED
                and os.access(path, os.X_OK) and os.path.isfile(path)):
            out[name] = [path]
    cli = os.path.join(build, "tools", "dmetabench")
    for model in CLI_MODELS:
        out["cli-" + model] = [cli, "--fs", model] + CLI_ARGS
    return out


def run_entry(name, argv):
    """Runs one entry in a fresh directory; returns (lines, error, secs).
    lines are the digest lines of the corpus file for this entry."""
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="golden-") as cwd:
        try:
            proc = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE)
        except OSError as e:
            return None, str(e), 0.0
        secs = time.monotonic() - t0
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip()[-400:]
            return None, "exit status %d: %s" % (proc.returncode, tail), secs
        if name in WRITES:
            err = compare_written(cwd, WRITES[name])
            if err:
                return None, err, secs
        if not name.startswith("cli-"):
            return ([(digest(line), line.decode(errors="replace"))
                     for line in proc.stdout.split(b"\n")], None, secs)
        outdir = os.path.join(cwd, "out")
        files = []
        for base, _, names in os.walk(outdir):
            for n in names:
                full = os.path.join(base, n)
                with open(full, "rb") as f:
                    files.append((os.path.relpath(full, outdir),
                                  digest(f.read())))
        return ([("%s %s" % (rel, d), rel) for rel, d in sorted(files)],
                None, secs)


def compare_written(cwd, fname):
    """Whether \\p fname as written into \\p cwd differs from its
    committed copy: an error message, or None."""
    try:
        with open(os.path.join(cwd, fname), "rb") as f:
            got = f.read()
    except FileNotFoundError:
        return "wrote no %s" % fname
    with open(os.path.join(ROOT, fname), "rb") as f:
        if f.read() != got:
            return "%s differs from the committed copy" % fname
    return None


def corpus_path(name):
    return os.path.join(CORPUS, name + ".txt")


def compare(name, got):
    """The first difference between \\p got and the corpus, or None."""
    try:
        with open(corpus_path(name)) as f:
            want = f.read().split("\n")[:-1]
    except FileNotFoundError:
        return "no corpus file %s (run with --update)" % corpus_path(name)
    what = "file" if name.startswith("cli-") else "line"
    for i, (key, text) in enumerate(got):
        if i >= len(want):
            return "%s %d is extra: %r" % (what, i + 1, text)
        if key != want[i]:
            if what == "file":
                return "file %r differs (corpus: %s)" % (text, want[i])
            return "line %d differs: %r" % (i + 1, text)
    if len(got) < len(want):
        return "%s %d is missing (output has %d)" % (what, len(got) + 1,
                                                      len(got))
    return None


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--build", default=os.path.join(ROOT, "build"),
                    help="build tree holding bench/ and tools/")
    ap.add_argument("-j", type=int, default=os.cpu_count() or 1,
                    help="concurrent processes (default: CPU count)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the corpus instead of comparing")
    args = ap.parse_args()

    build = os.path.abspath(args.build)
    if not os.path.isdir(os.path.join(build, "bench")):
        print("golden.py: no bench/ in build tree %s" % build,
              file=sys.stderr)
        return 2
    all_entries = entries(build)
    stale = sorted(f[:-4] for f in os.listdir(CORPUS)
                   if f.endswith(".txt") and f[:-4] not in all_entries)
    names = sorted(all_entries, key=lambda n: (-COST_HINT.get(n, 0), n))

    t0 = time.monotonic()
    failures = 0
    jobs = max(1, min(args.j, os.cpu_count() or 1))
    with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
        futures = {pool.submit(run_entry, n, all_entries[n]): n
                   for n in names}
        for fut in concurrent.futures.as_completed(futures):
            name = futures[fut]
            got, err, secs = fut.result()
            if err is None and args.update:
                with open(corpus_path(name), "w") as f:
                    f.write("".join(key + "\n" for key, _ in got))
            elif err is None:
                err = compare(name, got)
            if err:
                failures += 1
                print("FAIL %s: %s" % (name, err), flush=True)
            else:
                print("ok   %-32s %6.1f s" % (name, secs), flush=True)
    for name in stale:
        if args.update:
            os.remove(corpus_path(name))
            print("removed %s (no such entry)" % corpus_path(name))
        else:
            failures += 1
            print("FAIL %s: corpus file without an entry" % name)
    print("golden.py: %d entries, %d failed, %.1f s wall" %
          (len(names), failures, time.monotonic() - t0))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
