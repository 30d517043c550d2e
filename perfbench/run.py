#!/usr/bin/env python3
"""Verb-level benchmark of the `phocus` binary.

    python3 perfbench/run.py --workload solve-p10k --seed 1 --seconds 15 --trace 0

Builds `phocus` and the `perfprobe` helper from source, generates the
workload's inputs from --seed (timed as setup_s), computes reference answers,
then runs the verb closed-loop, one process at a time with `--threads 1`,
until --seconds of verb wall time have been measured. Every decision is
checked against the reference solver outside the timed phases. With
--trace 1 each verb invocation is followed by a traced in-process replay of
its call sequence, and the per-layer metrics are printed instead of the
end-to-end ones.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import metrics  # noqa: E402

WORKLOADS = ("solve-p10k", "serve-catalog", "epochs-p10k", "compress-p5k")

# Independent inputs per run (part j uses seed * MAX_PARTS + j). Runs
# cycle through them, so seed-to-seed differences in input size average
# out within a run.
PARTS = {"solve-p10k": 6, "serve-catalog": 1, "epochs-p10k": 6, "compress-p5k": 1}
MAX_PARTS = 16
# Set-ups per run, at least: setup_s is the median time of one set-up.
MIN_SETUPS = 3


class BenchError(Exception):
    pass


def verb_args(workload, part_dir):
    """The verb invocation, run inside the part's input directory."""
    budget_mb = read(os.path.join(part_dir, "budget_mb")).strip()
    if workload == "solve-p10k":
        args = ["solve", "--dataset", "file:universe.txt", "--budget-mb", budget_mb, "--out", "out.tsv"]
    elif workload == "serve-catalog":
        args = ["serve-batch", "--catalog", "catalog", "--out-dir", "sols"]
    elif workload == "epochs-p10k":
        args = ["epochs", "--dataset", "file:universe.txt", "--budget-mb", budget_mb, "--trace", "trace.txt"]
    else:
        args = ["compress", "--dataset", "file:universe.txt", "--budget-mb", budget_mb, "--out", "out.tsv"]
    return args + ["--threads", "1"]


def parse_outputs(workload, d, stdout):
    if workload == "solve-p10k":
        return checks.parse_solve(stdout, read(os.path.join(d, "out.tsv")))
    if workload == "serve-catalog":
        return checks.parse_serve(stdout, os.path.join(d, "sols"))
    if workload == "epochs-p10k":
        return checks.parse_epochs(stdout)
    return checks.parse_compress(stdout, read(os.path.join(d, "out.tsv")))


def read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def run(cmd, cwd=ROOT, env=None):
    r = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if r.returncode != 0:
        raise BenchError("%s failed (exit %d): %s" % (" ".join(cmd), r.returncode, r.stderr.decode()[-2000:]))


def build():
    """Builds both binaries from the checkout; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise BenchError("no Cargo workspace at %s: nothing to build" % ROOT)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    run(["cargo", "build", "--release", "--offline", "-q", "-p", "phocus", "--bin", "phocus"], env=env)
    run(["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/probe/Cargo.toml"], env=env)
    return os.path.join(target, "release", "phocus"), os.path.join(target, "release", "perfprobe")


def input_hash(dirs):
    """sha256 over every generated file of each dir (index, relative path, bytes)."""
    h = hashlib.sha256()
    for i, d in enumerate(dirs):
        for dirpath, dirnames, filenames in os.walk(d):
            dirnames.sort()
            for f in sorted(filenames):
                path = os.path.join(dirpath, f)
                h.update(b"%d\0%s\0" % (i, os.path.relpath(path, d).encode()))
                with open(path, "rb") as fh:
                    h.update(fh.read())
                h.update(b"\0")
    return h.hexdigest()


def setup(workload, seed, work, phocus, probe):
    """Sets up every part once, then part 0 again until there are at least
    MIN_SETUPS set-ups, and never fewer than two of part 0.

    One set-up generates one part's inputs and, for serve-catalog, builds
    its catalog; its time leaves out the hashing. Returns (part dirs,
    set-up times, input hash of all parts, hashes of every part-0 set-up).
    Hashes cover the generated files only: they are taken before the
    catalog, which the program under test writes."""
    k = PARTS[workload]
    parts = [os.path.join(work, "part%d" % j) for j in range(k)]
    times, part0_hashes = [], []
    for i in range(max(MIN_SETUPS, k + 1)):
        j = i if i < k else 0
        d = parts[j] if i < k else os.path.join(work, "repeat%d" % i)
        t0 = time.perf_counter()
        run([probe, "gen", workload, str(seed * MAX_PARTS + j), d])
        elapsed = time.perf_counter() - t0
        if j == 0:
            part0_hashes.append(input_hash([d]))
        if workload == "serve-catalog":
            frac = read(os.path.join(d, "budget_frac")).strip()
            t0 = time.perf_counter()
            run([phocus, "catalog", "build", "--list", "tenants.list", "--out-dir", "catalog",
                 "--budget-frac", frac], cwd=d)
            elapsed += time.perf_counter() - t0
        times.append(elapsed)
        if i >= k:
            shutil.rmtree(d)
    return parts, times, input_hash(parts), part0_hashes


def invoke(phocus, args, d):
    """Runs one verb process; returns (wall_s, maxrss_bytes, exit_code, stdout)."""
    for name in ("out.tsv", "sols"):
        path = os.path.join(d, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)
    out_path = os.path.join(d, "verb.stdout")
    with open(out_path, "wb") as out, open(os.path.join(d, "verb.stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([phocus] + args, cwd=d, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024, proc.returncode, read(out_path)


def measure(workload, parts, refs, phocus, seconds, probe=None):
    """Closed loop over the parts, in whole cycles, until `seconds` of verb
    wall time; checks every decision of every invocation.

    With a probe, each verb invocation is followed by one traced run, so
    every trace pairs with the untraced wall time measured just before it.
    Returns (invocations, results, traces): an invocation is (wall_s,
    maxrss_bytes, photos), a result (ref, output, reasons).
    """
    invocations, results, traces = [], [], []
    while sum(w for w, _, _ in invocations) < seconds:
        for d, part_refs in zip(parts, refs):
            wall, maxrss, code, stdout = invoke(phocus, verb_args(workload, d), d)
            invocations.append((wall, maxrss, sum(r["photos"] for r in part_refs)))
            outputs = parse_outputs(workload, d, stdout)
            for ref in part_refs:
                out = outputs.get(ref["id"])
                reasons = checks.check(ref, out)
                if code != 0:
                    reasons.append("verb exited %d" % code)
                results.append((ref, out, reasons))
            if probe:
                path = os.path.join(d, "trace%d.json" % len(traces))
                run([probe, "trace", workload, d, path])
                with open(path) as f:
                    trace = json.load(f)
                traces.append(trace)
                by_id = {t["id"]: t for t in trace["decisions"]}
                for ref in part_refs:
                    reasons = checks.check_traced(ref, by_id.get(ref["id"]), outputs.get(ref["id"]))
                    results.append((ref, None, reasons))
    return invocations, results, traces


def end_to_end(setup_times, invocations, results, refs):
    scored = [(ref, out) for ref, out, _ in results if out and out.get("score") is not None]
    all_refs = [r for part in refs for r in part]
    return {
        "setup_s": statistics.median(setup_times),
        "photos_per_s": statistics.median(p / w for w, _, p in invocations),
        "peak_rss_mb": max(m for _, m, _ in invocations) / 1e6,
        "quality_frac": metrics.quality_frac([o["score"] for _, o in scored], [r["max"] for r, _ in scored]),
        "bound_ratio": metrics.ratio(sum(r["bound_score"] for r in all_refs), sum(r["ub"] for r in all_refs)),
    }


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if a.seed < 0:
        raise BenchError("--seed must be non-negative")

    phocus, probe = build()
    work = os.path.join(ROOT, ".bench_work", a.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    parts, setup_times, digest, part0_hashes = setup(a.workload, a.seed, work, phocus, probe)
    refs = []
    for j, d in enumerate(parts):
        run([probe, "reference", a.workload, d])
        with open(os.path.join(d, "reference.json")) as f:
            part_refs = json.load(f)["decisions"]
        for r in part_refs:
            r["part"] = j
        refs.append(part_refs)

    invocations, results, traces = measure(a.workload, parts, refs, phocus, a.seconds, probe if a.trace else None)

    failed = [r for r in results if r[2]]
    deterministic = len(set(part0_hashes)) == 1
    print("workload %s seed %d: inputs sha256 %s (%d parts; %d set-ups of part 0 %s)"
          % (a.workload, a.seed, digest, len(parts), len(part0_hashes),
             "identical" if deterministic else "DIFFER"))
    print("verb: phocus %s (%d invocations, %.3f s measured, %d CPUs available)"
          % (" ".join(verb_args(a.workload, parts[0])), len(invocations), sum(w for w, _, _ in invocations),
             len(os.sched_getaffinity(0))))
    for ref, _, reasons in failed[:20]:
        print("FAILED part%d %s: %s" % (ref["part"], ref["id"], "; ".join(reasons)))
    print("failed_frac %.6g ratio (%d of %d decisions)" % (len(failed) / len(results), len(failed), len(results)))

    if a.trace:
        values, notes = metrics.layer_metrics(traces, [w for w, _, _ in invocations])
        spec = metrics.PER_LAYER
        print("traces: %s/part*/trace*.json (%d traced runs)" % (os.path.relpath(work, ROOT), len(traces)))
    else:
        values, notes = end_to_end(setup_times, invocations, results, refs), {}
        spec = metrics.END_TO_END
    out = {}
    for name, unit, better in spec:
        out[name] = {"value": values[name], "unit": unit}
        print("%-34s %14.6g %-11s (%s is better)%s"
              % (name, values[name], unit, better, "  [%s]" % notes[name] if name in notes else ""))
    print(json.dumps({
        "correct": not failed and deterministic,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
