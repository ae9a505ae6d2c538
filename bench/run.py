"""starsdp benchmark: workloads that drive the public library API.

    python3 bench/run.py --workload npa-deep --seed 404 --seconds 30 --trace 0
    python3 bench/run.py --workload all        # the workloads of BENCHMARK.json

A run makes the workload's inputs from --seed, then runs passes over the
workload's operations until --seconds have gone by, at least one pass.
Before each pass a fresh interpreter times the setup.  Every operation's
output is checked after its pass, outside the timed region.  Times are
given at the reference machine speed that speed.py measures while they run.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced passes and reports its per-layer metrics,
taken from the traced passes, plus the tracing overhead.  METRICS.md
defines every metric.

Standard output ends with one JSON line: correct, attempted, failed and
metrics.  attempted counts each operation of the workload once, and failed
those that failed in any pass: an operation fails when it does not end
OPTIMAL or fails its check.  `correct` is false when an OPTIMAL result
fails its check.  The full record and the spans of a traced run go to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from stats import at_reference_speed, median, percentile
from tracing import CHECK_SPAN, Tracer, layer_metrics, parse_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("npa-deep", "complex-ladder", "hierarchy-pool", "symmetry-reduce")
SETUP_SPEED_SAMPLES = 8   # kernel samples after each setup probe, about 16 ms
MIN_SETUP_PROBES = 7      # fresh interpreters per run; setup_s is their median
CHILD_TIMEOUT = 170       # seconds, for one workload child of --workload all
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: at the seed commit a second one burned half again as much
# CPU for no gain in wall time, and made run-to-run times noisier.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=404)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def print_setup_time(workload, seed):
    """In a fresh interpreter: import starsdp and build the inputs, then
    take the machine's speed right after."""
    start = perf_counter()
    import workloads
    workloads.WORKLOADS[workload](seed)
    seconds = perf_counter() - start
    import speed                       # numpy is in by now, and timed
    speed.sample()                     # warm-up: first LAPACK call
    kernel_s = [speed.sample() for _ in range(SETUP_SPEED_SAMPLES)]
    print(json.dumps({"setup_s": at_reference_speed(seconds, kernel_s,
                                                    speed.REF_KERNEL_S),
                      "raw_s": seconds}))
    return 0


def probe_setup(workload, seed):
    """Setup time of one fresh interpreter, at the reference speed."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=60)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed):
    import numpy as np
    from workloads import TOL
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "starsdp").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS, "nproc": NPROC,
            "machine": platform.machine(), "commit": commit,
            "source_sha256": digest.hexdigest(), "seed": seed,
            "tol_gap": TOL, "tol_feas": TOL}


def run_pass(wl, tracer):
    """One timed pass over the workload's operations, then its checks.

    A speed probe samples the machine's pace over the pass; the time its
    handler takes is left out of every latency."""
    import speed
    ops = wl.ops()
    outs, latency = [], []
    first = 0
    if tracer:
        first = len(tracer.spans)
        tracer.install()
    try:
        with speed.SpeedProbe() as probe:
            begin = perf_counter()
            for i, (_, fn) in enumerate(ops):
                if tracer:
                    tracer.op = i
                t, spent = perf_counter(), probe.spent
                outs.append(fn())
                latency.append(perf_counter() - t - (probe.spent - spent))
            clock = perf_counter() - begin      # the clock span times use
            wall = clock - probe.spent
        if tracer:
            tracer.op = -1
        with tracer.span(CHECK_SPAN) if tracer else nullcontext():
            reasons = wl.check(outs)
    finally:
        if tracer:
            tracer.uninstall()

    done = [(label, out, t) for (label, _), out, t in zip(ops, outs, latency)
            if out is not None]
    record = {"traced": tracer is not None, "raw_wall_s": wall, "clock_s": clock,
              "kernel_s": probe.samples,
              "wall_s": at_reference_speed(wall, probe.samples, speed.REF_KERNEL_S),
              "latency_s": [t for _, _, t in done], "failures": []}
    for (label, _), out, why in zip(ops, outs, reasons):
        if out is None:
            continue
        status = wl.status(out).name
        if status != "OPTIMAL" or why:
            record["failures"].append({"op": label, "status": status, "reason": why,
                                       "wrong": status == "OPTIMAL"})
    if tracer:
        record["layers"] = layer_metrics(tracer.spans[first:],
                                         [wl.shape(out) for _, out, _ in done])
    return record


def run_workload(name, seed, seconds, trace):
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    layers_once = {"symmetry.full_solve_s": 0.0}
    if hasattr(wl, "solve_references"):
        t = perf_counter()
        wl.solve_references()
        layers_once["symmetry.full_solve_s"] = perf_counter() - t

    tracer = Tracer() if trace else None
    if tracer:
        parse = []
        for _ in range(3):
            first = len(tracer.spans)
            tracer.install()
            try:
                workloads.WORKLOADS[name](seed)
            finally:
                tracer.uninstall()
            parse.append(parse_seconds(tracer.spans[first:]))
        layers_once["problems.parse_s"] = median(parse)

    # A setup probe before every pass spreads the probes over the run, so
    # their median does not hang on one stretch of a noisy machine.
    passes, setup = [], []
    begin = perf_counter()
    while (not passes or perf_counter() - begin < seconds
           or (tracer and len(passes) < 2)):
        setup.append(probe_setup(name, seed))
        gc.collect()          # the last pass's garbage must not add to this one
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(wl, tracer if traced else None))
    while len(setup) < MIN_SETUP_PROBES:
        setup.append(probe_setup(name, seed))

    plain = [p for p in passes if not p["traced"]]
    latency_ms = [1e3 * t for p in plain for t in p["latency_s"]]
    p90 = percentile(latency_ms, 90)
    values = {
        "setup_s": median([s["setup_s"] for s in setup]),
        "wall_s": median([p["wall_s"] for p in plain]),
        "op_p50_ms": percentile(latency_ms, 50),
        "op_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        traced = [p for p in passes if p["traced"]]
        values.update(layers_once)
        for key in traced[0]["layers"]:
            values[key] = median([p["layers"][key] for p in traced])
        # on the clock of the span times, the probe's handler included, so
        # layer times are shares of it; the overhead compares the two kinds
        # of pass at the reference speed
        values["trace.wall_s"] = median([p["clock_s"] for p in traced])
        values["trace.overhead_s"] = (median([p["wall_s"] for p in traced])
                                      - values["wall_s"])

    failures = Counter((f["op"], f["status"], f["reason"], f["wrong"])
                       for p in passes for f in p["failures"])
    return {
        "workload": name, "trace": trace, "seconds": seconds,
        "environment": environment(seed),
        "passes": len(passes), "traced_passes": sum(p["traced"] for p in passes),
        "ops_per_pass": len(plain[0]["latency_s"]),
        "attempted": len(plain[0]["latency_s"]),
        "failed": len({op for op, *_ in failures}),
        "wrong": len({op for op, _, _, wrong in failures if wrong}),
        "failures": [{"op": op, "status": st, "reason": why, "passes": n}
                     for (op, st, why, _), n in failures.items()],
        "setup_samples_s": [s["setup_s"] for s in setup],
        "setup_raw_s": [s["raw_s"] for s in setup],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_raw_wall_s": [p["raw_wall_s"] for p in passes],
        "pass_speed": [p["wall_s"] / p["raw_wall_s"] for p in passes],
        "raw_wall_s": median([p["raw_wall_s"] for p in plain]),
        "latency_samples": len(latency_ms),
        "latency_beyond_p90": sum(v > p90 for v in latency_ms),
        "values": values,
        "spans": tracer.spans if tracer else [],
    }


def report(record, spec):
    """Human-readable lines, then the metrics object of the JSON line."""
    env = record["environment"]
    print(f"# {record['workload']}  seed {env['seed']}  trace {record['trace']}  "
          f"passes {record['passes']} ({record['traced_passes']} traced)  "
          f"ops/pass {record['ops_per_pass']}")
    print("# env " + json.dumps(env, sort_keys=True))
    values = record["values"]
    n = record["latency_samples"]
    notes = {
        "setup_s": f"median of {len(record['setup_samples_s'])} fresh interpreters",
        "wall_s": (f"median of {len(record['pass_wall_s']) - record['traced_passes']}"
                   f" untraced passes; {record['raw_wall_s']:.4g} s as measured"),
    }

    def line(name, value, unit, note=""):
        print(f"{name:<30} {value:>14.6g} {unit:<17} {note}")

    metrics = {}
    for m in spec["per_layer" if record["trace"] else "end_to_end"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        line(m["name"], values[m["name"]], m["unit"], notes.get(m["name"], ""))
    # printed, but outside the JSON metrics: see METRICS.md
    line("op_p50_ms", values["op_p50_ms"], "ms", f"n={n} ops")
    line("op_p90_ms", values["op_p90_ms"], "ms",
         f"n={n} ops, {record['latency_beyond_p90']} beyond")
    line("fail_rate", record["failed"] / record["attempted"], "ratio",
         f"{record['failed']} of {record['attempted']} ops, in any of "
         f"{record['passes']} passes")
    for f in record["failures"]:
        print(f"#   failed {f['op']}: {f['status']}"
              + (f", {f['reason']}" if f["reason"] else "")
              + f" (in {f['passes']} passes)")
    return metrics


def save(record):
    OUT.mkdir(exist_ok=True)
    stem = f"{record['workload']}-s{record['environment']['seed']}-t{record['trace']}"
    spans = record.pop("spans")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def run_all(args, spec):
    """Each workload in its own process, so each has its own peak RSS."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            summary["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "starsdp" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"bench: needs the starsdp sources in {SRC} and {SPEC.name}",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)   # before numpy is first imported
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return print_setup_time(args.workload, args.seed)

    import selfcheck
    selfcheck.run()
    spec = json.loads(SPEC.read_text())
    if args.workload == "all":
        return run_all(args, spec)
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    metrics = report(record, spec)
    save(record)
    print(json.dumps({"correct": record["wrong"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
