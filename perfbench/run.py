#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the zetadet CLI jobs.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

With ``--workload`` it runs one workload and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` it runs every workload in turn and
prints a table.

Steps of one run, all inside the checkout that holds this file:

1. gen.py makes one round of job configs from the seed;
2. ``setup_s`` is the median wall time of fresh ``python -m zetadet.cli``
   starts that each run the round's first (small) job, after one discarded
   start (with ``--trace 1``: the ``-X importtime`` self times instead);
3. worker.py runs the round in one long-lived process, in a closed
   single-threaded loop, for the measured seconds (whole rounds only);
4. every job's output is checked against oracles.py, which computes the
   expected values apart from the program.  Jobs listed as known faults by
   gen.py are counted in ``failed``; any other failure makes ``correct``
   false.

The checkout must hold ``src/zetadet``; the program is pure Python, so
nothing is built.  Exits 2 without a result if the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
import gen  # noqa: E402
import worker  # noqa: E402

SETUP_STARTS = 10         # measured cold starts per run, after one discarded
START_TIMEOUT_S = 30
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env.pop("ZETADET_THREADS", None)
    env.pop("ZETADET_PURE", None)
    env["PYTHONPATH"] = SRC
    return env


def latency_percentiles(latencies, jobs_per_round: int) -> tuple[float, float]:
    """Median over blocks of whole rounds of each block's p50 and p90 latency.

    A block holds at least 100 jobs, so 10 lie beyond its p90; a trailing
    partial block is left out.  Taking the median over blocks keeps a burst
    of load on the machine, which slows every job of the rounds it hits,
    out of the figures.
    """
    size = worker.rounds_per_block(jobs_per_round) * jobs_per_round
    blocks = [latencies[i:i + size] for i in range(0, len(latencies) - size + 1, size)]
    deciles = [statistics.quantiles(b, n=10, method="inclusive") for b in blocks]
    return statistics.median(d[4] for d in deciles), statistics.median(d[8] for d in deciles)


def _cold_start(argv, env, importtime: bool):
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-m", "zetadet.cli"] + argv
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=START_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"cold start exited {proc.returncode}: {proc.stderr[-500:]}")
    return wall, proc.stdout, proc.stderr


def _import_self_ms(stderr: str) -> dict:
    """Sum of -X importtime self times of the numpy and zetadet modules."""
    totals = {"setup.import_numpy_ms": 0.0, "setup.import_zetadet_ms": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
        top = name.split(".")[0]
        if top in ("numpy", "zetadet"):
            totals[f"setup.import_{top}_ms"] += int(self_us) / 1000.0
    return totals


def summarize_setup(samples, importtime: bool) -> dict:
    """Median of the cold-start samples: wall time, or import self times."""
    if importtime:
        parsed = [_import_self_ms(err) for _, _, err in samples]
        return {k: statistics.median(p[k] for p in parsed) for k in parsed[0]}
    return {"setup_s": statistics.median(w for w, _, _ in samples)}


def _write_round(jobs, workdir: str) -> list[list[str]]:
    argvs = []
    for i, job in enumerate(jobs):
        path = os.path.join(workdir, f"{i:03d}_{job.command}.json")
        with open(path, "w") as fh:
            json.dump(job.config, fh)
        argvs.append([job.command, "--config", path, "--format", job.fmt])
    return argvs


def check_outputs(jobs, exit_codes, outputs):
    """Indices of failing jobs and a description of each failure."""
    import oracles

    failures = {}
    for i, (job, rc, text) in enumerate(zip(jobs, exit_codes, outputs)):
        if rc != 0:
            failures[i] = [f"exit code {rc}"]
            continue
        problems = oracles.check_output(job.config, text, job.fmt)
        if problems:
            failures[i] = problems
    return failures


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = gen.make_round(workload, seed)
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        argvs = _write_round(jobs, workdir)
        env = _env()
        # one discarded start warms bytecode and the page cache; the measured
        # starts are split before and after the workload, so that a burst of
        # load on the machine touches few of them
        _cold_start(argvs[0], env, trace)
        starts = [_cold_start(argvs[0], env, trace) for _ in range(SETUP_STARTS // 2)]
        os.makedirs(OUT, exist_ok=True)
        manifest = {
            "jobs": [{"argv": a} for a in argvs],
            "seconds": seconds,
            "trace": trace,
            "spans_path": os.path.join(OUT, f"spans-{workload}.bin"),
        }
        manifest_path = os.path.join(workdir, "manifest.json")
        result_path = os.path.join(workdir, "result.json")
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), manifest_path, result_path],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=3 * seconds + 60,
        )
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        with open(result_path) as fh:
            res = json.load(fh)
        starts += [_cold_start(argvs[0], env, trace) for _ in range(SETUP_STARTS - len(starts))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = check_outputs(jobs, res["exit_codes"], res["outputs"])
    known = {i for i, job in enumerate(jobs) if job.known_fault}
    unexpected = sorted(set(failures) - known)
    # the cold starts ran job 0 and must print what the warm-up printed
    strip = worker.normalize
    setup_ok = all(strip(out) == strip(res["outputs"][0]) for _, out, _ in starts)
    correct = not unexpected and res["mismatches"] == 0 and setup_ok
    for i in unexpected:
        print(f"job {i} ({jobs[i].command}) failed: {failures[i][:3]}", file=sys.stderr)
    if res["mismatches"]:
        print(f"{res['mismatches']} outputs differed from the warm-up round", file=sys.stderr)
    if not setup_ok:
        print("a cold start printed a different output for job 0", file=sys.stderr)

    rounds = res["timed_jobs"] // len(jobs)
    setup = summarize_setup(starts, trace)
    if trace:
        metrics = dict(res["layers"])
        metrics.update(setup)
        untraced = len(jobs) / statistics.median(res["untraced_round_walls"])
        traced = len(jobs) / statistics.median(res["traced_round_walls"])
        metrics["trace.untraced_jobs_per_s"] = untraced
        metrics["trace.traced_jobs_per_s"] = traced
        metrics["trace.overhead"] = untraced / traced
    else:
        p50, p90 = latency_percentiles(res["latencies"], len(jobs))
        metrics = {
            "setup_s": setup["setup_s"],
            "throughput_jobs_per_s": len(jobs) / statistics.median(res["round_walls"]),
            "job_p50_ms": 1000.0 * p50,
            "job_p90_ms": 1000.0 * p90,
            "peak_rss_mb": res["peak_rss_mb"],
        }
    return {
        "correct": correct,
        "attempted": res["timed_jobs"],
        "failed": rounds * len(failures),
        "metrics": metrics,
    }


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name == "trace.overhead":
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Every workload in its own process, then a table of the results."""
    rows = []
    for workload in gen.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        rows.append((workload, json.loads(proc.stdout.strip().splitlines()[-1])))
    for workload, res in rows:
        print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
        for name, metric in res["metrics"].items():
            print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    return 0 if all(res["correct"] for _, res in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zetadet", "cli.py")):
        print(f"zetadet sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    try:
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    res["metrics"] = {k: {"value": v, "unit": unit_of(k)} for k, v in res["metrics"].items()}
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
