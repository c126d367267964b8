"""Workload process: runs one round of CLI jobs over and over through
``zetadet.cli.main``, in a closed single-threaded loop, and writes what it
measured to a JSON file.

Usage: python worker.py MANIFEST RESULT

The manifest (written by run.py) lists each job's CLI arguments, the
measured seconds and whether to trace.  The first round is a warm-up; its
outputs are the reference the oracles check, and every later output must
equal it apart from ``wallTimeSeconds``.  Only whole rounds are timed.

Without tracing the whole time is one timed phase.  With tracing, half of it
is untraced and half traced, so the ratio of the two throughputs is the
tracing overhead.  The oracle libraries are never imported here, so the peak
RSS read after the timed loop is the program's own.
"""

from __future__ import annotations

import io
import json
import math
import resource
import sys
import time

MIN_BLOCK_JOBS = 100


def rounds_per_block(jobs_per_round: int) -> int:
    """Rounds in one latency block: the fewest, odd, holding MIN_BLOCK_JOBS jobs.

    With 45, 25 and 35 jobs per round, an odd count puts a block's p50 and
    p90 inside one job slot's group of latencies, not on the edge between
    two slots, where the figure would jump between them.
    """
    b = math.ceil(MIN_BLOCK_JOBS / jobs_per_round)
    return b + 1 - b % 2


def normalize(text: str) -> str:
    """Output without the run-dependent wallTimeSeconds field."""
    cut = text.rfind('"wallTimeSeconds":')
    return text if cut < 0 else text[:cut]


class Loop:
    def __init__(self, main, argvs):
        self.main = main
        self.argvs = argvs
        self.reference = []     # (exit code, normalized output) per job
        self.outputs = []       # raw warm-up output per job
        self.mismatches = 0
        self.latencies = []

    def _call(self, argv):
        real = sys.stdout
        sys.stdout = buf = io.StringIO()
        try:
            t0 = time.perf_counter()
            rc = self.main(argv)
            t1 = time.perf_counter()
        finally:
            sys.stdout = real
        return rc, buf.getvalue(), t1 - t0

    def warm_up(self):
        for argv in self.argvs:
            rc, text, _ = self._call(argv)
            self.outputs.append(text)
            self.reference.append((rc, normalize(text)))

    def timed(self, seconds: float, tracer=None) -> list[float]:
        """Run whole rounds for at least ``seconds``; return each round's wall time."""
        walls = []
        t0 = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            for i, argv in enumerate(self.argvs):
                if tracer is not None:
                    tracer.job_id = len(walls) * len(self.argvs) + i
                rc, text, dt = self._call(argv)
                self.latencies.append(dt)
                if (rc, normalize(text)) != self.reference[i]:
                    self.mismatches += 1
            now = time.perf_counter()
            walls.append(now - r0)
            if now - t0 >= seconds and len(walls) >= rounds_per_block(len(self.argvs)):
                return walls


def main(argv=None):
    manifest_path, result_path = (argv or sys.argv[1:])[:2]
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    from zetadet import cli

    loop = Loop(cli.main, [job["argv"] for job in manifest["jobs"]])
    loop.warm_up()
    seconds = manifest["seconds"]
    result = {}
    if not manifest["trace"]:
        walls = loop.timed(seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["latencies"] = loop.latencies
        result["round_walls"] = walls
    else:
        from tracing import Tracer

        untraced = loop.timed(seconds / 2)
        tracer = Tracer()
        tracer.install()
        traced = loop.timed(seconds / 2, tracer)
        tracer.uninstall()
        tracer.dump(manifest["spans_path"])
        result["layers"] = tracer.per_job(len(traced) * len(loop.argvs))
        result["untraced_round_walls"] = untraced
        result["traced_round_walls"] = traced
        walls = untraced + traced
    result.update(
        timed_jobs=len(walls) * len(loop.argvs),
        mismatches=loop.mismatches,
        exit_codes=[rc for rc, _ in loop.reference],
        outputs=loop.outputs,
    )
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
