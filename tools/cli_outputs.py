"""Record the CLI output of the benchmark jobs, for byte-identity checks.

Usage: python tools/cli_outputs.py CHECKOUT OUT.json

Runs the jobs of ``gen.make_round(workload, seed)`` for seeds 1-3 of every
benchmark workload through ``zetadet.cli.main`` of the checkout at CHECKOUT
(its ``src/`` and ``perfbench/gen.py``), each with its own ``--format``, and
writes per job the exit code, stdout with ``wallTimeSeconds`` blanked, and
stderr.  Two checkouts give the same file exactly when their CLI output
agrees, so ``cmp A.json B.json`` is the check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys

SEEDS = (1, 2, 3)
_WALL = re.compile(r'"wallTimeSeconds":[^,}]*')


def run_job(main, job) -> dict:
    argv = [job.command, "--config", "-", "--format", job.fmt]
    out, err = io.StringIO(), io.StringIO()
    real_stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(job.config))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # recorded, so a crash shows in the comparison
                code = f"uncaught {type(exc).__name__}: {exc}"
    finally:
        sys.stdin = real_stdin
    return {
        "argv": argv,
        "exit": code,
        "stdout": _WALL.sub('"wallTimeSeconds":null', out.getvalue()),
        "stderr": err.getvalue(),
    }


def main(argv=None) -> int:
    checkout, out_path = (argv or sys.argv[1:])[:2]
    checkout = os.path.abspath(checkout)
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    import gen
    from zetadet import cli

    records = []
    for workload in gen.WORKLOADS:
        for seed in SEEDS:
            for i, job in enumerate(gen.make_round(workload, seed)):
                records.append({"workload": workload, "seed": seed, "slot": i, **run_job(cli.main, job)})
    with open(out_path, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(records)} jobs written to {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
