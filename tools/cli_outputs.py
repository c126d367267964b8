"""Record the CLI output of the benchmark jobs, and compare two recordings.

Usage: python tools/cli_outputs.py CHECKOUT OUT.json
       python tools/cli_outputs.py --compare A.json B.json

The first form runs the jobs of ``gen.make_round(workload, seed)`` for seeds
1-3 of every benchmark workload, then the fixed ``EDGE_JOBS``, through
``zetadet.cli.main`` of the checkout at CHECKOUT (its ``src/`` and
``perfbench/gen.py``), each with its own ``--format``, then the command lines
of ``ARGV_CASES`` on one ``eta`` job, and writes per job the exit code,
stdout with ``wallTimeSeconds`` blanked, and stderr.  Two checkouts give the
same file exactly when their CLI output agrees, so ``cmp A.json B.json``
checks byte identity.

``--compare`` parses the JSON and CSV stdout of both recordings and prints,
per output key, how many numbers moved and the largest absolute and relative
move (relative to the value in A).  It exits 1 when a job differs in exit
code, stderr (both are printed), a check's ``pass``, a row's ``status``, any
other non-numeric value, or the output's structure (keys, row counts, value
types), and 0 otherwise, however far the numbers moved.  Any other arguments
print the usage lines to stderr and exit 2.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import os
import re
import sys

SEEDS = (1, 2, 3)


def _finite(*values) -> dict:
    return {"type": "finite", "eigenvalues": [{"re": z.real, "im": z.imag} for z in map(complex, values)]}


def _rank1(a: complex) -> dict:
    return {"type": "rank1", "a": {"re": a.real, "im": a.imag}}


# Cases the seeded rounds miss, recorded as workload "edge".  ZERO_JOBS: sums
# that come out exactly 0, whose signed zeros show in the output, and zeta at
# s = 0.  The eigenvalue -i is complex(0.0, -1.0): the literal -1j has real
# part -0.0.
ZERO_JOBS = (
    {"schemaVersion": 1, "command": "det", "theta": -0.7, "model": _finite(1)},
    {"schemaVersion": 1, "command": "zeta", "model": _finite(1, -1), "params": {"s": {"re": 0.0, "im": 0.0}}},
    {"schemaVersion": 1, "command": "eta", "model": _finite(1j, complex(0.0, -1.0))},
    {"schemaVersion": 1, "command": "verify", "model": _finite(1, -1)},
)
# CONSTANT_JOBS: inputs on either side of each method constant in config, so a
# recording moves when one of them does.  Beside +-i, real parts 5e-13 and 2e-12
# straddle IMAG_AXIS; rank-1 a = 1 + 5e-9 and 1 + 2e-8 straddle ACYCLIC_DISTANCE;
# points 5e-10 and 2e-9 in angle from the default cut straddle AGMON_EPSILON;
# the squares of {1, -(1 + 1e-13)} and {1, -(1 + 1e-12)} merge at
# MERGE_SIGNIFICANT_DIGITS (the latter's not at one digit more), and those of
# {1, -(1 + 1e-11)} only at fewer digits.
_THETA = -math.pi / 4.0
CONSTANT_JOBS = (
    {"schemaVersion": 1, "command": "eta",
     "model": _finite(complex(5e-13, 1.0), complex(5e-13, -1.0), complex(2e-12, 1.0), complex(2e-12, -1.0))},
    {"schemaVersion": 1, "command": "torsion", "model": _rank1(1 + 5e-9)},
    {"schemaVersion": 1, "command": "torsion", "model": _rank1(1 + 2e-8)},
    {"schemaVersion": 1, "command": "det", "model": _finite(cmath.rect(2.0, _THETA + 5e-10))},
    {"schemaVersion": 1, "command": "det", "model": _finite(cmath.rect(2.0, _THETA + 2e-9))},
    {"schemaVersion": 1, "command": "verify", "model": _finite(1, -(1 + 1e-13))},
    {"schemaVersion": 1, "command": "verify", "model": _finite(1, -(1 + 1e-12))},
    {"schemaVersion": 1, "command": "verify", "model": _finite(1, -(1 + 1e-11))},
)
# CUT_RANGE_JOBS: det of {2 + i} at the last cut angle whose float spacing is
# within AGMON_EPSILON, 2**23 - 1/2, and at the first one beyond it, 2**23,
# which the CLI refuses.
CUT_RANGE_JOBS = (
    {"schemaVersion": 1, "command": "det", "theta": 8388607.5, "model": _finite(2 + 1j)},
    {"schemaVersion": 1, "command": "det", "theta": 8388608.0, "model": _finite(2 + 1j)},
)
# HYPOTHESIS_JOBS: verify at the default cut -pi/4 on points in the lower
# hypothesis sector (-pi/2, -pi/4], both of them, so the witness is the first
# listed; and on 2 e^{2i}, in the upper sector (pi/2, 3 pi/4].
HYPOTHESIS_JOBS = (
    {"schemaVersion": 1, "command": "verify", "model": _finite(0.5349961 - 1.9271156j, 0.3 - 1.9j)},
    {"schemaVersion": 1, "command": "verify", "model": _finite(-0.8322937 + 1.8185949j, 3)},
)
EDGE_JOBS = ZERO_JOBS + CONSTANT_JOBS + CUT_RANGE_JOBS + HYPOTHESIS_JOBS
# ARGV_CASES: command lines around ARGV_JOB, which they read from stdin, recorded
# as workload "argv".  The first eight are forms of ["eta", "--config", "-"] and
# the next two ask for help, all exiting 0; the last five exit 2 with bad-args.
ARGV_JOB = {"schemaVersion": 1, "command": "eta", "model": {"type": "lattice", "a": {"re": 0.3, "im": 0.1}}}
ARGV_CASES = (
    ["eta", "--config=-"],
    ["--config", "-", "eta"],
    ["eta", "--conf", "-", "--form", "json"],
    ["eta", "--c", "-", "--f=json"],
    ["eta", "--config", "-", "--tol", "reality=1e-9"],
    ["eta", "--config", "BAD", "--config", "-"],
    ["--config", "-", "--", "eta"],
    ["eta", "--config", "-", "--format", "csv", "--format", "json"],
    ["--help"],
    ["eta", "--config", "-", "-h"],
    ["eta", "--config"],
    ["eta", "--config", "-", "--format", "xml"],
    ["eta", "--config", "-", "--frobnicate"],
    ["eta", "det", "--config", "-"],
    [],
)

_WALL = re.compile(r'"wallTimeSeconds":[^,}]*')


def run_job(main, argv: list, config: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    real_stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(config))
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


def _leaves(node, key: str, index: tuple, out: dict) -> None:
    """Flatten parsed output into ``out[(key, index)] = leaf``.

    The key names the output field with list positions left out, or with the
    ``name`` of a named list element (a check); the index keeps the positions.
    Empty lists and objects are leaves themselves.
    """
    if isinstance(node, dict) and node:
        for k, v in node.items():
            _leaves(v, f"{key}.{k}" if key else k, index, out)
    elif isinstance(node, list) and node:
        for i, v in enumerate(node):
            tag = f"[{v['name']}]" if isinstance(v, dict) and isinstance(v.get("name"), str) else "[]"
            _leaves(v, key + tag, index + (i,), out)
    else:
        out[(key, index)] = node


def _parse(record: dict):
    """Parsed stdout: JSON, CSV as {"rows": [...]} with numeric cells as floats, else the text."""
    text = record["stdout"]
    if text and record["argv"][-1:] == ["csv"]:
        rows = list(csv.DictReader(io.StringIO(text)))
        for row in rows:
            for k, v in row.items():
                try:
                    row[k] = float(v)
                except ValueError:
                    pass
        return {"rows": rows}
    return json.loads(text) if text.startswith("{") else text


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        recs_a = json.load(fh)
    with open(path_b) as fh:
        recs_b = json.load(fh)
    problems: list = []
    moved: dict = {}  # key -> [values, moved, max abs, max rel]
    if len(recs_a) != len(recs_b):
        problems.append(f"{len(recs_a)} jobs against {len(recs_b)}")
    identical = 0
    for ra, rb in zip(recs_a, recs_b):
        job = f"{ra['workload']} seed {ra['seed']} slot {ra['slot']} ({' '.join(ra['argv'][:1])})"
        if ra == rb:
            identical += 1
        for field in ("workload", "seed", "slot", "argv", "exit"):
            if ra[field] != rb[field]:
                problems.append(f"{job}: {field} differs")
        if ra["stderr"] != rb["stderr"]:
            problems.append(f"{job}: stderr {ra['stderr'].rstrip()!r} -> {rb['stderr'].rstrip()!r}")
        leaves_a, leaves_b = {}, {}
        _leaves(_parse(ra), "", (), leaves_a)
        _leaves(_parse(rb), "", (), leaves_b)
        if leaves_a.keys() != leaves_b.keys():
            problems.append(f"{job}: output structure differs")
            continue
        for (key, idx), va in leaves_a.items():
            vb = leaves_b[(key, idx)]
            if not (_is_number(va) and _is_number(vb)):
                if va != vb or type(va) is not type(vb):
                    problems.append(f"{job}: {key} {va!r} -> {vb!r}")
                continue
            stats = moved.setdefault(key, [0, 0, 0.0, 0.0])
            stats[0] += 1
            if va != vb or type(va) is not type(vb):
                d = abs(vb - va)
                stats[1] += 1
                stats[2] = max(stats[2], d)
                stats[3] = max(stats[3], d / abs(va) if va else math.inf)
    print(f"{len(recs_a)} jobs, {identical} identical")
    print(f"{'key':48s} {'moved':>13s} {'max |d|':>10s} {'max |d|/|a|':>12s}")
    for key, (n, m, d, r) in sorted(moved.items()):
        if m:
            print(f"{key:48s} {m:6d}/{n:<6d} {d:10.3g} {r:12.3g}")
    print(f"{sum(1 for _, m, _, _ in moved.values() if not m)} further numeric keys unmoved")
    for p in problems:
        print(f"DIFFERS {p}")
    return 1 if problems else 0


def _usage() -> int:
    """Print the usage lines of the module docstring to stderr; exit code 2."""
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--compare"]:
        return compare(*args[1:]) if len(args) == 3 else _usage()
    if len(args) != 2 or args[0].startswith("-"):
        return _usage()
    checkout, out_path = args
    checkout = os.path.abspath(checkout)
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    import gen
    from zetadet import cli

    rounds = [(workload, seed, gen.make_round(workload, seed)) for workload in gen.WORKLOADS for seed in SEEDS]
    records = []
    for workload, seed, jobs in rounds + [("edge", 0, [gen.Job(config) for config in EDGE_JOBS])]:
        for i, job in enumerate(jobs):
            argv = [job.command, "--config", "-", "--format", job.fmt]
            records.append({"workload": workload, "seed": seed, "slot": i, **run_job(cli.main, argv, job.config)})
    for i, argv in enumerate(ARGV_CASES):
        records.append({"workload": "argv", "seed": 0, "slot": i, **run_job(cli.main, argv, ARGV_JOB)})
    with open(out_path, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(records)} jobs written to {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
