"""``tools/cli_outputs.py``: its edge jobs, and ``--compare`` on small hand-built recordings."""

import copy
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "cli_outputs", Path(__file__).resolve().parents[1] / "tools" / "cli_outputs.py"
)
cli_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_outputs)

_JSON_OUT = {
    "checks": [{"name": "trs_log_ratio", "pass": True, "residual": 2e-15, "tolerance": 1e-6}],
    "results": {"torsion": {"re": 0.41, "im": -1.26}},
    "wallTimeSeconds": None,
}
_CSV_OUT = "a_re,a_im,t_abs,status\n0.3,0.0,1.618,ok\n0.7,0.0,1.618,ok\n"


def _recording():
    return [
        {
            "workload": "model_jobs", "seed": 1, "slot": 0,
            "argv": ["torsion", "--config", "-", "--format", "json"],
            "exit": 0, "stdout": json.dumps(_JSON_OUT) + "\n", "stderr": "",
        },
        {
            "workload": "scan_grid", "seed": 1, "slot": 1,
            "argv": ["scan", "--config", "-", "--format", "csv"],
            "exit": 0, "stdout": _CSV_OUT, "stderr": "",
        },
    ]


def _compare(tmp_path, recs_b):
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    path_a.write_text(json.dumps(_recording()))
    path_b.write_text(json.dumps(recs_b))
    return cli_outputs.main(["--compare", str(path_a), str(path_b)])


def _json_job(change):
    recs = _recording()
    out = copy.deepcopy(_JSON_OUT)
    change(out)
    recs[0]["stdout"] = json.dumps(out) + "\n"
    return recs


def _csv_job(stdout):
    recs = _recording()
    recs[1]["stdout"] = stdout
    return recs


@pytest.mark.parametrize("argv", [[], ["checkout"], ["--compare"], ["--compare", "a.json"], ["a", "b", "c"]])
def test_wrong_arguments_print_usage_and_exit_2(capsys, argv):
    assert cli_outputs.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "Usage: python tools/cli_outputs.py CHECKOUT OUT.json",
        "       python tools/cli_outputs.py --compare A.json B.json",
    ]


def test_identical_recordings_exit_0(tmp_path, capsys):
    assert _compare(tmp_path, _recording()) == 0
    out = capsys.readouterr().out
    assert "2 jobs, 2 identical" in out
    assert "DIFFERS" not in out


@pytest.mark.parametrize(
    "recs_b, key, moved",
    [
        (_json_job(lambda out: out["results"]["torsion"].update(re=0.41 + 1e-15)), "results.torsion.re", "1/1"),
        (_json_job(lambda out: out["checks"][0].update(residual=3e-15)), "checks[trs_log_ratio].residual", "1/1"),
        (_csv_job(_CSV_OUT.replace("0.7,0.0,1.618", "0.7,0.0,1.6180000000000003")), "rows[].t_abs", "1/2"),
    ],
)
def test_moved_number_exits_0_and_is_listed(tmp_path, capsys, recs_b, key, moved):
    assert _compare(tmp_path, recs_b) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "2 jobs, 1 identical" in lines
    assert [line.split()[:2] for line in lines if line.startswith(key + " ")] == [[key, moved]]


def test_changed_row_status_exits_1(tmp_path, capsys):
    assert _compare(tmp_path, _csv_job(_CSV_OUT.replace("0.7,0.0,1.618,ok", "0.7,0.0,,NonAcyclic"))) == 1
    assert "DIFFERS scan_grid seed 1 slot 1 (scan): rows[].status 'ok' -> 'NonAcyclic'" in capsys.readouterr().out


def test_changed_check_pass_exits_1(tmp_path, capsys):
    assert _compare(tmp_path, _json_job(lambda out: out["checks"][0].update({"pass": False}))) == 1
    assert "checks[trs_log_ratio].pass True -> False" in capsys.readouterr().out


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda recs: recs[0].update(exit=1), "exit differs"),
        (lambda recs: recs[0].update(stderr="bad\n"), "(torsion): stderr '' -> 'bad'"),
        (lambda recs: recs[0].update(stdout=json.dumps({**_JSON_OUT, "results": {}}) + "\n"), "output structure differs"),
        (lambda recs: recs[1].update(stdout=_CSV_OUT + "0.9,0.0,0.618,ok\n"), "output structure differs"),
        (lambda recs: recs.pop(), "2 jobs against 1"),
    ],
)
def test_changed_exit_code_or_structure_exits_1(tmp_path, capsys, change, message):
    recs = _recording()
    change(recs)
    assert _compare(tmp_path, recs) == 1
    assert message in capsys.readouterr().out


def _floats(node):
    if isinstance(node, dict):
        for v in node.values():
            yield from _floats(v)
    elif isinstance(node, list):
        for v in node:
            yield from _floats(v)
    elif isinstance(node, float):
        yield node


def _records(tmp_path, monkeypatch):
    # only the edge jobs and the command lines: the seeded rounds take seconds
    monkeypatch.setattr(cli_outputs, "SEEDS", ())
    monkeypatch.setattr(sys, "path", list(sys.path))
    out = tmp_path / "rec.json"
    assert cli_outputs.main([str(Path(__file__).resolve().parents[1]), str(out)]) == 0
    recs = json.loads(out.read_text())
    edge = [[job["command"], "--config", "-", "--format", "json"] for job in cli_outputs.EDGE_JOBS]
    assert [(r["workload"], r["slot"], r["argv"]) for r in recs] == [
        *(("edge", i, argv) for i, argv in enumerate(edge)),
        *(("argv", i, argv) for i, argv in enumerate(cli_outputs.ARGV_CASES)),
    ]
    return recs


def _edge_records(tmp_path, monkeypatch):
    return _records(tmp_path, monkeypatch)[:len(cli_outputs.EDGE_JOBS)]


def test_edge_jobs_are_recorded_with_positive_zeros(tmp_path, monkeypatch):
    recs = _edge_records(tmp_path, monkeypatch)[:len(cli_outputs.ZERO_JOBS)]
    assert len(recs) == 4
    for rec in recs:
        assert (rec["exit"], rec["stderr"]) == (0, "")
        # every job sums to an exact 0 somewhere; a sum that flips its sign prints -0.0
        zeros = [x for x in _floats(json.loads(rec["stdout"])) if x == 0.0]
        assert zeros and all(math.copysign(1.0, x) == 1.0 for x in zeros), rec["stdout"]


def test_constant_jobs_fall_on_their_sides(tmp_path, monkeypatch):
    from zetadet import Finite, square_spectrum

    start = len(cli_outputs.ZERO_JOBS)
    recs = _edge_records(tmp_path, monkeypatch)[start:start + len(cli_outputs.CONSTANT_JOBS)]
    codes = [json.loads(r["stderr"])["error"]["code"] if r["exit"] == 2 else r["exit"] for r in recs]
    assert codes == [0, "NonAcyclic", 0, "NotAgmon", 0, 0, 0, 0]
    # on the axis: 5e-13 +- i, counted in m_+ and m_-; off it: 2e-12 +- i, in eta(0)
    assert json.loads(recs[0]["stdout"])["results"]["eta"] == {"re": 1.0, "im": 0.0}
    # the verify models' squares: merged, merged, apart
    for job, merged in zip(cli_outputs.CONSTANT_JOBS[5:], (True, True, False)):
        spec = Finite.of(*(complex(e["re"], e["im"]) for e in job["model"]["eigenvalues"]))
        assert len(square_spectrum(spec).eigenvalues) == (1 if merged else 2)


def test_cut_range_jobs_fall_on_their_sides(tmp_path, monkeypatch):
    start = len(cli_outputs.ZERO_JOBS) + len(cli_outputs.CONSTANT_JOBS)
    accepted, refused = _edge_records(tmp_path, monkeypatch)[start:start + len(cli_outputs.CUT_RANGE_JOBS)]
    assert (accepted["exit"], accepted["stderr"]) == (0, "")
    det = json.loads(accepted["stdout"])["results"]["det"]
    assert complex(det["re"], det["im"]) == pytest.approx(2 + 1j, rel=1e-12)
    assert refused["exit"] == 2
    error = json.loads(refused["stderr"])["error"]
    assert error["code"] == "bad-value"
    assert error["message"].startswith("cut angle 8388608.0: the float spacing 1.86e-09 exceeds agmon_epsilon")


def test_hypothesis_jobs_name_their_witness(tmp_path, monkeypatch):
    recs = _edge_records(tmp_path, monkeypatch)[-len(cli_outputs.HYPOTHESIS_JOBS):]
    errors = [json.loads(r["stderr"])["error"] for r in recs]
    assert [(r["exit"], e["code"]) for r, e in zip(recs, errors)] == [(2, "HypothesisViolated")] * 2
    # the first point listed is the witness: in (-pi/2, -pi/4], then in (pi/2, 3*pi/4]
    assert errors[0]["message"] == (
        f"eigenvalue (0.5349961-1.9271156j) lies in the hypothesis sector ({-math.pi / 2}, {-math.pi / 4}]"
    )
    assert errors[1]["message"] == (
        f"eigenvalue (-0.8322937+1.8185949j) lies in the hypothesis sector ({math.pi / 2}, {-math.pi / 4 + math.pi}]"
    )


def test_command_lines_are_recorded_with_their_exit_codes(tmp_path, monkeypatch, capsys):
    recs = _records(tmp_path, monkeypatch)[-len(cli_outputs.ARGV_CASES):]
    assert [r["exit"] for r in recs] == [0] * 10 + [2] * 5
    # the forms of one command line print one output, apart from the echoed tolerance override
    eta = {r["stdout"] for r in recs[:8] if "--tol" not in r["argv"]}
    assert len(eta) == 1 and json.loads(eta.pop())["results"]["eta"] == {"re": 0.2, "im": -0.1}
    assert all(r["stdout"].startswith("usage: zetadet") and r["stderr"] == "" for r in recs[8:10])
    errors = [json.loads(r["stderr"])["error"] for r in recs[10:]]
    assert all(r["stdout"] == "" for r in recs[10:]) and {e["code"] for e in errors} == {"bad-args"}
    assert errors[1]["message"] == "argument --format: invalid choice: 'xml' (choose from 'json', 'csv')"
    # --compare reads the usage text and the empty command line
    path, n = tmp_path / "rec.json", len(cli_outputs.EDGE_JOBS) + len(recs)
    assert cli_outputs.main(["--compare", str(path), str(path)]) == 0
    assert f"{n} jobs, {n} identical" in capsys.readouterr().out
