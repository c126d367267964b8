import cmath
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from zetadet import circle as circ, cli
from zetadet.cli import (
    COMMANDS,
    main,
    parse_config,
    render_csv,
    render_json,
    run,
    scan_rows,
)
from zetadet.config import DEFAULT_TOLERANCES, MAX_SCAN_POINTS, Tolerances
from zetadet.errors import SchemaError, ZetaDetError
from zetadet.spectrum import square_spectrum

PI = math.pi


ONE_POINT_GRID = {
    "reStart": 0.3, "reStop": 0.3, "reSteps": 1, "imStart": 0.0, "imStop": 0.0, "imSteps": 1,
}


def _job(command, model=None, **kwargs):
    raw = {"schemaVersion": 1, "command": command, **kwargs}
    if model is not None:
        raw["model"] = model
    return parse_config(raw)


def _mask_wall_time(text: str) -> str:
    return re.sub(r'"wallTimeSeconds":[0-9.e+-]+', '"wallTimeSeconds":0', text)


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _shell_cli(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout (wall time masked) and stderr of the CLI run in a fresh process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "zetadet.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    return proc.returncode, _mask_wall_time(proc.stdout), proc.stderr


def _rk4_edge_family(target: float, steps: int) -> dict:
    """1x1 real constant family whose RK4 monodromy R(h*g)^steps equals ``target``.

    A = -g, so every step multiplies Phi by R(h*g) = 1 + z + z^2/2 + z^3/6 + z^4/24
    at z = h*g; g is found by bisection on the log of the product.
    """
    h = 2 * PI / steps
    lo, hi = 0.0, 1e3
    for _ in range(200):
        g = 0.5 * (lo + hi)
        z = h * g
        if steps * math.log1p(z + z * z / 2 + z**3 / 6 + z**4 / 24) < math.log(target):
            lo = g
        else:
            hi = g
    return {"kind": "constant", "matrix": [[{"re": -g, "im": 0.0}]]}


# former Tolerances fields, now config constants, each at its value
REMOVED_TOLERANCES = (
    ("agmon_epsilon", 1e-9), ("imag_axis", 1e-12), ("acyclic_distance", 1e-8), ("merge_significant_digits", 12),
)
_LATTICE_DET = {"command": "det", "model": {"type": "lattice", "a": {"re": 0.3, "im": 0.0}}}


class TestSchema:
    def test_unknown_command(self):
        with pytest.raises(SchemaError):
            parse_config({"command": "frobnicate"})

    def test_bad_version(self):
        with pytest.raises(SchemaError):
            parse_config({"schemaVersion": 99, "command": "eta"})

    def test_unknown_tolerance(self):
        with pytest.raises(SchemaError):
            parse_config({"command": "eta", "tolerances": {"nope": 1.0}})

    def test_theta_default(self):
        cfg = _job("eta", {"type": "rank1", "a": {"re": 0.25, "im": 0}})
        assert cfg.theta == pytest.approx(-PI / 4)

    def test_round_trip_idempotent(self):
        raw = {
            "schemaVersion": 1,
            "command": "eta",
            "model": {"type": "rank1", "a": {"re": 0.25, "im": 0.0}},
            "theta": -0.5,
        }
        cfg = parse_config(raw)
        assert parse_config(cfg.raw).raw == raw


class TestCommands:
    def test_torsion_half(self):
        res = run(_job("torsion", {"type": "rank1", "a": {"re": 0.5, "im": 0.0}}))
        assert res["results"]["torsion"]["re"] == pytest.approx(2, abs=1e-8)
        assert res["results"]["torsion"]["im"] == pytest.approx(0, abs=1e-8)
        assert all(c["pass"] for c in res["checks"])

    def test_eta_quarter(self):
        res = run(_job("eta", {"type": "rank1", "a": {"re": 0.25, "im": 0.0}}))
        assert res["results"]["eta"]["re"] == pytest.approx(0.25)

    def test_verify_imaginary_pair(self):
        res = run(
            _job(
                "verify",
                {
                    "type": "finite",
                    "eigenvalues": [
                        {"re": 0.0, "im": 1.0},
                        {"re": 0.0, "im": -1.0},
                    ],
                },
            )
        )
        names = {c["name"] for c in res["checks"]}
        assert "det_eta_identity" in names
        assert "det_eta_identity_upper" in names
        assert all(c["pass"] for c in res["checks"])
        for check in res["checks"]:
            assert {"name", "residual", "tolerance", "pass"} <= set(check)

    def test_verify_builds_the_square_side_once(self, monkeypatch):
        import zetadet.determinant as determinant

        calls = []

        def counted(spec):
            calls.append(spec)
            return square_spectrum(spec)

        monkeypatch.setattr(determinant, "square_spectrum", counted)
        model = {"type": "finite", "eigenvalues": [{"re": 1.0, "im": 0.5}, {"re": 1.0, "im": -0.5}, {"re": 2.0}]}
        res = run(_job("verify", model))
        assert [c["name"] for c in res["checks"]] == [
            "det_eta_identity", "det_eta_identity_upper", "symmetric_factorization",
        ]
        assert len(calls) == 1

    def test_verify_touches_each_eigenvalue_a_fixed_number_of_times(self, monkeypatch):
        import zetadet.determinant as determinant
        import zetadet.spectrum as spectrum
        import zetadet.zetafun as zetafun

        # ten conjugate pairs, half of them in the left half-plane, clear of both sectors
        values = []
        for k in range(10):
            v = (1.0 + 0.3 * k) * cmath.exp(1j * (0.1 + 0.09 * (k % 5)))
            v = -v if k >= 5 else v
            values += [v, v.conjugate()]
        squares = len({spectrum.merge_key(v * v) for v in values})
        counts = {"certify_agmon": 0, "merge_key": 0, "imaginary_axis_counts": 0, "branch_angle": 0,
                  "atan2": 0, "log": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(spectrum, "merge_key", counted("merge_key", spectrum.merge_key))
        certify = counted("certify_agmon", spectrum.certify_agmon)
        axis_counts = counted("imaginary_axis_counts", spectrum.imaginary_axis_counts)
        for module in (spectrum, zetafun, determinant):
            monkeypatch.setattr(module, "certify_agmon", certify)
            monkeypatch.setattr(module, "imaginary_axis_counts", axis_counts)
        monkeypatch.setattr(zetafun, "branch_angle", counted("branch_angle", zetafun.branch_angle))
        # zeta_{2theta}(0, D^2) is its multiplicity count, summed without powers: the evaluator never runs
        monkeypatch.setattr(zetafun, "_evaluate", lambda *args: pytest.fail("the zeta(s) evaluator ran"))
        model = {"type": "finite", "eigenvalues": [{"re": v.real, "im": v.imag} for v in values]}
        # a phase is one math.atan2 call and a log-modulus one math.log call; count them over the job
        monkeypatch.setattr(math, "atan2", counted("atan2", math.atan2))
        monkeypatch.setattr(math, "log", counted("log", math.log))
        res = run(_job("verify", model, theta=-PI / 4))
        monkeypatch.undo()
        assert [c["name"] for c in res["checks"]] == [
            "det_eta_identity", "det_eta_identity_upper", "symmetric_factorization",
        ]
        assert all(c["pass"] for c in res["checks"])
        assert counts["certify_agmon"] == 3
        assert counts["merge_key"] <= 2 * len(values)
        # eta and the factorization's m_- come from one pass over the imaginary axis
        assert counts["imaginary_axis_counts"] == 1
        # one phase and one log-modulus per eigenvalue of D and of D^2, read by
        # the sector check, the three Agmon tests and the three branch shifts
        assert squares == len(values)
        assert counts["atan2"] == counts["log"] == len(values) + squares
        assert counts["branch_angle"] == 2 * len(values) + squares

    def test_picked_cuts_are_not_certified_again(self, monkeypatch):
        import zetadet.determinant as determinant
        import zetadet.spectrum as spectrum
        import zetadet.zetafun as zetafun
        from zetadet.config import AGMON_EPSILON

        calls = []

        def counted(spec, theta, epsilon):
            calls.append(spec)
            return certify(spec, theta, epsilon)

        certify = spectrum.certify_agmon
        for module in (spectrum, zetafun, determinant):
            monkeypatch.setattr(module, "certify_agmon", counted)
        grid = {"reStart": 0.2, "reStop": 0.7, "reSteps": 3, "imStart": -1.0, "imStop": 1.0, "imSteps": 3}
        rows = run(_job("scan", params={"grid": grid}))["rows"]
        assert len(rows) == 9 and all(r["status"] == "ok" for r in rows)
        # a scan row: five torsions at the picker's cuts, T^RS at the Hermitian cut -pi
        assert calls == []
        run(_job("torsion", {"type": "rank1", "a": {"re": 0.3, "im": 0.4}}))
        run(_job("verify", {"type": "monodromy", "matrix": [[{"re": 0.0, "im": 1.0}, 0.5], [0.0, -2.0]]}))
        assert calls == []
        # a cut the user gives, or a certificate of any other spectrum object (an equal twin, D^2 for D
        # and back, a narrower epsilon), is certified in each of the three calls
        spec = circ.build_rank1(0.3 + 0.4j).spectrum()
        cut = determinant.pick_det_eta_cut(spec)
        twin = spectrum.Lattice(spec.a)
        square = cut.squared()
        narrow = spectrum.AgmonCertificate(cut, spec, 0.5 * AGMON_EPSILON)
        cases = (
            (spec, cut, 0), (square.spectrum, square, 0),
            (spec, float(cut), 3), (twin, cut, 3), (square.spectrum, cut, 3), (spec, square, 3), (spec, narrow, 3),
        )
        for other, theta, certified in cases:
            calls.clear()
            determinant.ldet(other, theta)
            zetafun.zeta_ds_at_zero(other, theta)
            zetafun.spectral_zeta(other, theta, 2.0)
            assert len(calls) == certified
        # a finite or lattice verify's cut comes from its config, so each of D, D^2 and D at theta - pi is
        # certified once: D^2's zeta'(0) and zeta(0) share one certificate
        for model in ({"type": "finite", "eigenvalues": [{"re": 1.0, "im": 0.5}, {"re": 2.0}]},
                      {"type": "lattice", "a": {"re": 0.3, "im": 0.2}}):
            calls.clear()
            run(_job("verify", model))
            assert len(calls) == 3

    @pytest.mark.parametrize(
        "eigenvalues, code",
        [
            pytest.param([{"re": 0.0, "im": 0.0}, "x"], "bad-value", id="zero-before-non-object"),
            pytest.param(["x", {"re": 0.0}], "bad-model", id="non-object-before-zero"),
            pytest.param([{"re": 1.0, "im": "x", "mu": 1}], "bad-model", id="unknown-key-before-im"),
            pytest.param([{"re": 0.0, "im": "x", "multiplicity": 0}], "bad-complex", id="im-before-multiplicity"),
            pytest.param([{"re": 0.0, "multiplicity": 0}], "bad-model", id="multiplicity-before-zero"),
            pytest.param([{"re": 2.0}, {"re": 0.0}, {"re": 1.0, "im": True}], "bad-value", id="zero-before-bad-im"),
            pytest.param([{"re": 2.0, "multiplicity": 10**400}, {"re": 1.0, "bad": 1}], "bad-value",
                         id="huge-multiplicity-before-unknown-key"),
        ],
    )
    def test_eigenvalue_errors_come_in_list_order(self, eigenvalues, code):
        # each eigenvalue meets every check, its schema's and its value's, before the next one
        with pytest.raises((SchemaError, ValueError)) as info:
            run(_job("verify", {"type": "finite", "eigenvalues": eigenvalues}))
        assert (info.value.code if isinstance(info.value, SchemaError) else "bad-value") == code

    def test_variation_integrates_once(self, monkeypatch):
        import zetadet.circle as circle

        calls = []
        real = circle.monodromy

        def counted(family, steps, t):
            calls.append(t)
            return real(family, steps, t)

        monkeypatch.setattr(circle, "monodromy", counted)
        params = {"dt": 1e-4, "t": 0.4, "path": {"kind": "affine", "a0": {"re": 0.25, "im": 0.0}}}
        res = run(_job("variation", params=params))
        assert [c["name"] for c in res["checks"]] == ["eta_variation", "arg_derivative"]
        assert calls == [(0.4 + 1e-4, 0.4 - 1e-4)]

    def test_zeta_command(self):
        res = run(
            _job(
                "zeta",
                {"type": "lattice", "a": {"re": 0.5, "im": 0.0}},
                theta=-PI / 2,
                params={"s": {"re": 2.0, "im": 0.0}},
            )
        )
        assert res["results"]["value"]["re"] == pytest.approx(PI**2, abs=1e-9)

    def test_zeta_pole_error_object(self, monkeypatch, capsys):
        job = {"command": "zeta", "model": {"type": "lattice", "a": {"re": 0.3, "im": 0.0}},
               "params": {"s": {"re": 1.0, "im": 0.0}}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
        assert main(["zeta", "--config", "-"]) == 2
        assert capsys.readouterr().err == '{"error": {"code": "Pole", "message": "pole at s=1"}}\n'

    def test_zeta_pole_found_before_the_term_cap(self, monkeypatch, capsys):
        # at Im a = 1e9 the tail buffers exceed the term cap; s = 1 is still a pole
        job = {"command": "zeta", "model": {"type": "lattice", "a": {"re": 0.3, "im": 1e9}},
               "params": {"s": {"re": 1.0, "im": 0.0}}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
        assert main(["zeta", "--config", "-"]) == 2
        assert capsys.readouterr().err == '{"error": {"code": "Pole", "message": "pole at s=1"}}\n'

    @pytest.mark.parametrize("im", [119.0, 120.0])
    def test_verify_far_rank1_model(self, monkeypatch, capsys, im):
        # exp(2*pi*i*a) underflows to 0 here; the Arg class must not need it
        job = {"command": "verify", "model": {"type": "rank1", "a": {"re": 0.3, "im": im}}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
        assert main(["verify", "--config", "-"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["name"] for c in checks] == ["graded_det_eta_identity", "torsion_ray_singer"]
        assert all(c["pass"] for c in checks)

    def test_det_command(self):
        res = run(
            _job(
                "det",
                {"type": "finite", "eigenvalues": [{"re": 2.0, "im": 0.0}]},
                theta=-PI,
            )
        )
        assert res["results"]["det"]["re"] == pytest.approx(2.0)

    @pytest.mark.parametrize("a", [1e-17, -1e-17, 1e-300, -1e-300])
    def test_det_of_a_lattice_next_to_zero(self, monkeypatch, capsys, a):
        # a + 1 rounds to 1.0 for the negative a; the point a itself must still reach the head
        job = {"command": "det", "model": {"type": "lattice", "a": {"re": a}}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
        assert main(["det", "--config", "-"]) == 0
        det = json.loads(capsys.readouterr().out)["results"]["det"]
        # 1 - e^(2*pi*i*a), to the rounding of exp(ldet), |ldet| up to 689
        assert complex(det["re"], det["im"]) == pytest.approx(-2j * PI * a, rel=1e-12)

    def test_zeta_of_a_lattice_just_below_an_integer(self, monkeypatch, capsys):
        # a + 1 rounds to 1.0; the half-line 1 - a~ is taken as 1 - a, so the point a stays off 0
        job = {"command": "zeta", "model": {"type": "lattice", "a": {"re": -1e-17}}, "params": {"s": {"re": 2.0}}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
        assert main(["zeta", "--config", "-"]) == 0
        value = json.loads(capsys.readouterr().out)["results"]["value"]
        # pi^2 / sin^2(pi*a) = 1e34 to 34 digits
        assert complex(value["re"], value["im"]) == pytest.approx(1e34, rel=1e-14)

    def test_verify_of_a_lattice_just_below_an_integer(self, monkeypatch, capsys):
        # the squares store a + 1, which rounds to 1.0: refused as a domain error that names a
        job = {"command": "verify", "model": {"type": "lattice", "a": {"re": -1e-17}}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
        assert main(["verify", "--config", "-"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["code"] == "Domain" and "(-1e-17+0j)" in error["message"]

    def test_monodromy_command(self):
        res = run(
            _job(
                "monodromy",
                params={
                    "family": {"kind": "rank1", "a": {"re": 0.25, "im": 0.0}},
                    "steps": 128,
                },
            )
        )
        entry = res["results"]["monodromy"][0][0]
        assert entry["im"] == pytest.approx(-1.0, abs=1e-8)

    def test_variation_command(self):
        res = run(
            _job(
                "variation",
                params={
                    "dt": 1e-4,
                    "path": {"kind": "sine", "a0": {"re": 0.25, "im": 0.0}, "amp": 0.1},
                    "t": 0.4,
                },
            )
        )
        assert all(c["pass"] for c in res["checks"])


class TestScan:
    def test_rows_in_grid_order(self):
        cfg = _job(
            "scan",
            params={
                "grid": {
                    "reStart": 0.3,
                    "reStop": 0.7,
                    "reSteps": 3,
                    "imStart": 0.0,
                    "imStop": 0.0,
                    "imSteps": 1,
                }
            },
        )
        rows = scan_rows(cfg)
        assert [r["a_re"] for r in rows] == pytest.approx([0.3, 0.5, 0.7])
        assert all(r["status"] == "ok" for r in rows)

    def test_profile_matches_closed_form(self):
        cfg = _job(
            "scan",
            params={
                "grid": {
                    "reStart": 0.2,
                    "reStop": 0.8,
                    "reSteps": 4,
                    "imStart": 0.0,
                    "imStop": 0.0,
                    "imSteps": 1,
                }
            },
        )
        for row in scan_rows(cfg):
            expected = 2 * abs(math.sin(PI * row["a_re"]))
            assert row["t_abs"] == pytest.approx(expected, abs=1e-8)

    def test_empty_grid(self):
        cfg = _job(
            "scan",
            params={
                "grid": {
                    "reStart": 0.0,
                    "reStop": 0.0,
                    "reSteps": 0,
                    "imStart": 0.0,
                    "imStop": 0.0,
                    "imSteps": 0,
                }
            },
        )
        res = run(cfg)
        assert res["results"]["rowCount"] == 0
        assert render_csv(res).splitlines()[0].startswith("a_re,")

    @pytest.mark.parametrize(
        "re_n, im_n",
        [(1, MAX_SCAN_POINTS + 1), (MAX_SCAN_POINTS + 1, 1), (MAX_SCAN_POINTS + 1, 0), (317, 317)],
    )
    def test_grid_cap_refused_before_allocation(self, monkeypatch, re_n, im_n):
        import tracemalloc

        def no_row(*args):
            raise AssertionError("a row ran past the grid cap")

        monkeypatch.setattr(cli, "_scan_row", no_row)
        cfg = _job("scan", params={"grid": {**ONE_POINT_GRID, "reSteps": re_n, "imSteps": im_n}})
        tracemalloc.start()
        try:
            with pytest.raises(SchemaError) as exc:
                scan_rows(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == "bad-grid"
        assert str(MAX_SCAN_POINTS) in str(exc.value)
        assert peak < 64 * 1024  # the grid's points alone would take megabytes

    def test_grid_at_cap_accepted(self, monkeypatch):
        monkeypatch.setattr(cli, "_scan_row", lambda a, h: {})
        cfg = _job("scan", params={"grid": {**ONE_POINT_GRID, "reSteps": 1, "imSteps": MAX_SCAN_POINTS}})
        assert len(scan_rows(cfg)) == MAX_SCAN_POINTS

    def test_grid_cap_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_scan_row", lambda a, h: pytest.fail("a row ran past the grid cap"))
        job = {"command": "scan", "params": {"grid": {**ONE_POINT_GRID, "reSteps": 317, "imSteps": 317}}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
        assert main(["scan", "--config", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["code"] == "bad-grid"

    def test_partial_failure_flagged(self):
        cfg = _job(
            "scan",
            params={
                "grid": {
                    "reStart": 0.5,
                    "reStop": 1.0,
                    "reSteps": 2,
                    "imStart": 0.0,
                    "imStop": 0.0,
                    "imSteps": 1,
                }
            },
        )
        rows = scan_rows(cfg)
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"] == "NonAcyclic"
        assert rows[1]["t_abs"] is None


def _refined_torsion_row(a, h):
    """A scan row built on the full ``refined_torsion``, which also computes xi."""
    row = {"a_re": a.real, "a_im": a.imag, "status": "ok"}
    try:
        model = circ.build_rank1(a)
        report = circ.refined_torsion(model)
        cr = circ.cr_residual(lambda z: circ.torsion_ldet(circ.build_rank1(z)).det, a, h)
        row.update(
            t_re=report.torsion.real,
            t_im=report.torsion.imag,
            t_abs=abs(report.torsion),
            t_rs=report.ray_singer,
            im_eta=report.im_eta,
            cr_residual=cr,
        )
    except ZetaDetError as exc:
        row["status"] = type(exc).__name__.removesuffix("Error")
        for col in ("t_re", "t_im", "t_abs", "t_rs", "im_eta", "cr_residual"):
            row[col] = None
    return row


def _row_or_error(row_fn, a):
    try:
        return row_fn(a, 1e-4)
    except ArithmeticError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("a", [5e-6 - 10j, 1e-7 - 1j, 2e-8 - 1j, complex(0.0, -10.0)])
def test_torsion_in_the_thin_cut_wedge(a, monkeypatch, capsys):
    # the wedge (-pi/2, upper) of a - 1j*y is Re a / y wide; above CUT_PICK_WIDTH it takes a cut
    job = {"command": "torsion", "model": {"type": "rank1", "a": {"re": a.real, "im": a.imag}}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
    assert main(["torsion", "--config", "-"]) == 0
    torsion = json.loads(capsys.readouterr().out)["results"]["torsion"]
    assert complex(torsion["re"], torsion["im"]) == pytest.approx(1 - cmath.exp(2j * PI * a), rel=1e-13)


class TestScanRowWithoutXi:
    """A scan row computes the torsion, T^RS and eta only; leaving xi out changes no output."""

    # a real-axis point, points within acyclic_distance of an integer, a point whose stencil
    # point a - h leaves the cut picker a wedge just wider than CUT_PICK_WIDTH (1 + 5e-9 + 120i,
    # 8.3e-7 wide), a NotAgmon point whose a - h leaves one no wider (1.0000997 + 120i, 2.5e-9
    # wide), and a torsion that overflows the float range at Im a = -120
    GRIDS = {
        "edges": {"reStart": 0.5, "reStop": 1.000000005, "reSteps": 2, "imStart": 0.0, "imStop": 120.0, "imSteps": 3},
        "not-agmon": {"reStart": 1.0000997, "reStop": 1.0000997, "reSteps": 1, "imStart": 120.0, "imStop": 120.0,
                      "imSteps": 1},
        "below-integer": {"reStart": -0.000000005, "reStop": 0.25, "reSteps": 2, "imStart": -1.5, "imStop": 0.0, "imSteps": 2},
        "overflow": {"reStart": 0.5, "reStop": 1.000000005, "reSteps": 2, "imStart": -120.0, "imStop": 0.0, "imSteps": 3},
    }

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_output_and_exit_code_equal_refined_torsion_rows(self, monkeypatch, capsys, grid, fmt):
        job = json.dumps({"command": "scan", "params": {"grid": self.GRIDS[grid]}})
        outcomes = []
        for row_fn in (cli._scan_row, _refined_torsion_row):
            monkeypatch.setattr(cli, "_scan_row", row_fn)
            monkeypatch.setattr("sys.stdin", io.StringIO(job))
            code = main(["scan", "--config", "-", "--format", fmt])
            captured = capsys.readouterr()
            outcomes.append((code, _mask_wall_time(captured.out), captured.err))
        assert outcomes[0] == outcomes[1]
        expected = {"edges": 1, "not-agmon": 1, "below-integer": 1, "overflow": 2}[grid]
        assert outcomes[0][0] == expected

    def test_statuses_on_the_edge_grid(self):
        rows = scan_rows(_job("scan", params={"grid": self.GRIDS["edges"]}))
        assert [r["status"] for r in rows] == ["ok", "ok", "ok", "NonAcyclic", "ok", "ok"]
        rows = scan_rows(_job("scan", params={"grid": self.GRIDS["not-agmon"]}))
        assert [r["status"] for r in rows] == ["NotAgmon"]

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(-2, 2),
        offset=st.sampled_from([0.5e-8, 2e-8, 1e-6, 0.013, 0.5, 0.987, 1.0 - 2e-8]),
        im=st.one_of(st.floats(-3.0, 3.0), st.floats(-125.0, 125.0), st.sampled_from([0.0, -113.0, 118.5])),
    )
    # T is finite but its finite differences overflow
    @example(n=0, offset=0.013, im=-112.75)
    def test_row_equals_refined_torsion_row(self, n, offset, im):
        a = complex(n + offset, im)
        assert _row_or_error(cli._scan_row, a) == _row_or_error(_refined_torsion_row, a)


class TestCliEntry:
    def test_end_to_end_json(self, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(
            json.dumps(
                {
                    "command": "torsion",
                    "model": {"type": "rank1", "a": {"re": 0.5, "im": 0.0}},
                }
            )
        )
        assert main(["torsion", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["results"]["torsion"]["re"] == pytest.approx(2, abs=1e-8)

    def test_deterministic_output(self, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(
            json.dumps(
                {
                    "command": "verify",
                    "model": {"type": "rank1", "a": {"re": 0.3, "im": 0.1}},
                }
            )
        )
        main(["verify", "--config", str(cfg)])
        first = _mask_wall_time(capsys.readouterr().out)
        main(["verify", "--config", str(cfg)])
        second = _mask_wall_time(capsys.readouterr().out)
        assert first == second

    def test_schema_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["eta", "--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "bad-json"

    def test_domain_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(
            json.dumps(
                {"command": "eta", "model": {"type": "rank1", "a": {"re": 1.0, "im": 0.0}}}
            )
        )
        assert main(["eta", "--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "NonAcyclic"

    def test_failed_check_exit_code(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(
            json.dumps(
                {
                    "command": "torsion",
                    "model": {"type": "rank1", "a": {"re": 0.5, "im": 0.0}},
                    "tolerances": {"identity_residual": 0.0},
                }
            )
        )
        assert main(["torsion", "--config", str(cfg), "--out", str(tmp_path / "o.json")]) == 1

    def test_tol_overrides_flag(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(
            json.dumps(
                {
                    "command": "torsion",
                    "model": {"type": "rank1", "a": {"re": 0.5, "im": 0.0}},
                }
            )
        )
        out = tmp_path / "o.json"
        rc = main(
            [
                "torsion",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--tol-overrides",
                "identity_residual=0",
            ]
        )
        assert rc == 1
        payload = json.loads(out.read_text())
        assert payload["checks"][0]["tolerance"] == 0.0

    def test_csv_output(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(
            json.dumps(
                {
                    "command": "scan",
                    "params": {
                        "grid": {
                            "reStart": 0.4,
                            "reStop": 0.6,
                            "reSteps": 2,
                            "imStart": 0.0,
                            "imStop": 0.0,
                            "imSteps": 1,
                        }
                    },
                }
            )
        )
        out = tmp_path / "rows.csv"
        assert main(["scan", "--config", str(cfg), "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "a_re,a_im,t_re,t_im,t_abs,t_rs,im_eta,cr_residual,status"
        assert len(lines) == 3

    def test_command_mismatch(self, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"command": "eta", "model": {"type": "rank1", "a": {"re": 0.25, "im": 0}}}))
        assert main(["det", "--config", str(cfg)]) == 2

    def test_stdin_config(self, monkeypatch, capsys):
        import io

        payload = json.dumps(
            {"command": "eta", "model": {"type": "rank1", "a": {"re": 0.25, "im": 0.0}}}
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        assert main(["eta", "--config", "-"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["eta"]["re"] == pytest.approx(0.25)


    @pytest.mark.parametrize(
        "a",
        [
            '{"re": NaN, "im": 0}',
            '{"re": 0.3, "im": Infinity}',
            '{"re": "x", "im": 0}',
            pytest.param('{"re": 1%s, "im": 0}' % ("0" * 400), id="integer-beyond-float"),
        ],
    )
    def test_non_finite_complex_rejected(self, monkeypatch, capsys, a):
        import io

        payload = '{"command": "torsion", "model": {"type": "rank1", "a": %s}}' % a
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        assert main(["torsion", "--config", "-"]) == 2
        captured = capsys.readouterr()
        # NaN and Infinity are not JSON, so they are refused while the config is parsed
        code = "bad-json" if re.search("NaN|Infinity", a) else "bad-complex"
        assert json.loads(captured.err)["error"]["code"] == code
        assert captured.out == ""

    _LATTICE = '{"type": "lattice", "a": {"re": 0.3, "im": 0.1}'
    _PLACES = {
        "top": '{"command": "eta", "model": %s}, "junk": %%s}' % _LATTICE,
        "model": '{"command": "eta", "model": %s, "extra": %%s}}' % _LATTICE,
        "params": '{"command": "eta", "model": %s}, "params": {"extra": %%s}}' % _LATTICE,
    }

    @pytest.mark.parametrize("place", sorted(_PLACES))
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_refused(self, monkeypatch, capsys, place, literal):
        monkeypatch.setattr("sys.stdin", io.StringIO(self._PLACES[place] % literal))
        assert main(["eta", "--config", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["code"] == "bad-json" and literal in error["message"]

    @pytest.mark.parametrize("place", sorted(_PLACES))
    @pytest.mark.parametrize("literal", ["1e999", "-1e999"])
    def test_literal_overflowing_to_infinity_refused(self, monkeypatch, capsys, place, literal):
        monkeypatch.setattr("sys.stdin", io.StringIO(self._PLACES[place] % literal))
        assert main(["eta", "--config", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["code"] == "bad-value"

    def test_finite_literals_still_accepted(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(self._PLACES["params"] % "1e300"))
        assert main(["eta", "--config", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["params"] == {"extra": 1e300}

    _SCAN_GRID = json.dumps(ONE_POINT_GRID)
    _SCAN_PLACES = {
        "top": ('{"command": "scan", "params": {"grid": %s}, "junk": %%s}' % _SCAN_GRID, "junk"),
        "model": ('{"command": "scan", "model": {"type": "rank1", "x": %%s}, "params": {"grid": %s}}' % _SCAN_GRID,
                  "model.x"),
        "params": ('{"command": "scan", "params": {"grid": %s, "junk": [0, {"k": %%s}]}}' % _SCAN_GRID,
                   "params.junk[1].k"),
    }

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("place", sorted(_SCAN_PLACES))
    @pytest.mark.parametrize("literal", ["1e999", "-1E+400", "9" * 300 + "e99", "1" + "0" * 320 + ".5"])
    def test_overflowing_literal_refused_before_any_row(self, monkeypatch, capsys, place, fmt, literal):
        monkeypatch.setattr(cli, "_scan_row", lambda a, h: pytest.fail("a scan row ran"))
        template, path = self._SCAN_PLACES[place]
        monkeypatch.setattr("sys.stdin", io.StringIO(template % literal))
        assert main(["scan", "--config", "-", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["code"] == "bad-value"
        assert f"field {path} overflows" in error["message"]

    def test_overflowing_literal_refused_before_the_job_runs(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run", lambda cfg: pytest.fail("the job ran"))
        monkeypatch.setattr("sys.stdin", io.StringIO(self._PLACES["params"] % "1e999"))
        assert main(["eta", "--config", "-"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"code": "bad-value", "message": "config field params.extra overflows the float range"}

    @pytest.mark.parametrize(
        "literal", ["1e-999", "1e+99", "1.0e0308", "9" * 200 + "e99", "0." + "0" * 400 + "1", "1" + "0" * 400]
    )
    def test_large_finite_literals_accepted(self, monkeypatch, capsys, literal):
        monkeypatch.setattr("sys.stdin", io.StringIO(self._PLACES["params"] % literal))
        assert main(["eta", "--config", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["params"] == {"extra": json.loads(literal)}

    @pytest.mark.parametrize(
        "model",
        [
            {
                "type": "finite",
                "eigenvalues": [
                    {"re": 1.0, "im": 0.5, "multiplicity": 1.5},
                    {"re": 2.0, "im": -0.1},
                ],
            },
            {"type": "lattice", "a": {"re": 0.3, "im": 0.1}, "mu": 1.5},
            {"type": "lattice", "a": {"re": 0.3, "im": 0.1}, "mu": 0},
            {"type": "lattice", "a": {"re": 0.3, "im": 0.1}, "mu": True},
        ],
    )
    def test_non_integer_multiplicity_rejected(self, tmp_path, capsys, model):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"command": "verify", "model": model}))
        assert main(["verify", "--config", str(cfg)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["code"] == "bad-model"

    def test_unknown_eigenvalue_key_refused(self, tmp_path, capsys):
        # a misspelt multiplicity must not pass as multiplicity 1
        model = {"type": "finite", "eigenvalues": [
            {"re": 1, "im": 0.5, "multiplicty": 2}, {"re": 1, "im": -0.5},
        ]}
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"command": "verify", "model": model}))
        assert main(["verify", "--config", str(cfg)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"code": "bad-model", "message": "unknown eigenvalue keys: ['multiplicty']"}

    @pytest.mark.parametrize(
        "job",
        [
            pytest.param(
                {"command": "verify", "model": {"type": "finite", "eigenvalues": [1.0, 2.0]}},
                id="bare-eigenvalues",
            ),
            pytest.param(
                {"command": "scan", "params": {"grid": {**ONE_POINT_GRID, "reStart": "x"}}},
                id="grid-string",
            ),
            pytest.param(
                {"command": "scan", "params": {"grid": {**ONE_POINT_GRID, "reSteps": 2.5}}},
                id="grid-fractional-steps",
            ),
            pytest.param(
                {"command": "torsion", "model": {"type": "monodromy", "matrix": [[1, 2], [3]]}},
                id="ragged-matrix",
            ),
            pytest.param(
                {"command": "monodromy", "params": {"family": {"kind": "rank1", "a": 0.3}, "steps": 10}},
                id="too-few-steps",
            ),
            pytest.param(
                {"command": "torsion", "model": {"type": "rank1", "a": 0.3},
                 "tolerances": {"identity_residual": "x"}},
                id="string-tolerance",
            ),
            pytest.param(
                {"command": "det", "model": {"type": "lattice", "a": 2}},
                id="integer-lattice",
            ),
            pytest.param(
                {"command": "variation", "params": {"path": {"kind": "affine", "a0": 0.3}, "dt": 0}},
                id="zero-dt",
            ),
        ],
    )
    def test_malformed_job_exits_2(self, monkeypatch, capsys, job):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
        assert main([job["command"], "--config", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert set(json.loads(captured.err)["error"]) == {"code", "message"}

    @pytest.mark.parametrize("h", [0, 0.5, "x"])
    def test_scan_step_rejected(self, monkeypatch, capsys, h):
        job = {"command": "scan", "params": {"grid": ONE_POINT_GRID, "h": h}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
        assert main(["scan", "--config", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["code"] == "bad-params"

    @pytest.mark.parametrize(
        "job, extra, code, words",
        [
            pytest.param({"command": "eta"}, ["--config", "{tmp}/missing.json"], "bad-file", (), id="missing-config"),
            pytest.param(
                {"command": "eta", "model": {"type": "lattice", "a": {"re": 0.3, "im": 0.0}}},
                ["--out", "{tmp}/no-such-dir/out.json"], "bad-file", (), id="out-in-missing-dir",
            ),
            pytest.param(
                {"command": "zeta", "model": {"type": "lattice", "a": {"re": 0.3, "im": 0.0}},
                 "params": {"s": {"re": -400.0, "im": 0.0}}},
                [], "Overflow", (), id="hurwitz-overflow",
            ),
            pytest.param(
                {"command": "torsion", "model": {"type": "rank1", "a": {"re": 0.3, "im": 400.0}}},
                [], "Overflow", (), id="ray-singer-overflow",
            ),
            pytest.param(
                {"command": "zeta", "model": {"type": "finite", "eigenvalues": [{"re": 1e300, "im": 1.0}]},
                 "params": {"s": {"re": -2.0, "im": 0.0}}},
                [], "Overflow", (), id="finite-power-overflow",
            ),
            pytest.param(
                {"command": "monodromy",
                 "params": {"family": {"kind": "constant", "matrix": [[{"re": 1e200, "im": 0.0}]]}}},
                [], "FloatingPoint", ("RK4 monodromy", "1x1", "t=0.0", "256 steps", "overflow"),
                id="numpy-overflow",
            ),
            pytest.param(
                {"command": "monodromy", "params": {"family": _rk4_edge_family(1.8e310, 64), "steps": 64}},
                [], "FloatingPoint", ("RK4 monodromy", "1x1", "t=0.0", "64 steps", "overflow"),
                id="monodromy-just-above-float-range",
            ),
            pytest.param(
                {"command": "variation",
                 "params": {"path": {"kind": "affine", "a0": {"re": 0.3, "im": 200.0}, "rate": {"re": 0.5, "im": 0.0}}}},
                [], "FloatingPoint", ("RK4 monodromy", "1x1", "t in {0.0001, -0.0001}", "512 steps", "overflow"),
                id="variation-stack-overflow",
            ),
            pytest.param(
                {"command": "verify", "model": {"type": "monodromy", "matrix": [[1e200, 0], [0, 1e200]]}},
                [], "Overflow", (), id="monodromy-model-overflow",
            ),
            pytest.param(
                {"command": "det", "model": {"type": "lattice", "a": {"re": 0.3, "im": 0.0}}},
                ["--format", "csv"], "bad-format", (), id="csv-for-det",
            ),
            pytest.param(
                {"command": "det", "model": {"type": "lattice", "a": {"re": 0.3, "im": 1e9}}},
                [], "Domain", (), id="term-cap",
            ),
            pytest.param(
                {"command": "eta", "model": {"type": "lattice", "a": {"re": 0.3, "im": 0.0}}, "tolerances": 5},
                ["--tol-overrides", "reality=0"], "bad-tolerances", (), id="overrides-on-non-object",
            ),
            pytest.param(
                {"command": "det", "model": {"type": "lattice", "a": {"re": 0.3, "im": 0.0}},
                 "tolerances": {"kernel_accuracy": 1e-9}},
                [], "bad-tolerances", ("kernel_accuracy",), id="unread-tolerance-field",
            ),
            pytest.param(
                {"command": "det", "model": {"type": "lattice", "a": {"re": 0.3, "im": 0.0}},
                 "tolerances": {"on_cut_angle": 0.0}},
                [], "bad-tolerances", ("on_cut_angle",), id="removed-on-cut-angle",
            ),
            *(
                pytest.param(
                    {**_LATTICE_DET, "tolerances": {name: value}},
                    [], "bad-tolerances", (name,), id=f"removed-{name}-in-config",
                )
                for name, value in REMOVED_TOLERANCES
            ),
            *(
                pytest.param(
                    _LATTICE_DET, ["--tol-overrides", f"{name}={value}"], "bad-tolerances", (name,),
                    id=f"removed-{name}-in-overrides",
                )
                for name, value in REMOVED_TOLERANCES
            ),
            pytest.param(
                {**_LATTICE_DET, "tolerances": {"identity_residual": -1}},
                [], "bad-tolerances", ("identity_residual", "nonnegative"), id="negative-tolerance-in-config",
            ),
            pytest.param(
                _LATTICE_DET, ["--tol-overrides", "identity_residual=-1"], "bad-tolerances",
                ("identity_residual", "nonnegative"), id="negative-tolerance-in-overrides",
            ),
            pytest.param(
                {"command": "det", "model": {"type": "finite", "eigenvalues": [{"re": 2.0, "multiplicity": 10**400}]}},
                [], "bad-value", ("multiplicity", "float range"), id="det-huge-multiplicity",
            ),
            pytest.param(
                {"command": "eta", "model": {"type": "finite", "eigenvalues": [{"re": 2.0, "multiplicity": 10**400}]}},
                [], "bad-value", ("multiplicity", "float range"), id="eta-huge-multiplicity",
            ),
            pytest.param(
                {"command": "verify", "model": {"type": "finite", "eigenvalues": [{"re": 2.0, "multiplicity": 10**400}]}},
                [], "bad-value", ("multiplicity", "float range"), id="verify-huge-multiplicity",
            ),
            pytest.param(
                {"command": "det", "model": {"type": "lattice", "a": {"re": 0.3, "im": 0.0}, "mu": 10**400}},
                [], "bad-value", ("multiplicity", "float range"), id="det-huge-lattice-mu",
            ),
            *(
                pytest.param(
                    {"command": command, "theta": theta,
                     "model": {"type": "finite", "eigenvalues": [{"re": 2.0, "im": 1.0}]}},
                    [], "bad-value", (f"cut angle {theta}:", "agmon_epsilon"), id=f"{command}-unresolved-theta",
                )
                for command, theta in (("det", 1.7e308), ("zeta", 1e17), ("verify", -8388608.0))
            ),
            pytest.param(
                {"command": "scan", "params": {"grid": {"reStart": 0.013, "reStop": 0.013, "reSteps": 1,
                                                        "imStart": -112.75, "imStop": -112.75, "imSteps": 1}}},
                [], "Overflow", ("finite differences", "(0.013-112.75j)"), id="scan-overflowing-differences",
            ),
        ],
    )
    def test_file_overflow_and_format_errors_exit_2(self, monkeypatch, capsys, tmp_path, job, extra, code, words):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
        argv = [job["command"], "--config", "-"] + [a.format(tmp=tmp_path) for a in extra]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        error = json.loads(captured.err)["error"]
        assert error["code"] == code
        assert all(w in error["message"] for w in words), error["message"]

    def test_monodromy_just_below_float_range(self, monkeypatch, capsys):
        # 64 steps, where a stepping loop stays in range too: at 256 its stage sums overflow before Phi does
        job = {"command": "monodromy", "params": {"family": _rk4_edge_family(1.8e306, 64), "steps": 64}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["monodromy", "--config", "-"]) == 0
        (entry,), = json.loads(capsys.readouterr().out)["results"]["monodromy"]
        assert entry["re"] == pytest.approx(1.8e306, rel=1e-9)
        assert entry["im"] == 0.0

    @pytest.mark.parametrize(
        "job, words",
        [
            pytest.param(
                {"command": "zeta", "model": {"type": "lattice", "a": {"re": 0.3, "im": 0.0}},
                 "params": {"s": {"re": -400.0, "im": 0.0}}},
                ("spectral zeta", "Lattice(a=(0.3+0j)", "s=(-400+0j)"), id="zeta",
            ),
            pytest.param(
                {"command": "torsion", "model": {"type": "rank1", "a": {"re": 0.3, "im": 400.0}}},
                ("Ray-Singer torsion", "(0.3+400j)"), id="ray-singer",
            ),
            pytest.param(
                {"command": "torsion", "model": {"type": "rank1", "a": {"re": 0.3, "im": -400.0}}},
                ("det of", "Lattice(a=(0.3-400j)"), id="det",
            ),
            pytest.param(
                {"command": "verify", "model": {"type": "monodromy", "matrix": [[1e308, 1e308], [1e308, 1e308]]}},
                ("monodromy eigenvalue",), id="monodromy-eigenvalue",
            ),
        ],
    )
    def test_overflow_names_quantity_and_input(self, monkeypatch, capsys, job, words):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
        assert main([job["command"], "--config", "-"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["code"] == "Overflow"
        assert all(w in error["message"] for w in words), error["message"]

    def test_tiny_eigenvalue_refused_as_underflow(self, monkeypatch, capsys):
        job = {"command": "verify", "model": {"type": "finite", "eigenvalues": [
            {"re": 2.0, "im": 0.5}, {"re": 0.0, "im": 1e-200}]}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
        assert main(["verify", "--config", "-"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["code"] == "Domain"
        assert "underflows" in error["message"]

    def test_tiny_lattice_parameter_refused_as_underflow(self, monkeypatch, capsys):
        # the lattice point a = 1e-200 squares to 0 on the square side
        job = {"command": "verify", "model": {"type": "lattice", "a": {"re": 1e-200, "im": 0.0}}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
        assert main(["verify", "--config", "-"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["code"] == "Domain"
        assert "underflows" in error["message"]

    @pytest.mark.parametrize(
        "eigenvalue, shown",
        [
            pytest.param({"re": 1e308, "im": 1e308}, "(1e+308+1e+308j)", id="nan-square"),
            pytest.param({"re": 1e200}, "(1e+200+0j)", id="infinite-square"),
        ],
    )
    def test_huge_eigenvalue_refused_as_overflow(self, monkeypatch, capsys, eigenvalue, shown):
        job = {"command": "verify", "model": {"type": "finite", "eigenvalues": [eigenvalue]}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
        assert main(["verify", "--config", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["code"] == "Domain"
        assert shown in error["message"] and "overflows" in error["message"], error["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["frobnicate", "--config", "-"], id="unknown-command"),
            pytest.param(["eta"], id="missing-config"),
            pytest.param(["eta", "--config", "-", "--format", "xml"], id="bad-format"),
            pytest.param(["eta", "--config", "-", "--frobnicate"], id="unknown-option"),
            pytest.param([], id="no-arguments"),
        ],
    )
    def test_bad_command_line_exits_2_with_error_object(self, monkeypatch, capsys, argv):
        monkeypatch.setattr("sys.stdin", io.StringIO("{}"))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage" not in captured.err
        error = json.loads(captured.err)["error"]
        assert set(error) == {"code", "message"} and error["code"] == "bad-args"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, canonical",
        [
            (["eta", "--config={cfg}"], ["eta", "--config", "{cfg}"]),
            (["--config", "{cfg}", "eta"], ["eta", "--config", "{cfg}"]),
            (["eta", "--conf", "{cfg}", "--form", "json"], ["eta", "--config", "{cfg}"]),
            (["eta", "--c", "{cfg}", "--f=json"], ["eta", "--config", "{cfg}"]),
            (["eta", "--config", "{cfg}", "--tol", "reality=1e-9"],
             ["eta", "--config", "{cfg}", "--tol-overrides", "reality=1e-9"]),
            (["eta", "--config", "BAD", "--config", "{cfg}"], ["eta", "--config", "{cfg}"]),
            (["--config", "{cfg}", "--", "eta"], ["eta", "--config", "{cfg}"]),
            (["eta", "--config", "{cfg}", "--format", "csv", "--format", "json"], ["eta", "--config", "{cfg}"]),
        ],
    )
    def test_command_line_forms_read_as_the_canonical_one(self, tmp_path, capsys, argv, canonical):
        cfg = tmp_path / "eta.json"
        cfg.write_text(json.dumps({"command": "eta", "model": {"type": "lattice", "a": {"re": 0.3, "im": 0.1}}}))
        outputs = []
        for args in (argv, canonical):
            assert main([a.format(cfg=cfg) for a in args]) == 0
            outputs.append(_mask_wall_time(capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eta", "--config"], "argument --config: expected one argument"),
            (["eta", "--config", "-", "--format", "xml"],
             "argument --format: invalid choice: 'xml' (choose from 'json', 'csv')"),
            (["eta", "--config", "-", "--frobnicate"], "unrecognized arguments: --frobnicate"),
            (["eta", "det", "--config", "-"], "unrecognized arguments: det"),
            ([], "the following arguments are required: command, --config"),
            (["eta", "--config", "-", "-hx"], "argument -h/--help: ignored explicit argument 'x'"),
            (["eta", "--config", "-", "--"], "unrecognized arguments: --"),
        ],
    )
    def test_refused_command_line_names_its_argument(self, monkeypatch, capsys, argv, message):
        monkeypatch.setattr("sys.stdin", io.StringIO("{}"))
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err) == {"error": {"code": "bad-args", "message": message}}

    @pytest.mark.parametrize(
        "argv", [["eta", "--config", "-", "-h"], ["eta", "--he", "--format", "xml"], ["--frobnicate", "--help"]]
    )
    def test_help_after_other_options_exits_0(self, capsys, argv):
        # arguments are read in order, and an unknown one is refused after the last
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: zetadet")

    def test_config_named_like_the_option_end_is_a_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["eta", "--config=--"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["code"] == "bad-file" and "'--'" in error["message"]

    def test_config_with_a_byte_order_mark_is_refused(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + json.dumps(_LATTICE_DET)))
        assert main(["det", "--config", "-"]) == 2
        message = "config is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
        assert json.loads(capsys.readouterr().err)["error"] == {"code": "bad-json", "message": message}

    def test_deeply_nested_config_exits_2(self, monkeypatch, capsys):
        # nested past the recursion limit, a config fails while it is decoded; a level or
        # two less, it decodes and fails while it is echoed (its depth there depends on the stack)
        messages = set()
        for key, depth in [("eigenvalues", 3000), *(("junk", depth) for depth in range(800, 1001))]:
            model = '{"type":"finite","eigenvalues":[{"re":2.0}],"' + key + '":' + "[" * depth + "]" * depth + "}"
            monkeypatch.setattr("sys.stdin", io.StringIO('{"model":' + model + "}"))
            rc = main(["det", "--config", "-"])
            err = capsys.readouterr().err
            if rc == 2:
                error = json.loads(err)["error"]
                assert error["code"] == "bad-json"
                messages.add(error["message"].partition(":")[0])
            else:
                assert (rc, key) == (0, "junk")
        assert messages == {"config nests too deeply", "config nests too deeply to echo"}

    def test_integral_float_multiplicity_accepted(self):
        lattice = {"type": "lattice", "a": {"re": 0.3, "im": 0.1}}
        once = run(_job("det", {**lattice, "mu": 1}))["results"]["ldet"]
        twice = run(_job("det", {**lattice, "mu": 2.0}))["results"]["ldet"]
        assert twice["re"] == pytest.approx(2 * once["re"])
        assert twice["im"] == pytest.approx(2 * once["im"])


class TestRepeatedMain:
    """main() called many times in one process: no state carried between calls."""

    SCAN = {"command": "scan", "params": {"grid": {**ONE_POINT_GRID, "reSteps": 2, "reStop": 0.4}}}
    ETA = {"command": "eta", "model": {"type": "lattice", "a": {"re": 0.3, "im": 0.1}}}

    def test_scan_after_flagged_scan_equals_fresh_process(self, tmp_path, capsys):
        cfg = tmp_path / "scan.json"
        cfg.write_text(json.dumps(self.SCAN))
        flags = ["--out", str(tmp_path / "rows.csv"), "--format", "csv", "--tol-overrides", "reality=1e-9"]
        assert main(["scan", "--config", str(cfg), *flags]) == 0
        assert capsys.readouterr().out == ""
        rc = main(["scan", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert (rc, _mask_wall_time(captured.out), captured.err) == _shell_cli(["scan", "--config", str(cfg)])
        assert "tolerances" not in json.loads(captured.out)["config"]

    def test_good_call_after_bad_args(self, tmp_path, capsys):
        cfg = tmp_path / "eta.json"
        cfg.write_text(json.dumps(self.ETA))
        assert main(["eta", "--config", str(cfg), "--format", "xml"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["code"] == "bad-args"
        rc = main(["eta", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 0
        assert (rc, _mask_wall_time(captured.out), captured.err) == _shell_cli(["eta", "--config", str(cfg)])

    def test_with_overrides_copies_only_when_overriding(self):
        tol = Tolerances()
        assert tol.with_overrides() is tol
        strict = tol.with_overrides(reality=1e-9)
        assert strict is not tol and strict.reality == 1e-9
        assert strict.with_overrides(reality=tol.reality) == tol
        assert parse_config({"command": "eta"}).tolerances is DEFAULT_TOLERANCES


def test_render_json_is_sorted_and_compact():
    text = render_json({"b": 1, "a": {"d": 2, "c": 3}})
    assert text == '{"a":{"c":3,"d":2},"b":1}\n'


# ---------------------------------------------------------------------------
# the CLI contract under arbitrary JSON-shaped jobs

_junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just([]), st.just({}))
_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=-3, max_value=3),
)
_non_float = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(min_value=-(10**400), max_value=10**400),
)
_number = st.integers(0, 9).flatmap(lambda i: _non_float if i == 0 else _finite)
_object = st.fixed_dictionaries
_complex = _object({"re": _number, "im": _number})
_matrix = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.lists(st.lists(_complex, min_size=n, max_size=n), min_size=n, max_size=n)
)
_model = st.one_of(
    _object({"type": st.just("finite"), "eigenvalues": st.lists(
        _object({"re": _number, "im": _number}, optional={"multiplicity": st.integers(1, 3)}),
        min_size=1, max_size=4)}),
    _object({"type": st.just("lattice"), "a": _complex}, optional={"mu": st.integers(1, 3)}),
    _object({"type": st.just("rank1"), "a": _complex}),
    _object({"type": st.just("monodromy"), "matrix": _matrix}),
)
_family = st.one_of(
    _object({"kind": st.just("constant"), "matrix": _matrix}),
    _object({"kind": st.just("rank1"), "a": _complex}),
    _object({"kind": st.just("diagonal"), "a": st.lists(_complex, max_size=2)},
            optional={"rates": st.lists(_complex, max_size=2)}),
)
# the counts that set the requested work are bounded; every other number is free
_work = st.integers(min_value=-1, max_value=2)
_PARAMS = {
    "zeta": _object({"s": _complex}),
    "scan": _object(
        {"grid": _object({k: _number for k in ("reStart", "reStop", "imStart", "imStop")}
                         | {"reSteps": _work, "imSteps": _work})},
        optional={"h": st.one_of(_number, st.floats(min_value=1e-9, max_value=1e-4))},
    ),
    "monodromy": _object({"family": _family},
                         optional={"steps": st.integers(min_value=60, max_value=80), "t": _number}),
    "variation": _object(
        {"path": _object({"kind": st.sampled_from(["affine", "sine"]), "a0": _complex},
                         optional={"rate": _complex, "amp": _complex})},
        optional={"dt": st.one_of(_number, st.floats(min_value=1e-6, max_value=1e-2)), "t": _number},
    ),
}


@st.composite
def _jobs(draw):
    """A job of the right shape, half the time with one field broken.

    A broken field has the wrong type or is missing.
    """
    command = draw(st.sampled_from(COMMANDS))
    job = draw(_object(
        {"command": st.just(command), "model": _model, "params": _PARAMS.get(command, st.just({}))},
        optional={"theta": st.one_of(_number, st.floats(min_value=-1.5, max_value=-0.05))},
    ))
    node = job
    while draw(st.booleans()):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        if key != "command" and isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
            node = node[key]
        elif key != "command":
            if isinstance(node, dict) and draw(st.booleans()):
                del node[key]
            else:
                node[key] = draw(_junk)
            break
    return job


@settings(max_examples=200, derandomize=True, deadline=None, suppress_health_check=list(HealthCheck))
@given(_jobs())
def test_any_job_keeps_the_exit_code_contract(job):
    out, err = io.StringIO(), io.StringIO()
    real_stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(job))
    try:
        # a warning would reach stderr beside the error object, so it fails the test
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([job["command"], "--config", "-"])
    finally:
        sys.stdin = real_stdin
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert set(json.loads(err.getvalue())["error"]) == {"code", "message"}


_JOB_WITHOUT_COMMAND = {"model": {"type": "rank1", "a": 0.3}, "params": {"grid": ONE_POINT_GRID}}
_arg = st.one_of(
    st.sampled_from(COMMANDS + ("frobnicate", "-", "--config", "--out", "--format", "json", "csv",
                                "xml", "--tol-overrides", "reality=1e-9", "x=y", "-h", "--help")),
    st.text(alphabet="-=,acefjmnorstuvx", max_size=6),
)


@settings(max_examples=200, derandomize=True, deadline=None, suppress_health_check=list(HealthCheck))
@given(st.lists(_arg, max_size=7))
def test_any_command_line_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    real_stdin, real_cwd = sys.stdin, os.getcwd()
    sys.stdin = io.StringIO(json.dumps(_JOB_WITHOUT_COMMAND))
    try:
        # --out may name any file, so the command line runs in a scratch directory
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    rc = main(argv)
                except SystemExit as exc:  # --help
                    rc = exc.code
                    assert rc == 0 and "usage" in out.getvalue()
    finally:
        sys.stdin = real_stdin
        os.chdir(real_cwd)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert set(json.loads(err.getvalue())["error"]) == {"code", "message"}


# ---------------------------------------------------------------------------
# cold start: numpy is loaded by matrix jobs only

_NUMPY_FREE_JOBS = [
    {"command": "scan", "params": {"grid": {**ONE_POINT_GRID, "imSteps": 2, "imStop": 0.2}}},
    {"command": "verify", "model": {"type": "finite", "eigenvalues": [{"re": 1.0, "im": 0.5}, {"re": 2.0}]}},
    {"command": "torsion", "model": {"type": "rank1", "a": {"re": 0.3, "im": 0.1}}},
    {"command": "verify", "model": {"type": "rank1", "a": {"re": 0.3, "im": 0.1}}},
    {"command": "det", "model": {"type": "lattice", "a": {"re": 0.3, "im": 0.1}}},
    {"command": "eta", "model": {"type": "lattice", "a": {"re": 0.3, "im": 0.1}}},
    {"command": "zeta", "model": {"type": "lattice", "a": {"re": 0.3, "im": 0.1}}, "params": {"s": 2.0}},
]
_MATRIX_JOB = {"command": "monodromy", "params": {"family": {"kind": "rank1", "a": 0.3}, "steps": 64}}

_COLD_START = """
import contextlib, io, json, sys
import zetadet
from zetadet.cli import main
seen = [[None, "numpy" in sys.modules]]
for job in json.loads(sys.argv[1]):
    sys.stdin = io.StringIO(json.dumps(job))
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([main([job["command"], "--config", "-"]), "numpy" in sys.modules])
print(json.dumps(seen))
"""


def test_cold_start_leaves_fractions_and_decimal_out():
    # the kernels' Bernoulli table is integer pairs, so no job imports either module; argv needs no
    # argparse; the records are namedtuples and __slots__ classes, so no dataclasses (nor its inspect)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")])}
    modules = "{'fractions', 'decimal', 'argparse', 'dataclasses', 'inspect'}"
    code = f"import sys, zetadet.cli; print(sorted({modules} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_only_matrix_jobs_import_numpy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    jobs = json.dumps(_NUMPY_FREE_JOBS + [_MATRIX_JOB])
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, jobs], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen[0] == [None, False]  # import zetadet
    assert seen[1:-1] == [[0, False]] * len(_NUMPY_FREE_JOBS)
    assert seen[-1] == [0, True]
