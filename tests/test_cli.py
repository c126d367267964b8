import io
import json
import math
import re

import pytest

from zetadet.cli import (
    main,
    parse_config,
    render_csv,
    render_json,
    run,
    scan_rows,
)
from zetadet.errors import SchemaError

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

    def test_det_command(self):
        res = run(
            _job(
                "det",
                {"type": "finite", "eigenvalues": [{"re": 2.0, "im": 0.0}]},
                theta=-PI,
            )
        )
        assert res["results"]["det"]["re"] == pytest.approx(2.0)

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
        assert json.loads(captured.err)["error"]["code"] == "bad-complex"
        assert captured.out == ""

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

    def test_integral_float_multiplicity_accepted(self):
        lattice = {"type": "lattice", "a": {"re": 0.3, "im": 0.1}}
        once = run(_job("det", {**lattice, "mu": 1}))["results"]["ldet"]
        twice = run(_job("det", {**lattice, "mu": 2.0}))["results"]["ldet"]
        assert twice["re"] == pytest.approx(2 * once["re"])
        assert twice["im"] == pytest.approx(2 * once["im"])


def test_render_json_is_sorted_and_compact():
    text = render_json({"b": 1, "a": {"d": 2, "c": 3}})
    assert text == '{"a":{"c":3,"d":2},"b":1}\n'
