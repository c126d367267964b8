"""Command-line front end: JSON config in, JSON/CSV results out.

Schema (version 1): a job is an object with ``command``, ``model``, optional
``theta`` (radians, default -pi/4), optional ``params`` and ``tolerances``.
Complex numbers are always objects {"re": float, "im": float}.  Every check
in the output pairs a residual with its tolerance and a pass flag; the exit
code is 0 iff all requested checks pass.

Output is deterministic for a fixed config and build except for the
``wallTimeSeconds`` field.  ``main(argv)`` may be called many times in one
process, and its output equals that of the shell CLI.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import sys
import time
from collections import namedtuple
from typing import Any

from . import circle as circ
from .complexcut import CutAngle
from .config import CR_MAX_STEP, DEFAULT_TOLERANCES, MAX_SCAN_POINTS, MIN_ODE_STEPS, Tolerances
from .determinant import ldet, verify_spectrum
from .errors import SchemaError, ZetaDetError
from .spectrum import Finite, Lattice, Spectrum
from .zetafun import eta_invariant, spectral_zeta

SCHEMA_VERSION = 1
DEFAULT_THETA = -math.pi / 4.0
COMMANDS = (
    "torsion",
    "zeta",
    "eta",
    "det",
    "verify",
    "scan",
    "monodromy",
    "variation",
)
SCAN_COLUMNS = (
    "a_re",
    "a_im",
    "t_re",
    "t_im",
    "t_abs",
    "t_rs",
    "im_eta",
    "cr_residual",
    "status",
)

_TOL_FIELDS = set(Tolerances._fields)


def _fail(code: str, msg: str):
    raise SchemaError(code, msg)


def _as_real(obj, code: str, where: str) -> float:
    try:
        x = math.nan if isinstance(obj, bool) or not isinstance(obj, (int, float)) else float(obj)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        _fail(code, f"{where} is a finite number")
    return x


def _as_int(obj, code: str, where: str, least: int) -> int:
    integral = isinstance(obj, int) or (isinstance(obj, float) and obj.is_integer())
    if isinstance(obj, bool) or not integral or obj < least:
        _fail(code, f"{where} is an integer >= {least}")
    return int(obj)


def _as_complex(obj, where: str) -> complex:
    if isinstance(obj, dict) and set(obj) <= {"re", "im"}:
        re = _as_real(obj.get("re", 0.0), "bad-complex", f"{where}: re")
        return complex(re, _as_real(obj.get("im", 0.0), "bad-complex", f"{where}: im"))
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return complex(_as_real(obj, "bad-complex", where))
    _fail("bad-complex", f"{where}: complex numbers are {{re, im}} objects")


def _as_matrix(rows, code: str, where: str) -> list[list[complex]]:
    square = isinstance(rows, list) and rows and all(
        isinstance(row, list) and len(row) == len(rows) for row in rows
    )
    if not square:
        _fail(code, f"{where} is a nonempty square list of rows")
    return [[_as_complex(x, f"{where} entry") for x in row] for row in rows]


def _c2j(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


JobConfig = namedtuple("JobConfig", "command model theta params tolerances raw")


def _builds_matrices(cfg: JobConfig) -> bool:
    """Whether the job builds or integrates matrices, the only work that needs numpy."""
    if cfg.command in ("monodromy", "variation"):
        return True
    return cfg.command != "scan" and (cfg.model or {}).get("type") == "monodromy"


def parse_config(raw: dict) -> JobConfig:
    if not isinstance(raw, dict):
        _fail("bad-config", "configuration must be a JSON object")
    version = raw.get("schemaVersion", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        _fail("bad-version", f"unsupported schemaVersion {version}")
    command = raw.get("command")
    if command not in COMMANDS:
        _fail("bad-command", f"command must be one of {COMMANDS}")
    model = raw.get("model")
    if model is not None and not isinstance(model, dict):
        _fail("bad-model", "model must be an object")
    theta = _as_real(raw.get("theta", DEFAULT_THETA), "bad-theta", "theta in radians")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        _fail("bad-params", "params must be an object")
    overrides = raw.get("tolerances", {})
    if not isinstance(overrides, dict):
        _fail("bad-tolerances", "tolerances must be an object")
    unknown = set(overrides) - _TOL_FIELDS
    if unknown:
        _fail("bad-tolerances", f"unknown tolerance fields: {sorted(unknown)}")
    values = {name: _as_real(value, "bad-tolerances", name) for name, value in overrides.items()}
    for name, x in values.items():
        if x < 0:
            _fail("bad-tolerances", f"{name} is a nonnegative number")
    tol = DEFAULT_TOLERANCES.with_overrides(**values)
    return JobConfig(command, model, theta, params, tol, raw)


_EIGENVALUE_KEYS = frozenset(("re", "im", "multiplicity"))


def _eigenvalue(e) -> tuple[complex, int]:
    """An eigenvalue object's (value, multiplicity), schema checked; ``Finite`` checks the value next.

    Finite floats and an integer multiplicity of at least 1 skip ``_as_real`` and ``_as_int``.
    """
    if not isinstance(e, dict):
        _fail("bad-model", "eigenvalues are {re, im[, multiplicity]} objects")
    if not e.keys() <= _EIGENVALUE_KEYS:
        _fail("bad-model", f"unknown eigenvalue keys: {sorted(e.keys() - _EIGENVALUE_KEYS)}")
    re, im, m = e.get("re", 0.0), e.get("im", 0.0), e.get("multiplicity", 1)
    if not (type(re) is float and type(im) is float and math.isfinite(re) and math.isfinite(im)):
        re = _as_real(re, "bad-complex", "eigenvalue: re")
        im = _as_real(im, "bad-complex", "eigenvalue: im")
    if not (type(m) is int and m >= 1):
        m = _as_int(m, "bad-model", "multiplicity", 1)
    return complex(re, im), m


def _build_spectrum(model: dict) -> Spectrum:
    kind = model.get("type")
    if kind == "finite":
        evs = model.get("eigenvalues")
        if not isinstance(evs, list) or not evs:
            _fail("bad-model", "finite model needs a nonempty eigenvalue list")
        return Finite(map(_eigenvalue, evs))
    if kind == "lattice":
        a = _as_complex(model.get("a"), "lattice a")
        return Lattice(a, _as_int(model.get("mu", 1), "bad-model", "lattice mu", 1))
    if kind in ("rank1", "monodromy"):
        return _build_circle_model(model).spectrum()
    _fail("bad-model", f"unknown spectrum model type {kind!r}")


def _build_circle_model(model: dict) -> circ.CircleModel:
    kind = model.get("type")
    if kind == "rank1":
        return circ.build_rank1(_as_complex(model.get("a"), "rank1 a"))
    if kind == "monodromy":
        return circ.build_from_monodromy(_as_matrix(model.get("matrix"), "bad-model", "matrix"))
    _fail("bad-model", f"model type {kind!r} is not a circle model")


def _build_family(spec) -> circ.ConnectionFamily:
    if not isinstance(spec, dict):
        _fail("bad-family", "params.family is an object")
    kind = spec.get("kind")
    if kind == "constant":
        return circ.ConnectionFamily.constant(_as_matrix(spec.get("matrix"), "bad-family", "family matrix"))
    if kind == "rank1":
        return circ.ConnectionFamily.rank1_path(_as_complex(spec.get("a"), "family a"))
    if kind == "diagonal":
        a_vals = spec.get("a")
        rates = spec.get("rates", [1.0] * len(a_vals) if isinstance(a_vals, list) else None)
        if not (isinstance(a_vals, list) and isinstance(rates, list) and len(rates) == len(a_vals)):
            _fail("bad-family", "diagonal family needs lists a and rates of one length")
        return circ.ConnectionFamily.diagonal_path(
            [_as_complex(x, "family a") for x in a_vals],
            [_as_complex(x, "family rate") for x in rates],
        )
    _fail("bad-family", f"unknown family kind {kind!r}")


def _check(name: str, residual: float, tolerance: float) -> dict:
    return {
        "name": name,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "pass": bool(residual < tolerance),
    }


def _path_from_params(params: dict):
    spec = params.get("path")
    if not isinstance(spec, dict):
        _fail("bad-path", "variation needs a params.path object")
    kind = spec.get("kind")
    a0 = _as_complex(spec.get("a0"), "path a0")
    if kind == "affine":
        rate = _as_complex(spec.get("rate", 1.0), "path rate")
        return (lambda t: a0 + rate * t), rate, "affine"
    if kind == "sine":
        amp = _as_complex(spec.get("amp", 0.1), "path amp")
        return (lambda t: a0 + amp * math.sin(t)), amp, "sine"
    _fail("bad-path", f"unknown path kind {kind!r}")


def _family_for_path(path_kind: str, a0: complex, coeff: complex):
    import numpy as np
    if path_kind == "affine":
        return circ.ConnectionFamily.diagonal_path([a0], [coeff])
    return circ.ConnectionFamily(
        lambda x, t: np.array([[1j * (a0 + coeff * math.sin(t))]], dtype=complex),
        1,
        psi=lambda x, t: np.array([[1j * coeff * math.cos(t)]], dtype=complex),
        constant_in_x=True,
    )


def _scan_grid(params: dict):
    grid = params.get("grid")
    if not isinstance(grid, dict):
        _fail("bad-grid", "scan needs a params.grid object")
    try:
        re_lo, re_hi, im_lo, im_hi = (
            _as_real(grid[k], "bad-grid", f"grid {k}") for k in ("reStart", "reStop", "imStart", "imStop")
        )
        re_n, im_n = (_as_int(grid[k], "bad-grid", f"grid {k}", 0) for k in ("reSteps", "imSteps"))
    except KeyError as exc:
        _fail("bad-grid", f"grid is missing {exc}")
    if max(re_n, im_n, re_n * im_n) > MAX_SCAN_POINTS:
        _fail("bad-grid", f"grid of {re_n} x {im_n} points exceeds the cap of {MAX_SCAN_POINTS}")
    return circ.scan_points((re_lo, re_hi), (im_lo, im_hi), re_n, im_n)


def _scan_row(a: complex, h: float) -> dict:
    """One grid point: ``circle.scan_row`` as a row, or its error's name in ``status``."""
    row: dict[str, Any] = {"a_re": a.real, "a_im": a.imag, "status": "ok"}
    try:
        r = circ.scan_row(a, h)
    except ZetaDetError as exc:
        row["status"] = type(exc).__name__.removesuffix("Error")
        row.update(dict.fromkeys(SCAN_COLUMNS[2:-1]))
        return row
    row.update(
        t_re=r.torsion.real,
        t_im=r.torsion.imag,
        t_abs=abs(r.torsion),
        t_rs=r.ray_singer,
        im_eta=r.im_eta,
        cr_residual=r.cr_residual,
    )
    return row


def scan_rows(cfg: JobConfig) -> list[dict]:
    """Scan rows in deterministic grid order; failures are per-row."""
    points = _scan_grid(cfg.params)
    h = _as_real(cfg.params.get("h", 1e-4), "bad-params", "params.h")
    if not 0.0 < h <= CR_MAX_STEP:
        _fail("bad-params", f"params.h lies in (0, {CR_MAX_STEP}]")
    return [_scan_row(a, h) for a in points]


def run(cfg: JobConfig) -> dict:
    """Dispatch a job; returns the JobResult dictionary."""
    started = time.perf_counter()
    tol = cfg.tolerances
    results: dict[str, Any] = {}
    checks: list[dict] = []
    rows: list[dict] | None = None

    if cfg.command == "torsion":
        if cfg.model is None:
            _fail("bad-model", "torsion needs a model")
        model = _build_circle_model(cfg.model)
        report = circ.refined_torsion(model)
        results.update(
            torsion=_c2j(report.torsion),
            xi=_c2j(report.xi),
            eta=_c2j(report.eta),
            gradedLdet=_c2j(report.graded_ldet),
            raySinger=report.ray_singer,
            imEta=report.im_eta,
        )
        checks.append(
            _check("graded_det_eta_identity", report.identity_residual, tol.identity_residual)
        )
    elif cfg.command == "zeta":
        spec = _build_spectrum(cfg.model or {})
        s = _as_complex(cfg.params.get("s", 0.0), "params.s")
        res = spectral_zeta(spec, CutAngle(cfg.theta), s)
        results.update(value=_c2j(res.value), errorEstimate=res.error_estimate)
    elif cfg.command == "eta":
        spec = _build_spectrum(cfg.model or {})
        results.update(eta=_c2j(eta_invariant(spec)))
    elif cfg.command == "det":
        spec = _build_spectrum(cfg.model or {})
        res = ldet(spec, CutAngle(cfg.theta))
        results.update(ldet=_c2j(res.ldet), det=_c2j(res.det))
    elif cfg.command == "verify":
        if cfg.model is None:
            _fail("bad-model", "verify needs a model")
        if cfg.model.get("type") in ("rank1", "monodromy"):
            model = _build_circle_model(cfg.model)
            report = circ.refined_torsion(model)
            trs = circ.trs_comparison(model, report)
            results.update(
                torsion=_c2j(report.torsion),
                raySinger=report.ray_singer,
                imEta=report.im_eta,
            )
            checks.append(
                _check("graded_det_eta_identity", report.identity_residual, tol.identity_residual)
            )
            checks.append(
                _check("torsion_ray_singer", trs.residual_log_ratio, tol.trs_residual)
            )
        else:
            spec = _build_spectrum(cfg.model)
            rep, rep_up, sym = verify_spectrum(spec, CutAngle(cfg.theta), tol)
            checks.append(_check("det_eta_identity", rep.residual, tol.identity_residual))
            checks.append(
                _check("det_eta_identity_upper", rep_up.residual, tol.identity_residual)
            )
            results.update(
                lhs=_c2j(rep.lhs),
                eta=_c2j(rep.eta),
                zetaZeroSquare=_c2j(rep.zeta_zero_square),
            )
            if sym is not None:
                checks.append(
                    _check(
                        "symmetric_factorization",
                        sym.residual,
                        tol.finite_arithmetic * (1.0 + abs(sym.ldet_result.det)) * 10.0,
                    )
                )
    elif cfg.command == "scan":
        rows = scan_rows(cfg)
        results["rowCount"] = len(rows)
    elif cfg.command == "monodromy":
        family = _build_family(cfg.params.get("family", {}))
        steps = _as_int(cfg.params.get("steps", 256), "bad-params", "params.steps", MIN_ODE_STEPS)
        phi = circ.monodromy(family, steps, _as_real(cfg.params.get("t", 0.0), "bad-params", "params.t"))
        results["monodromy"] = [[_c2j(complex(z)) for z in row] for row in phi]
        results["argClass"] = _c2j(circ.arg_class(phi))
    elif cfg.command == "variation":
        dt = _as_real(cfg.params.get("dt", 1e-4), "bad-params", "params.dt")
        if dt <= 0.0:
            _fail("bad-params", "params.dt is positive")
        t0 = _as_real(cfg.params.get("t", 0.0), "bad-params", "params.t")
        path, coeff, kind = _path_from_params(cfg.params)
        res_eta = circ.eta_variation_check(path, dt, t0)
        checks.append(_check("eta_variation", res_eta, tol.variation_residual))
        family = _family_for_path(kind, complex(path(0.0)), coeff)
        res_arg = circ.arg_derivative_check(family, dt, t0)
        checks.append(_check("arg_derivative", res_arg, tol.variation_residual))
        results.update(etaVariationResidual=res_eta, argDerivativeResidual=res_arg)

    result = {
        "schemaVersion": SCHEMA_VERSION,
        "command": cfg.command,
        "config": cfg.raw,
        "results": results,
        "checks": checks,
        "wallTimeSeconds": time.perf_counter() - started,
    }
    if rows is not None:
        result["rows"] = rows
    return result


def render_json(result: dict) -> str:
    return _ENCODER.encode(result) + "\n"


def render_csv(result: dict) -> str:
    rows = result.get("rows")
    if rows is None:
        _fail("bad-format", "CSV output is only available for scan jobs")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCAN_COLUMNS)
    for row in rows:
        writer.writerow(
            ["" if row.get(c) is None else row.get(c) for c in SCAN_COLUMNS]
        )
    return buf.getvalue()


def _parse_tol_overrides(text: str) -> dict:
    overrides = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            _fail("bad-tolerances", f"override {part!r} is not key=value")
        key, value = part.split("=", 1)
        try:
            overrides[key.strip()] = float(value)
        except ValueError:
            _fail("bad-tolerances", f"override {part!r} is not a number")
    return overrides


def _refuse_constant(literal: str):
    raise SchemaError("bad-json", f"config holds {literal}, which JSON does not allow")


# One codec per process: json.loads and json.dumps build a new one per call when given options.
# A result is a tree (the decoded config beside values ``run`` builds), so no cycle needs checking;
# a config nested past the recursion limit still raises RecursionError.
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False, check_circular=False)


# A number literal of magnitude 10^309 or more has an exponent of three digits or,
# with an exponent of at most 99, at least 210 digits before its point.  The text
# is searched for either shape with every digit read as 0, E as e and plus signs
# dropped; text without one holds no number that parsed to infinity.  (On text
# that is mostly digits, the compiled search finds "e000" faster than ``in``.)
_NUMBER_SHAPE = bytes.maketrans(b"123456789E", b"000000000e")
_BIG_EXPONENT = re.compile(rb"e000")
_LONG_MANTISSA = b"0" * 210


def _may_overflow(text: str) -> bool:
    shape = text.encode("ascii", "replace").translate(_NUMBER_SHAPE, b"+")
    return _BIG_EXPONENT.search(shape) is not None or _LONG_MANTISSA in shape


def _refuse_overflow(raw: dict) -> None:
    """Refuse a number literal that parsed to infinity, naming the field that holds it."""
    stack = list(raw.items())
    while stack:
        path, node = stack.pop()
        if isinstance(node, float) and math.isinf(node):
            _fail("bad-value", f"config field {path} overflows the float range")
        if isinstance(node, dict):
            stack.extend((f"{path}.{key}", value) for key, value in node.items())
        elif isinstance(node, list):
            stack.extend((f"{path}[{i}]", value) for i, value in enumerate(node))


_USAGE = """\
usage: zetadet [-h] --config CONFIG [--out OUT] [--format {json,csv}]
               [--tol-overrides TOL_OVERRIDES]
               COMMANDS

zeta determinants, eta invariants, and refined torsion

positional arguments:
  COMMANDS

options:
  -h, --help            show this help message and exit
  --config CONFIG       config path or - for stdin
  --out OUT             output path (default stdout)
  --format {json,csv}
  --tol-overrides TOL_OVERRIDES
                        k=v[,k=v...] tolerance overrides
""".replace("COMMANDS", "{" + ",".join(COMMANDS) + "}")
_OPTIONS = ("--help", "--config", "--out", "--format", "--tol-overrides")
_FORMATS = ("json", "csv")
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _choice(where: str, value: str, choices: tuple) -> str:
    if value not in choices:
        _fail("bad-args", f"argument {where}: invalid choice: {value!r} (choose from {str(choices)[1:-1]})")
    return value


def _option(arg: str) -> tuple[str, str | None] | None:
    """The option ``arg`` names and its ``=value``, or None when ``arg`` is a value or the command.

    A unique prefix of a long option names it.  As in argparse, "-", a negative
    number, and an argument with a space that names no option are values.
    """
    if arg in _OPTIONS:
        return arg, None
    if not arg.startswith("-") or arg == "-":
        return None
    if arg.startswith("-h"):  # as argparse reads it: -hh is -h -h, and -hx or -h=x gives -h the value x
        tail = arg[3:] if arg[2:3] == "=" else arg[2:]
        return "--help", tail.lstrip("h") or ("" if arg == "-h=" else None)
    if arg.startswith("--"):
        name, eq, value = arg.partition("=")
        matches = [option for option in _OPTIONS if option.startswith(name)]
        if len(matches) > 1:
            _fail("bad-args", f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    if _NEGATIVE_NUMBER.fullmatch(arg) or " " in arg:
        return None
    return arg, None


def _parse_args(argv: list[str]) -> tuple[str, str, str | None, str, str]:
    """(command, config, out, format, tol_overrides) of a command line.

    The command may stand anywhere among the options; an option takes its value
    as the next argument or after "=", and the last of a repeated option wins;
    a "--" stands right before or right after the command, and no argument after
    it is an option.  ``-h``/``--help`` prints ``_USAGE`` and raises
    ``SystemExit(0)``.  Anything else raises ``SchemaError("bad-args", ...)``;
    arguments are read in order, and unknown ones are refused after the last,
    as argparse does.
    """
    cut = argv.index("--") if "--" in argv else len(argv)
    args = argv[:cut] + argv[cut + 1:]
    options = [_option(arg) for arg in argv[:cut]] + [None] * (len(args) - cut)
    values = {"--config": None, "--out": None, "--format": "json", "--tol-overrides": ""}
    command, extras = None, []
    i = 0
    while i < len(args):
        arg, option = args[i], options[i]
        i += 1
        if option is None:
            if command is None:
                command, command_at = _choice("command", arg, COMMANDS), i - 1
            else:
                extras.append(arg)
            continue
        name, value = option
        if name == "--help":
            if value is not None:
                _fail("bad-args", f"argument -h/--help: ignored explicit argument {value!r}")
            sys.stdout.write(_USAGE)
            raise SystemExit(0)
        if name not in values:
            extras.append(arg)
            continue
        if value is None:
            if i >= cut or options[i] is not None:
                _fail("bad-args", f"argument {name}: expected one argument")
            value = args[i]
            i += 1
        values[name] = _choice(name, value, _FORMATS) if name == "--format" else value
    if cut < len(argv) and command is not None and command_at not in (cut - 1, cut):
        extras.append("--")
    missing = [name for name, value in (("command", command), ("--config", values["--config"])) if value is None]
    if missing:
        _fail("bad-args", f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail("bad-args", f"unrecognized arguments: {' '.join(extras)}")
    return command, values["--config"], values["--out"], values["--format"], values["--tol-overrides"]


def main(argv: list[str] | None = None) -> int:
    try:
        command, config, out, fmt, tol_overrides = _parse_args(sys.argv[1:] if argv is None else argv)
        if config == "-":
            text = sys.stdin.read()
        else:
            with open(config) as fh:
                text = fh.read()
        try:
            if text.startswith("\ufeff"):  # as json.loads refuses it; the decoder alone would not name it
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
            raw = _DECODER.decode(text)
        except json.JSONDecodeError as exc:
            raise SchemaError("bad-json", f"config is not valid JSON: {exc}")
        except RecursionError as exc:
            raise SchemaError("bad-json", f"config nests too deeply: {exc}")
        if not isinstance(raw, dict):
            raise SchemaError("bad-config", "configuration must be a JSON object")
        if _may_overflow(text):
            _refuse_overflow(raw)
        raw.setdefault("command", command)
        if raw["command"] != command:
            raise SchemaError("bad-command", "config command disagrees with CLI command")
        if tol_overrides and isinstance(raw.get("tolerances", {}), dict):
            raw["tolerances"] = {**raw.get("tolerances", {}), **_parse_tol_overrides(tol_overrides)}
        cfg = parse_config(raw)
        floating_point = contextlib.nullcontext()
        if _builds_matrices(cfg):
            import numpy as np
            floating_point = np.errstate(over="raise", invalid="raise", divide="raise")
        with floating_point:
            result = run(cfg)
        try:
            rendered = render_json(result) if fmt == "json" else render_csv(result)
        except RecursionError as exc:  # only the echoed config can nest this deep
            raise SchemaError("bad-json", f"config nests too deeply to echo: {exc}")
        if out:
            with open(out, "w") as fh:
                fh.write(rendered)
        else:
            sys.stdout.write(rendered)
    except (ZetaDetError, ValueError, OSError, ArithmeticError) as exc:
        if isinstance(exc, SchemaError):
            code = exc.code
        elif isinstance(exc, (ZetaDetError, ArithmeticError)):
            code = type(exc).__name__.removesuffix("Error")
        elif isinstance(exc, OSError):
            code = "bad-file"
        else:
            code = "bad-value"
        print(json.dumps({"error": {"code": code, "message": str(exc)}}), file=sys.stderr)
        return 2

    ok = all(c["pass"] for c in result.get("checks", []))
    ok = ok and all(r.get("status", "ok") == "ok" for r in result.get("rows", []))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
