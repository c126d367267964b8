"""Flat line/vector bundles over the circle and their torsion invariants.

A model is determined by log parameters a_j (one per monodromy eigenvalue,
normalized to Re in (0, 1]): the even-degree part of the twisted signature
operator has spectrum {a_j + n : n in Z} and the twisted Laplacian has the
Hermitian family {(n + a_j)(n + conj a_j)}.  The refined torsion is the
graded determinant of the even part; with the convention adopted here the
loop representation attached to a model has eigenvalues exp(2*pi*i*a_j), so
the torsion equals det(I - representation).

Monodromy matrices are integrated with a classical 4th-order scheme from
Phi' + A(x) Phi = 0, Phi(0) = Id; the representation is Phi(2*pi)^{-1}.
When a family is flagged ``constant_in_x`` (every family the builders here
and the CLI make), each RK4 step multiplies Phi by one matrix I + E, and
Phi(2*pi) is that matrix raised to the number of steps by binary powering;
a family that depends on x is stepped through node by node.  Several values
of the family parameter t integrate as one (len(t), n, n) stack, so the
variation check integrates t + dt and t - dt once.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from typing import TYPE_CHECKING, Callable, Sequence, Tuple

from .complexcut import finite_complex
from .config import (
    ACYCLIC_DISTANCE,
    CR_MAX_STEP,
    CR_MIN_INTEGER_DISTANCE,
    FAMILY_GRID,
    MIN_ODE_STEPS,
)
from .determinant import LDetResult, ldet, pick_det_eta_cut
from .errors import DomainError, EigenFailureError, NonAcyclicError
from .spectrum import (
    DirectSum,
    HermQuadLattice,
    Lattice,
    Record,
    Spectrum,
    dist_to_integers,
    _check_multiplicity,
    _normalize_log_param,
)
from .zetafun import eta_invariant, zeta_ds_at_zero

if TYPE_CHECKING:
    import numpy as np

_PI = math.pi
_TWO_PI = 2.0 * math.pi


def _lattice_sum(parts: list) -> Spectrum:
    return parts[0] if len(parts) == 1 else DirectSum(parts)


class CircleModel(Record):
    """Direct sum of rank-1 flat bundles, given by log parameters.

    ``spectrum()`` is built once, on first use, and kept.
    """

    __slots__ = ("log_params", "_spectrum")
    _fields = ("log_params",)

    def __init__(self, log_params: Sequence[Tuple[complex, int]]):
        lp = tuple((finite_complex(a, "lattice parameter"), m) for a, m in log_params)
        if not lp:
            raise ValueError("model requires at least one log parameter")
        for _, m in lp:
            _check_multiplicity(m)
        self.log_params, self._spectrum = lp, None

    @classmethod
    def _acyclic(cls, log_params: Tuple[Tuple[complex, int], ...]) -> "CircleModel":
        """The model of checked log parameters: finite complex numbers farther than
        ACYCLIC_DISTANCE from the integers, with checked multiplicities.  Its spectrum
        is built at once, without checking them again."""
        model = object.__new__(cls)
        model.log_params = log_params
        model._spectrum = _lattice_sum([Lattice._checked(a, m) for a, m in log_params])
        return model

    def spectrum(self) -> Spectrum:
        if self._spectrum is None:
            self._spectrum = _lattice_sum([Lattice(a, m) for a, m in self.log_params])
        return self._spectrum

    def representation(self) -> np.ndarray:
        """Diagonal loop representation exp(2*pi*i*a_j), per multiplicity."""
        import numpy as np
        diag = []
        for a, m in self.log_params:
            diag.extend([cmath.exp(2j * _PI * a)] * m)
        return np.diag(np.array(diag, dtype=complex))


TorsionReport = namedtuple("TorsionReport", "torsion xi eta graded_ldet ray_singer im_eta identity_residual theta")
TrsReport = namedtuple("TrsReport", "torsion ray_singer im_eta residual_log_ratio")


def build_rank1(a: complex) -> CircleModel:
    """Rank-1 model for the connection d + i*a*dx; spectrum {a + n}."""
    a = complex(a)
    spacing = math.ulp(a.real)
    if spacing > ACYCLIC_DISTANCE:
        raise NonAcyclicError(
            f"log parameter {a}: the float spacing {spacing:.3g} at its real part exceeds "
            f"acyclic_distance {ACYCLIC_DISTANCE:.3g}, so its distance to the integers is unresolved"
        )
    if dist_to_integers(a) <= ACYCLIC_DISTANCE:
        raise NonAcyclicError(f"log parameter {a} is within tolerance of an integer")
    return CircleModel._acyclic(((finite_complex(a, "lattice parameter"), 1),))


def build_from_monodromy(m: Sequence[Sequence[complex]] | np.ndarray) -> CircleModel:
    """Model from a monodromy matrix: a_j = log(mu_j) / (2*pi*i), Re in (0, 1]."""
    import numpy as np
    mat = np.asarray(m, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("monodromy must be a square matrix")
    try:
        eigvals = np.linalg.eigvals(mat)
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(str(exc)) from exc
    params: list[Tuple[complex, int]] = []
    for mu in eigvals:
        mu = complex(mu)
        if not cmath.isfinite(mu):
            raise OverflowError(f"monodromy eigenvalue {mu} lies beyond the float range")
        if mu == 0:
            raise NonAcyclicError("monodromy matrix is singular")
        a = cmath.log(mu) / (2j * _PI)
        a, _ = _normalize_log_param(a)
        if dist_to_integers(a) <= ACYCLIC_DISTANCE:
            raise NonAcyclicError(
                f"monodromy eigenvalue {mu} is within tolerance of 1"
            )
        for i, (b, cnt) in enumerate(params):
            if abs(a - b) <= 1e-9 * (1.0 + abs(b)):
                params[i] = (b, cnt + 1)
                break
        else:
            params.append((a, 1))
    return CircleModel._acyclic(tuple(params))


def torsion_ldet(model: CircleModel) -> LDetResult:
    """The refined torsion alone: LDet of the even signature operator.

    The cut is the one ``pick_det_eta_cut`` places for the lattice spectrum,
    certified by the picker; ``.ldet`` is the graded log-determinant and
    ``.det`` the torsion.
    """
    spec = model.spectrum()
    return ldet(spec, pick_det_eta_cut(spec))


def refined_torsion(model: CircleModel) -> TorsionReport:
    """Graded determinant of the even signature operator, with cross-checks.

    The torsion is exp of the graded log-determinant computed directly from
    the lattice spectrum at the chosen cut, as in ``torsion_ldet``; xi is
    computed from the squared spectrum at the doubled cut, eta from the
    spectrum, and the report records the residual of graded_ldet = xi - i*pi*eta.
    The picker's certificate covers the doubled cut too, so nothing is
    certified by a scan.
    """
    spec = model.spectrum()
    cut = pick_det_eta_cut(spec)
    base = ldet(spec, cut)
    square = cut.squared()
    # adding 0j turns a zero part of -0.0 into 0.0, so a real xi never prints -0.0
    xi = -0.5 * zeta_ds_at_zero(square.spectrum, square) + 0j
    eta = eta_invariant(spec)
    residual = abs(base.ldet - (xi - 1j * _PI * eta))

    trs = ray_singer_torsion(model)
    return TorsionReport(
        torsion=base.det,
        xi=xi,
        eta=eta,
        graded_ldet=base.ldet,
        ray_singer=trs,
        im_eta=eta.imag,
        identity_residual=residual,
        theta=base.theta,
    )


def ray_singer_torsion(model: CircleModel) -> float:
    """exp(LDet_{-pi}(Laplacian on 1-forms) / 2), a positive real number.

    Each Hermitian family's eigenvalues are positive reals, so its cut at -pi
    comes certified (``HermQuadLattice.negative_axis_cut``).
    """
    total = 0.0 + 0.0j
    try:
        # an eigenvalue |a + n|^2 beyond the float range overflows before the sum
        for a, m in model.log_params:
            family = HermQuadLattice(a, m)
            total += -zeta_ds_at_zero(family, family.negative_axis_cut())
    except OverflowError:
        raise OverflowError(f"Ray-Singer torsion of {model}: an eigenvalue lies beyond the float range") from None
    try:
        return math.exp(0.5 * total.real)
    except OverflowError:
        raise OverflowError(
            f"Ray-Singer torsion of {model} is exp({0.5 * total.real:.6g}), beyond the float range"
        ) from None


def arg_class(m: Sequence[Sequence[complex]] | np.ndarray) -> complex:
    """log(det M) / (2*pi*i) with the real part reduced into [0, 1)."""
    import numpy as np
    det = complex(np.linalg.det(np.asarray(m, dtype=complex)))
    if det == 0:
        raise ValueError("arg_class requires an invertible matrix")
    if not cmath.isfinite(det):
        raise OverflowError(f"the determinant {det} of the Arg class lies beyond the float range")
    val = cmath.log(det) / (2j * _PI)
    return complex(val.real - math.floor(val.real), val.imag)


def model_arg_class(model: CircleModel) -> complex:
    """``arg_class`` of ``model.representation()``: sum of m * a_j, real part reduced into [0, 1).

    The determinant exp(2*pi*i * sum m * a_j) is never formed, so no Im a underflows it.
    """
    total = sum(m * a for a, m in model.log_params)
    return complex(total.real - math.floor(total.real), total.imag)


def trs_comparison(model: CircleModel, report: TorsionReport | None = None) -> TrsReport:
    """Residual of the torsion / Ray-Singer comparison log|T| = log T^RS + pi Im eta.

    ``report`` is the model's ``refined_torsion`` when the caller has it.
    """
    if report is None:
        report = refined_torsion(model)
    t_abs = abs(report.torsion)
    trs = report.ray_singer
    r_log = abs(math.log(t_abs / trs) - _PI * report.im_eta)
    return TrsReport(torsion=report.torsion, ray_singer=trs, im_eta=report.im_eta, residual_log_ratio=r_log)


# ---------------------------------------------------------------------------
# connection families, monodromy, variation formulas


class ConnectionFamily(Record):
    """Connection 1-form coefficient A(x, t) on [0, 2*pi), matrix valued.

    ``a_form`` maps (x, t) to an n x n array; ``psi`` optionally supplies the
    t-derivative of the family.  A must be 2*pi-periodic.  ``constant_in_x``
    declares that A (and so psi) does not depend on x, which lets
    ``monodromy`` power one RK4 step and ``arg_derivative_check`` sample psi
    once.
    """

    __slots__ = ("a_form", "dim", "psi", "constant_in_x")
    _fields = __slots__

    def __init__(
        self,
        a_form: Callable[[float, float], np.ndarray],
        dim: int,
        psi: Callable[[float, float], np.ndarray] | None = None,
        constant_in_x: bool = False,
    ):
        import numpy as np
        self.a_form, self.dim, self.psi, self.constant_in_x = a_form, dim, psi, constant_in_x
        a0 = np.asarray(a_form(0.0, 0.0), dtype=complex)
        a1 = np.asarray(a_form(_TWO_PI, 0.0), dtype=complex)
        if a0.shape != (dim, dim):
            raise ValueError("a_form must return dim x dim matrices")
        if not np.allclose(a0, a1, atol=1e-10):
            raise ValueError("connection form must be 2*pi-periodic")
        if constant_in_x and not np.array_equal(np.asarray(a_form(_PI, 0.0), dtype=complex), a0):
            raise ValueError("constant_in_x is set, but a_form(pi, 0) differs from a_form(0, 0)")

    @staticmethod
    def constant(matrix) -> "ConnectionFamily":
        import numpy as np
        mat = np.asarray(matrix, dtype=complex)
        return ConnectionFamily(lambda x, t: mat, mat.shape[0], constant_in_x=True)

    @staticmethod
    def rank1_path(a0: complex) -> "ConnectionFamily":
        """A(x, t) = i*(a0 + t), the line-bundle family d + i*(a0+t)*dx."""
        import numpy as np
        a0 = complex(a0)
        return ConnectionFamily(
            lambda x, t: np.array([[1j * (a0 + t)]], dtype=complex),
            1,
            psi=lambda x, t: np.array([[1j]], dtype=complex),
            constant_in_x=True,
        )

    @staticmethod
    def diagonal_path(a_values: Sequence[complex], rates: Sequence[complex]) -> "ConnectionFamily":
        import numpy as np
        d_a = np.diag(np.asarray(a_values, dtype=complex))
        d_r = np.diag(np.asarray(rates, dtype=complex))
        d_psi = 1j * d_r
        return ConnectionFamily(
            lambda x, t: 1j * (d_a + t * d_r),
            len(d_a),
            psi=lambda x, t: d_psi,
            constant_in_x=True,
        )


def _rk4_increment(a_start, a_mid, a_end, phi, h):
    """Phi(x + h) - Phi(x) of one classical RK4 step, with -A at x, x + h/2, x + h."""
    k1 = a_start @ phi
    k2 = a_mid @ (phi + 0.5 * h * k1)
    k3 = a_mid @ (phi + 0.5 * h * k2)
    k4 = a_end @ (phi + h * k3)
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _power_of_step(eye, e, steps: int):
    """(I + E)^steps by binary powering, squaring no further than the top bit of ``steps``.

    Above the last three levels the powers are carried as increments X of
    I + X, multiplied as (I + X)(I + Y) = I + (X + Y + XY), so that the
    small E of a step is not rounded against I.  The last three levels
    multiply plain matrices: there I + X can cancel, when Phi decays.  The
    switch depends on ``steps`` alone, so every member of a stack takes the
    path of its own scalar integration.
    """
    x, y = e, None  # base I + x; result I + y, the identity while y is None
    while steps >= 8:
        if steps & 1:
            y = x if y is None else x + y + x @ y
        x = x + x + x @ x
        steps >>= 1
    base = eye + x
    phi = None if y is None else eye + y
    while True:
        if steps & 1:
            phi = base if phi is None else phi @ base
        steps >>= 1
        if not steps:
            return phi
        base = base @ base


def monodromy(
    family: ConnectionFamily, steps: int = 256, t: float | Sequence[float] = 0.0
) -> np.ndarray:
    """Phi(2*pi) from Phi' + A(x) Phi = 0, Phi(0) = Id (classical RK4).

    For a family ``constant_in_x`` every step multiplies Phi by the same
    matrix I + E, so A is evaluated once per t and Phi(2*pi) = (I + E)^steps
    is formed by binary powering in O(log steps) products.  Otherwise the
    steps run in turn and the connection is evaluated once per node: k2 and
    k3 share x + h/2, and the end of one step is the start of the next.  A
    scalar ``t`` gives the n x n matrix; a sequence of ``t`` gives the
    (len(t), n, n) stack, one Phi(2*pi) per value, each with the bytes of
    its own scalar integration.
    """
    import numpy as np
    if steps < MIN_ODE_STEPS:
        raise ValueError(f"monodromy integration needs at least {MIN_ODE_STEPS} steps")
    h = _TWO_PI / steps
    phi = np.eye(family.dim, dtype=complex)

    if np.ndim(t) == 0:
        where = f"t={t}"

        def minus_a(x):
            return -np.asarray(family.a_form(x, t), dtype=complex)
    else:
        ts = tuple(t)
        if not ts:
            raise ValueError("monodromy needs at least one value of t")
        where = "t in {" + ", ".join(map(str, ts)) + "}"

        def minus_a(x):
            # the first product broadcasts the identity phi to the stack
            return -np.array([family.a_form(x, u) for u in ts], dtype=complex)

    x = 0.0
    a_start = minus_a(x)
    try:
        if family.constant_in_x:
            return _power_of_step(phi, _rk4_increment(a_start, a_start, a_start, phi, h), steps)
        for _ in range(steps):
            a_mid = minus_a(x + 0.5 * h)
            a_end = minus_a(x + h)
            phi = phi + _rk4_increment(a_start, a_mid, a_end, phi, h)
            x += h
            a_start = a_end
    except FloatingPointError as exc:
        raise FloatingPointError(
            f"RK4 monodromy of a {family.dim}x{family.dim} connection family at {where} "
            f"with {steps} steps: {exc}"
        ) from None
    return phi


def _check_step(dt: float) -> None:
    if not 0.0 < dt < math.inf:
        raise ValueError(f"variation step dt must be positive and finite, got {dt}")


def _wrap_half(x: float) -> float:
    """Reduce into (-1/2, 1/2]."""
    y = x - math.floor(x)
    if y > 0.5:
        y -= 1.0
    return y


def arg_derivative_check(
    family: ConnectionFamily,
    dt: float,
    t: float = 0.0,
    steps: int = 512,
) -> float:
    """Residual of 2*pi*i * d/dt Arg = -integral of Tr(psi_t) over the circle.

    The left side is the central difference of the Arg class of the
    monodromy (mod-Z aware); the right side is a trapezoid integral of the
    trace of the family derivative over ``config.FAMILY_GRID`` points,
    sampled once at x = 0 when the family is ``constant_in_x``.  Both
    monodromies come from one RK4 integration of the stack of t + dt and
    t - dt.
    """
    import numpy as np
    if family.psi is None:
        raise ValueError("family carries no psi samples")
    _check_step(dt)
    phi_p, phi_m = monodromy(family, steps, (t + dt, t - dt))
    diff = arg_class(phi_p) - arg_class(phi_m)
    deriv = complex(_wrap_half(diff.real), diff.imag) / (2.0 * dt)

    xs = (0.0,) if family.constant_in_x else np.linspace(0.0, _TWO_PI, FAMILY_GRID, endpoint=False)
    traces = np.array([family.psi(x, t) for x in xs], dtype=complex).trace(axis1=1, axis2=2)
    integral = complex(traces.mean() * _TWO_PI)
    rhs = -integral / (2j * _PI)
    return abs(deriv - rhs)


def eta_variation_check(a_path: Callable[[float], complex], dt: float, t: float = 0.0) -> float:
    """Residual of d/dt eta(a(t)) = -a'(t) for a rank-1 path (mod-Z aware)."""
    _check_step(dt)
    a_p, a_m = complex(a_path(t + dt)), complex(a_path(t - dt))
    diff = eta_invariant(Lattice(a_p)) - eta_invariant(Lattice(a_m))
    deriv = complex(_wrap_half(diff.real), diff.imag) / (2.0 * dt)
    a_rate = (a_p - a_m) / (2.0 * dt)
    return abs(deriv - (-a_rate))


def _stencil(a: complex, h: float) -> tuple:
    """The points a + h, a - h, a + ih, a - ih; DomainError when one of them equals a."""
    stencil = (a + h, a - h, a + 1j * h, a - 1j * h)
    if a in stencil:
        raise DomainError(f"the step {h} is below the float spacing at a={a}: a stencil point equals a")
    return stencil


def cr_residual(fn: Callable[[complex], complex], a: complex, h: float) -> float:
    """|d/d(conj a)| of ``fn`` at ``a`` from central differences with step ``h``.

    For a holomorphic map the result is pure discretization error.  Raises
    DomainError, before ``fn`` is called, when ``h`` is too small to move a
    stencil point off ``a``, and OverflowError when the differences leave the
    float range.
    """
    stencil = _stencil(a, h)
    d_re = (fn(stencil[0]) - fn(stencil[1])) / (2.0 * h)
    d_im = (fn(stencil[2]) - fn(stencil[3])) / (2.0 * h)
    res = abs(0.5 * (d_re + 1j * d_im))
    if not math.isfinite(res):
        raise OverflowError(f"the finite differences at a={a} with step {h} lie beyond the float range")
    return res


def scan_points(
    re_range: Tuple[float, float], im_range: Tuple[float, float], re_steps: int, im_steps: int
) -> list[complex]:
    """Grid points, real part in the outer loop; an axis of one step sits at its start."""
    def axis(lo, hi, n):
        return [lo] if n == 1 else [lo + (hi - lo) * i / (n - 1) for i in range(n)]

    ims = axis(*im_range, im_steps)
    return [complex(re, im) for re in axis(*re_range, re_steps) for im in ims]


ScanRow = namedtuple("ScanRow", "torsion ray_singer im_eta cr_residual")


def scan_row(a: complex, h: float) -> ScanRow:
    """The torsion, T^RS, Im eta and ``cr_residual`` of a -> T at one point; never xi.

    The point is built first, so a non-acyclic one reads NonAcyclicError; then
    the stencil is tested, so a step below the float spacing of ``a`` raises
    DomainError before any torsion.  T, eta and T^RS come in the order
    ``refined_torsion`` takes them, then the four finite-difference torsions,
    so any other failing point names the error ``refined_torsion`` names.
    """
    model = build_rank1(a)
    _stencil(a, h)
    torsion = torsion_ldet(model).det
    im_eta = eta_invariant(model.spectrum()).imag
    t_rs = ray_singer_torsion(model)
    cr = cr_residual(lambda z: torsion_ldet(build_rank1(z)).det, a, h)
    return ScanRow(torsion, t_rs, im_eta, cr)


HolomorphyReport = namedtuple("HolomorphyReport", "max_cr_residual max_abs_torsion grid_shape")


def holomorphy_scan(
    re_range: Tuple[float, float],
    im_range: Tuple[float, float],
    grid: int,
    h: float,
) -> HolomorphyReport:
    """Max ``cr_residual`` and max |T| over the ``scan_row``s of a grid x grid ``scan_points`` grid."""
    if not 0.0 < h <= CR_MAX_STEP:
        raise ValueError(f"finite-difference step must lie in (0, {CR_MAX_STEP}]")
    if grid < 1:
        raise ValueError("grid must be positive")
    max_res = max_abs = 0.0
    for a in scan_points(re_range, im_range, grid, grid):
        if dist_to_integers(a) < CR_MIN_INTEGER_DISTANCE:
            raise NonAcyclicError(f"grid point {a} too close to an integer")
        row = scan_row(a, h)
        max_res = max(max_res, row.cr_residual)
        max_abs = max(max_abs, abs(row.torsion))
    return HolomorphyReport(max_res, max_abs, (grid, grid))
