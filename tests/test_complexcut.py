import cmath
import math

import pytest
from hypothesis import given, strategies as st

from zetadet import CutAngle, OnCutError, Sector, ZeroInputError, log_cut, pow_cut
from zetadet.complexcut import TAU, ang_dist, branch_angle, phase

PI = math.pi


class TestCutAngle:
    def test_normalization_window(self):
        assert CutAngle(-PI / 2).normalized == -PI / 2
        assert CutAngle(3 * PI / 2).normalized == 3 * PI / 2
        assert CutAngle(-2 * PI).normalized == -2 * PI

    def test_theta_and_theta_plus_two_pi_are_distinct(self):
        assert CutAngle(-PI / 2) != CutAngle(-PI / 2 + TAU)

    def test_equality_by_normalized_value(self):
        assert CutAngle(0.25) == CutAngle(0.25 + 2 * TAU)
        assert hash(CutAngle(0.25)) == hash(CutAngle(0.25 + 2 * TAU))


class TestLogCut:
    def test_principal_of_one(self):
        assert log_cut(1, -PI) == 0

    def test_imaginary_unit(self):
        assert log_cut(1j, -PI / 2) == pytest.approx(1j * PI / 2)

    def test_on_cut_raises(self):
        with pytest.raises(OnCutError):
            log_cut(-1, -PI)

    def test_zero_raises(self):
        with pytest.raises(ZeroInputError):
            log_cut(0, -PI)

    def test_branch_shift_across_the_ray(self):
        # same ray direction, windows one turn apart: logs differ by 2*pi*i
        low = log_cut(1.0, -PI / 2)
        high = log_cut(1.0, 3 * PI / 2)
        assert high - low == pytest.approx(2j * PI)


class TestPowCut:
    def test_inverse_of_i(self):
        assert pow_cut(1j, 1, -PI / 2) == pytest.approx(-1j)

    def test_sqrt_of_four(self):
        assert pow_cut(4, 0.5, -PI) == pytest.approx(0.5)

    def test_negative_base(self):
        # log_{-pi/2}(-2) = ln 2 + i*pi, so (-2)^{-1} = -1/2 on this branch
        assert pow_cut(-2, 1, -PI / 2) == pytest.approx(-0.5)


nonzero_complex = st.builds(
    complex,
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
).filter(lambda z: abs(z) > 1e-6)

angles = st.floats(-2 * PI, 2 * PI - 1e-9, allow_nan=False)


@given(nonzero_complex, angles)
def test_log_cut_inverts_exp(lam, theta):
    try:
        w = log_cut(lam, theta)
    except OnCutError:
        return
    assert cmath.exp(w) == pytest.approx(lam, rel=1e-12, abs=1e-12)
    assert theta < w.imag < theta + TAU


@given(nonzero_complex, angles, angles)
def test_log_cut_angle_difference_is_zero_or_full_turn(lam, t1, t2):
    lo, hi = sorted((t1, t2))
    if hi - lo >= TAU:
        return
    try:
        wl = log_cut(lam, lo)
        wh = log_cut(lam, hi)
    except OnCutError:
        return
    diff = wh - wl
    assert diff.real == pytest.approx(0.0, abs=1e-12)
    crossed = lo < wl.imag <= hi
    expected = TAU if crossed else 0.0
    assert diff.imag == pytest.approx(expected, abs=1e-9)


@given(nonzero_complex, angles)
def test_pow_cut_at_zero_exponent(lam, theta):
    try:
        assert pow_cut(lam, 0, theta) == 1
    except OnCutError:
        pass


@given(
    nonzero_complex,
    angles,
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
)
def test_pow_cut_exponent_additivity(lam, theta, s1, s2):
    try:
        lhs = pow_cut(lam, s1 + s2, theta)
        rhs = pow_cut(lam, s1, theta) * pow_cut(lam, s2, theta)
    except OnCutError:
        return
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def _reference_log_cut(lam: complex, theta: float) -> complex:
    """The cut logarithm written out in one piece, as it stood before its polar core was split off."""
    if lam == 0:
        raise ZeroInputError("log_cut requires a nonzero argument")
    th = CutAngle(theta).normalized
    arg = math.atan2(lam.imag, lam.real)
    if ang_dist(arg, th) == 0.0:
        raise OnCutError(f"{lam} lies on the cut ray at angle {th}")
    k = math.ceil((th - arg) / TAU)
    alpha = arg + TAU * k
    if alpha <= th:
        alpha += TAU
    elif alpha > th + TAU:
        alpha -= TAU
    return complex(math.log(abs(lam)), alpha)


def _outcome(fn, *args):
    """A result's bits, or the type and message of the error raised."""
    try:
        w = fn(*args)
    except (OnCutError, ZeroInputError) as exc:
        return type(exc), str(exc)
    return w.real.hex(), w.imag.hex()


def _polar_core(lam: complex, theta: float) -> complex:
    return complex(math.log(abs(lam)), branch_angle(lam, phase(lam), CutAngle(theta).normalized))


finite_nonzero = st.builds(
    complex,
    st.floats(-1e300, 1e300, allow_nan=False),
    st.floats(-1e300, 1e300, allow_nan=False),
).filter(lambda z: z != 0)
cuts = st.floats(-2 * PI, 2 * PI, allow_nan=False, exclude_max=True)


@st.composite
def _point_and_cut(draw):
    """A point and a cut in [-2*pi, 2*pi): on the point's ray, one ulp either side of it, or anywhere."""
    lam = draw(finite_nonzero)
    where = draw(st.sampled_from(("on", "below", "above", "away")))
    if where == "away":
        return lam, draw(cuts)
    arg = phase(lam)
    if where != "on":
        arg = math.nextafter(arg, -math.inf if where == "below" else math.inf)
    turns = [k for k in (-2, -1, 0, 1) if -2 * PI <= arg + k * TAU < 2 * PI]
    return lam, arg + draw(st.sampled_from(turns)) * TAU


@given(_point_and_cut())
def test_log_cut_is_log_modulus_plus_polar_core(point):
    lam, theta = point
    expected = _outcome(_reference_log_cut, lam, theta)
    assert _outcome(log_cut, lam, theta) == expected
    assert _outcome(_polar_core, lam, theta) == expected


class TestSector:
    def test_upper_half_plane(self):
        assert Sector(0.0, PI).contains(1j)

    def test_origin_excluded(self):
        assert not Sector(0.0, PI).contains(0)
        assert not Sector(-PI, PI, True, True).contains(0)

    def test_closed_endpoint(self):
        s = Sector(-PI / 2, PI / 2, hi_closed=True)
        assert s.contains(cmath.exp(1j * PI / 2))
        assert not s.contains(cmath.exp(-1j * PI / 2))

    def test_open_endpoints(self):
        s = Sector(0.0, PI / 2)
        assert not s.contains(1.0)
        assert not s.contains(1j)
        assert s.contains(1 + 1j)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Sector(1.0, 1.0)
        with pytest.raises(ValueError):
            Sector(0.0, 7.0)


def test_ang_dist_symmetry():
    assert ang_dist(-PI, PI) == pytest.approx(0.0)
    assert ang_dist(0.0, PI) == pytest.approx(PI)
    assert ang_dist(0.1, -0.2) == pytest.approx(0.3)
