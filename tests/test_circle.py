import cmath
import math
import random
import re

import mpmath
import numpy as np
import pytest

from zetadet import (
    CircleModel,
    ConnectionFamily,
    Lattice,
    NonAcyclicError,
    arg_class,
    arg_derivative_check,
    build_from_monodromy,
    build_rank1,
    eta_invariant,
    eta_variation_check,
    holomorphy_scan,
    monodromy,
    ray_singer_torsion,
    refined_torsion,
    trs_comparison,
)
from zetadet.circle import cr_residual, model_arg_class, scan_points, scan_row
from zetadet.config import FAMILY_GRID
from zetadet.errors import DomainError
from zetadet import cli
from zetadet.cli import _family_for_path, parse_config, scan_rows

from helpers import random_invertible

PI = math.pi


def closed_form(a: complex) -> complex:
    return 1 - cmath.exp(2j * PI * a)


class TestBuild:
    def test_rank1(self):
        model = build_rank1(0.5)
        assert model.spectrum() == Lattice(0.5)

    def test_rank1_complex(self):
        model = build_rank1(0.25 + 0.1j)
        assert model.log_params == ((0.25 + 0.1j, 1),)

    def test_rank1_integer_rejected(self):
        with pytest.raises(NonAcyclicError):
            build_rank1(1.0)
        with pytest.raises(NonAcyclicError):
            build_rank1(2 + 1e-10j)

    @pytest.mark.parametrize("a", [1e300, -1e9 + 0.5, 1e15 + 0.5j])
    def test_rank1_unresolved_real_part_rejected(self, a):
        with pytest.raises(NonAcyclicError, match="float spacing .* exceeds acyclic_distance"):
            build_rank1(a)

    def test_monodromy_scalar(self):
        model = build_from_monodromy([[-1.0]])
        (a, m), = model.log_params
        assert a == pytest.approx(0.5)

    def test_monodromy_diag(self):
        model = build_from_monodromy(np.diag([-1.0, 1j]))
        params = sorted(p[0].real for p in model.log_params)
        assert params == pytest.approx([0.25, 0.5])

    def test_monodromy_rotation(self):
        model = build_from_monodromy([[0, -1], [1, 0]])
        params = sorted(p[0].real for p in model.log_params)
        assert params == pytest.approx([0.25, 0.75])

    def test_monodromy_with_one_rejected(self):
        with pytest.raises(NonAcyclicError):
            build_from_monodromy(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("m", [1.5, True, 0])
    def test_model_multiplicity_is_a_positive_integer(self, m):
        with pytest.raises(ValueError, match="multiplicity must be a positive integer"):
            CircleModel(((0.3, m),))

    @pytest.mark.parametrize("a", [complex("nan"), complex(math.inf, 0.0), complex(0.3, -math.inf)])
    def test_model_log_parameter_is_finite(self, a):
        with pytest.raises(ValueError, match="lattice parameter .* is not finite"):
            CircleModel(((0.3, 1), (a, 1)))

    def test_spectrum_is_built_once(self):
        for model in (build_rank1(0.3 + 0.2j), build_from_monodromy(np.diag([-1.0, 1j])),
                      CircleModel(((0.3, 1), (0.7 - 2j, 2)))):
            spec = model.spectrum()
            assert model.spectrum() is spec
            assert spec == CircleModel(model.log_params).spectrum()
        # a model given an integer log parameter refuses its spectrum every time it is asked
        model = CircleModel(((1.0, 1),))
        for _ in range(2):
            with pytest.raises(ValueError, match="lattice parameter must avoid the integers"):
                model.spectrum()

    @pytest.mark.parametrize("a", [complex("nan"), complex(0.3, math.inf), complex(0.3, math.nan)])
    def test_rank1_non_finite_parameter_refused(self, a):
        with pytest.raises(ValueError):
            build_rank1(a)

    def test_repeated_eigenvalues_merge(self):
        model = build_from_monodromy(np.diag([-1.0, -1.0]))
        (a, m), = model.log_params
        assert m == 2 and a == pytest.approx(0.5)


class TestRefinedTorsion:
    def test_half_parameter(self):
        assert refined_torsion(build_rank1(0.5)).torsion == pytest.approx(2, abs=1e-8)

    def test_quarter_parameter(self):
        r = refined_torsion(build_rank1(0.25))
        assert r.torsion == pytest.approx(1 - 1j, abs=1e-8)
        # phase/modulus factorization 2 sin(pi a) exp(i pi (2a-1)/2)
        assert r.torsion == pytest.approx(
            2 * math.sin(PI / 4) * cmath.exp(1j * PI / 2 * (2 * 0.25 - 1)), abs=1e-8
        )

    def test_identity_residual_small(self):
        for a in (0.1, 0.5, 0.9, 0.3 + 0.3j, 0.7 - 0.2j):
            r = refined_torsion(build_rank1(a))
            assert r.identity_residual < 1e-9
            assert r.torsion == pytest.approx(cmath.exp(r.graded_ldet))

    def test_matrix_model_product(self):
        mus = [cmath.exp(2j * PI * 0.3), cmath.exp(2j * PI * (0.6 + 0.1j))]
        model = build_from_monodromy(np.diag(mus))
        r = refined_torsion(model)
        expected = (1 - mus[0]) * (1 - mus[1])
        assert r.torsion == pytest.approx(expected, rel=1e-8)

    def test_multiplicative_over_direct_sum(self):
        rng = random.Random(31)
        for _ in range(10):
            m1 = random_invertible(rng, 2)
            m2 = random_invertible(rng, 2)
            try:
                t1 = refined_torsion(build_from_monodromy(m1)).torsion
                t2 = refined_torsion(build_from_monodromy(m2)).torsion
                block = np.block(
                    [[m1, np.zeros((2, 2))], [np.zeros((2, 2)), m2]]
                )
                t12 = refined_torsion(build_from_monodromy(block)).torsion
            except NonAcyclicError:
                continue
            assert t12 == pytest.approx(t1 * t2, rel=1e-9)

    def test_conjugation_invariance(self):
        rng = random.Random(17)
        for _ in range(10):
            m = random_invertible(rng, 3)
            g = random_invertible(rng, 3)
            try:
                t = refined_torsion(build_from_monodromy(m)).torsion
                tc = refined_torsion(
                    build_from_monodromy(g @ m @ np.linalg.inv(g))
                ).torsion
            except NonAcyclicError:
                continue
            assert tc == pytest.approx(t, rel=1e-8)

    def test_eta_additivity(self):
        model = build_from_monodromy(
            np.diag([cmath.exp(2j * PI * 0.3), cmath.exp(2j * PI * (0.7 + 0.2j))])
        )
        total = refined_torsion(model).eta
        parts = sum(
            eta_invariant(Lattice(a, m)) for a, m in model.log_params
        )
        assert total == pytest.approx(parts)


class TestRaySinger:
    def test_half(self):
        assert ray_singer_torsion(build_rank1(0.5)) == pytest.approx(2, abs=1e-8)

    def test_quarter(self):
        assert ray_singer_torsion(build_rank1(0.25)) == pytest.approx(
            math.sqrt(2), abs=1e-8
        )

    def test_unitary_equals_abs_torsion(self):
        for a in (0.1, 0.35, 0.62, 0.9):
            model = build_rank1(a)
            assert ray_singer_torsion(model) == pytest.approx(
                abs(refined_torsion(model).torsion), abs=1e-6
            )

    def test_nonunitary_relation(self):
        for a in (0.25 + 0.1j, 0.75 - 0.2j, 0.5 + 0.3j):
            rep = trs_comparison(build_rank1(a))
            assert rep.residual_log_ratio < 1e-6

    @staticmethod
    def _closed_form(a: complex):
        """|det(I - exp(2*pi*i*a))| = sqrt(2 cosh 2*pi*y - 2 cos 2*pi*x), to 40 digits."""
        with mpmath.workdps(40):
            x, y = mpmath.mpf(a.real), mpmath.mpf(a.imag)
            return mpmath.sqrt(2 * mpmath.cosh(2 * mpmath.pi * y) - 2 * mpmath.cos(2 * mpmath.pi * x))

    def test_against_closed_form_on_random_points(self):
        rng = random.Random(2014)
        worst = 0.0
        for _ in range(400):
            a = complex(rng.random() + rng.randint(-2, 2), rng.uniform(-3.0, 3.0))
            ref = self._closed_form(a)
            worst = max(worst, float(abs(ray_singer_torsion(build_rank1(a)) - ref) / ref))
        assert worst <= 5e-14

    @pytest.mark.parametrize("im", [10.0, -10.0, 40.0, -40.0, 150.0, -150.0])
    @pytest.mark.parametrize("re", [0.3, 0.77, -1.41, 2.5])
    def test_against_closed_form_at_large_imaginary_part(self, re, im):
        # T^RS is exp of a sum of about 2|Im a| logs, so its relative error is the
        # absolute error of log T^RS; that is bounded relative to log T^RS itself
        ref = self._closed_form(complex(re, im))
        got = ray_singer_torsion(build_rank1(complex(re, im)))
        assert float(abs(got - ref) / ref) <= 5e-14 * float(mpmath.log(ref))

    @pytest.mark.parametrize("im", [10.0, -40.0, 100.7, -150.0, 220.0, -220.0])
    @pytest.mark.parametrize("re", [0.3, 0.77, -1.41, 2.5])
    def test_log_error_stays_absolute_at_large_imaginary_part(self, re, im):
        # the head has a fixed size, so log T^RS ~ pi*|Im a| carries only its own rounding
        ref = float(mpmath.log(self._closed_form(complex(re, im))))
        assert abs(math.log(ray_singer_torsion(build_rank1(complex(re, im)))) - ref) <= 2e-13

    @pytest.mark.parametrize("im", [1e6, -1e6, 1e200])
    def test_overflow_names_the_model(self, im):
        model = build_rank1(complex(0.3, im))
        with pytest.raises(OverflowError) as excinfo:
            ray_singer_torsion(model)
        assert str(excinfo.value).startswith(f"Ray-Singer torsion of {model}")

    def test_arg_class_of_model_is_that_of_its_representation(self):
        for params in ((0.25 + 0.1j, 1), (0.75 - 0.2j, 2)), ((0.5 + 0.3j, 3),), ((0.9 - 2.0j, 1),):
            model = CircleModel(params)
            assert model_arg_class(model) == pytest.approx(arg_class(model.representation()), abs=1e-12)


class TestMonodromy:
    def test_zero_connection(self):
        fam = ConnectionFamily.constant(np.zeros((2, 2)))
        assert np.allclose(monodromy(fam, 64), np.eye(2))

    def test_constant_scalar(self):
        a = 0.3 - 0.2j
        fam = ConnectionFamily.constant(np.array([[1j * a]]))
        phi = monodromy(fam, 512)
        assert phi[0, 0] == pytest.approx(cmath.exp(-2j * PI * a), abs=1e-10)

    def test_gauge_transformation_preserves_det(self):
        # A' = A + (g'/g) I with periodic scalar g leaves Phi(2 pi) unchanged
        a = 0.4 + 0.1j

        def g(x):
            return 2.0 + math.cos(x)

        def gp(x):
            return -math.sin(x)

        base = ConnectionFamily.constant(np.array([[1j * a]]))
        gauged = ConnectionFamily(
            lambda x, t: np.array([[1j * a + gp(x) / g(x)]], dtype=complex), 1
        )
        d1 = np.linalg.det(monodromy(base, 2048))
        d2 = np.linalg.det(monodromy(gauged, 2048))
        assert d2 == pytest.approx(d1, abs=1e-9)

    def test_connection_evaluated_once_per_node(self):
        nodes = []

        def a_form(x, t):
            nodes.append((x, t))
            return np.array([[1j * (0.3 + 0.1 * math.cos(x) + t)]])

        fam = ConnectionFamily(a_form, 1)
        nodes.clear()
        monodromy(fam, 64)
        assert len(nodes) == 2 * 64 + 1
        assert len(set(nodes)) == len(nodes)
        # a stack evaluates A once per (node, t) pair
        nodes.clear()
        monodromy(fam, 64, (0.1, -0.1))
        assert len(nodes) == 2 * (2 * 64 + 1)
        assert len(set(nodes)) == len(nodes)
        assert {t for _, t in nodes} == {0.1, -0.1}

        # a family constant in x evaluates A once per t
        def flat_form(x, t):
            nodes.append((x, t))
            return np.array([[1j * (0.3 + t)]])

        flat = ConnectionFamily(flat_form, 1, constant_in_x=True)
        nodes.clear()
        monodromy(flat, 64, 0.1)
        assert nodes == [(0.0, 0.1)]
        nodes.clear()
        monodromy(flat, 64, (0.1, -0.1))
        assert nodes == [(0.0, 0.1), (0.0, -0.1)]

    @staticmethod
    def _rk4_recurrence(m, steps):
        """Phi(2*pi) of the RK4 recurrence for the constant A = m, one step at a time at 50 digits.

        For a constant A each step multiplies Phi by the RK4 step of the
        identity.  The step h is the float 2*pi/steps that ``monodromy``
        uses, so only its rounding is measured.
        """
        n = len(m)
        with mpmath.workdps(50):
            minus_a = mpmath.matrix([[-mpmath.mpc(complex(z)) for z in row] for row in m])
            eye = mpmath.eye(n)
            h = mpmath.mpf(2 * PI / steps)
            k1 = minus_a
            k2 = minus_a * (eye + h / 2 * k1)
            k3 = minus_a * (eye + h / 2 * k2)
            k4 = minus_a * (eye + h * k3)
            step = eye + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            phi = eye
            for _ in range(steps):
                phi = step * phi
            return np.array([[complex(phi[i, j]) for j in range(n)] for i in range(n)])

    def test_power_path_against_mpmath_recurrence(self):
        rng = random.Random(23)
        worst = 0.0
        for case in range(24):
            dim = 1 + case % 3
            steps = (64, 97, 192, 256, 511)[case % 5]
            if case % 2:  # decaying: Re lambda(A) in [0.5, 0.8]
                lam = [complex(rng.uniform(0.5, 0.8), rng.uniform(-1, 1)) for _ in range(dim)]
            else:
                lam = [complex(rng.uniform(-0.3, 0.3), rng.uniform(-1, 1)) for _ in range(dim)]
            v = 2 * np.eye(dim) + np.array(
                [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(dim)] for _ in range(dim)]
            )
            m = v @ np.diag(lam) @ np.linalg.inv(v)
            ref = self._rk4_recurrence(m, steps)
            phi = monodromy(ConnectionFamily.constant(m), steps)
            worst = max(worst, float(np.max(np.abs(phi - ref)) / np.max(np.abs(ref))))
        assert worst <= 5e-15

    @pytest.mark.parametrize("steps", [64, 97, 256, 511])
    def test_power_path_agrees_with_loop(self, steps):
        rng = random.Random(steps)
        for dim in (1, 2, 3):
            m = np.array([[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(dim)] for _ in range(dim)])
            looped = monodromy(ConnectionFamily(lambda x, t: m, dim), steps)
            powered = monodromy(ConnectionFamily.constant(m), steps)
            assert np.max(np.abs(powered - looped)) <= 1e-13 * np.max(np.abs(looped))

    def test_power_path_takes_log_steps(self):
        # 2**40 + 1 RK4 steps one at a time would never finish
        phi = monodromy(ConnectionFamily.constant([[0.3j]]), 2**40 + 1)
        assert phi[0, 0] == pytest.approx(cmath.exp(-0.6j * PI), abs=1e-12)

    @pytest.mark.parametrize("steps", [64, 512])
    def test_stack_has_the_bytes_of_scalar_integrations(self, steps):
        rng = random.Random(11)

        def rc():
            return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

        m2 = np.array([[rc() for _ in range(2)] for _ in range(2)])
        m3 = np.array([[rc() for _ in range(3)] for _ in range(3)])
        b3 = np.array([[rc() for _ in range(3)] for _ in range(3)])
        families = [
            ConnectionFamily.constant(m2),
            ConnectionFamily.constant(m3),
            ConnectionFamily.diagonal_path([0.25, 0.55 + 0.1j, rc()], [1.0, -0.5j, rc()]),
            ConnectionFamily.rank1_path(0.3 - 0.2j),
            ConnectionFamily(lambda x, t: m3 + (t * math.sin(x) + 0.2 * math.cos(2 * x)) * b3, 3),
        ]
        for fam in families:
            for pair in ((0.0, -0.0), (1e-4, -1e-4), (0.35, -1.5)):
                stack = monodromy(fam, steps, pair)
                assert stack.shape == (2, fam.dim, fam.dim)
                for i, t in enumerate(pair):
                    phi = monodromy(fam, steps, t)
                    assert phi.shape == (fam.dim, fam.dim)
                    # tobytes, so that a signed zero counts as a difference
                    assert stack[i].tobytes() == phi.tobytes()

    def test_empty_stack_refused(self):
        with pytest.raises(ValueError, match="at least one value of t"):
            monodromy(ConnectionFamily.rank1_path(0.3), 64, ())

    def test_step_minimum(self):
        fam = ConnectionFamily.constant(np.zeros((1, 1)))
        with pytest.raises(ValueError):
            monodromy(fam, 32)

    def test_constant_in_x_is_checked(self):
        with pytest.raises(ValueError, match="constant_in_x"):
            ConnectionFamily(
                lambda x, t: np.array([[1j * (0.3 + 0.1 * math.cos(x))]]), 1, constant_in_x=True
            )
        families = [
            ConnectionFamily.constant([[0.1, 0.2j], [-0.3, 0.4]]),
            ConnectionFamily.rank1_path(0.3 - 0.2j),
            ConnectionFamily.diagonal_path([0.25, 0.55 + 0.1j], [1.0, -0.5j]),
            _family_for_path("sine", 0.3 + 0.1j, 0.5),
        ]
        assert all(fam.constant_in_x for fam in families)


class TestArgClass:
    def test_unit_phase(self):
        assert arg_class([[cmath.exp(2j * PI * 0.3)]]) == pytest.approx(0.3)

    def test_det_multiplies(self):
        m = np.diag([cmath.exp(2j * PI * 0.3), cmath.exp(2j * PI * 0.4)])
        assert arg_class(m) == pytest.approx(0.7)

    def test_imaginary_part_from_modulus(self):
        m = [[math.exp(-2 * PI)]]
        val = arg_class(m)
        assert val.real == pytest.approx(0.0, abs=1e-12)
        assert val.imag == pytest.approx(1.0)


class TestVariationChecks:
    def test_affine_path(self):
        assert eta_variation_check(lambda t: 0.25 + t, 1e-4) < 1e-6

    def test_constant_path(self):
        assert eta_variation_check(lambda t: 0.37, 1e-4) < 1e-12

    def test_sine_path(self):
        assert eta_variation_check(lambda t: 0.25 + 0.1 * math.sin(t), 1e-4, t=0.5) < 1e-6

    def test_arg_rank1(self):
        fam = ConnectionFamily.rank1_path(0.25)
        assert arg_derivative_check(fam, 1e-4, t=0.05) < 1e-6

    def test_arg_zero_derivative(self):
        fam = ConnectionFamily.diagonal_path([0.3], [0.0])
        assert arg_derivative_check(fam, 1e-4) < 1e-9

    def test_arg_rank2_diagonal(self):
        fam = ConnectionFamily.diagonal_path([0.25, 0.55 + 0.1j], [1.0, -0.5j])
        assert arg_derivative_check(fam, 1e-4, t=0.1) < 1e-6

    def test_psi_required(self):
        fam = ConnectionFamily.constant(np.zeros((1, 1)))
        with pytest.raises(ValueError):
            arg_derivative_check(fam, 1e-4)

    @pytest.mark.parametrize("dt", [0.0, -0.0, -1e-4, math.nan, math.inf])
    def test_bad_step_refused(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            arg_derivative_check(ConnectionFamily.rank1_path(0.25), dt)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            eta_variation_check(lambda t: 0.25 + t, dt)

    def test_arg_check_equals_two_scalar_integrations(self):
        def reference(fam, dt, t, steps=512):
            diff = arg_class(monodromy(fam, steps, t + dt)) - arg_class(monodromy(fam, steps, t - dt))
            wrapped = diff.real - math.floor(diff.real)
            if wrapped > 0.5:
                wrapped -= 1.0
            deriv = complex(wrapped, diff.imag) / (2.0 * dt)
            xs = np.linspace(0.0, 2 * PI, FAMILY_GRID, endpoint=False)
            traces = np.array([np.trace(np.asarray(fam.psi(x, t), dtype=complex)) for x in xs])
            rhs = -complex(traces.mean() * 2 * PI) / (2j * PI)
            return abs(deriv - rhs)

        b = np.array([[0.2, 0.1j, 0.0], [0.3, -0.1, 0.05], [0.0, 0.2j, 0.4]])
        families = [
            ConnectionFamily.rank1_path(0.25),
            ConnectionFamily.diagonal_path([0.25, 0.55 + 0.1j], [1.0, -0.5j]),
            ConnectionFamily.diagonal_path([0.3, 0.6, 0.1 - 0.2j], [0.5, 0.0, 1j]),
            ConnectionFamily(
                lambda x, t: 1j * np.diag([0.3, 0.6, 0.1]) + (t * math.cos(x)) * b, 3,
                psi=lambda x, t: math.cos(x) * b,
            ),
        ]
        for fam in families:
            for t, dt in ((0.0, 1e-4), (0.05, 1e-3), (-0.3, 1e-4)):
                assert arg_derivative_check(fam, dt, t) == reference(fam, dt, t)


def _cli_scan_rows(re_range, im_range, re_steps, im_steps):
    grid = {
        "reStart": re_range[0], "reStop": re_range[1], "reSteps": re_steps,
        "imStart": im_range[0], "imStop": im_range[1], "imSteps": im_steps,
    }
    return scan_rows(parse_config({"command": "scan", "params": {"grid": grid}}))


class TestHolomorphy:
    def test_torsion_is_holomorphic(self):
        rep = holomorphy_scan((0.2, 0.8), (-0.2, 0.2), 5, 1e-4)
        assert rep.max_cr_residual < 1e-5 * rep.max_abs_torsion

    def test_single_point_grid(self):
        rep = holomorphy_scan((0.5, 0.5), (0.1, 0.1), 1, 1e-4)
        assert rep.grid_shape == (1, 1)
        assert rep.max_cr_residual < 1e-5 * rep.max_abs_torsion

    def test_unitary_modulus_profile(self):
        # along the real line |T| = 2 |sin(pi a)|
        for a in (0.3, 0.45, 0.52, 0.7):
            t = refined_torsion(build_rank1(a)).torsion
            assert abs(t) == pytest.approx(2 * abs(math.sin(PI * a)), abs=1e-8)

    def test_eta_phase_is_holomorphic(self):
        # the map a -> exp(-2 pi i eta(a)) on the acyclic strip
        def fn(a: complex) -> complex:
            return cmath.exp(-2j * PI * eta_invariant(Lattice(a)))

        points = scan_points((0.2, 0.8), (-0.2, 0.2), 5, 5)
        max_res = max(cr_residual(fn, a, 1e-4) for a in points)
        assert max_res < 1e-5 * max(abs(fn(a)) for a in points)

    @pytest.mark.parametrize(
        "re_range, im_range, grid",
        [((0.2, 0.8), (-0.2, 0.2), 4), ((-1.7, -1.1), (0.5, 2.5), 3)],
    )
    def test_scan_reduces_over_the_cli_rows(self, re_range, im_range, grid):
        rep = holomorphy_scan(re_range, im_range, grid, 1e-4)
        rows = _cli_scan_rows(re_range, im_range, grid, grid)
        assert len(rows) == grid * grid and all(r["status"] == "ok" for r in rows)
        assert rep.max_cr_residual == max(r["cr_residual"] for r in rows)
        assert rep.max_abs_torsion == max(r["t_abs"] for r in rows)

    def test_one_step_axis_samples_its_start(self):
        assert scan_points((0.2, 0.8), (-0.3, 0.4), 1, 1) == [complex(0.2, -0.3)]
        assert scan_points((0.2, 0.8), (-0.3, 0.4), 1, 3) == pytest.approx([0.2 - 0.3j, 0.2 + 0.05j, 0.2 + 0.4j])
        start = scan_row(complex(0.2, -0.3), 1e-4)
        rep = holomorphy_scan((0.2, 0.8), (-0.3, 0.4), 1, 1e-4)
        assert (rep.max_cr_residual, rep.max_abs_torsion) == (start.cr_residual, abs(start.torsion))
        rows = _cli_scan_rows((0.2, 0.8), (-0.3, 0.4), 1, 1)
        assert [(r["a_re"], r["a_im"], r["cr_residual"]) for r in rows] == [(0.2, -0.3, start.cr_residual)]

    def test_grid_near_integer_rejected(self):
        with pytest.raises(NonAcyclicError):
            holomorphy_scan((0.99, 1.01), (0.0, 0.0), 3, 1e-4)

    def test_step_ceiling(self):
        with pytest.raises(ValueError):
            holomorphy_scan((0.2, 0.8), (0.0, 0.0), 3, 1e-3)

    @pytest.mark.parametrize("h", [1e-17, 5e-324])
    def test_step_below_the_float_spacing_refused(self, h):
        # a +- h and a +- ih round to a, so the differences would read 0: holomorphic
        a, calls = complex(0.3, 0.2), []
        with pytest.raises(DomainError, match=re.escape(f"the step {h} is below the float spacing at a={a}")):
            cr_residual(calls.append, a, h)
        assert calls == []
        with pytest.raises(DomainError):
            holomorphy_scan((0.3, 0.3), (0.2, 0.2), 1, h)
        grid = {"reStart": 0.3, "reStop": 0.3, "reSteps": 1, "imStart": 0.2, "imStop": 0.2, "imSteps": 1}
        rows = scan_rows(parse_config({"command": "scan", "params": {"grid": grid, "h": h}}))
        assert [(r["status"], r["cr_residual"]) for r in rows] == [("Domain", None)]

    def test_stencil_is_tested_before_the_row_work(self, monkeypatch):
        # each point fails twice: its own torsion (NotAgmon at 2e-9 - i, OverflowError at
        # 0.5 - 120i) and the stencil of h = 1e-17; the stencil comes first and the row reads
        # Domain without a torsion, while a non-acyclic point still reads NonAcyclic
        import zetadet.circle as circle

        calls = []
        monkeypatch.setattr(circle, "torsion_ldet", lambda model: calls.append(model))
        statuses = [cli._scan_row(a, 1e-17)["status"] for a in (2e-9 - 1j, 0.5 - 120j, complex(1.0, 0.0))]
        assert statuses == ["Domain", "Domain", "NonAcyclic"]
        assert calls == []
        monkeypatch.undo()
        assert cli._scan_row(2e-9 - 1j, 1e-4)["status"] == "NotAgmon"
        with pytest.raises(OverflowError):
            scan_row(0.5 - 120j, 1e-4)

    @pytest.mark.parametrize("h", [0.0, -1e-5])
    def test_nonpositive_step_rejected(self, h):
        with pytest.raises(ValueError):
            holomorphy_scan((0.2, 0.8), (0.0, 0.0), 3, h)
