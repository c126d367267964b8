import cmath
import math
import random

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from zetadet import (
    DirectSum,
    DomainError,
    Eigenvalue,
    Finite,
    HermQuadLattice,
    Lattice,
    NotAgmonError,
    QuadLattice,
    Restricted,
    certify_agmon,
    eta_invariant,
    imaginary_axis_counts,
    is_symmetric_about_real_axis,
    negate_spectrum,
    square_spectrum,
)
from zetadet.complexcut import ang_dist
from zetadet.config import IMAG_AXIS
from zetadet.spectrum import _conjugate_key, decompose, merge_key

from helpers import brute_is_agmon, clear_radius

PI = math.pi


# lattice parameters with |Im a| <= 3, kept off the integers
LOG_PARAMS = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-3.0, 3.0)).filter(
    lambda a: abs(a - round(a.real)) > 1e-3
)


@st.composite
def _lattice_part(draw):
    a = draw(LOG_PARAMS)
    mu = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("lattice", "quad", "herm", "restricted")))
    if kind == "lattice":
        return Lattice(a, mu)
    if kind == "quad":
        return QuadLattice(a, mu)
    if kind == "herm":
        return HermQuadLattice(a, mu)
    base = Lattice(a, mu) if draw(st.booleans()) else QuadLattice(a, mu)
    sub = draw(st.dictionaries(st.integers(-8, 8), st.integers(0, mu), max_size=8))
    return Restricted(base, sub)


# Lattice, QuadLattice, Restricted and DirectSum of them, drawn so that
# eigenvalues land on the imaginary axis: a + n = iy for Lattice(k + iy),
# (a + n)^2 = +-2iy^2 for QuadLattice(+-y + k + iy); y is dyadic, so exactly
AXIS_RADIUS = 40.0


@st.composite
def _axis_part(draw):
    y = draw(st.integers(1, 16).map(lambda k: k / 8)) * draw(st.sampled_from((1, -1)))
    k = draw(st.integers(-2, 2))
    mu = draw(st.integers(1, 3))
    if draw(st.booleans()):
        base = Lattice(complex(k, y), mu)
    else:
        base = QuadLattice(complex(draw(st.sampled_from((y, -y))) + k, y), mu)
    if draw(st.booleans()):
        return base
    sub = draw(st.dictionaries(st.integers(-4, 4), st.integers(0, mu), max_size=4))
    return Restricted(base, sub)


AXIS_FAMILIES = st.one_of(
    _axis_part(),
    st.lists(_axis_part(), min_size=2, max_size=3).map(lambda parts: DirectSum(tuple(parts))),
)


# Lattice, QuadLattice, HermQuadLattice, Restricted and DirectSum of them
LATTICE_FAMILIES = st.one_of(
    _lattice_part(),
    st.lists(_lattice_part(), min_size=2, max_size=3).map(
        lambda parts: DirectSum(tuple(parts))
    ),
)


class TestEigenvalue:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Eigenvalue(0)

    def test_multiplicity_positive(self):
        with pytest.raises(ValueError):
            Eigenvalue(1.0, 0)

    def test_boolean_multiplicity_refused(self):
        for make in (lambda: Eigenvalue(2.0, True), lambda: Lattice(0.3, True)):
            with pytest.raises(ValueError, match="multiplicity must be a positive integer"):
                make()

    @pytest.mark.parametrize("v", [complex("nan"), complex(math.inf, 0.0), complex(0.3, math.inf)])
    def test_non_finite_value_refused(self, v):
        for make, what in ((Eigenvalue, "eigenvalue"), (Lattice, "lattice parameter"), (QuadLattice, "lattice parameter")):
            with pytest.raises(ValueError, match=f"{what} .* is not finite"):
                make(v)

    def test_multiplicity_beyond_float_range_refused(self):
        for make in (lambda: Eigenvalue(2.0, 10**400), lambda: Lattice(0.3, 10**400)):
            with pytest.raises(ValueError, match="multiplicity exceeds the float range"):
                make()

    def test_is_a_pair(self):
        e = Eigenvalue(2, 3)
        assert e == (2 + 0j, 3)
        v, m = e
        assert (v, m) == (e.value, e.multiplicity)
        assert repr(e) == "Eigenvalue(value=(2+0j), multiplicity=3)"


class TestFinite:
    def test_distinct_values_required(self):
        with pytest.raises(ValueError):
            Finite((Eigenvalue(2), Eigenvalue(2)))

    def test_decomposes_to_its_own_pairs(self):
        spec = Finite.of(2, 1j, multiplicities=[1, 3])
        families, points = decompose(spec)
        assert families == () and points is spec.eigenvalues
        assert spec.points_near((0.0,)) is spec.eigenvalues

    @pytest.mark.parametrize("multiplicities", [[1], [1, 2, 3]])
    def test_of_refuses_a_multiplicity_count_unlike_the_values(self, multiplicities):
        with pytest.raises(ValueError):
            Finite.of(1, 2, multiplicities=multiplicities)

    def test_takes_any_iterable_of_pairs(self):
        spec = Finite(iter([(2, 1), [1j, 3], (-1,)]))
        assert spec.eigenvalues == (Eigenvalue(2), Eigenvalue(1j, 3), Eigenvalue(-1))
        assert all(type(e) is Eigenvalue for e in spec.eigenvalues)

    def test_polar_form_of_each_eigenvalue(self):
        rng = random.Random(5)
        values = [complex(rng.uniform(-9, 9), rng.uniform(-9, 9)) * 10.0 ** rng.randint(-300, 300)
                  for _ in range(300)]
        spec = Finite.of(*values)
        assert spec.log_moduli == tuple(math.log(abs(v)) for v in values)
        assert spec.phases == tuple(math.atan2(v.imag, v.real) for v in values)
        assert [e for e, _ in spec.phases_near((0.0,))] == list(spec.eigenvalues)

    def test_square_takes_its_polar_form_from_the_squares(self):
        # a doubled phase would differ from the square's own in its last bits
        rng = random.Random(6)
        values = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(200)]
        sq = square_spectrum(Finite.of(*values))
        squares = [e.value for e in sq.eigenvalues]
        assert sq.phases == tuple(math.atan2(z.imag, z.real) for z in squares)
        assert sq.log_moduli == tuple(math.log(abs(z)) for z in squares)
        doubled = [2.0 * math.atan2(v.imag, v.real) for v in values]
        assert any(p != d and abs(p - d) < 1e-12 for p, d in zip(sq.phases, doubled))

    def test_log_modulus_beyond_the_float_range(self):
        # |v| overflows the float range although both parts are finite
        v = complex(1.5e308, 1.5e308)
        spec = Finite.of(v, 2)
        exact = mpmath.log(mpmath.fabs(mpmath.mpc(v)))
        assert abs(spec.log_moduli[0] - float(exact)) <= math.ulp(float(exact))
        assert spec.log_moduli[1] == math.log(2.0)


class TestLattice:
    def test_integer_parameter_rejected(self):
        with pytest.raises(ValueError):
            Lattice(3)

    def test_points_within(self):
        pts = dict(Lattice(0.5).points_within(2.0))
        assert set(pts) == {-1.5, -0.5, 0.5, 1.5}


class TestCertifyAgmon:
    def test_lattice_imaginary_cut(self):
        cert = certify_agmon(Lattice(0.5), -PI / 2, PI / 4)
        assert cert.epsilon == PI / 4

    def test_eigenvalue_on_ray(self):
        with pytest.raises(NotAgmonError):
            certify_agmon(Finite.of(cmath.exp(-1j * PI / 2)), -PI / 2, 0.1)

    def test_lattice_real_cut_fails(self):
        with pytest.raises(NotAgmonError):
            certify_agmon(Lattice(0.5), 0.0, 0.01)

    def test_monotone_in_epsilon(self):
        rng = random.Random(7)
        for _ in range(20):
            a = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.4, 0.4))
            eps = rng.uniform(0.05, 0.6)
            try:
                certify_agmon(Lattice(a), -PI / 2, eps)
            except NotAgmonError:
                continue
            # every smaller epsilon must certify as well
            certify_agmon(Lattice(a), -PI / 2, eps / 2)
            certify_agmon(Lattice(a), -PI / 2, eps / 7)


class TestExactCertification:
    """The closed-form certificate against an exhaustive scan past the tails."""

    @settings(max_examples=300, deadline=None)
    @given(
        spec=LATTICE_FAMILIES,
        theta=st.floats(-PI, PI),
        epsilon=st.floats(1e-9, 0.6),
    )
    def test_agrees_with_brute_force(self, spec, theta, epsilon):
        clearance = min(ang_dist(theta, d) for d in spec.tail_directions()) - epsilon
        radius = clear_radius(spec, clearance) if clearance > 0.0 else 16.0
        assume(radius is not None)
        expected = brute_is_agmon(spec, theta, epsilon, radius)
        try:
            certify_agmon(spec, theta, epsilon)
        except NotAgmonError:
            assert not expected
        else:
            assert expected

    def test_far_crossing_is_found(self):
        # the ray at -0.01 meets Im z = -1 near Re z = 100, far outside any
        # fixed scan radius; the eigenvalue there lies within 1e-4 of the cut
        a = complex(0.5, -1.0)
        theta = math.atan2(-1.0, 100.5)
        with pytest.raises(NotAgmonError) as info:
            certify_agmon(Lattice(a), theta + 5e-5, 1e-4)
        assert info.value.witness == a + 100

    def test_removed_eigenvalue_decides_nothing(self):
        a = complex(0.5, -1.0)
        theta = math.atan2(-1.0, 3.5)
        with pytest.raises(NotAgmonError):
            certify_agmon(Lattice(a), theta, 1e-6)
        certify_agmon(Restricted(Lattice(a), {3: 0}), theta, 1e-6)

    def test_nearest_kept_eigenvalue_past_a_removed_run(self):
        # the cut points at 3.5 - 1j; indices 2..5 are removed, so the nearest
        # eigenvalue is 6.5 - 1j, 0.126 away in angle
        a = complex(0.5, -1.0)
        spec = Restricted(Lattice(a), {2: 0, 3: 0, 4: 0, 5: 0})
        theta = math.atan2(-1.0, 3.5)
        with pytest.raises(NotAgmonError) as info:
            certify_agmon(spec, theta, 0.13)
        assert info.value.witness == a + 6
        certify_agmon(spec, theta, 0.12)


class TestImaginaryAxisCounts:
    def test_finite(self):
        spec = Finite((Eigenvalue(1j, 1), Eigenvalue(-1j, 2)))
        assert imaginary_axis_counts(spec) == (1, 2)

    def test_lattice_real(self):
        assert imaginary_axis_counts(Lattice(0.25)) == (0, 0)

    def test_real_eigenvalues(self):
        assert imaginary_axis_counts(Finite((Eigenvalue(1, 3),))) == (0, 0)

    def test_lattice_point_on_axis(self):
        assert imaginary_axis_counts(Lattice(0.3j, 2)) == (2, 0)
        assert imaginary_axis_counts(Lattice(1 - 0.3j)) == (0, 1)

    def test_quad_lattice_on_both_half_axes(self):
        # (0.5 + 0.5i)^2 = 0.5i and (-0.5 + 0.5i)^2 = -0.5i
        assert imaginary_axis_counts(QuadLattice(0.5 + 0.5j)) == (1, 1)

    @settings(max_examples=200, deadline=None)
    @given(spec=AXIS_FAMILIES)
    def test_agrees_with_brute_force(self, spec):
        mp = mm = 0
        for v, m in spec.points_within(AXIS_RADIUS):
            if abs(v.real) <= IMAG_AXIS:
                mp += m if v.imag > 0 else 0
                mm += m if v.imag < 0 else 0
        assert imaginary_axis_counts(spec) == (mp, mm)


class TestSymmetry:
    def test_conjugate_pairs(self):
        spec = Finite((Eigenvalue(1 + 1j, 2), Eigenvalue(1 - 1j, 2)))
        assert is_symmetric_about_real_axis(spec)

    def test_imaginary_pair(self):
        assert is_symmetric_about_real_axis(Finite.of(1j, -1j))

    def test_unpaired(self):
        assert not is_symmetric_about_real_axis(Finite.of(1 + 1j))

    def test_mismatched_multiplicity(self):
        spec = Finite((Eigenvalue(1 + 1j, 2), Eigenvalue(1 - 1j, 1)))
        assert not is_symmetric_about_real_axis(spec)

    def test_lattices(self):
        assert is_symmetric_about_real_axis(Lattice(0.25))
        assert not is_symmetric_about_real_axis(Lattice(0.25 + 0.1j))
        sym_pair = DirectSum((Lattice(0.25 + 0.1j), Lattice(0.25 - 0.1j)))
        assert is_symmetric_about_real_axis(sym_pair)

    def test_removed_square_breaks_symmetry(self):
        # (0.5 + 0.3i)^2 is removed while its conjugate, at index -1, is kept
        assert not is_symmetric_about_real_axis(Restricted(QuadLattice(0.5 + 0.3j), {0: 0}))
        both = Restricted(QuadLattice(0.5 + 0.3j), {0: 0, -1: 0})
        assert is_symmetric_about_real_axis(both)

    def test_conjugate_lattices_beside_a_quad_lattice(self):
        spec = DirectSum((Lattice(0.3 + 0.2j), Lattice(0.3 - 0.2j), QuadLattice(0.25)))
        assert is_symmetric_about_real_axis(spec)
        assert not is_symmetric_about_real_axis(DirectSum(spec.parts[1:]))


class TestKeys:
    """A Finite's merge keys, and the conjugate key derived from a key."""

    # zero and signed-zero imaginary parts, subnormals, values that round at
    # the 12th digit, and the non-finite components
    VALUES = [
        0j, complex(1.5, 0.0), complex(1.5, -0.0), complex(-0.0, -0.0), complex(-2.0, 0.0),
        5e-324j, -5e-324j, -1e-300j, 1 + 1e-300j, complex(0.3, 0.1234567890125),
        complex(1.0, -0.9999999999995), complex(2.0, 9.9999999999995),
        complex(1.0, 123456789012.5), complex(-7.0, -0.00012345678901249),
        complex(1.0, math.inf), complex(1.0, -math.inf), complex(1.0, math.nan),
    ]

    def test_conjugate_key_is_the_conjugates_key(self):
        rng = random.Random(12)
        values = self.VALUES + [
            complex(rng.uniform(-9, 9), rng.uniform(-9, 9)) * 10.0 ** rng.randint(-320, 300)
            for _ in range(500)
        ]
        for z in values:
            assert _conjugate_key(merge_key(z)) == merge_key(z.conjugate()), z

    def test_finite_keeps_its_keys(self):
        spec = Finite.of(*self.VALUES[2:3], *self.VALUES[4:14])
        assert spec.keys == tuple(merge_key(e.value) for e in spec.eigenvalues)
        sq = square_spectrum(Finite.of(1, -1, 2 + 1j, 2 - 1j))
        assert sq.keys == tuple(merge_key(e.value) for e in sq.eigenvalues)
        # a spectrum built from some of its eigenvalues, without keys, formats its own
        assert Finite(sq.eigenvalues[1:]).keys == sq.keys[1:]

class TestSquare:
    def test_imaginary_pair_merges(self):
        sq = square_spectrum(Finite.of(1j, -1j))
        assert sq.eigenvalues == ((-1 + 0j, 2),)

    def test_plain_square(self):
        sq = square_spectrum(Finite((Eigenvalue(2, 3),)))
        assert sq.eigenvalues == ((4 + 0j, 3),)

    def test_sign_pair_merges(self):
        sq = square_spectrum(Finite.of(1, -1))
        assert sq.eigenvalues == ((1 + 0j, 2),)

    def test_underflowing_square_refused(self):
        with pytest.raises(DomainError, match="underflows"):
            square_spectrum(Finite.of(2 + 0.5j, 1e-200j))

    @pytest.mark.parametrize("v", [1e200, -1e200 + 3j, 1e308 + 1e308j])
    def test_overflowing_square_refused(self, v):
        with pytest.raises(DomainError, match="overflows"):
            square_spectrum(Finite.of(2, v))

    @pytest.mark.parametrize("a", [1e-200, -1e-200, 3 + 1e-200j, 1e-170 + 1e-170j])
    def test_underflowing_lattice_square_refused(self, a):
        # the eigenvalue nearest 0 is a - round(Re a); its square underflows
        for spec in (Lattice(a), Restricted(Lattice(a), {1: 0})):
            with pytest.raises(DomainError, match="underflows"):
                square_spectrum(spec)
        assert isinstance(square_spectrum(Lattice(a + 0.5)), QuadLattice)

    def test_lattice_square_is_symbolic(self):
        sq = square_spectrum(Lattice(0.25, 2))
        assert isinstance(sq, QuadLattice)
        assert sq.mu == 2


class TestNegate:
    def test_finite(self):
        assert negate_spectrum(Finite.of(2)).eigenvalues == ((-2 + 0j, 1),)

    def test_lattice_set_equality(self):
        neg = negate_spectrum(Lattice(0.25))
        assert isinstance(neg, Lattice)
        # {-1/4 + n} equals {3/4 + n} as a set
        pts = sorted(v.real for v, _ in neg.points_within(1.0))
        assert pts == pytest.approx([-0.25, 0.75])

    def test_involution(self):
        spec = Finite.of(1 + 2j, -3, 0.5j)
        twice = negate_spectrum(negate_spectrum(spec))
        assert set(twice.eigenvalues) == set(spec.eigenvalues)

    def test_square_commutes_with_negation(self):
        rng = random.Random(3)
        for _ in range(20):
            vals = [
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) or 1.0
                for _ in range(rng.randint(1, 4))
            ]
            try:
                spec = Finite.of(*vals)
            except ValueError:
                continue
            sq1 = square_spectrum(negate_spectrum(spec))
            sq2 = square_spectrum(spec)
            assert set(sq1.eigenvalues) == set(sq2.eigenvalues)


class TestRestricted:
    def test_submultiplicity_bounds(self):
        base = Lattice(0.3, 2)
        for m in (3, -1):
            with pytest.raises(ValueError, match="exceeds the base multiplicity"):
                Restricted(base, {0: m})
        Restricted(base, {0: 0})

    def test_finite_base_refused(self):
        # a finite spectrum with fewer copies is itself a Finite
        with pytest.raises(TypeError):
            Restricted(Finite.of(2), {0: 0})

    def test_repeated_index_refused(self):
        with pytest.raises(ValueError, match="distinct"):
            Restricted(Lattice(0.3, 2), ((0, 1), (0, 0)))

    def test_non_integer_index_refused(self):
        with pytest.raises(ValueError, match="integers"):
            Restricted(Lattice(0.3, 2), {1.5: 0})

    @pytest.mark.parametrize("m", [0.5, True, 1.0])
    def test_non_integer_submultiplicity_refused(self, m):
        with pytest.raises(ValueError, match="integers"):
            Restricted(Lattice(0.3, 2), {0: m})

    def test_counts_never_exceed_base(self):
        base = DirectSum((Lattice(1j, 2), Lattice(-1j, 2)))
        sub = DirectSum((Restricted(Lattice(1j, 2), {0: 1}), Restricted(Lattice(-1j, 2), {0: 0})))
        mp, mm = imaginary_axis_counts(sub)
        bp, bm = imaginary_axis_counts(base)
        assert mp <= bp and mm <= bm
        assert (mp, mm) == (1, 0)

    def test_lattice_restriction_negates(self):
        sub = Restricted(Lattice(0.25, 2), {1: 1})
        neg = negate_spectrum(sub)
        pts = dict(neg.points_within(1.5))
        # value a+1 = 1.25 had multiplicity 1; negated it sits at -1.25
        assert pts[(-1.25 + 0j)] == 1
        assert pts[(-0.25 + 0j)] == 2


def _tally(points, radius, square=False) -> dict:
    counts: dict = {}
    for v, m in points:
        if abs(v) <= radius:
            k = merge_key(v * v if square else v)
            counts[k] = counts.get(k, 0) + m
    return {k: m for k, m in counts.items() if m}


class TestMapWalk:
    """Edges of the one walk behind ``square_spectrum`` and ``negate_spectrum``."""

    def test_undefined_maps_refused(self):
        with pytest.raises(TypeError, match="squaring undefined for QuadLattice"):
            square_spectrum(QuadLattice(0.3))
        with pytest.raises(TypeError, match="negation undefined for HermQuadLattice"):
            negate_spectrum(HermQuadLattice(0.3))
        with pytest.raises(TypeError):
            Restricted(HermQuadLattice(0.3), {0: 0})
        with pytest.raises(TypeError):
            eta_invariant(QuadLattice(0.3))

    def test_families_stay_apart(self):
        assert Lattice(0.3) != QuadLattice(0.3)
        assert QuadLattice(0.3) != HermQuadLattice(0.3)
        assert Lattice(0.3) == Lattice(0.3)

    @pytest.mark.parametrize("a", [0.25, 2.3, -1.7 + 0.4j, 5.6 - 0.3j, -3.2 + 1.1j])
    def test_restricted_lattice_maps_point_by_point(self, a):
        # the map of each kept point, with its multiplicity, whatever the shift of a
        sub = Restricted(Lattice(a, 2), {0: 0, -2: 1, 3: 0, 7: 1})
        radius = 9.05
        expected = _tally(sub.points_within(radius), radius, square=True)
        assert _tally(square_spectrum(sub).points_within(radius**2), radius**2) == expected
        negated = _tally(((-v, m) for v, m in sub.points_within(radius)), radius)
        assert _tally(negate_spectrum(sub).points_within(radius), radius) == negated


class TestTracingHooks:
    """perfbench/tracing.py patches names it looks up; each must exist."""

    @staticmethod
    def _tracing():
        import importlib.util
        import pathlib

        path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_layer_names_resolve(self):
        import importlib

        for layer, (mod, funcs) in self._tracing().LAYERS.items():
            module = importlib.import_module(f"zetadet.{mod}")
            for f in funcs:
                assert callable(getattr(module, f, None)), f"{layer}: zetadet.{mod}.{f}"

    def test_scanned_classes_bind_points_within(self):
        import zetadet.spectrum

        for name in self._tracing().SCANNED_CLASSES:
            assert "points_within" in vars(getattr(zetadet.spectrum, name)), name
