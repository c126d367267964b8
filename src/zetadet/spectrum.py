"""Operator spectra with algebraic multiplicities.

A spectrum stands in for an injective elliptic operator whose eigenvalues and
algebraic multiplicities are known explicitly.  Variants:

* ``Finite``        — a finite tuple of ``Eigenvalue`` (value, multiplicity) pairs,
  each with its polar form (log|lambda|, arg lambda) and merge key.
* ``Lattice``       — the integer-lattice family {a + n : n in Z}, a not in Z.
* ``QuadLattice``   — the squares {(a + n)^2}, produced by squaring a lattice.
* ``HermQuadLattice`` — the Hermitian-Laplacian family {(n+a)(n+conj(a))}.
* ``DirectSum``     — a disjoint union of spectra.
* ``Restricted``    — a ``Lattice`` or ``QuadLattice`` with reduced multiplicities
  at some indices; a finite spectrum with fewer copies is a ``Finite``.

The lattice families share ``LatticeFamily``, which checks ``a`` and ``mu``
once and derives the radius scan ``points_within`` from ``value_at`` and the
growth order, and ``points_near`` from ``index_window``.  ``decompose`` reads
a spectrum as families plus finite (value, multiplicity) pairs, a ``Finite``'s
own ``eigenvalues`` among them; ``_map_spectrum`` builds its image under
squaring or negation.  ``phases_near`` pairs the points of ``points_near``
with their phases, which a ``Finite`` reads from its polar form.  Spectra
are ``__slots__`` classes with the value semantics of ``Record``; no
operation mutates one.  An ``AgmonCertificate`` is a cut together with the
spectrum it is certified for: no eigenvalue direction of that spectrum lies
within its epsilon of the cut.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from collections import namedtuple
from typing import Iterable, Iterator, Mapping, Sequence, Tuple

from .complexcut import CutAngle, ang_dist, as_cut, finite_complex, log_modulus, phase
from .config import AGMON_EPSILON, IMAG_AXIS, MERGE_SIGNIFICANT_DIGITS
from .errors import DomainError, NotAgmonError

_PI = math.pi
_FLOAT_MAX = sys.float_info.max
_MERGE_SPEC = f".{MERGE_SIGNIFICANT_DIGITS}g"


def merge_key(z: complex) -> Tuple[str, str]:
    """Comparison key: both components to ``MERGE_SIGNIFICANT_DIGITS`` significant digits."""
    return (f"{z.real + 0.0:{_MERGE_SPEC}}", f"{z.imag + 0.0:{_MERGE_SPEC}}")


def _conjugate_key(key: Tuple[str, str]) -> Tuple[str, str]:
    """``merge_key(z.conjugate())`` from ``merge_key(z)``; "0" and "nan" carry no sign."""
    re, im = key
    return re, im[1:] if im[0] == "-" else im if im in ("0", "nan") else "-" + im


def dist_to_integers(a: complex) -> float:
    return abs(a - round(a.real))


def _normalize_log_param(a: complex) -> Tuple[complex, int]:
    """Shift a by an integer so its real part lies in (0, 1]."""
    n0 = 1 - math.ceil(a.real)
    return a + n0, n0


def _line_window(a: complex, directions: Iterable[float]) -> range:
    """Indices n of the points a + n next to where the rays meet Im z = Im a.

    Along the line the argument of a + n is monotone in n, so for each ray
    that meets the line at x the points nearest it in angle are the two
    indices next to x - Re a.  The window spans every crossing with one spare
    index on each side, against rounding in x; it is empty when no ray meets
    the line.
    """
    ks = []
    for d in directions:
        s = math.sin(d)
        if s * a.imag > 0.0:
            x = a.imag * math.cos(d) / s
            if math.isfinite(x):
                ks.append(math.floor(x - a.real))
    if not ks:
        return range(0)
    return range(min(ks) - 1, max(ks) + 3)


def _check_multiplicity(m) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError("multiplicity must be a positive integer")
    if m > _FLOAT_MAX:
        raise ValueError(f"multiplicity exceeds the float range ({_FLOAT_MAX:.3g})")


def _checked_pair(value, multiplicity=1) -> Tuple[complex, int]:
    """(complex(value), multiplicity) once both are checked: a finite nonzero value, a positive integer."""
    v = complex(value)
    if not cmath.isfinite(v):
        raise ValueError(f"eigenvalue {v} is not finite")
    if v == 0:
        raise ValueError("eigenvalues must be nonzero")
    if type(multiplicity) is not int or not 0 < multiplicity <= _FLOAT_MAX:
        _check_multiplicity(multiplicity)
    return v, multiplicity


class Eigenvalue(namedtuple("Eigenvalue", "value multiplicity")):
    """A finite nonzero eigenvalue and its algebraic multiplicity, as a validated pair."""

    __slots__ = ()

    def __new__(cls, value: complex, multiplicity: int = 1):
        return tuple.__new__(cls, _checked_pair(value, multiplicity))


class Record:
    """A value over its ``_fields``: repr ``Name(field=value, ...)``, equality within one class, hash of the values."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


class Spectrum:
    """Base class; concrete spectra implement the enumeration hooks below."""

    __slots__ = ()

    def points_within(self, radius: float) -> Iterator[Tuple[complex, int]]:
        """All (value, multiplicity) pairs with |value| <= radius."""
        raise NotImplementedError

    def tail_directions(self) -> Tuple[float, ...]:
        """Accumulation directions of the spectrum at infinity."""
        raise NotImplementedError

    def points_near(
        self, directions: Sequence[float]
    ) -> Iterable[Tuple[complex, int]]:
        """The (value, multiplicity) pairs that decide angular questions about rays.

        The result holds, for each ray at one of ``directions``, the nearest
        eigenvalues in angle on either side of it, and every eigenvalue lying
        between two of the rays.  Every eigenvalue left out lies farther from
        the rays, toward a tail direction.  With ``tail_directions()`` this
        decides exactly whether a ray is free of eigenvalues, which one lies
        nearest it, and which ones a sector bounded by the rays holds.
        Only points of positive multiplicity are yielded; a ``Finite`` returns
        its ``eigenvalues`` tuple itself.
        """
        raise NotImplementedError

    def phases_near(self, directions: Sequence[float]) -> Iterable[Tuple[Tuple[complex, int], float]]:
        """Each pair of ``points_near(directions)`` with its value's phase."""
        return [(p, phase(p[0])) for p in self.points_near(directions)]


class Finite(Record, Spectrum):
    """Distinct eigenvalues, each with its polar form and merge key.

    One pass over the given (value, multiplicity) pairs checks each pair that
    is not an ``Eigenvalue`` yet; then each eigenvalue gets its polar form,
    ``log_moduli`` (``log_modulus``) and ``phases`` arg lambda, and its
    ``keys`` entry unless ``merge_keys`` are given.  The repr, equality and
    hash read ``eigenvalues`` alone.
    """

    __slots__ = ("eigenvalues", "log_moduli", "phases", "keys")
    _fields = ("eigenvalues",)

    def __init__(self, eigenvalues: Iterable, merge_keys: Tuple[Tuple[str, str], ...] | None = None):
        evs = tuple([e if isinstance(e, Eigenvalue) else tuple.__new__(Eigenvalue, _checked_pair(*e))
                     for e in eigenvalues])
        log, atan2 = math.log, math.atan2
        try:
            log_moduli = tuple([log(abs(v)) for v, _ in evs])
        except OverflowError:  # some |lambda| beyond the float range
            log_moduli = tuple([log_modulus(v) for v, _ in evs])
        keys = tuple([merge_key(v) for v, _ in evs]) if merge_keys is None else merge_keys
        self.eigenvalues, self.log_moduli, self.keys = evs, log_moduli, keys
        self.phases = tuple([atan2(v.imag, v.real) for v, _ in evs])
        if len(set(keys)) != len(keys):
            raise ValueError("finite spectra carry distinct eigenvalues")

    @staticmethod
    def of(*values, multiplicities=None) -> "Finite":
        if multiplicities is None:
            multiplicities = [1] * len(values)
        return Finite(
            tuple(Eigenvalue(v, m) for v, m in zip(values, multiplicities, strict=True))
        )

    def points_within(self, radius):
        for e in self.eigenvalues:
            if abs(e.value) <= radius:
                yield e

    def tail_directions(self):
        return ()

    def points_near(self, directions):
        return self.eigenvalues

    def phases_near(self, directions):
        return zip(self.eigenvalues, self.phases)


class LatticeFamily(Record, Spectrum):
    """Eigenvalues {value_at(n) : n in Z}, each with multiplicity mu.

    A family defines ``value_at(n)`` and ``index_window(directions)``, the
    indices ``points_near`` yields.  ``order`` is the growth of |value_at(n)|
    in |n|: 1 for {a + n} and 2 for the squared families, which store ``a``
    normalized with real part in (0, 1].  Only ``restrictable`` families take
    a ``Restricted`` over them.
    """

    __slots__ = ("a", "mu")
    _fields = ("a", "mu")
    order = 1
    restrictable = True

    def __init__(self, a: complex, mu: int = 1):
        a = finite_complex(a, "lattice parameter")
        if self.order == 2:
            a, _ = _normalize_log_param(a)
        if dist_to_integers(a) <= 0.0:
            raise ValueError("lattice parameter must avoid the integers")
        _check_multiplicity(mu)
        self.a, self.mu = a, mu

    def index_range(self, radius: float) -> range:
        """Indices n of every |value_at(n)| <= radius, with a spare one on each side."""
        r = max(radius, 0.0) ** (1.0 / self.order) + abs(self.a)
        return range(math.floor(-r) - 1, math.ceil(r) + 2)

    def points_within(self, radius):
        for n in self.index_range(radius):
            v = self.value_at(n)
            if abs(v) <= radius:
                yield v, self.mu

    def tail_directions(self):
        # the squared families run off along the positive reals; {a + n} adds pi
        return (0.0,)

    def points_near(self, directions):
        for n in self.index_window(directions):
            yield self.value_at(n), self.mu

    def phases_near(self, directions):
        mu, atan2 = self.mu, math.atan2
        return [((v, mu), atan2(v.imag, v.real)) for v in map(self.value_at, self.index_window(directions))]


class Lattice(LatticeFamily):
    """Eigenvalues {a + n : n in Z}, each with multiplicity mu."""

    __slots__ = ()
    # each family binds points_within itself: perfbench wraps every class's own binding
    points_within = LatticeFamily.points_within

    @classmethod
    def _checked(cls, a: complex, mu: int) -> "Lattice":
        """Lattice(a, mu) for a finite complex a off the integers and a checked mu, not checked again."""
        f = object.__new__(cls)
        f.a, f.mu = a, mu
        return f

    def value_at(self, n: int) -> complex:
        return self.a + n

    def tail_directions(self):
        return (0.0, _PI)

    def index_window(self, directions) -> range:
        return _line_window(self.a, directions)


class QuadLattice(LatticeFamily):
    """Eigenvalues {(a + n)^2 : n in Z} for a lattice parameter a."""

    __slots__ = ()
    order = 2
    points_within = LatticeFamily.points_within

    def value_at(self, n: int) -> complex:
        base = self.a + n
        return base * base

    def index_window(self, directions) -> range:
        # (a + n)^2 lies on the ray at phi exactly when a + n lies on one of
        # its square-root rays, at phi/2 and phi/2 + pi
        roots = [r for d in directions for r in (0.5 * d, 0.5 * d + _PI)]
        return _line_window(self.a, roots)


class HermQuadLattice(LatticeFamily):
    """Eigenvalues {(n + a)(n + conj(a)) : n in Z} — positive reals."""

    __slots__ = ()
    order = 2
    restrictable = False
    points_within = LatticeFamily.points_within

    def value_at(self, n: int) -> complex:
        return complex(abs(self.a + n) ** 2)

    def index_window(self, directions) -> range:
        # every eigenvalue lies on the tail direction itself
        return range(0)

    def negative_axis_cut(self) -> "AgmonCertificate":
        """The cut at -pi, certified without a scan: every eigenvalue is a positive real, pi from it."""
        return AgmonCertificate(_MINUS_PI, self, AGMON_EPSILON)


class DirectSum(Record, Spectrum):
    __slots__ = ("parts",)
    _fields = ("parts",)

    def __init__(self, parts: Iterable[Spectrum]):
        self.parts = tuple(parts)
        if not self.parts:
            raise ValueError("direct sum requires at least one part")

    def points_within(self, radius):
        for p in self.parts:
            yield from p.points_within(radius)

    def tail_directions(self):
        dirs = []
        for p in self.parts:
            dirs.extend(p.tail_directions())
        return tuple(sorted(set(dirs)))

    def points_near(self, directions):
        for p in self.parts:
            yield from p.points_near(directions)


class Restricted(Record, Spectrum):
    """A lattice family with per-eigenvalue sub-multiplicities.

    ``sub_mult`` maps the index n of ``base.value_at(n)`` to its restricted
    multiplicity 0 <= m^V <= mu; unlisted indices keep the base multiplicity.
    The base is a ``Lattice`` or a ``QuadLattice``.
    """

    __slots__ = ("base", "sub_mult")
    _fields = ("base", "sub_mult")

    def __init__(self, base: LatticeFamily, sub_mult):
        if not (isinstance(base, LatticeFamily) and base.restrictable):
            raise TypeError("restrictions are supported over Lattice and QuadLattice bases only")
        pairs = sub_mult.items() if isinstance(sub_mult, Mapping) else sub_mult
        items = tuple(tuple(p) for p in pairs)
        for n, m in items:
            if type(n) is not int or type(m) is not int:
                raise ValueError("restriction indices and sub-multiplicities are integers")
            if not 0 <= m <= base.mu:
                raise ValueError("sub-multiplicity exceeds the base multiplicity")
        if len({n for n, _ in items}) != len(items):
            raise ValueError("restriction indices are distinct")
        self.base, self.sub_mult = base, tuple(sorted(items))

    def points_within(self, radius):
        base, ov = self.base, dict(self.sub_mult)
        for n in base.index_range(radius):
            v, m = base.value_at(n), ov.get(n, base.mu)
            if m and abs(v) <= radius:
                yield v, m

    def tail_directions(self):
        return self.base.tail_directions()

    def points_near(self, directions):
        window = self.base.index_window(directions)
        if not window:
            return
        ov = dict(self.sub_mult)
        mu = self.base.mu
        lo, hi = window.start, window.stop - 1
        # removed eigenvalues decide nothing: walk outward to the nearest kept one
        while ov.get(lo, mu) == 0:
            lo -= 1
        while ov.get(hi, mu) == 0:
            hi += 1
        for n in range(lo, hi + 1):
            m = ov.get(n, mu)
            if m:
                yield self.base.value_at(n), m


def decompose(
    spec: Spectrum,
) -> Tuple[Tuple[Spectrum, ...], Tuple[Tuple[complex, int], ...]]:
    """The spectrum as lattice families plus finite points with signed multiplicities.

    Families (``Lattice``, ``QuadLattice``, ``HermQuadLattice``) come in part
    order.  A ``Finite`` contributes its ``eigenvalues`` tuple itself; a
    ``Restricted`` contributes its base family and the corrections
    ``(value_at(n), m - mu)`` in ``sub_mult`` order.  This is the one walk
    over ``DirectSum``, ``Restricted`` and ``Finite``.
    """
    if isinstance(spec, LatticeFamily):
        return (spec,), ()
    if isinstance(spec, DirectSum):
        parts = [decompose(part) for part in spec.parts]
        return tuple(f for fs, _ in parts for f in fs), tuple(q for _, qs in parts for q in qs)
    if isinstance(spec, Finite):
        return (), spec.eigenvalues
    if isinstance(spec, Restricted):
        base, mu = spec.base, spec.base.mu
        return (base,), tuple((base.value_at(n), m - mu) for n, m in spec.sub_mult)
    raise TypeError(f"no decomposition for {type(spec).__name__}")


class GradedSpectrum(Record):
    """Parity-indexed components (j, spectrum) feeding the graded determinant."""

    __slots__ = ("components",)
    _fields = ("components",)

    def __init__(self, components: Iterable[Tuple[int, Spectrum]]):
        comps = tuple((int(j), s) for j, s in components)
        self.components = comps
        parities = [j for j, _ in comps]
        if len(set(parities)) != len(parities):
            raise ValueError("graded components carry distinct parities")
        if any(j < 0 for j in parities):
            raise ValueError("parities are nonnegative")
        if not comps:
            raise ValueError("graded spectrum requires at least one component")


class AgmonCertificate(CutAngle):
    """A cut that no eigenvalue direction of ``spectrum`` approaches within ``epsilon``.

    It is the cut itself, so it stands wherever an angle does; ``ldet`` and
    the zeta functions take it as certified when it names their spectrum
    object at ``AGMON_EPSILON`` or wider, and certify any other cut.
    ``certify_agmon`` issues one for the ray it checks.  ``pick_det_eta_cut``
    issues one from its margin with ``line`` set: both rays of the line
    through the cut, theta and theta + pi, are clear, so the squares are clear
    of twice the cut by twice ``epsilon``, and ``squared`` issues D^2's
    certificate at 2*theta without a scan.
    """

    __slots__ = ("spectrum", "epsilon", "line")

    def __init__(self, cut: CutAngle, spectrum: Spectrum, epsilon: float, line: bool = False):
        self.raw, self.normalized = cut.raw, cut.normalized
        self.spectrum, self.epsilon, self.line = spectrum, epsilon, line

    def __repr__(self) -> str:
        return (f"AgmonCertificate(raw={self.raw!r}, normalized={self.normalized!r}, "
                f"spectrum={self.spectrum!r}, epsilon={self.epsilon!r}, line={self.line!r})")

    def squared(self) -> "AgmonCertificate":
        """The certificate of ``square_spectrum(spectrum)`` at twice the cut; it needs ``line``."""
        if not self.line:
            raise ValueError("only a certificate for both rays of its line certifies the squares")
        return AgmonCertificate(self.doubled(), square_spectrum(self.spectrum), 2.0 * self.epsilon)


_MINUS_PI = CutAngle(-_PI)


def certify_agmon(spec: Spectrum, theta, epsilon: float) -> AgmonCertificate:
    """Certify that no eigenvalue direction is within ``epsilon`` of the cut.

    Finite spectra are checked exhaustively.  Lattice-type spectra are checked
    exactly: their tail directions directly, their points at the few indices
    ``points_near`` names next to where the cut crosses them.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    cut = as_cut(theta)
    th = cut.normalized
    for d in spec.tail_directions():
        if ang_dist(th, d) <= epsilon:
            raise NotAgmonError(
                message=f"lattice tail direction {d} approaches the cut at {th}"
            )
    for (value, _), arg in spec.phases_near((th,)):
        if ang_dist(arg, th) <= epsilon:
            raise NotAgmonError(witness=value)
    return AgmonCertificate(cut, spec, epsilon)


def imaginary_axis_counts(spec: Spectrum) -> Tuple[int, int]:
    """Multiplicity counts (m_plus, m_minus) on the imaginary half-axes.

    Every eigenvalue next to the half-axes is among ``points_near`` of them.
    """
    mp = mm = 0
    for v, m in spec.points_near((-_PI / 2.0, _PI / 2.0)):
        if abs(v.real) <= IMAG_AXIS:
            if v.imag > 0:
                mp += m
            elif v.imag < 0:
                mm += m
    return mp, mm


def _family_key(family: Spectrum, conj: bool) -> tuple:
    """Lattice by a mod Z, QuadLattice by +-a mod Z; HermQuadLattice is self-conjugate."""
    a = family.a
    if conj and not isinstance(family, HermQuadLattice):
        a = a.conjugate()
    if abs(a.imag) <= IMAG_AXIS:
        a = complex(a.real, 0.0)
    key = merge_key(_normalize_log_param(a)[0])
    if isinstance(family, QuadLattice):
        key = min(key, merge_key(_normalize_log_param(-a)[0]))
    return type(family).__name__, key


def is_symmetric_about_real_axis(spec: Spectrum) -> bool:
    """True iff conj(lambda) occurs with the same multiplicity as lambda.

    The decomposition must equal its conjugate.  Families tally by their
    canonical key, the family's against its conjugate's.  Points tally their
    signed multiplicities once, by ``merge_key`` (a ``Finite``'s own), and
    each key must count as much as its conjugate's key, derived from it.
    """
    families, points = decompose(spec)
    keys = spec.keys if isinstance(spec, Finite) else [merge_key(v) for v, _ in points]

    def family_tally(conj: bool) -> dict:
        counts: dict = {}
        for f in families:
            k = _family_key(f, conj)
            counts[k] = counts.get(k, 0) + f.mu
        return counts

    if family_tally(False) != family_tally(True):
        return False
    counts: dict = {}
    for k, (_, m) in zip(keys, points):
        counts[k] = counts.get(k, 0) + m
    return all(counts.get(_conjugate_key(k), 0) == m for k, m in counts.items())


def _square(v: complex) -> complex:
    sq = v * v
    if sq == 0:
        raise DomainError(f"the square of eigenvalue {v} underflows to 0")
    if not cmath.isfinite(sq):
        raise DomainError(f"the square of eigenvalue {v} overflows the float range")
    return sq


def _map_spectrum(spec: Spectrum, verb: str, finite, lattice) -> Spectrum:
    """The image of ``spec`` under a map of eigenvalues; the walk behind squaring and negation.

    ``finite`` maps a ``Finite`` spectrum, ``lattice`` a ``Lattice`` to its
    image family and ``reindex``, the image family's index of the image of
    point n; a ``Restricted`` lattice maps as its base, re-indexed.  Other
    families are refused.
    """
    if isinstance(spec, DirectSum):
        return DirectSum(tuple(_map_spectrum(p, verb, finite, lattice) for p in spec.parts))
    if isinstance(spec, Finite):
        return finite(spec)
    base = spec.base if isinstance(spec, Restricted) else spec
    if type(base) is not Lattice:
        raise TypeError(f"{verb} undefined for {type(spec).__name__}")
    image, reindex = lattice(base)
    if base is spec:
        return image
    return Restricted(image, tuple(sorted((reindex(n), m) for n, m in spec.sub_mult)))


def square_spectrum(spec: Spectrum) -> Spectrum:
    """Eigenvalues squared; coinciding squares merge by summing multiplicities.

    Squares merge by ``merge_key``, which the square keeps as its own keys;
    its polar form is taken of the squares themselves, not doubled from the
    roots'.  A lattice is refused when its eigenvalue nearest 0,
    a - round(Re a), squares to 0, or when a~ = a + n0, which the squares
    store, rounds onto an integer.
    """

    def finite(spec: Finite) -> Finite:
        acc: dict = {}
        for v, m in spec.eigenvalues:
            sq = _square(v)
            acc.setdefault(merge_key(sq), [sq, 0])[1] += m
        return Finite(tuple(acc.values()), tuple(acc))

    def lattice(f: Lattice):
        _square(f.a - round(f.a.real))
        # QuadLattice stores a + n0, so (a + n)^2 sits at its index n - n0
        atil, n0 = _normalize_log_param(f.a)
        if dist_to_integers(atil) <= 0.0:
            raise DomainError(f"lattice parameter {f.a} is within rounding of an integer: "
                              f"its squares store a + {n0}, which rounds to {atil.real:g}")
        return QuadLattice(f.a, f.mu), lambda n: n - n0

    return _map_spectrum(spec, "squaring", finite, lattice)


def negate_spectrum(spec: Spectrum) -> Spectrum:
    """Every eigenvalue negated; lattices re-index to Lattice(-a)."""
    return _map_spectrum(
        spec,
        "negation",
        lambda s: Finite(tuple(Eigenvalue(-v, m) for v, m in s.eigenvalues)),
        lambda f: (Lattice(-f.a, f.mu), operator.neg),
    )
