"""Hit-prime counting and fractional-part equidistribution counts.

A prime p is a hit for x when the circle distance from x to a_p/p is at
most c/p. Real inputs are carried as certified rational approximants
(value plus error radius eta); a prime whose status depends on the
unknown digits of x is reported as ambiguous, never silently rounded.
The one-sided predicate {x*p} < c is counted separately, since it is a
different statement from the two-sided circle distance.

Both per-prime classifications run in exact integer arithmetic: value,
eta and c are split into numerators and denominators once, and each
comparison is cross-multiplied by the (positive) common denominator, so
a prime costs a few integer operations and no float or Fraction
comparison decides a status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

from .arcs import RationalLike, to_fraction
from .primes import MERTENS, harmonic_H_float, sieve_range
from .sequences import NumeratorSequence


@dataclass(frozen=True)
class RealApproximant:
    """A real number pinned to [value - eta, value + eta], both rational."""

    value: Fraction
    eta: Fraction
    label: str = ""

    def __post_init__(self) -> None:
        if self.eta < 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")


def rational_point(value: RationalLike) -> RealApproximant:
    v = to_fraction(value)
    return RealApproximant(v, Fraction(0), f"rational {v}")


# each named point's continued fraction [a_0; a, a, a, ...] as (a_0, a)
NAMED_APPROXIMANTS = {"sqrt2": (1, 2), "golden": (1, 1)}

DEFAULT_NAMED_ETA = Fraction(1, 10**14)


def approximant_named(name: str, eta: RationalLike = DEFAULT_NAMED_ETA) -> RealApproximant:
    """The first convergent h/k whose certified error 1/(k*k_next) is at most eta.

    The convergents of [a_0; a, a, ...] start at a_0/1, and each next
    h and k is a times the last plus the one before it.
    """
    try:
        h, a = NAMED_APPROXIMANTS[name]
    except KeyError:
        raise ValueError(
            f"unknown named point {name!r}; choose from {sorted(NAMED_APPROXIMANTS)}"
        ) from None
    target = to_fraction(eta)
    if target <= 0:
        raise ValueError(f"eta must be > 0, got {target}")
    h_prev, k_prev, k = 1, 0, 1
    while (bound := Fraction(1, k * (a * k + k_prev))) > target:
        h_prev, h, k_prev, k = h, a * h + h_prev, k, a * k + k_prev
    return RealApproximant(Fraction(h, k), bound, name)


def sqrt2_approximant(eta: RationalLike = DEFAULT_NAMED_ETA) -> RealApproximant:
    return approximant_named("sqrt2", eta)


def golden_approximant(eta: RationalLike = DEFAULT_NAMED_ETA) -> RealApproximant:
    return approximant_named("golden", eta)


# (p, distance or fractional-part numerator, its denominator, hit, ambiguous)
Classified = tuple[int, int, int, bool, bool]


@dataclass(frozen=True)
class HitReport:
    bound: int
    hits: tuple[int, ...]
    ambiguous: tuple[int, ...]
    heuristic: float
    ratio: float
    hit_reciprocal_sum: float


def _tally(classes: Iterator[Classified]) -> tuple[list[int], list[int], list[int]]:
    """Every classified prime, the hits and the ambiguous ones."""
    primes, hits, ambiguous = [], [], []
    for p, _, _, hit, unsure in classes:
        primes.append(p)
        if hit:
            hits.append(p)
        elif unsure:
            ambiguous.append(p)
    return primes, hits, ambiguous


def _report(bound: int, hits: list[int], ambiguous: list[int], heuristic: float) -> HitReport:
    return HitReport(
        bound=bound,
        hits=tuple(hits),
        ambiguous=tuple(ambiguous),
        heuristic=heuristic,
        ratio=len(hits) / heuristic if heuristic > 0 else 0.0,
        hit_reciprocal_sum=math.fsum(1.0 / p for p in hits),
    )


def hit_classes(x: RealApproximant, seq: NumeratorSequence, bound: int) -> Iterator[Classified]:
    """Classify every prime p <= bound as hit, miss, or ambiguous.

    Yields (p, n, den, hit, ambiguous), where n/den (not reduced) is the
    circle distance from x.value to a_p/p. Hit requires the whole
    interval [value - eta, value + eta] to lie within c/p of a_p/p; miss
    requires all of it to lie outside.

    With value = h/k, eta = e/E and c = u/v, the circle distance from
    value to a/p is n/(k*p), where r = (h*p - a*k) mod k*p and
    n = min(r, k*p - r). Multiplying through by k*p*E*v > 0 gives

        hit  <=>  dist + eta <= c/p  <=>  n*E*v + e*k*p*v <= u*k*E
        miss <=>  dist - eta >  c/p  <=>  n*E*v - e*k*p*v >  u*k*E

    so each prime costs a few integer operations and no Fraction.
    """
    h, k = x.value.numerator, x.value.denominator
    e, big_e = x.eta.numerator, x.eta.denominator
    u, v = seq.c.numerator, seq.c.denominator
    scale = big_e * v
    spread = e * k * v
    threshold = u * k * big_e
    numerator_for = seq.numerator_for
    for p in sieve_range(bound):
        kp = k * p
        r = (h * p - numerator_for(p) * k) % kp
        n = min(r, kp - r)
        near, band = n * scale, spread * p
        if near + band <= threshold:
            yield p, n, kp, True, False
        elif near - band > threshold:
            yield p, n, kp, False, False
        else:
            yield p, n, kp, False, True


def hit_primes(x: RealApproximant, seq: NumeratorSequence, bound: int) -> HitReport:
    primes, hits, ambiguous = _tally(hit_classes(x, seq, bound))
    # the sum of harmonic_H_float(1, bound), over the primes already sieved
    heuristic = float(2 * seq.c) * math.fsum(1.0 / p for p in primes)
    return _report(bound, hits, ambiguous, heuristic)


def fractional_classes(x: RealApproximant, c: RationalLike, bound: int) -> Iterator[Classified]:
    """Classify primes by the one-sided predicate {x*p} < c.

    Yields (p, r, k, hit, ambiguous), where r/k (not reduced) is the
    exact fractional part of value*p. When the uncertainty band p*eta
    touches 0, 1, or c, the true status depends on the unknown part of x
    and the prime is ambiguous.

    With value = h/k, eta = e/E and c = u/v, the fractional part
    {value*p} is r/k with r = h*p mod k. In units of 1/(k*E) it is
    f = r*E, the band half-width delta = p*eta is d = p*e*k and 1 is k*E:

        {value*p} - delta >= 0  <=>  f >= d
        {value*p} + delta <  1  <=>  f + d < k*E
        {value*p} + delta <  c  <=>  (f + d)*v < u*k*E
        {value*p} - delta >= c  <=>  (f - d)*v >= u*k*E

    Every comparison is an exact integer one. eta = 0 takes the same
    comparisons: then E = 1 and d = 0, so the first two always hold, the
    prime is a hit iff r*v < u*k, and it is never ambiguous.
    """
    c = to_fraction(c)
    if x.eta * bound >= Fraction(1, 4):
        raise ValueError(
            f"x is too imprecise for this range: eta * bound = {x.eta * bound} >= 1/4"
        )
    h, k = x.value.numerator, x.value.denominator
    e, big_e = x.eta.numerator, x.eta.denominator
    u, v = c.numerator, c.denominator
    one = k * big_e
    cut = u * k * big_e
    ek = e * k
    for p in sieve_range(bound):
        r = h * p % k
        f, d = r * big_e, p * ek
        if f >= d and f + d < one:
            if (f + d) * v < cut:
                yield p, r, k, True, False
            elif (f - d) * v >= cut:
                yield p, r, k, False, False
            else:
                yield p, r, k, False, True
        else:
            # the band wraps past 0: both sides of the cut are possible
            yield p, r, k, False, True


def fractional_hits(x: RealApproximant, c: RationalLike, bound: int) -> HitReport:
    primes, hits, ambiguous = _tally(fractional_classes(x, c, bound))
    return _report(bound, hits, ambiguous, float(to_fraction(c)) * len(primes))


class LogLogHeuristic(NamedTuple):
    partial_sum: float  # 2c * sum of 1/p over p <= bound
    asymptotic: float  # 2c * (ln ln bound + Mertens constant)


def loglog_heuristic(c: RationalLike, bound: int) -> LogLogHeuristic:
    """Predicted hit count up to `bound` and its log-log asymptotic proxy."""
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    c = to_fraction(c)
    scale = float(2 * c)
    return LogLogHeuristic(
        partial_sum=scale * harmonic_H_float(1, bound),
        asymptotic=scale * (math.log(math.log(bound)) + MERTENS),
    )
