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
no float or Fraction comparison decides a status.

Those cross-products are large (n*E*v is about 2^100 at eta = 1e-16),
but they decide only the few primes near a threshold. In units of a
prime's small residue (n for hits, r for fractional parts) its
uncertainty band is eta*k*p wide, for value = h/k, so the call's last
and largest prime p_max has the widest band. Each classifier works out,
once per call, integer bounds on the residue from that widest band: a
residue past a bound is a clear hit or a clear miss for every p <=
p_max, and rounding each bound toward its own side (floor below, ceil
above) keeps the comparison exact. Only the residues between the bounds
take the cross-multiplied tests; each classifier's docstring derives
its bounds.

There is one classifier per predicate, `classify_hits` and
`classify_fractional`, each over the ascending primes its caller gives
(and, for hits, their numerators). `hit_primes` and `fractional_hits`
fold the tallies of prime intervals that each process sieves and
classifies itself (`map_prime_intervals`), so no process holds every
prime.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterator, NamedTuple, Sequence

from .arcs import RationalLike, checked_c, fraction_text, to_fraction
from .primes import MERTENS, _check_bound, harmonic_H_float, map_prime_intervals, primes_between
from .sequences import NumeratorSequence

# per-prime evaluations that sieving and classifying one prime costs. On a
# 2-core VM with Python 3.11.7, serial medians at 1e5-1e7 (sieve included)
# are 0.48-0.59 us for a hit classification and 0.27-0.32 us for a
# fractional one, about 1/6 of an `ergodic` CSV row (2.9-3.1 us there).
# The old weight of 1/3 forked from 142,397, where a split lost to serial
# in every one of 3 rounds of 15 interleaved pairs (11 ms against 7 for hit
# JSON, in-process with the 1e6 sequence loaded). At 1/8 `hits` and
# `fracparts` fork on two CPUs from 413,866, where a split and a serial
# call tie (split faster in 0 to 15 of 15 pairs from round to round).
CLASSIFY_WORK = 1 / 8


@dataclass(frozen=True)
class RealApproximant:
    """A real number pinned to [value - eta, value + eta], both rational."""

    value: Fraction
    eta: Fraction
    label: str = ""

    def __post_init__(self) -> None:
        if self.eta < 0:
            raise ValueError(f"eta must be >= 0, got {fraction_text(self.eta)}")


def rational_point(value: RationalLike) -> RealApproximant:
    v = to_fraction(value)
    return RealApproximant(v, Fraction(0), f"rational {fraction_text(v)}")


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
        raise ValueError(f"eta must be > 0, got {fraction_text(target)}")
    h_prev, k_prev, k = 1, 0, 1
    while (bound := Fraction(1, k * (a * k + k_prev))) > target:
        h_prev, h, k_prev, k = h, a * h + h_prev, k, a * k + k_prev
    return RealApproximant(Fraction(h, k), bound, name)


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


def _tally(classes: Iterator[Classified]) -> tuple[list[int], list[int]]:
    """The hits and the ambiguous primes."""
    hits, ambiguous = [], []
    for p, _, _, hit, unsure in classes:
        if hit:
            hits.append(p)
        elif unsure:
            ambiguous.append(p)
    return hits, ambiguous


def _report(bound: int, tallies: list[tuple], heuristic: float) -> HitReport:
    """The report of the intervals' tallies, each (hits, ambiguous, ...), in order."""
    hits = tuple(chain.from_iterable(tally[0] for tally in tallies))
    return HitReport(
        bound=bound,
        hits=hits,
        ambiguous=tuple(chain.from_iterable(tally[1] for tally in tallies)),
        heuristic=heuristic,
        ratio=len(hits) / heuristic if heuristic > 0 else 0.0,
        hit_reciprocal_sum=math.fsum(1.0 / p for p in hits),
    )


def classify_hits(
    x: RealApproximant, c: Fraction, primes: Sequence[int], numerators: Sequence[int]
) -> Iterator[Classified]:
    """Classify each prime, beside its numerator a_p, as hit, miss, or ambiguous.

    Yields (p, n, den, hit, ambiguous), where n/den (not reduced) is the
    circle distance from x.value to a_p/p. Hit requires the whole
    interval [value - eta, value + eta] to lie within c/p of a_p/p; miss
    requires all of it to lie outside. The primes ascend.

    With value = h/k, eta = e/E and c = u/v, the circle distance from
    value to a/p is n/(k*p), where r = (h*p - a*k) mod k*p and
    n = min(r, k*p - r). Multiplying through by k*p*E*v > 0 gives

        hit  <=>  dist + eta <= c/p  <=>  n*E*v + e*k*p*v <= u*k*E
        miss <=>  dist - eta >  c/p  <=>  n*E*v - e*k*p*v >  u*k*E

    so each prime costs a few integer operations and no Fraction.

    Most primes are clear misses, and n alone shows it. The band term
    e*k*p*v is largest at the call's last prime p_max, so with
    far = u*k*E + e*k*v*p_max, n*E*v > far makes every p <= p_max a
    miss. For the integer n and E*v > 0, n*E*v > far iff
    n > floor(far/(E*v)) = clear_miss: one comparison of two small ints
    settles those primes, and the rest take the two tests above. With
    eta = 0, clear_miss = floor(u*k/v): every n above it is a miss, and
    every other n a hit.
    """
    h, k = x.value.numerator, x.value.denominator
    e, big_e = x.eta.numerator, x.eta.denominator
    u, v = c.numerator, c.denominator
    scale = big_e * v
    spread = e * k * v
    threshold = u * k * big_e
    p_max = primes[-1] if primes else 0
    clear_miss = (threshold + spread * p_max) // scale
    for p, a in zip(primes, numerators):
        kp = k * p
        r = (h * p - a * k) % kp
        s = kp - r
        n = r if r < s else s
        if n > clear_miss:
            yield p, n, kp, False, False
            continue
        near, band = n * scale, spread * p
        if near + band <= threshold:
            yield p, n, kp, True, False
        elif near - band > threshold:
            yield p, n, kp, False, False
        else:
            yield p, n, kp, False, True


def _hit_tally(
    x: RealApproximant, seq: NumeratorSequence, lo: int, hi: int
) -> tuple[list[int], list[int], array]:
    """The hits and ambiguous primes of (lo, hi], and the 1/p of each of its primes."""
    primes, numerators = seq.scan(lo, hi)
    hits, ambiguous = _tally(classify_hits(x, seq.c, primes, numerators))
    return hits, ambiguous, array("d", [1.0 / p for p in primes])


def hit_primes(x: RealApproximant, seq: NumeratorSequence, bound: int) -> HitReport:
    tallies = map_prime_intervals(functools.partial(_hit_tally, x, seq), bound, CLASSIFY_WORK)
    # harmonic_H_float(1, bound) from the intervals' terms: fsum rounds the
    # exact sum of its terms once, so their order does not matter
    terms = chain.from_iterable(tally[2] for tally in tallies)
    return _report(bound, tallies, float(2 * seq.c) * math.fsum(terms))


def check_eta(x: RealApproximant, bound: int) -> None:
    """Fail unless x is precise enough for fractional parts up to bound: eta * bound < 1/4."""
    if x.eta * bound >= Fraction(1, 4):
        raise ValueError(
            "x is too imprecise for this range: "
            f"eta * bound = {fraction_text(x.eta * bound)} >= 1/4"
        )


def classify_fractional(
    x: RealApproximant, c: Fraction, primes: Sequence[int]
) -> Iterator[Classified]:
    """Classify each prime by the one-sided predicate {x*p} < c.

    Yields (p, r, k, hit, ambiguous), where r/k (not reduced) is the
    exact fractional part of value*p. When the uncertainty band p*eta
    touches 0, 1, or c, the true status depends on the unknown part of x
    and the prime is ambiguous. The primes ascend.

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

    Most primes are settled by r alone. Every d of the call is at most
    d_max = p_max*e*k, at its last prime p_max, so each test holds for
    every p <= p_max when it holds with d_max in place of d. For
    integers, X*v < cut iff X <= ceil(cut/v) - 1 (with cut = u*k*E), and
    X*v >= cut iff X >= ceil(cut/v); dividing by E, floor below and
    ceil above:

        r >= lo  = ceil(d_max/E)                             =>  f >= d
        r <= hi  = floor((k*E - d_max - 1)/E)                =>  f + d < k*E
        r <= clear_hit  = floor((ceil(cut/v) - 1 - d_max)/E)  =>  (f + d)*v < cut
        r >= clear_miss = ceil((ceil(cut/v) + d_max)/E)       =>  (f - d)*v >= cut

    As 0 < c < 1, clear_hit <= hi and clear_miss >= lo, so
    lo <= r <= clear_hit is a hit and clear_miss <= r <= hi a miss, each
    one chained comparison of small ints; the r between or outside take
    the four tests. With eta = 0 the bounds are 0, k - 1, ceil(u*k/v) - 1
    and ceil(u*k/v), so they settle every r.
    """
    h, k = x.value.numerator, x.value.denominator
    e, big_e = x.eta.numerator, x.eta.denominator
    u, v = c.numerator, c.denominator
    one = k * big_e
    cut = u * k * big_e
    ek = e * k
    d_max = (primes[-1] if primes else 0) * ek
    cut_ceil = -(-cut // v)
    lo, hi = -(-d_max // big_e), (one - d_max - 1) // big_e
    clear_hit = (cut_ceil - 1 - d_max) // big_e
    clear_miss = -(-(cut_ceil + d_max) // big_e)
    for p in primes:
        r = h * p % k
        if lo <= r <= clear_hit:
            yield p, r, k, True, False
            continue
        if clear_miss <= r <= hi:
            yield p, r, k, False, False
            continue
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


def _fractional_tally(
    x: RealApproximant, c: Fraction, lo: int, hi: int
) -> tuple[list[int], list[int], int]:
    """The hits and ambiguous primes of (lo, hi], and its number of primes."""
    primes = primes_between(lo, hi)
    return (*_tally(classify_fractional(x, c, primes)), len(primes))


def fractional_hits(x: RealApproximant, c: RationalLike, bound: int) -> HitReport:
    c = checked_c(c)
    check_eta(x, bound)
    tallies = map_prime_intervals(
        functools.partial(_fractional_tally, x, c), bound, CLASSIFY_WORK
    )
    return _report(bound, tallies, float(c) * sum(tally[2] for tally in tallies))


class LogLogHeuristic(NamedTuple):
    partial_sum: float  # 2c * sum of 1/p over p <= bound
    asymptotic: float  # 2c * (ln ln bound + Mertens constant)


def loglog_heuristic(c: RationalLike, bound: int) -> LogLogHeuristic:
    """Predicted hit count up to `bound` and its log-log asymptotic proxy."""
    _check_bound(bound)
    c = checked_c(c)
    scale = float(2 * c)
    return LogLogHeuristic(
        partial_sum=scale * harmonic_H_float(1, bound),
        asymptotic=scale * (math.log(math.log(bound)) + MERTENS),
    )
