"""Exact verification of the covering statistics behind the sieve bound.

For a numerator sequence and a prime range (X, Y], the counting function
N(x) = #{p : x lies in the arc of p} is piecewise constant; an endpoint
sweep yields the exact measure of every level set {N = k}. From the
level sets come the mean nu = 2c*H, the variance-style integral alpha,
the Markov bound alpha/nu^2 for the uncovered set, and two independent
routes to the expectation of the uncovered measure over uniformly random
numerators: an exact arrangement sweep and seeded Monte Carlo.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arcs import RationalLike, arc_of, normalize_union, rat_str, sweep, to_fraction
from .primes import is_prime, primes_between
from .sequences import NumeratorSequence

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class LevelSetProfile:
    """Exact distribution of the counting step function over one range."""

    x: Fraction
    y: Fraction
    c: Fraction
    nu: Fraction
    levels: dict[int, Fraction]

    def total(self) -> Fraction:
        return sum(self.levels.values(), Fraction(0))

    def mean_count(self) -> Fraction:
        return sum((k * m for k, m in self.levels.items()), Fraction(0))

    def to_dict(self) -> dict:
        return {
            "x": rat_str(self.x),
            "y": rat_str(self.y),
            "c": rat_str(self.c),
            "nu": rat_str(self.nu),
            "levels": {str(k): rat_str(m) for k, m in sorted(self.levels.items())},
        }


@dataclass(frozen=True)
class SieveReport:
    profile: LevelSetProfile
    alpha: Fraction
    omega_measure: Fraction
    markov_bound: Optional[Fraction]  # None encodes +infinity (empty range)

    def to_dict(self) -> dict:
        doc = self.profile.to_dict()
        doc["alpha"] = rat_str(self.alpha)
        doc["omega_measure"] = rat_str(self.omega_measure)
        doc["markov_bound"] = "inf" if self.markov_bound is None else rat_str(self.markov_bound)
        return doc


def level_sets(
    seq: NumeratorSequence, x: RationalLike, y: RationalLike
) -> LevelSetProfile:
    """Sweep all arc endpoints on the circle and measure every level set.

    The result is exact: sum of level measures is 1 and the mean count
    equals 2c * sum(1/p) over the range, both as rational identities.
    """
    x, y = to_fraction(x), to_fraction(y)
    if not x < y:
        raise ValueError(f"need X < Y, got X={x}, Y={y}")
    primes = primes_between(x, y)
    arcs = seq.arcs_for(primes)

    levels: dict[int, Fraction] = {0: Fraction(0)}
    prev = Fraction(0)
    count = 0
    for pos, starts, ends in sweep((s, e, None) for arc in arcs for s, e in arc.segments()):
        if pos > prev:
            levels[count] = levels.get(count, Fraction(0)) + (pos - prev)
            prev = pos
        count += len(starts) - len(ends)
    if prev < 1:
        levels[count] = levels.get(count, Fraction(0)) + (1 - prev)

    for k in range(max(levels)):
        levels.setdefault(k, Fraction(0))

    nu = sum((2 * seq.c / p for p in primes), Fraction(0))
    profile = LevelSetProfile(x=x, y=y, c=seq.c, nu=nu, levels=levels)
    assert profile.total() == 1
    assert profile.mean_count() == nu
    return profile


def alpha_and_markov(profile: LevelSetProfile) -> SieveReport:
    """Second moment about nu and the resulting bound on the empty level.

    With no primes in range the bound degenerates: markov_bound is None,
    standing in for +infinity.
    """
    nu = profile.nu
    alpha = sum(
        ((k - nu) ** 2 * m for k, m in profile.levels.items()), Fraction(0)
    )
    omega = profile.levels.get(0, Fraction(0))
    markov = alpha / nu**2 if nu > 0 else None
    if markov is not None:
        assert omega <= markov
    return SieveReport(profile=profile, alpha=alpha, omega_measure=omega, markov_bound=markov)


def pair_expectation(p1: int, p2: int, c: RationalLike) -> Fraction:
    """Average intersection measure of the two primes' arcs over all numerators.

    Plain double sum over the p1*p2 placements, each intersection measured
    exactly; stays within 2/p2^2 of 4c^2/(p1*p2).
    """
    if p1 >= p2:
        raise ValueError(f"need p1 < p2, got {p1} >= {p2}")
    if not (is_prime(p1) and is_prime(p2)):
        raise ValueError(f"{p1} and {p2} must both be prime")
    c = to_fraction(c)
    arcs1 = [arc_of(p1, a, c) for a in range(p1)]
    arcs2 = [arc_of(p2, b, c) for b in range(p2)]
    from .arcs import intersect_measure

    total = Fraction(0)
    for a1 in arcs1:
        for a2 in arcs2:
            total += intersect_measure(a1, a2)
    return total / (p1 * p2)


def omega_expectation_exact(
    x: RationalLike,
    y: RationalLike,
    c: RationalLike,
    max_endpoints: int = 500_000,
) -> Fraction:
    """Expected uncovered measure over uniform random numerators, exactly.

    Numerators are independent across primes, so on each cell of the
    arrangement of all candidate arcs the survival probability is the
    product over primes of (1 - n_p/p), n_p counting the candidate arcs
    covering the cell. Sweeping the arrangement integrates that product.
    """
    x, y = to_fraction(x), to_fraction(y)
    c = to_fraction(c)
    if not (0 < c <= HALF):
        raise ValueError(f"c must lie in (0, 1/2], got {c}")
    if not x < y:
        raise ValueError(f"need X < Y, got X={x}, Y={y}")
    primes = primes_between(x, y)
    if not primes:
        return Fraction(1)
    endpoint_count = sum(2 * (p + 1) for p in primes)
    if endpoint_count > max_endpoints:
        raise ValueError(
            f"range too large for the exact sweep: {endpoint_count} arc endpoints "
            f"exceed the budget of {max_endpoints}"
        )

    counts = [0] * len(primes)
    product = Fraction(1)
    expectation = Fraction(0)
    prev = Fraction(0)
    for pos, starts, ends in sweep(
        (s, e, i)
        for i, p in enumerate(primes)
        for a in range(p)
        for s, e in arc_of(p, a, c).segments()
    ):
        if pos > prev:
            expectation += (pos - prev) * product
            prev = pos
        # ends before starts: at c = 1/2 the arcs of 2 touch, and a start
        # applied first would bring its count to p
        for idx, delta in [(i, -1) for i in ends] + [(i, 1) for i in starts]:
            p, old = primes[idx], counts[idx]
            counts[idx] = old + delta
            product *= Fraction(p - old - delta, p - old)
    if prev < 1:
        expectation += (1 - prev) * product
    return expectation


def _trial_seed(seed: int, trial: int) -> int:
    digest = hashlib.sha256(f"{seed}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def omega_expectation_mc(
    x: RationalLike,
    y: RationalLike,
    c: RationalLike,
    trials: int,
    seed: int,
    threads: int = 1,
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the uncovered measure.

    Each trial draws its numerators from a stream derived from (seed,
    trial index), so results are identical however the trials are
    scheduled; each trial's uncovered measure is computed exactly and
    only the final aggregation is floated. Trials run one after another;
    `threads` is accepted for compatibility and ignored.
    """
    x, y = to_fraction(x), to_fraction(y)
    c = to_fraction(c)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not (0 < c <= HALF):
        raise ValueError(f"c must lie in (0, 1/2], got {c}")
    primes = primes_between(x, y)

    values = []
    for i in range(trials):
        rng = random.Random(_trial_seed(seed, i))
        arcs = [arc_of(p, rng.randrange(p), c) for p in primes]
        values.append(1 - normalize_union(arcs).measure())

    mean = sum(values, Fraction(0)) / trials
    if trials > 1:
        variance = sum(((v - mean) ** 2 for v in values), Fraction(0)) / (trials - 1)
        stderr = math.sqrt(float(variance) / trials)
    else:
        stderr = 0.0
    return float(mean), stderr
