"""Exact verification of the covering statistics behind the sieve bound.

For a numerator sequence and a prime range (X, Y], the counting function
N(x) = #{p : x lies in the arc of p} is piecewise constant; an endpoint
sweep yields the exact measure of every level set {N = k}. From the
level sets come the mean nu = 2c*H, the variance-style integral alpha,
the Markov bound alpha/nu^2 for the uncovered set, and two independent
routes to the expectation of the uncovered measure over uniformly random
numerators: an exact arrangement sweep and seeded Monte Carlo.

How the exact sums are kept small:

- Units of 1/(p*v). With c = u/v the arc of a/p is [a*v - u, a*v + u]
  in units of 1/(p*v) (`arcs.arc_pieces`; a = 0 splits at 0). Scaled by
  v, every endpoint is an integer numerator over its prime, so the one
  sort (`arcs.sweep`) compares small integers and no Fraction is made
  per endpoint.
- Telescoping. A sum of run lengths, sum (x_(i+1) - x_i) * w_i, equals
  sum_i x_i * (w_(i-1) - w_i) plus the last weight at the point 1, so
  each sweep position adds an integer multiple of its numerator to one
  integer kept per prime, and no Fraction is added up along the sweep.
- Product tree. The per-prime integers n_p/p are combined once by
  `arcs.exact_sum`, pairwise up a balanced tree, with one gcd at the
  end (Bernstein, "Fast multiplication and its applications", 2008).
  Adding Fractions in sweep order instead takes a gcd of a denominator
  that grows to the product of all primes at every step.
- Moments. Over the common denominator L = v*P of the level measures
  (P the product of the primes), `level_sets` keeps the integer moments
  Sj = sum k^j n_k of the level numerators n_k. As S0 = L and S1 = nu*L,
  alpha = sum (k - nu)^2 m_k = (S2*L - S1^2)/L^2 and the Markov bound
  alpha/nu^2 = (S2*L - S1^2)/S1^2: one Fraction each, no moment Fraction.
- CRT. The p1*p2 placements of a pair of primes give every centre
  distance r/(p1*p2) exactly once, so the pair expectation is a short
  sum of a trapezoid in integer units.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arcs import RationalLike, arc_pieces, checked_c, exact_sum, rat_str, sweep, to_fraction
from .primes import harmonic_sum, is_prime, primes_between
from .sequences import NumeratorSequence, uncovered_by

# most arc endpoints omega_expectation_exact sweeps; (2, 1e4] would have 11,475,244
MAX_ENDPOINTS = 500_000


@dataclass(frozen=True)
class LevelSetProfile:
    """Exact distribution of the counting step function over one range.

    `common` is L = v*P, a multiple of every level measure's denominator;
    n0 = m_0*L, s1 = sum k*m_k*L and s2 = sum k^2*m_k*L are the integer
    numerators over L of the empty level and of the first two moments.
    """

    x: Fraction
    y: Fraction
    c: Fraction
    nu: Fraction
    levels: dict[int, Fraction]
    common: int
    n0: int
    s1: int
    s2: int

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

    With c = u/v the arc of p is [a*v - u, a*v + u] in units of 1/(p*v).
    Scaled by v (the circle becomes [0, v]) an endpoint is a numerator n
    over its prime p, and the sweep orders these integers exactly. The
    level measures telescope: at a position x where the count steps
    from k to k', the run of level k ends and one of level k' starts, so
    x adds to m_k and is taken from m_k', and level 0 ends at the point
    1 (= v/1). Each level keeps one integer numerator per prime, in units
    of 1/(p*v); the per-prime numerators go to one exact_sum per level.

    The result is exact: sum of level measures is 1 and the mean count
    equals nu = 2c * sum(1/p) over the range. Both identities are
    asserted over the common denominator v * P, P the product of the
    primes (the exact denominator of sum(1/p)), which every level
    measure divides; the profile keeps that denominator and the integer
    moments for `alpha_and_markov`.
    """
    x, y = to_fraction(x), to_fraction(y)
    if not x < y:
        raise ValueError(f"need X < Y, got X={x}, Y={y}")
    primes = primes_between(x, y)
    c = seq.c
    v = c.denominator

    numerators: defaultdict[int, defaultdict[int, int]] = defaultdict(lambda: defaultdict(int))
    count = 0
    for n, p, starts, ends in sweep(arc_pieces(((p, seq.numerator_for(p)) for p in primes), c)):
        new = count + len(starts) - len(ends)
        if new != count:
            numerators[count][p] += n
            numerators[new][p] -= n
            count = new
    numerators[0][1] += v
    levels = {
        k: exact_sum((n, p) for p, n in numerators[k].items() if n) / v
        for k in range(max(numerators) + 1)
    }

    harmonic = harmonic_sum(primes)
    nu = 2 * c * harmonic
    common = v * harmonic.denominator
    scaled = [_over(m, common) for m in levels.values()]
    s1 = sum(k * m for k, m in enumerate(scaled))
    s2 = sum(k * k * m for k, m in enumerate(scaled))
    assert sum(scaled) == common  # total() == 1
    assert s1 == _over(nu, common)  # mean_count() == nu
    return LevelSetProfile(
        x=x, y=y, c=c, nu=nu, levels=levels, common=common, n0=scaled[0], s1=s1, s2=s2
    )


def _over(q: Fraction, common: int) -> int:
    """Numerator of q over `common`, which its denominator must divide."""
    factor, rest = divmod(common, q.denominator)
    assert not rest
    return q.numerator * factor


def alpha_and_markov(profile: LevelSetProfile) -> SieveReport:
    """Second moment about nu and the resulting bound on the empty level.

    alpha = sum (k - nu)^2 m_k expands to S2 - 2 nu S1 + nu^2 S0 in the
    moments Sj = sum k^j m_k. Over the profile's common denominator L,
    S0 = L and S1 = nu*L (both asserted by `level_sets`), so with the
    integer moments s1, s2 the expansion is alpha = (s2*L - s1^2)/L^2 and
    the Markov bound alpha/nu^2 = (s2*L - s1^2)/s1^2: each is one Fraction
    of integers, and omega <= markov is the integer inequality
    n0*s1^2 <= (s2*L - s1^2)*L. With no primes in range the bound
    degenerates: markov_bound is None, standing in for +infinity.
    """
    common, n0, s1 = profile.common, profile.n0, profile.s1
    spread = profile.s2 * common - s1 * s1
    alpha = Fraction(spread, common * common)
    omega = profile.levels.get(0, Fraction(0))
    if s1:
        assert n0 * s1 * s1 <= spread * common  # omega <= markov
        markov = Fraction(spread, s1 * s1)
    else:
        markov = None
    return SieveReport(profile=profile, alpha=alpha, omega_measure=omega, markov_bound=markov)


def pair_expectation(p1: int, p2: int, c: RationalLike) -> Fraction:
    """Average intersection measure of the two primes' arcs over all numerators.

    The arcs of a1/p1 and a2/p2 meet according to the circle distance of
    their centres, (a1*p2 - a2*p1)/(p1*p2) mod 1. By the Chinese
    remainder theorem the p1*p2 placements hit every residue r mod
    N = p1*p2 exactly once, so the average is (1/N) sum_r overlap(r/N).
    In units of 1/(N*v), c = u/v, the half-widths are H1 = u*p2 and
    H2 = u*p1 <= H1 and the distance of residue r (or N - r) is r*v, so
    overlap(r) = max(0, min(2*H2, H1 + H2 - r*v)): a trapezoid, zero once
    r*v >= H1 + H2. As c*(p1 + p2) < N/2, only r and N - r with
    r < (H1 + H2)/v contribute. The result is exact and stays within
    2/p2^2 of 4c^2/(p1*p2).
    """
    if p1 >= p2:
        raise ValueError(f"need p1 < p2, got {p1} >= {p2}")
    if not (is_prime(p1) and is_prime(p2)):
        raise ValueError(f"{p1} and {p2} must both be prime")
    c = checked_c(c)
    u, v = c.numerator, c.denominator
    inner, reach = 2 * u * p1, u * (p1 + p2)  # 2*H2 and H1 + H2
    total = inner + 2 * sum(min(inner, reach - r * v) for r in range(1, -(-reach // v)))
    n = p1 * p2
    return Fraction(total, n * n * v)


def omega_expectation_exact(
    x: RationalLike,
    y: RationalLike,
    c: RationalLike,
) -> Fraction:
    """Expected uncovered measure over uniform random numerators, exactly.

    Numerators are independent across primes, so on each cell of the
    arrangement of all candidate arcs the survival probability is the
    product over primes of (1 - n_p/p), n_p counting the candidate arcs
    covering the cell. Sweeping the arrangement integrates that product.

    The product is kept as the integer Q = prod (p - n_p) over P = prod p
    and updated by exact division as counts change. Positions come from
    the sweep as numerators n over p in units of 1/(p*v), c = u/v. The
    integral telescopes: with S_i the survival after position x_i,
    E = sum_i x_i (S_(i-1) - S_i) + S_final, so each position adds
    n * (Q_(i-1) - Q_i) to its prime's integer numerator, and
    E = (exact_sum of those over p, plus v * Q_final) / (v * P).
    """
    x, y = to_fraction(x), to_fraction(y)
    c = checked_c(c)
    if not x < y:
        raise ValueError(f"need X < Y, got X={x}, Y={y}")
    primes = primes_between(x, y)
    if not primes:
        return Fraction(1)
    endpoint_count = sum(2 * (p + 1) for p in primes)
    if endpoint_count > MAX_ENDPOINTS:
        raise ValueError(
            f"range too large for the exact sweep: {endpoint_count} arc endpoints "
            f"exceed the budget of {MAX_ENDPOINTS}"
        )

    v = c.denominator
    counts = dict.fromkeys(primes, 0)
    survive = whole = math.prod(primes)
    numerators: defaultdict[int, int] = defaultdict(int)
    for n, p, starts, ends in sweep(arc_pieces(((p, a) for p in primes for a in range(p)), c)):
        before = survive
        # ends before starts: at c = 1/2 the arcs of 2 touch, and a start
        # applied first would bring its count to p
        for q, delta in [(q, -1) for q in ends] + [(q, 1) for q in starts]:
            old = counts[q]
            counts[q] = old + delta
            survive = survive // (q - old) * (q - old - delta)
        numerators[p] += n * (before - survive)
    terms = [(n, p) for p, n in numerators.items() if n] + [(v * survive, 1)]
    return exact_sum(terms) / (v * whole)


def _trial_seed(seed: int, trial: int) -> int:
    digest = hashlib.sha256(f"{seed}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def omega_expectation_mc(
    x: RationalLike,
    y: RationalLike,
    c: RationalLike,
    trials: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the uncovered measure.

    Each trial draws its numerators from a stream derived from (seed,
    trial index), so results are identical however the trials are
    scheduled; each trial's uncovered measure is computed exactly and
    only the final aggregation is floated. Trials run one after another.
    """
    x, y = to_fraction(x), to_fraction(y)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    c = checked_c(c)
    if not x < y:
        raise ValueError(f"need X < Y, got X={x}, Y={y}")
    primes = primes_between(x, y)

    # every trial's value has a denominator dividing v * P, P = prod p
    common = c.denominator * math.prod(primes)
    values = []
    for i in range(trials):
        rng = random.Random(_trial_seed(seed, i))
        value = uncovered_by([(p, rng.randrange(p)) for p in primes], c)
        values.append(_over(value, common))

    # mean = S/(T*L) and variance = sum (T*V_i - S)^2 / (T^2 * L^2 * (T - 1))
    # with value i = V_i/L; int / int rounds the exact ratio correctly, as
    # float() of the equal Fraction does
    total = sum(values)
    if trials > 1:
        square_sum = sum((trials * value - total) ** 2 for value in values)
        variance = square_sum / (trials * trials * common * common * (trials - 1))
        stderr = math.sqrt(variance / trials)
    else:
        stderr = 0.0
    return total / (trials * common), stderr
