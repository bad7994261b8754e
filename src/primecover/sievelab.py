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
  `arcs.tree_sum`, pairwise up a balanced tree (Bernstein, "Fast
  multiplication and its applications", 2008). Adding Fractions in sweep
  order instead takes a gcd of a denominator that grows to the product of
  all primes at every step.
- Known factors, no big gcd. Every denominator in a report is made of v
  and the primes of the range, so each value is reduced by a gcd with a
  small number, or with Q below, never with P (the product of the
  primes), and the Fraction is built by `arcs.coprime_fraction`. The
  tree of a level runs over its terms n_p/p with p not dividing n_p, so
  its denominator is already reduced (see `arcs.tree_sum`); the terms
  that p divides are integers, and only a gcd with v is left. CPython's
  gcd is quadratic, and at (2, 1e6] the big gcds of plain Fractions took
  about 30 of 45 s.
- Moments. Over the common denominator L = v*P of the level measures,
  `level_sets` keeps the integer moments S1 = sum k*m_k*L = 2u*Q, from
  H = Q/P with c = u/v, and S2 = sum k^2*m_k*L, one tree over the
  per-prime numerators sum_k k^2*n_(k,p). No level is scaled to L. Then
  alpha = sum (k - nu)^2 m_k = (S2*L - S1^2)/L^2 and the Markov bound
  alpha/nu^2 = (S2*L - S1^2)/S1^2 are one Fraction each, and
  `alpha_and_markov` gives the proofs of their reductions.
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
from itertools import repeat
from operator import floordiv, mod
from typing import Iterable, Optional

from .arcs import (
    RationalLike,
    arc_pieces,
    checked_c,
    checked_range,
    coprime_fraction,
    exact_sum,
    rat_str,
    sweep,
    tree_sum,
)
from .fanout import map_chunks
from .primes import is_prime, primes_between
from .sequences import NumeratorSequence, uncovered_by, uniform_numerators

# most arc endpoints omega_expectation_exact sweeps; (2, 1e4] would have 11,475,244
MAX_ENDPOINTS = 500_000


@dataclass(frozen=True)
class LevelSetProfile:
    """Exact distribution of the counting step function over one range.

    `common` is L = v*P, a multiple of every level measure's denominator;
    s1 = sum k*m_k*L and s2 = sum k^2*m_k*L are the integer numerators
    over L of the first two moments.
    """

    x: Fraction
    y: Fraction
    c: Fraction
    nu: Fraction
    levels: dict[int, Fraction]
    common: int
    s1: int
    s2: int

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
    1 (= v/1). Level k keeps one integer n_(k,p) per prime, and
    m_k = (v*[k = 0] + sum_p n_(k,p)/p)/v.

    Reduction. v*m_k is the integer W_k = v*[k = 0] + sum n_(k,p)/p over
    the primes that divide their n_(k,p), plus the tree sum R/D over the
    other terms, which is reduced (`arcs.tree_sum`). N = W_k*D + R is then
    prime to D as R is, so m_k = N/(v*D) needs only gcd(N, v), a small gcd.

    Both identities are asserted exactly in the per-prime integers, with
    no tree. For distinct primes p and integers t_p, sum t_p/p = 0
    exactly when p divides every t_p and the quotients t_p/p sum to 0:
    the sum times P is t_p*(P/p) modulo p. The levels sum to 1 exactly
    when this holds for t_p = sum_k n_(k,p), which the sweep makes 0 for
    every p, and the mean count is nu = 2c*H exactly when it holds for
    t_p = sum_k k*n_(k,p) - 2u over the primes of the range. A prime's
    arc has length 2u/p on the circle scaled to [0, v], and a position
    moves between primes only at an integer point of [0, v], where n/p
    is an integer, so the second holds for a correct sweep.
    """
    x, y = checked_range(x, y)
    primes = primes_between(x, y)
    c = seq.c
    u, v = c.numerator, c.denominator

    rows: dict[int, dict[int, int]] = {p: {} for p in primes}  # p -> {k: n_(k,p)}
    count = 0
    for n, p, starts, ends in sweep(arc_pieces(((p, seq.numerator_for(p)) for p in primes), c)):
        new = count + len(starts) - len(ends)
        if new != count:
            row = rows[p]
            row[count] = row.get(count, 0) + n
            row[new] = row.get(new, 0) - n
            count = new

    top = max(map(max, filter(None, rows.values())), default=0)
    wholes = [v] + [0] * top  # W_k
    terms: list[list[tuple[int, int]]] = [[] for _ in range(top + 1)]
    firsts, seconds = [], []  # sum_k k*n_(k,p) and sum_k k^2*n_(k,p), in the order of primes
    for p, row in rows.items():
        first = second = 0
        for k, n in row.items():
            if n % p:
                terms[k].append((n, p))
            else:
                wholes[k] += n // p
            first += k * n
            second += k * k * n
        firsts.append(first - 2 * u)
        seconds.append(second)
    assert not any(map(sum, map(dict.values, rows.values())))  # the levels sum to 1
    del rows  # about 2 MB at (2, 5e4]; the trees would otherwise add to it at the peak
    assert not any(map(mod, firsts, primes)) and not sum(map(floordiv, firsts, primes))  # mean nu

    levels = {}
    for k, (whole, level_terms) in enumerate(zip(wholes, terms)):
        rest, den = tree_sum(level_terms)
        num = whole * den + rest
        g = math.gcd(num % v, v)
        levels[k] = coprime_fraction(num // g, v * den // g)
    del terms  # before the moment tree, as rows before the level trees
    harmonic, s2, whole_product = _harmonic_and_second(seconds, primes)
    return LevelSetProfile(
        x=x, y=y, c=c, nu=2 * c * coprime_fraction(harmonic, whole_product), levels=levels,
        common=v * whole_product, s1=2 * u * harmonic, s2=s2,
    )


def _harmonic_and_second(seconds: Iterable[int], primes: list[int]) -> tuple[int, int, int]:
    """(Q, S, P) with sum 1/p = Q/P and sum s_p/p = S/P over the primes.

    The tree of `arcs.tree_sum` with two numerators per node, so the two
    sums share each product d1*d2. P is the product of the primes, and
    Q/P is reduced (`primes.harmonic_sum`).
    """
    layer = list(zip(repeat(1), seconds, primes)) or [(0, 0, 1)]
    while len(layer) > 1:
        paired = [
            (a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)
            for (a1, b1, d1), (a2, b2, d2) in zip(layer[0::2], layer[1::2])
        ]
        if len(layer) % 2:
            paired.append(layer[-1])
        layer = paired
    return layer[0]


def _over(q: Fraction, common: int) -> int:
    """Numerator of q over `common`, which its denominator must divide."""
    factor, rest = divmod(common, q.denominator)
    assert not rest
    return q.numerator * factor


def alpha_and_markov(profile: LevelSetProfile) -> SieveReport:
    """Second moment about nu and the resulting bound on the empty level.

    alpha = sum (k - nu)^2 m_k expands to S2 - 2 nu S1 + nu^2 S0 in the
    moments Sj = sum k^j m_k. Over the profile's common denominator
    L = v*P, S0 = L and S1 = nu*L = 2u*Q (H = Q/P), so with the integer
    moments s1, s2 and spread = s2*L - s1^2, alpha = spread/L^2 and the
    Markov bound alpha/nu^2 = spread/s1^2. With no primes in range the
    bound degenerates: markov_bound is None, standing in for +infinity.

    Alpha. For a prime p of the range with p not dividing 2u, spread is
    -4u^2*Q^2 modulo p, and p does not divide Q = sum P/q (it is P/p
    modulo p), so p does not divide spread. Every other prime divides
    L^2 = (v*P)^2 as often as (v*w)^2, w the product of the primes of the
    range that divide 2u, so gcd(spread, L^2) = gcd(spread, (v*w)^2): a
    gcd with a small number.

    Markov. h = gcd(spread, Q) = gcd(s2*v*P mod Q, Q) = gcd(s2*v mod Q, Q),
    as P is prime to Q: one gcd of numbers the size of Q, not of s1^2.
    Then gcd(spread, s1^2) = gcd(spread, (2u*h)^2). At a prime l dividing
    spread a times and Q q times, h holds l min(a, q) times; if a <= q
    both sides hold l a times, as 2q >= a, and otherwise h holds it q
    times and the two sides agree term by term. h is 1 when spread and Q
    are coprime, but it is often 2 or some other small number.

    omega <= markov is asserted as the integer inequality
    a*s1^2 <= spread*b for omega = a/b.
    """
    c, common, s1 = profile.c, profile.common, profile.s1
    u, v = c.numerator, c.denominator
    spread = profile.s2 * common - s1 * s1
    w = math.prod(p for p in primes_between(profile.x, min(profile.y, 2 * u)) if 2 * u % p == 0)
    small = (v * w) ** 2
    g = math.gcd(spread % small, small)
    alpha = coprime_fraction(spread // g, common * common // g)
    omega = profile.levels[0]
    if s1:
        square = s1 * s1
        harmonic_num = s1 // (2 * u)
        small = (2 * u * math.gcd(profile.s2 * v % harmonic_num, harmonic_num)) ** 2
        g = math.gcd(spread % small, small)
        markov = coprime_fraction(spread // g, square // g)
        assert omega.numerator * square <= spread * omega.denominator  # omega <= markov
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
    c = checked_c(c)
    primes = primes_between(*checked_range(x, y))
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
    only the final aggregation is floated.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    c = checked_c(c)
    primes = primes_between(*checked_range(x, y))

    # every trial's value has a denominator dividing v * P, P = prod p
    common = c.denominator * math.prod(primes)

    def run(indices: range) -> list[int]:
        values = []
        for i in indices:
            rng = random.Random(_trial_seed(seed, i))
            value = uncovered_by(uniform_numerators(rng, primes), c)
            values.append(_over(value, common))
        return values

    # a trial does one per-prime evaluation for each prime of the range
    values = [value for chunk in map_chunks(run, range(trials), len(primes)) for value in chunk]

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
