"""Twisted averages along the skew shift (x, y) -> (x + y, y).

For a prime p with numerator a, the average of e(-na/p) e(x + ny) over
n < p is a Dirichlet-kernel expression in the reduced offset
d = y - a/p. `ergodic_rows` evaluates it, with the exact hit test, over
many primes in one loop: by the closed kernel wherever d is a nonzero
normal float, and at d = 0 (or a subnormal d) by the exact sum of its p
equal terms e(x). `s_closed` is its row for a single prime. The tests
check both against the direct compensated sum of the p terms, which
their oracles keep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .arcs import HALF, check_numerator
from .primes import _check_bound, next_prime

# the least normal float: below it pi*d and pi*p*d round on the subnormal
# grid and the kernel ratio loses its digits (|s| = 1.048 at p = 7, d = 5e-324)
_LEAST_NORMAL = 2.0**-1022


def s_closed(p: int, a: int, x: float, y: float) -> complex:
    """Kernel form: e(x) sin(pi p d) / (p sin(pi d)) e((p-1) d / 2).

    The s of the one row that ergodic_rows yields for p and a (its c
    decides only is_hit). At d = 0, the removable singularity, that row
    is e(x) summed exactly.
    """
    check_numerator(p, a)
    ((_, _, _, s, _, _),) = ergodic_rows(HALF, x, y, (p,), (a,))
    return s


# (p, a_p, |d|, s, method, is_hit)
ErgodicRow = tuple[int, int, float, complex, str, bool]


def ergodic_rows(
    c: Fraction,
    x: float,
    y: float,
    primes: Sequence[int],
    numerators: Sequence[int],
) -> Iterator[ErgodicRow]:
    """Evaluate the average at (x, y) for each prime and its numerator, in one pass.

    Yields (p, a_p, distance, s, method, is_hit), with d = y - a/p
    reduced exactly to (-1/2, 1/2]; s_closed is one row of this loop.
    The float distance is reported, never compared. Hits keep |s|
    bounded away from 0, while a prime at distance |d| has
    |s| <= 1/(2 p |d|).

    s is the closed kernel (method "closed") wherever |d| is a normal
    float. At d = 0 each of the p terms is e(x), and math.fsum of p equal
    floats is their correctly rounded product, so the direct sum is
    float(Fraction(cos w) * p) / p (and the same with sin) for w = 2 pi x,
    in O(1) (method "direct"). A subnormal d takes that sum too: there
    the average is within pi p |d| < 1e-288 of e(x).

    is_hit is exact, and decided from t = h*p alone. A float y is the
    dyadic rational h/k with k = 2^e (a y that is not raises ValueError).
    With c = u/v, a/p lies within c/p of y iff the circle distance
    n/(k*p) has n*v <= u*k, where r = (h*p - a*k) mod k*p and
    n = min(r, k*p - r): the hits.classify_hits inequality with eta = 0,
    that is n <= near = floor(u*k/v). Write t = q*k + f, 0 <= f < k
    (f = t & (k - 1), q = t >> e); then r = m*k + f with
    m = (q - a) mod p. As c <= 1/2, near <= k/2 < k, so only two cases
    reach:

        m = 0:      r = f,            a hit iff f <= near
        m = p - 1:  k*p - r = k - f,  a hit iff f >= k - near

    Every other m leaves both r and k*p - r at k or more. So

        is_hit  <=>  (f <= near and (q - a) % p == 0)
                     or (f >= k - near and (q - a + 1) % p == 0)

    and no product of k and p is formed per prime.

    Every row depends on x and y modulo 1 only, so both are first
    reduced by math.fmod(., 1.0), which is exact: it subtracts an
    integer and rounds nothing. x and y in (-1, 1) are unchanged, and
    so are their rows. A larger x or y keeps every digit of its
    fractional part, where unreduced 2 pi x overflows to inf at
    x = 1e308 and y - a/p drops a/p once |y| >= 2^53. The hit test
    reads h mod k, the same point of the circle as h/k.
    """
    h, k = y.as_integer_ratio()
    if k & (k - 1):
        raise ValueError(f"y must be a dyadic rational, such as a float; got {y!r}")
    h %= k
    x, y = math.fmod(x, 1.0), math.fmod(y, 1.0)
    shift, mask = k.bit_length() - 1, k - 1
    near = c.numerator * k // c.denominator
    far = k - near
    sin, cos, pi = math.sin, math.cos, math.pi
    for p, a in zip(primes, numerators):
        d = (y - a / p) % 1.0
        if d > 0.5:
            d -= 1.0
        if abs(d) >= _LEAST_NORMAL:
            w = 2.0 * pi * (x + 0.5 * (p - 1) * d)
            s, method = sin(pi * p * d) / (p * sin(pi * d)) * complex(cos(w), sin(w)), "closed"
        else:
            w = 2.0 * pi * x
            s = complex(float(Fraction(cos(w)) * p) / p, float(Fraction(sin(w)) * p) / p)
            method = "direct"
        t = h * p
        f, q = t & mask, t >> shift
        hit = (f <= near and (q - a) % p == 0) or (f >= far and (q - a + 1) % p == 0)
        yield p, a, abs(d), s, method, hit


@dataclass(frozen=True)
class SparsePrimeSet:
    """Thin prime set whose log-weight sum stays finite."""

    primes: tuple[int, ...]
    weight_sum: float  # sum of log p / p over the members


# each mode of sparse_prime_set and the base b of its skeleton b^n
SPARSE_BASES = {"geometric": 4, "psi": 2}


def sparse_prime_set(bound: int, mode: str = "geometric") -> SparsePrimeSet:
    """Build a sparse prime set up to `bound`.

    geometric: least prime above 4^n for n >= 1; log-weights decay
    geometrically, so the weight sum converges.

    psi: least prime above 2^n for n >= 1, the same idea on a denser
    skeleton.
    """
    _check_bound(bound)
    if mode not in SPARSE_BASES:
        raise ValueError(f"unknown mode {mode!r}; choose {' or '.join(map(repr, SPARSE_BASES))}")

    members = []
    n = 1
    while True:
        p = next_prime(SPARSE_BASES[mode] ** n)
        if p > bound:
            break
        members.append(p)
        n += 1

    weight_sum = math.fsum(math.log(p) / p for p in members)
    return SparsePrimeSet(primes=tuple(members), weight_sum=weight_sum)
