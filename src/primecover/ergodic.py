"""Twisted averages along the skew shift (x, y) -> (x + y, y).

For a prime p with numerator a, the average of e(-na/p) e(x + ny) over
n < p is a Dirichlet-kernel expression in the reduced offset
d = y - a/p. Two evaluators are provided: the direct compensated sum
(ground truth) and the closed kernel form (fast, with a fallback to the
direct sum near the removable singularity at d = 0). Their agreement is
the precision audit for everything downstream. `ergodic_rows` runs the
closed form and the exact hit test over many primes in one loop, and
`s_closed` is its row for a single prime, so the audit checks the
kernel that writes the CSV rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .arcs import HALF
from .primes import _check_bound, next_prime

# below this |sin(pi d)| the kernel ratio is too ill-conditioned; sum directly
_SIN_FALLBACK = 1e-8


def reduce_offset(d: float) -> float:
    """Reduce to (-1/2, 1/2]; exact on floats (fmod and Sterbenz subtraction)."""
    r = d % 1.0
    if r > 0.5:
        r -= 1.0
    return r


def _check_numerator(p: int, a: int) -> None:
    if not 0 <= a < p:
        raise ValueError(f"numerator {a} out of range for prime {p}")


def s_direct(p: int, a: int, x: float, y: float) -> complex:
    """Compensated direct sum of the p twisted orbit terms, divided by p.

    The terms collapse to e(x + n*d) with d = y - a/p; d is reduced mod 1
    first (an exact operation that changes no term, since n is an integer)
    to keep the sine/cosine arguments small.
    """
    _check_numerator(p, a)
    d = reduce_offset(y - a / p)
    real = math.fsum(math.cos(2.0 * math.pi * (x + n * d)) for n in range(p))
    imag = math.fsum(math.sin(2.0 * math.pi * (x + n * d)) for n in range(p))
    return complex(real / p, imag / p)


def s_closed(p: int, a: int, x: float, y: float) -> complex:
    """Kernel form: e(x) sin(pi p d) / (p sin(pi d)) e((p-1) d / 2).

    The s of the one row that ergodic_rows yields for p and a (its c
    decides only is_hit). Where |sin(pi d)| < 1e-8, too near the
    removable singularity for the ratio, that row is the direct sum.
    """
    _check_numerator(p, a)
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

    Yields (p, a_p, distance, s, method, is_hit). The reduced offset is
    that of reduce_offset, written inline; s_closed is one row of this
    loop. The float distance is reported, never compared. Hits keep |s|
    bounded away from 0, while a prime at distance |d| has
    |s| <= 1/(2 p |d|).

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
    """
    h, k = y.as_integer_ratio()
    if k & (k - 1):
        raise ValueError(f"y must be a dyadic rational, such as a float; got {y!r}")
    shift, mask = k.bit_length() - 1, k - 1
    near = c.numerator * k // c.denominator
    far = k - near
    sin, cos, pi = math.sin, math.cos, math.pi
    for p, a in zip(primes, numerators):
        d = (y - a / p) % 1.0
        if d > 0.5:
            d -= 1.0
        sin_d = sin(pi * d)
        if abs(sin_d) < _SIN_FALLBACK:
            s, method = s_direct(p, a, x, y), "direct"
        else:
            w = 2.0 * pi * (x + 0.5 * (p - 1) * d)
            s, method = sin(pi * p * d) / (p * sin_d) * complex(cos(w), sin(w)), "closed"
        t = h * p
        f, q = t & mask, t >> shift
        hit = (f <= near and (q - a) % p == 0) or (f >= far and (q - a + 1) % p == 0)
        yield p, a, abs(d), s, method, hit


@dataclass(frozen=True)
class SparsePrimeSet:
    """Thin prime set whose log-weight sum stays finite."""

    primes: tuple[int, ...]
    weight_sum: float  # sum of log p / p over the members


def sparse_prime_set(bound: int, mode: str = "geometric") -> SparsePrimeSet:
    """Build a sparse prime set up to `bound`.

    geometric: least prime above 4^n for n >= 1; log-weights decay
    geometrically, so the weight sum converges.

    psi: least prime above 2^n for n >= 1, the same idea on a denser
    skeleton.
    """
    _check_bound(bound)
    if mode == "geometric":
        skeleton_base = 4
    elif mode == "psi":
        skeleton_base = 2
    else:
        raise ValueError(f"unknown mode {mode!r}; choose 'geometric' or 'psi'")

    members = []
    n = 1
    while True:
        p = next_prime(skeleton_base**n)
        if p > bound:
            break
        members.append(p)
        n += 1

    weight_sum = math.fsum(math.log(p) / p for p in members)
    return SparsePrimeSet(primes=tuple(members), weight_sum=weight_sum)
