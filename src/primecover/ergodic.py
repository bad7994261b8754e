"""Twisted averages along the skew shift (x, y) -> (x + y, y).

For a prime p with numerator a, the average of e(-na/p) e(x + ny) over
n < p is a Dirichlet-kernel expression in the reduced offset
d = y - a/p. Two evaluators are provided: the direct compensated sum
(ground truth) and the closed kernel form (fast, with a fallback to the
direct sum near the removable singularity at d = 0). Their agreement is
the precision audit for everything downstream. `ergodic_rows` runs the
closed form and the exact hit test over many primes in one loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .primes import next_prime
from .sequences import NumeratorSequence

# below this |sin(pi d)| the kernel ratio is too ill-conditioned; sum directly
_SIN_FALLBACK = 1e-8

def _e(t: float) -> complex:
    w = 2.0 * math.pi * t
    return complex(math.cos(w), math.sin(w))


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

    Falls back to the direct sum when |sin(pi d)| < 1e-8, where d is so
    close to the removable singularity that the ratio loses accuracy.
    """
    _check_numerator(p, a)
    d = reduce_offset(y - a / p)
    sin_d = math.sin(math.pi * d)
    if abs(sin_d) < _SIN_FALLBACK:
        return s_direct(p, a, x, y)
    ratio = math.sin(math.pi * p * d) / (p * sin_d)
    return ratio * _e(x + 0.5 * (p - 1) * d)


# (p, a_p, |d|, s, method, is_hit)
ErgodicRow = tuple[int, int, float, complex, str, bool]


def ergodic_rows(
    seq: NumeratorSequence,
    x: float,
    y: float,
    primes: Iterable[int],
) -> Iterator[ErgodicRow]:
    """Evaluate the average at (x, y) for each listed prime, in one pass.

    Yields (p, a_p, distance, s, method, is_hit). The reduced offset and
    the kernel are those of s_closed, operation for operation, written
    inline. is_hit is exact: a float y is the dyadic rational h/k, and
    with c = u/v the circle distance from y to a/p is n/(k*p), where
    r = (h*p - a*k) mod k*p and n = min(r, k*p - r), so

        p * dist <= c  <=>  n*v <= u*k

    the hits.hit_classes inequality with eta = 0. The float distance is
    reported, never compared. Hits keep |s| bounded away from 0, while a
    prime at distance |d| has |s| <= 1/(2 p |d|).
    """
    h, k = y.as_integer_ratio()
    v = seq.c.denominator
    threshold = seq.c.numerator * k
    numerator_for = seq.numerator_for
    sin, cos, pi = math.sin, math.cos, math.pi
    for p in primes:
        a = numerator_for(p)
        d = (y - a / p) % 1.0
        if d > 0.5:
            d -= 1.0
        sin_d = sin(pi * d)
        if abs(sin_d) < _SIN_FALLBACK:
            s, method = s_direct(p, a, x, y), "direct"
        else:
            w = 2.0 * pi * (x + 0.5 * (p - 1) * d)
            s, method = sin(pi * p * d) / (p * sin_d) * complex(cos(w), sin(w)), "closed"
        kp = k * p
        r = (h * p - a * k) % kp
        yield p, a, abs(d), s, method, min(r, kp - r) * v <= threshold


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
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
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
