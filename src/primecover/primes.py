"""Prime enumeration and prime harmonic sums.

The sieve is segmented: it holds the base primes up to sqrt(bound) and one
window of 2^18 flags at a time. `prime_count` keeps nothing else, so its
memory stays bounded whatever the bound. `sieve_range` returns every
prime as a Python int, so its memory grows with pi(bound): about 285 MiB
peak at 1e8, and several GiB at 1e9.

Harmonic sums come in two flavors: exact rational (denominators grow
like primorials, practical to roughly Y <= 1e4; added up a product tree,
see `arcs.exact_sum`) and 64-bit float for larger ranges; callers record
which mode they used.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Iterator

from .arcs import RationalLike, exact_sum, to_fraction

_SEGMENT = 1 << 18

# Mertens: sum_{p<=x} 1/p = ln ln x + M + o(1)
MERTENS = 0.2615


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to `bound`, ascending."""

    bound: int
    primes: tuple[int, ...]

    def count(self) -> int:
        return len(self.primes)

    def in_range(self, x: RationalLike, y: RationalLike) -> list[int]:
        """Primes p with x < p <= y.

        For an integer p, x < p <= y exactly when floor(x) < p <= floor(y),
        so two bisections of the sorted table find the slice.
        """
        lo = bisect_right(self.primes, math.floor(to_fraction(x)))
        hi = bisect_right(self.primes, math.floor(to_fraction(y)))
        return list(self.primes[lo:hi])


def _simple_flags(bound: int) -> bytearray:
    flags = bytearray([1]) * (bound + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(range(p * p, bound + 1, p))
    return flags


def _segments(bound: int) -> Iterator[tuple[int, bytearray]]:
    """Sieve [0, bound] in pieces: yield (low, flags), flags[i] == 1 iff low + i is prime.

    The first piece is [0, max(isqrt(bound), 2)], sieved directly; its
    primes then strike out composites in windows of _SEGMENT numbers, so
    the working set beyond the caller's own output is O(sqrt(bound) + _SEGMENT).
    """
    if bound < 2:
        raise ValueError(f"sieve bound must be >= 2, got {bound}")
    base_bound = max(math.isqrt(bound), 2)
    flags = _simple_flags(base_bound)
    yield 0, flags
    base = list(compress(range(base_bound + 1), flags))
    low = base_bound + 1
    while low <= bound:
        high = min(low + _SEGMENT - 1, bound)
        flags = bytearray([1]) * (high - low + 1)
        for p in base:
            start = max(p * p, ((low + p - 1) // p) * p)
            if start > high:
                continue
            flags[start - low :: p] = b"\x00" * len(range(start, high + 1, p))
        yield low, flags
        low = high + 1


def sieve_range(bound: int) -> PrimeTable:
    """Sieve of Eratosthenes over [2, bound], segmented past the root."""
    primes: list[int] = []
    for low, flags in _segments(bound):
        primes.extend(compress(range(low, low + len(flags)), flags))
    return PrimeTable(bound, tuple(primes))


def prime_count(bound: int) -> int:
    """pi(bound): the same segments as sieve_range, counted by bytearray.count.

    No int is made per prime or per candidate, so memory stays at one
    segment whatever the bound.
    """
    return sum(flags.count(1) for _, flags in _segments(bound))


def is_prime(n: int) -> bool:
    """Trial division; fine for the desk-scale n used here."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def next_prime(n: int) -> int:
    """Least prime strictly greater than n."""
    candidate = n + 1
    while not is_prime(candidate):
        candidate += 1
    return candidate


def primes_between(x: RationalLike, y: RationalLike) -> list[int]:
    """Primes p with x < p <= y, sieving only as far as needed."""
    x, y = to_fraction(x), to_fraction(y)
    top = math.floor(y)
    if top < 2:
        return []
    return sieve_range(top).in_range(x, y)


def harmonic_H(x: RationalLike, y: RationalLike) -> Fraction:
    """Exact sum of 1/p over primes x < p <= y.

    An empty range gives 0. Denominators grow like the primorial of y,
    so keep y at desk scale (~1e4); use harmonic_H_float beyond that.
    """
    x, y = to_fraction(x), to_fraction(y)
    if not 1 <= x < y:
        raise ValueError(f"need 1 <= X < Y, got X={x}, Y={y}")
    return harmonic_sum(primes_between(x, y))


def harmonic_sum(primes: Iterable[int]) -> Fraction:
    """Exact sum of 1/p over distinct primes, by one product tree.

    Its denominator is exactly the product of the primes: the tree's
    numerator sum(P/p) is prime to every p, P being that product.
    """
    return exact_sum((1, p) for p in primes)


def harmonic_H_float(x: RationalLike, y: RationalLike) -> float:
    """Floating-point sum of 1/p over primes x < p <= y."""
    x, y = to_fraction(x), to_fraction(y)
    if not 1 <= x < y:
        raise ValueError(f"need 1 <= X < Y, got X={x}, Y={y}")
    return math.fsum(1.0 / p for p in primes_between(x, y))
