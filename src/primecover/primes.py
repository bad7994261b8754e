"""Prime enumeration and prime harmonic sums.

The sieve is segmented and odd-only (Bays and Hudson, "The segmented
sieve of Eratosthenes and primes in arithmetic progressions to 10^12",
BIT 1977): 2 is taken as given, and each window holds 2^18 flags for
odd numbers, 2^19 numbers in all, struck out by the odd base primes up
to sqrt(bound). Windows can start anywhere, so `primes_between(x, y)`
sieves (x, y] alone. `prime_count` keeps only the base primes and one
window: pi(1e7) takes about 0.04 s, and pi(1e9) about 7 s at 21 MiB
peak RSS (2-core VM, Python 3.11.7). `sieve_range` returns every prime
as a Python int in one tuple, so its memory grows with pi(bound): about
245 MiB peak at 1e8, and several GiB at 1e9. `iter_primes` walks the
same primes lazily, window by window, for a scan that may stop early
(`greedy_sequence`, `block_construction`). It is the one check of a
sieve bound: every per-prime scan calls it, directly or through
`sieve_range`, before any per-prime work, so a bound below 2 fails
there, with one message.

Harmonic sums come in two flavors: exact rational (denominators grow
like primorials; added up a product tree with no gcd, see
`harmonic_sum`) and 64-bit float for larger ranges; callers record
which mode they used.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, compress
from typing import Iterable, Iterator

from .arcs import RationalLike, coprime_fraction, to_fraction, tree_sum

_SEGMENT = 1 << 18  # flags per window, one per odd number

# Mertens: sum_{p<=x} 1/p = ln ln x + M + o(1)
MERTENS = 0.2615


def _segments(low: int, high: int) -> Iterator[tuple[int, bytearray]]:
    """Sieve the odd numbers of [max(low, 3), high] in windows of _SEGMENT flags.

    Yields (start, flags) with start odd and flags[i] == 1 iff start + 2*i
    is prime. The base primes, the odd primes up to isqrt(high), come from
    this same generator one level down; each crosses off its odd multiples
    from max(p*p, low) on, p flags apart. The working set beyond the
    caller's own output is O(sqrt(high) + _SEGMENT), wherever low lies.
    """
    low = max(low, 3) | 1
    if low > high:
        return
    base = list(_odd_primes(3, math.isqrt(high)))
    while low <= high:
        n = min(_SEGMENT, (high - low) // 2 + 1)
        top = low + 2 * (n - 1)
        flags = bytearray([1]) * n
        for p in base:
            square = p * p
            if square > top:
                break
            # index of the first odd multiple of p at or after max(p*p, low)
            i = (square - low) // 2 if square >= low else (-(low + p) // 2) % p
            # a bytearray is stored as is; bytes would first be copied into one
            flags[i::p] = bytearray(len(range(i, n, p)))
        yield low, flags
        low = top + 2


def _odd_primes(low: int, high: int) -> Iterator[int]:
    """The odd primes in [low, high], ascending, made from _segments' flags at C speed."""
    return chain.from_iterable(
        compress(range(start, start + 2 * len(flags), 2), flags)
        for start, flags in _segments(low, high)
    )


def iter_primes(bound: int) -> Iterator[int]:
    """Every prime up to bound, ascending and lazily: 2, then the odd primes of the windows.

    The bound is checked at the call, before any window is sieved; a window
    is sieved only when the caller reaches it, so a caller that stops early
    never sieves the rest.
    """
    if bound < 2:
        raise ValueError(f"sieve bound must be >= 2, got {bound}")
    return chain((2,), _odd_primes(3, bound))


def sieve_range(bound: int) -> tuple[int, ...]:
    """Every prime up to bound, ascending, in one tuple (iter_primes, consumed)."""
    return tuple(iter_primes(bound))


def prime_count(bound: int) -> int:
    """pi(bound): the same windows as sieve_range, counted by bytearray.count.

    No int is made per prime or per candidate, so memory stays at one
    window and the base primes whatever the bound.
    """
    if bound < 2:
        raise ValueError(f"sieve bound must be >= 2, got {bound}")
    return 1 + sum(flags.count(1) for _, flags in _segments(3, bound))


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
    """Primes p with x < p <= y.

    Only floor(x) < p <= floor(y) is sieved, with base primes up to
    sqrt(y): a short window high up costs one base sieve and the window.
    """
    low, high = math.floor(to_fraction(x)) + 1, math.floor(to_fraction(y))
    primes = [2] if low <= 2 <= high else []
    primes.extend(_odd_primes(low, high))
    return primes


def harmonic_H(x: RationalLike, y: RationalLike) -> Fraction:
    """Exact sum of 1/p over primes x < p <= y.

    An empty range gives 0. Denominators grow like the primorial of y:
    1.44M bits at y = 1e6, which takes about 0.9 s (2-core VM, Python
    3.11.7); use harmonic_H_float beyond that.
    """
    x, y = to_fraction(x), to_fraction(y)
    if not 1 <= x < y:
        raise ValueError(f"need 1 <= X < Y, got X={x}, Y={y}")
    return harmonic_sum(primes_between(x, y))


def harmonic_sum(primes: Iterable[int]) -> Fraction:
    """Exact sum of 1/p over distinct primes, by one product tree and no gcd.

    The tree gives Q/P with P the product of the primes and Q = sum P/p.
    Q is P/p modulo each p, which p does not divide, so Q/P is already
    reduced and needs no gcd (`arcs.coprime_fraction`); a gcd of P-sized
    numbers would cost more than the tree.
    """
    return coprime_fraction(*tree_sum((1, p) for p in primes))


def harmonic_H_float(x: RationalLike, y: RationalLike) -> float:
    """Floating-point sum of 1/p over primes x < p <= y."""
    x, y = to_fraction(x), to_fraction(y)
    if not 1 <= x < y:
        raise ValueError(f"need 1 <= X < Y, got X={x}, Y={y}")
    return math.fsum(1.0 / p for p in primes_between(x, y))
