"""Prime enumeration and prime harmonic sums.

The sieve is segmented and odd-only (Bays and Hudson, "The segmented
sieve of Eratosthenes and primes in arithmetic progressions to 10^12",
BIT 1977): 2 is taken as given, and each window holds 2^18 flags for
odd numbers, 2^19 numbers in all, struck out by the odd base primes up
to sqrt(bound). Windows can start anywhere, so `primes_between(x, y)`
sieves (x, y] alone, and `map_prime_intervals` runs a per-prime scan on
intervals of (1, bound] across the cores, each process sieving its own
interval. `prime_count` keeps only the base primes and one window per
process: pi(1e7) takes about 0.02 s on two cores (0.03 s on one), and
pi(1e9) 3.8-4.2 s at 21.3 MiB peak RSS (2-core VM, Python 3.11.7).
`sieve_range` returns every prime as a Python int in one tuple, so its
memory grows with pi(bound): about 245 MiB peak at 1e8, several GiB at 1e9.
`iter_primes` walks the same primes lazily, window by window, for a scan
that may stop early (`greedy_sequence`, `block_construction`).
`_check_bound` is the one rule for a sieve bound, 2 <= bound < 2^63,
since no sequence column holds a larger prime and no sieve reaches one.
`iter_primes` and `map_prime_intervals` apply it at the call, and every
per-prime scan calls one of them, directly or through `sieve_range`,
before any per-prime work; `ergodic.sparse_prime_set` and
`hits.loglog_heuristic`, which sieve nothing, call it themselves.
`least_prime_past` is the one search for a prime past a limit that a
scan must rule out; past psi_12 it fails in the caller's words.

Harmonic sums come in two flavors: exact rational (denominators grow
like primorials; added up a product tree with no gcd, see
`harmonic_sum`) and 64-bit float for larger ranges; callers record
which mode they used.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import add
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from .arcs import RationalLike, coprime_fraction, fraction_text, to_fraction, tree_sum
from .fanout import map_chunks

T = TypeVar("T")

_SEGMENT = 1 << 18  # flags per window, one per odd number
_PIECE = 4096  # flags per piece of a window that _odd_primes reads
_OFFSETS = list(range(0, 2 * _PIECE, 2))  # the offsets of a piece's odd numbers

# per-prime evaluations that counting one prime costs: 23-34 ns a prime
# (serial medians at 1e5-1e7 on a 2-core VM with Python 3.11.7, where an
# `ergodic` CSV row takes 2.9-3.1 us). On two CPUs a count forks from
# 6,259,868; below that a split lost or tied (9.2 ms against 9.1 at 3e6).
COUNT_WORK = 1 / 100

# Mertens: sum_{p<=x} 1/p = ln ln x + M + o(1)
MERTENS = 0.2615

# psi_12: the least composite that passes is_prime's bases
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI12 = 318665857834031151167461


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
    """The odd primes in [low, high], ascending, made from _segments' flags at C speed.

    Each window is read in pieces of _PIECE flags. compress picks, from
    the one module list _OFFSETS, the even offsets 2*j whose flag is set,
    and map(add, ..., repeat(start)) adds the piece's first number to
    each: one int is made per prime, where a range would make one per
    odd candidate.
    """
    return chain.from_iterable(
        map(add, compress(_OFFSETS, flags[i : i + _PIECE]), repeat(start + 2 * i))
        for start, flags in _segments(low, high)
        for i in range(0, len(flags), _PIECE)
    )


def iter_primes(bound: int) -> Iterator[int]:
    """Every prime up to bound, ascending and lazily: 2, then the odd primes of the windows.

    The bound is checked at the call, before any window is sieved; a window
    is sieved only when the caller reaches it, so a caller that stops early
    never sieves the rest.
    """
    _check_bound(bound)
    return chain((2,), _odd_primes(3, bound))


def _check_bound(bound: int) -> None:
    """Fail unless 2 <= bound < 2^63, naming the bound as fraction_text words it."""
    if bound < 2:
        raise ValueError(f"sieve bound must be >= 2, got {fraction_text(bound)}")
    if bound >= 1 << 63:
        raise ValueError(f"sieve bound must be below 2^63, got {fraction_text(bound)}")


def sieve_range(bound: int) -> tuple[int, ...]:
    """Every prime up to bound, ascending, in one tuple (iter_primes, consumed)."""
    return tuple(iter_primes(bound))


def prime_count(bound: int) -> int:
    """pi(bound): the same windows as sieve_range, counted by bytearray.count.

    Each interval of map_prime_intervals is counted in its own process,
    and no int is made per prime or per candidate, so each process holds
    one window and the base primes whatever the bound.
    """
    return sum(map_prime_intervals(_count_between, bound, COUNT_WORK))


def _count_between(lo: int, hi: int) -> int:
    """The number of primes in (lo, hi]."""
    return int(lo < 2 <= hi) + sum(flags.count(1) for _, flags in _segments(lo + 1, hi))


def map_prime_intervals(fn: Callable[[int, int], T], bound: int, work_per_prime: float) -> list[T]:
    """[fn(lo, hi) for the contiguous intervals (lo, hi] that cover (1, bound]], in order.

    The intervals are `fanout.map_chunks` chunks of a range of shares of
    the primes up to bound, as many as the prime number theorem's
    estimate t / log t of pi(t) gives at bound. A share ends at the least
    t whose estimate reaches it, so the intervals hold about equal
    numbers of primes: two cut (1, 1e6] at 472,898, and hold 39,454 and
    39,044 primes, where equal spans hold 41,538 and 36,960. fn runs in
    the caller on the first interval and in a forked worker on each
    other, so each process sieves its own primes (`primes_between(lo,
    hi)`) and none holds them all. work_per_prime is what fn spends on
    one prime, in per-prime evaluations (`fanout.MIN_CHUNK`).
    """
    _check_bound(bound)
    shares = int(_estimate(bound))
    return map_chunks(
        lambda chunk: fn(_cut(bound, shares, chunk.start), _cut(bound, shares, chunk.stop)),
        range(shares),
        work_per_prime,
    )


def _estimate(t: int) -> float:
    """t / log t, the estimate of pi(t), held increasing below 3."""
    return t / math.log(max(t, 3))


def _cut(bound: int, shares: int, i: int) -> int:
    """Where the first i shares end: the least t >= 1 whose estimate is i/shares of bound's.

    All of them end at bound itself, whatever the rounding of the estimate.
    """
    if i == shares:
        return bound
    target = _estimate(bound) * i / shares
    return 1 + bisect.bisect_left(range(1, bound + 1), target, key=_estimate)


def is_prime(n: int) -> bool:
    """Trial division by the 12 primes to 37, then Miller-Rabin to those bases.

    Proven below psi_12 (Sorenson and Webster, Math. Comp. 86, 2017), far
    past the sieve bound's 2^63; a larger n is rejected, not guessed.
    """
    if n >= _PSI12:
        raise ValueError(f"primality is proven only below {_PSI12}, got {fraction_text(n)}")
    for b in _BASES:
        if n % b == 0:
            return n == b
    if n < 41 * 41:  # no prime factor up to 37
        return n > 1
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for b in _BASES:
        x = pow(b, (n - 1) >> s, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
    return True


def next_prime(n: int) -> int:
    """Least prime strictly greater than n."""
    if n < 2:
        return 2
    candidate = (n + 1) | 1
    while not is_prime(candidate):
        candidate += 2
    return candidate


def least_prime_past(limit: int, x: Fraction, y: Fraction, prefix: str) -> Optional[int]:
    """The least prime of (max(x, limit), y], or None if that range holds none.

    No primality is proven from psi_12 on: a range that reaches psi_12,
    with no prime below it, raises prefix followed by the clause that a
    prime cannot be ruled out.
    """
    try:
        p = next_prime(max(math.floor(x), limit))
    except ValueError:  # no prime from the start up to psi_12
        if y < _PSI12:
            return None
        raise ValueError(
            f"{prefix} cannot be ruled out in the range, as primality is proven only below "
            f"{_PSI12}"
        ) from None
    return p if p <= y else None


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
    return harmonic_sum(primes_between(*_harmonic_range(x, y)))


def _harmonic_range(x: RationalLike, y: RationalLike) -> tuple[Fraction, Fraction]:
    """The range (X, Y] of a harmonic sum as two Fractions, checked to have 1 <= X < Y."""
    x, y = to_fraction(x), to_fraction(y)
    if not 1 <= x < y:
        raise ValueError(f"need 1 <= X < Y, got X={fraction_text(x)}, Y={fraction_text(y)}")
    return x, y


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
    return math.fsum(1.0 / p for p in primes_between(*_harmonic_range(x, y)))
