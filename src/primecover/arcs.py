"""Exact integer core for closed arcs on the unit circle R/Z.

A covered set has one representation: sweep pieces (start, end, den),
the closed interval [start/den, end/den] with integer endpoints.
No floating point enters any measure, and all operations treat the
circle, not the interval [0, 1], as the underlying space, so an arc of
half-width c/p has measure exactly 2c/p wherever its center sits.

- `arc_pieces` turns (p, a_p) pairs into pieces: with c = u/v the arc
  of a/p is [a*v - u, a*v + u] in units of 1/(p*v), and the arc of 0
  splits at 0, so no Fraction is built per endpoint.
- Endpoints are ordered by one exact integer key, floor(x * 2^b) with
  b = `key_shift(max_den)`. `sweep` sorts the endpoints into one event
  each, ends first at equal positions, for the walks of the level sets
  and the exact expectation. `union_length`, which the
  Monte Carlo trials and the coverage reports use, is one merge of the
  pieces sorted by start key: it needs the runs only, not the count
  between them. `runs_length` is the exact length of runs that are
  already disjoint.
- `tree_sum` adds numerators over many denominators up a product tree
  and takes no gcd; `exact_sum` is its one-gcd Fraction. Adding
  Fractions one at a time instead takes a gcd at every step.
- `coprime_fraction` makes a Fraction of coprime ints without the gcd
  the constructor would take, for sums whose reduced form is known.
- `to_fraction` parses rationals, `checked_c` also checks that the
  half-width constant c lies in (0, 1/2], `checked_range` that a prime
  range (X, Y] has X < Y, `check_numerator` that a_p lies in [0, p),
  and `rat_str` prints rationals as "num/den".
  `fraction_text` writes a rational into an error message; past the
  int-to-str digit limit it gives an approximation instead of raising.

`Arc` is a closed arc with Fraction endpoints. Only the Fraction oracles
of the tests build Arcs; it stays here because the benchmark's tracer
imports it and counts the segments that `Arc.segments` returns.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Union

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


def to_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or string like "3/4" / "0.25" to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational from {value!r}") from exc
    raise TypeError(f"expected rational-like value, got {type(value).__name__}")


def checked_c(value: RationalLike) -> Fraction:
    """The arc half-width constant c as a Fraction, checked to lie in (0, 1/2]."""
    c = to_fraction(value)
    if not (0 < c <= HALF):
        raise ValueError(f"c must lie in (0, 1/2], got {fraction_text(c)}")
    return c


def checked_range(x: RationalLike, y: RationalLike) -> tuple[Fraction, Fraction]:
    """The prime range (X, Y] as two Fractions, checked to have X < Y."""
    x, y = to_fraction(x), to_fraction(y)
    if not x < y:
        raise ValueError(f"need X < Y, got X={fraction_text(x)}, Y={fraction_text(y)}")
    return x, y


def check_numerator(p: int, a: int) -> None:
    """Fail unless the numerator a of prime p lies in [0, p)."""
    if not 0 <= a < p:
        raise ValueError(f"numerator {a} out of range for prime {p}")


def rat_str(q: Fraction) -> str:
    """Render a Fraction as "num/den" (always with the slash)."""
    return f"{q.numerator}/{q.denominator}"


def fraction_text(q: Fraction) -> str:
    """q as str() gives it, or, past the int-to-str digit limit, an approximation.

    The one formatter for a rational in an error message. The
    approximation names the digit counts of the exact numerator and
    denominator and truncates q to 7 significant digits; nothing here
    converts a long int to str, so building it cannot raise.
    """
    try:
        return str(q)
    except ValueError:
        pass
    num, den = abs(q.numerator), q.denominator
    num_digits, den_digits = _digit_count(num), _digit_count(den)
    shift = 7 - (num_digits - den_digits)  # |q| * 10^shift lies in (10^6, 10^8)
    mantissa = num * 10**shift // den if shift >= 0 else num // (den * 10**-shift)
    digits = str(mantissa)
    return (
        f"~{'-' if q < 0 else ''}{digits[0]}.{digits[1:7]}e{len(digits) - 1 - shift} "
        f"(approximate; exact value has a {num_digits}-digit numerator and a "
        f"{den_digits}-digit denominator)"
    )


def _digit_count(n: int) -> int:
    """Decimal digits of n >= 1, without converting n to str."""
    # 2^(bits-1) <= n < 2^bits, so floor(bits * log10(2)) is digits - 1 or digits
    count = int(n.bit_length() * math.log10(2))
    while n >= 10**count:
        count += 1
    return count


# perfbench/layers.py imports Arc and patches Arc.segments, so Arc stays here
@dataclass(frozen=True)
class Arc:
    """Closed arc {left + t mod 1 : 0 <= t <= length} with rational endpoints.

    left lies in [0, 1); length in [0, 1]. left + length may exceed 1, in
    which case the arc wraps through the point 0.
    """

    left: Fraction
    length: Fraction

    def __post_init__(self) -> None:
        if not (ZERO <= self.left < ONE):
            raise ValueError(f"arc left endpoint {fraction_text(self.left)} outside [0, 1)")
        if not (ZERO <= self.length <= ONE):
            raise ValueError(f"arc length {fraction_text(self.length)} outside [0, 1]")

    @property
    def end(self) -> Fraction:
        """Unwrapped right endpoint left + length, possibly > 1."""
        return self.left + self.length

    def wraps(self) -> bool:
        return self.end > ONE

    def contains(self, x: RationalLike) -> bool:
        """Membership of the point x mod 1; endpoints count as inside."""
        return (to_fraction(x) - self.left) % ONE <= self.length

    def segments(self) -> list[tuple[Fraction, Fraction]]:
        """Non-wrapping closed pieces of the arc inside [0, 1]."""
        if self.end <= ONE:
            return [(self.left, self.end)]
        return [(self.left, ONE), (ZERO, self.end - ONE)]


def arc_pieces(
    entries: Iterable[tuple[int, int]], c: Fraction
) -> Iterator[tuple[int, int, int]]:
    """The arcs of (p, a) pairs as sweep pieces (start, end, p), scaled by v.

    With c = u/v the arc of a/p is [a*v - u, a*v + u] in units of 1/(p*v).
    Scaled by v (the circle becomes [0, v]), each endpoint is that integer
    over p. With 0 <= a < p and 0 < c <= 1/2 only a = 0 reaches below 0,
    and no arc reaches past p*v, so the wrapping arc splits into
    [p*v - u, p*v] and [0, u]. Arguments are trusted: the callers check
    c with `checked_c` and a with `check_numerator`'s rule.
    """
    u, v = c.numerator, c.denominator
    for p, a in entries:
        if a:
            yield a * v - u, a * v + u, p
        else:
            yield p * v - u, p * v, p
            yield 0, u, p


def tree_sum(terms: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """(N, D) with N/D the exact sum of n/d over integer pairs (n, d), d > 0.

    Neighbouring pairs combine as (n1*d2 + n2*d1, d1*d2) up a balanced
    product tree (Bernstein, "Fast multiplication and its applications",
    2008), so the operands of each level have about equal size. D is the
    product of all the d's, and no gcd is taken. If the d's are distinct
    primes and no d divides its n, N/D is already reduced: for each p,
    N = n_p * (D/p) mod p, and p divides neither factor. No terms give
    (0, 1).
    """
    layer = list(terms)
    if not layer:
        return 0, 1
    while len(layer) > 1:
        paired = [
            (n1 * d2 + n2 * d1, d1 * d2)
            for (n1, d1), (n2, d2) in zip(layer[0::2], layer[1::2])
        ]
        if len(layer) % 2:
            paired.append(layer[-1])
        layer = paired
    return layer[0]


def exact_sum(terms: Iterable[tuple[int, int]]) -> Fraction:
    """Exact sum of n/d over integer pairs (n, d) with d > 0, as one reduced Fraction.

    The only gcd is the one the Fraction takes of the `tree_sum` result.
    """
    return Fraction(*tree_sum(terms))


# Fraction(n, d) takes gcd(n, d), which is quadratic in CPython and dominates
# once n and d have a million bits. Skipping it needs private API:
# `Fraction._from_coprime_ints` from Python 3.12, the `_normalize` flag before.
# The caller must know that the pair is reduced; a pair that is not makes a
# Fraction that compares unequal to its value.
if sys.version_info >= (3, 12):
    def coprime_fraction(n: int, d: int) -> Fraction:
        """n/d as a Fraction, for coprime ints n and d > 0, without a gcd."""
        return Fraction._from_coprime_ints(n, d)
else:
    def coprime_fraction(n: int, d: int) -> Fraction:
        """n/d as a Fraction, for coprime ints n and d > 0, without a gcd."""
        return Fraction(n, d, _normalize=False)


def key_shift(max_den: int) -> int:
    """The b of the exact endpoint key floor(x * 2^b) for dens up to max_den.

    b = 2B + 1, B the bit length of max_den. Distinct endpoints differ by
    at least 2^-2B, so the key orders them exactly and gives equal
    endpoints equal keys.
    """
    return 2 * max_den.bit_length() + 1


def sweep(pieces: Iterable[tuple[int, int, int]]) -> list[tuple[int, int, int, int]]:
    """The endpoints of closed pieces (start, end, den) as sorted events.

    A piece is [start/den, end/den] with integers start <= end and den > 0,
    and gives two events (key, num, den, step): (start, den) with step +1
    and (end, den) with step -1. The key is the `key_shift` key of num/den
    doubled, plus one at a start, so the events ascend by position and,
    at equal positions, every end comes before every start.
    """
    pieces = list(pieces)
    if not pieces:
        return []
    shift = key_shift(max(map(itemgetter(2), pieces)))
    events = [((start << shift) // den * 2 + 1, start, den, 1) for start, _, den in pieces]
    events += [((end << shift) // den * 2, end, den, -1) for _, end, den in pieces]
    del pieces  # the walk reads the events only; the piece tuples would add to its peak
    events.sort(key=itemgetter(0))
    return events


def runs_length(runs: Iterable[tuple[int, int, int, int]]) -> Fraction:
    """Exact total length of disjoint runs (start, start_den, end, end_den).

    The length is the sum of the run ends minus the sum of the run
    starts. Those numerators are added up per denominator as integers,
    and the per-denominator totals go to one exact_sum.
    """
    totals: defaultdict[int, int] = defaultdict(int)
    for start, start_den, end, end_den in runs:
        totals[start_den] -= start
        totals[end_den] += end
    return exact_sum((num, den) for den, num in totals.items())


def union_length(pieces: Iterable[tuple[int, int, int]]) -> Fraction:
    """Exact length of the union of closed pieces (start, end, den).

    The pieces are sorted by their `key_shift` start key, and one merge
    grows a run while the next piece starts at or before the run's end
    key: closed pieces that touch share a point, so they join one run.
    The runs then go to `runs_length`.
    """
    pieces = list(pieces)
    if not pieces:
        return ZERO
    shift = key_shift(max(map(itemgetter(2), pieces)))
    keyed = [((start << shift) // den, start, end, den) for start, end, den in pieces]
    keyed.sort(key=itemgetter(0))
    runs = []
    top = -1  # end key of the open run
    for key, start, end, den in keyed:
        end_key = (end << shift) // den
        if key > top:
            if top >= 0:
                runs.append((*run_start, *run_end))
            run_start, run_end, top = (start, den), (end, den), end_key
        elif end_key > top:
            run_end, top = (end, den), end_key
    runs.append((*run_start, *run_end))
    return runs_length(runs)
