"""Exact integer core for closed arcs on the unit circle R/Z.

A covered set has one representation: sweep pieces (start, end, den,
tag), the closed interval [start/den, end/den] with integer endpoints.
No floating point enters any measure, and all operations treat the
circle, not the interval [0, 1], as the underlying space, so an arc of
half-width c/p has measure exactly 2c/p wherever its center sits.

- `arc_pieces` turns (p, a_p) pairs into pieces: with c = u/v the arc
  of a/p is [a*v - u, a*v + u] in units of 1/(p*v), and the arc of 0
  splits at 0, so no Fraction is built per endpoint.
- `sweep` is the one place where endpoints are ordered: unions, level
  sets, the exact expectation and the Monte Carlo trials all walk its
  output, so they share one order and one tie rule.
- `union_length` is the exact length of a union of pieces.
- `exact_sum` adds numerators over many denominators up a product tree
  with one gcd at the end, instead of Fraction additions that take a
  gcd at every step.
- `to_fraction` parses rationals and `rat_str` prints them as "num/den".

`Arc` is a closed arc with Fraction endpoints. Only the Fraction oracles
of the tests build Arcs; it stays here because the benchmark's tracer
imports it and counts the segments that `Arc.segments` returns.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Union

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
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


def rat_str(q: Fraction) -> str:
    """Render a Fraction as "num/den" (always with the slash)."""
    return f"{q.numerator}/{q.denominator}"


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
            raise ValueError(f"arc left endpoint {self.left} outside [0, 1)")
        if not (ZERO <= self.length <= ONE):
            raise ValueError(f"arc length {self.length} outside [0, 1]")

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
) -> Iterator[tuple[int, int, int, int]]:
    """The arcs of (p, a) pairs as sweep pieces (start, end, p, p), scaled by v.

    With c = u/v the arc of a/p is [a*v - u, a*v + u] in units of 1/(p*v).
    Scaled by v (the circle becomes [0, v]), each endpoint is that integer
    over p, and the piece is tagged with p. With 0 <= a < p and
    0 < c <= 1/2 only a = 0 reaches below 0, and no arc reaches past p*v,
    so the wrapping arc splits into [p*v - u, p*v] and [0, u]. Arguments
    are trusted; the callers check them.
    """
    u, v = c.numerator, c.denominator
    for p, a in entries:
        if a:
            yield a * v - u, a * v + u, p, p
        else:
            yield p * v - u, p * v, p, p
            yield 0, u, p, p


def exact_sum(terms: Iterable[tuple[int, int]]) -> Fraction:
    """Exact sum of n/d over integer pairs (n, d) with d > 0.

    Neighbouring pairs combine as (n1*d2 + n2*d1, d1*d2) up a balanced
    product tree (Bernstein, "Fast multiplication and its applications",
    2008), so the operands of each level have about equal size, and the
    only gcd is the one the final Fraction takes. Adding Fractions one
    at a time instead takes a gcd of the growing denominator per term.
    Terms with distinct prime denominators multiply up to exactly their
    product, which is then the reduced denominator of the sum.
    """
    layer = list(terms)
    if not layer:
        return ZERO
    while len(layer) > 1:
        paired = [
            (n1 * d2 + n2 * d1, d1 * d2)
            for (n1, d1), (n2, d2) in zip(layer[0::2], layer[1::2])
        ]
        if len(layer) % 2:
            paired.append(layer[-1])
        layer = paired
    return Fraction(*layer[0])


def sweep(
    pieces: Iterable[tuple[int, int, int, object]],
) -> Iterator[tuple[int, int, list, list]]:
    """Walk the endpoints of closed pieces (start, end, den, tag) in ascending order.

    A piece is [start/den, end/den] with integers start <= end and den > 0.
    Yields (num, den, tags starting there, tags ending there) once per
    distinct position, num/den being the position as one of the pieces
    ending or starting there gave it. Endpoints are sorted by the exact
    integer key floor(x * 2^b) with b = 2B + 1, B the bit length of the
    largest den: distinct endpoints differ by at least 2^-2B, so the key
    orders them exactly and gives equal endpoints equal keys.
    """
    pieces = list(pieces)
    if not pieces:
        return
    shift = 2 * max(map(itemgetter(2), pieces)).bit_length() + 1
    events = [((start << shift) // den, start, den, True, tag) for start, _, den, tag in pieces]
    events += [((end << shift) // den, end, den, False, tag) for _, end, den, tag in pieces]
    events.sort(key=itemgetter(0))
    last = events[0][0]
    starts, ends = [], []
    for key, num, den, is_start, tag in events:
        if key != last:
            yield at_num, at_den, starts, ends
            starts, ends = [], []
            last = key
        at_num, at_den = num, den
        (starts if is_start else ends).append(tag)
    yield at_num, at_den, starts, ends


def _runs(pieces: Iterable[tuple[int, int, int, object]]) -> Iterator[tuple[int, int, int, int]]:
    """(start, start_den, end, end_den) of each maximal run of a union of closed pieces."""
    # Every endpoint of a closed piece is covered, so a run opens where the
    # count of open pieces leaves zero and closes where it returns to zero.
    count = 0
    for num, den, starts, ends in sweep(pieces):
        if not count:
            run_start = num, den
        count += len(starts) - len(ends)
        if not count:
            yield (*run_start, num, den)


def union_length(pieces: Iterable[tuple[int, int, int, object]]) -> Fraction:
    """Exact length of the union of closed pieces (start, end, den, tag).

    The length is the sum of the run ends minus the sum of the run
    starts. Those numerators are added up per denominator as integers,
    and the per-denominator totals go to one exact_sum.
    """
    totals: defaultdict[int, int] = defaultdict(int)
    for start, start_den, end, end_den in _runs(pieces):
        totals[start_den] -= start
        totals[end_den] += end
    return exact_sum((num, den) for den, num in totals.items())
