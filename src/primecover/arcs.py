"""Exact rational arithmetic for closed arcs on the unit circle R/Z.

Everything here is exact: `fractions.Fraction`, or integer numerators
over integer denominators; no floating point enters any measure. Arcs
may wrap past 1, and all operations treat the circle, not the interval
[0,1], as the underlying space, so an arc of half-width c/p has measure
exactly 2c/p wherever its center sits.

`sweep` is the one place where arc endpoints are ordered: unions, level
sets, the exact expectation and the Monte Carlo trials all walk its
output, so they share one order and one tie rule. It takes endpoints as
integer numerators over an integer denominator, so a caller that knows
its arcs never builds a Fraction per endpoint: the arc of a/p with
half-width c/p, c = u/v, is [a*v - u, a*v + u] in units of 1/(p*v)
(`arc_pieces`). Sums of such numerators over many denominators are
combined by `exact_sum`, a product tree with one gcd at the end, instead
of Fraction additions that take a gcd at every step.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Sequence, Union

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


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


def arc_of(p: int, a: int, c: RationalLike) -> Arc:
    """Arc of half-width c/p centered at a/p, taken on the circle.

    Its measure is exactly 2c/p for every a, including a = 0 where the
    arc wraps through the point 0.
    """
    c = to_fraction(c)
    if not (ZERO < c <= HALF):
        raise ValueError(f"c must lie in (0, 1/2], got {c}")
    if p < 2:
        raise ValueError(f"prime denominator must be >= 2, got {p}")
    if not 0 <= a < p:
        raise ValueError(f"numerator {a} out of range [0, {p})")
    left = (Fraction(a, p) - c / p) % ONE
    return Arc(left, 2 * c / p)


def arc_pieces(
    entries: Iterable[tuple[int, int]], c: Fraction
) -> Iterator[tuple[int, int, int, int]]:
    """The arcs of (p, a) pairs as sweep pieces (start, end, p, p), scaled by v.

    With c = u/v the arc of a/p is [a*v - u, a*v + u] in units of 1/(p*v).
    Scaled by v (the circle becomes [0, v]), each endpoint is that integer
    over p, and the piece is tagged with p. With 0 <= a < p and
    0 < c <= 1/2 only a = 0 reaches below 0, and no arc reaches past p*v,
    so the wrapping arc splits into [p*v - u, p*v] and [0, u]. Arguments
    are trusted; arc_of checks them.
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


@dataclass(frozen=True)
class ArcUnion:
    """Normalized disjoint union of arcs: maximal, sorted by left endpoint.

    Build instances with normalize_union; the constructor trusts its input.
    """

    arcs: tuple[Arc, ...]

    def measure(self) -> Fraction:
        return sum((a.length for a in self.arcs), ZERO)

    def contains(self, x: RationalLike) -> bool:
        x = to_fraction(x)
        return any(a.contains(x) for a in self.arcs)

    def to_pairs(self) -> list[list[str]]:
        """JSON form: list of [left, length] with rationals as "num/den"."""
        return [[rat_str(a.left), rat_str(a.length)] for a in self.arcs]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[str]]) -> "ArcUnion":
        return normalize_union(
            Arc(to_fraction(left), to_fraction(length)) for left, length in pairs
        )


EMPTY_UNION = ArcUnion(())
FULL_CIRCLE = Arc(ZERO, ONE)


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


def normalize_union(arcs: Iterable[Arc]) -> ArcUnion:
    """Merge arbitrary arcs into the maximal disjoint sorted representation.

    Touching closed arcs are merged, wrap-around at 0 is stitched, and a
    covering family collapses to the single full-circle arc. Idempotent
    and independent of input order. Each arc enters the sweep as integer
    numerators over one denominator; Fractions are built only for the
    ends of the merged runs.
    """
    pieces = []
    for arc in arcs:
        left, length = arc.left, arc.length
        den = math.lcm(left.denominator, length.denominator)
        start = left.numerator * (den // left.denominator)
        end = start + length.numerator * (den // length.denominator)
        if end <= den:
            pieces.append((start, end, den, None))
        else:
            pieces += [(start, den, den, None), (0, end - den, den, None)]
    merged = [
        (Fraction(start, start_den), Fraction(end, end_den))
        for start, start_den, end, end_den in _runs(pieces)
    ]
    if not merged:
        return EMPTY_UNION

    if len(merged) == 1 and merged[0][0] == ZERO and merged[0][1] == ONE:
        return ArcUnion((FULL_CIRCLE,))

    out = [Arc(start, end - start) for start, end in merged]
    # Stitch across 0: the first piece starting at 0 and the last ending at 1
    # are the two halves of one wrapping arc.
    if len(out) >= 2 and out[0].left == ZERO and out[-1].end == ONE:
        head, tail = out[0], out[-1]
        wrap_length = (ONE - tail.left) + head.end
        if wrap_length >= ONE:
            return ArcUnion((FULL_CIRCLE,))
        out = out[1:-1] + [Arc(tail.left, wrap_length)]
    return ArcUnion(tuple(out))


def measure(union: ArcUnion) -> Fraction:
    """Total length of a normalized union; always in [0, 1]."""
    return union.measure()


def complement(union: ArcUnion) -> ArcUnion:
    """Closure of the complement on the circle (measure-exact).

    measure(u) + measure(complement(u)) = 1 holds exactly; shared
    endpoints belong to both sides, which costs no measure.
    """
    arcs = union.arcs
    if not arcs:
        return ArcUnion((FULL_CIRCLE,))
    if union.measure() == ONE:
        return EMPTY_UNION
    gaps = []
    for i, arc in enumerate(arcs):
        if i + 1 < len(arcs):
            gap_left, gap_end = arc.end, arcs[i + 1].left
        else:
            gap_left, gap_end = arc.end, arcs[0].left + ONE
        gaps.append(Arc(gap_left % ONE, gap_end - gap_left))
    return normalize_union(gaps)


def intersect_measure(a: Arc, b: Arc) -> Fraction:
    """Exact measure of the circle intersection of two closed arcs.

    Works by comparing the unwrapped interval of `a` against the three
    integer translates of `b` that can meet it; valid because both
    lengths are at most 1.
    """
    a0, a1 = a.left, a.end
    b0, b1 = b.left, b.end
    total = ZERO
    for k in (-1, 0, 1):
        lo = max(a0, b0 + k)
        hi = min(a1, b1 + k)
        if hi > lo:
            total += hi - lo
    return total
