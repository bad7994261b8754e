"""Exact rational arithmetic for closed arcs on the unit circle R/Z.

Everything here is computed with `fractions.Fraction`; no floating point
enters any measure. Arcs may wrap past 1, and all operations treat the
circle, not the interval [0,1], as the underlying space, so an arc of
half-width c/p has measure exactly 2c/p wherever its center sits.

`sweep` is the one place where arc endpoints are ordered: unions, level
sets and the exact expectation all walk its output, so they share one
order and one tie rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
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
    pieces: Iterable[tuple[Fraction, Fraction, object]],
) -> Iterator[tuple[Fraction, list, list]]:
    """Walk the endpoints of closed pieces (start, end, tag) in ascending order.

    Yields (position, tags starting there, tags ending there) once per
    distinct position. Endpoints are sorted by the exact integer key
    floor(x * 2^b) with b = 2B + 1, B the bit length of the largest
    denominator: distinct endpoints differ by more than 2^-2B, so the key
    orders them exactly and gives equal endpoints equal keys.
    """
    events = []
    for start, end, tag in pieces:
        events.append((start, True, tag))
        events.append((end, False, tag))
    if not events:
        return
    shift = 2 * max(pos.denominator for pos, _, _ in events).bit_length() + 1
    for i, (pos, is_start, tag) in enumerate(events):
        events[i] = ((pos.numerator << shift) // pos.denominator, pos, is_start, tag)
    events.sort(key=itemgetter(0))
    for _, group in groupby(events, itemgetter(0)):
        starts, ends = [], []
        for _, pos, is_start, tag in group:
            (starts if is_start else ends).append(tag)
        yield pos, starts, ends


def normalize_union(arcs: Iterable[Arc]) -> ArcUnion:
    """Merge arbitrary arcs into the maximal disjoint sorted representation.

    Touching closed arcs are merged, wrap-around at 0 is stitched, and a
    covering family collapses to the single full-circle arc. Idempotent
    and independent of input order.
    """
    # Every endpoint of a closed piece is covered, so a run opens where the
    # count of open pieces leaves zero and closes where it returns to zero.
    merged: list[tuple[Fraction, Fraction]] = []
    count = 0
    for pos, starts, ends in sweep(
        (start, end, None) for arc in arcs for start, end in arc.segments()
    ):
        if not count:
            run_start = pos
        count += len(starts) - len(ends)
        if not count:
            merged.append((run_start, pos))
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
