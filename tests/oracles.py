"""Fraction oracles the tests check the integer code against.

Covered sets here are Fraction arcs and segment lists: the arc layer
(`arc_of`, `ArcUnion`, `normalize_union`, `complement`,
`intersect_measure`) and the greedy adapters (`greedy_step`,
`_greedy_pick`, `arcs_for`) that the library carried before every
production path moved to the integer sweep pieces of `primecover.arcs`
(`arc_pieces`, `sweep`, `union_length`) and `sequences._Cover`, plus the
earlier Fraction segment cover, greedy scan, sequence document, sieve
and level-set sweep, each kept verbatim apart from names.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Iterable, Sequence

from primecover.arcs import ONE, ZERO, Arc, RationalLike, _runs, rat_str, to_fraction
from primecover.primes import primes_between
from primecover.sequences import _Cover

F = Fraction
HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# The Fraction arc layer: arcs of half-width c/p and their normalized unions.

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


# ---------------------------------------------------------------------------
# Greedy adapters: the integer _Cover driven from Fraction arcs and segments.

def arcs_for(seq, primes: Iterable[int]) -> list:
    return [arc_of(p, seq.numerator_for(p), seq.c) for p in primes]


def _greedy_pick(segments, covered: Fraction, p: int, c: Fraction) -> tuple[int, Fraction]:
    """(a, gain) for prime p against Fraction segments [s, e] (any order) of measure covered.

    a is the pick of their _Cover of span 1; the gain is a's exact free length.
    """
    if covered == 1:
        return 0, Fraction(0)
    dens = [(s, e, math.lcm(s.denominator, e.denominator)) for s, e in segments]
    cover = _Cover(1, max((den for *_, den in dens), default=1))
    cover.add((int(s * den), int(e * den), den, None) for s, e, den in dens)
    a = cover.pick(p, c)
    return a, cover.free(p, c, a)


def greedy_step(covered: ArcUnion, p: int, c: RationalLike) -> tuple[int, Fraction]:
    """Best numerator for prime p against `covered`: (a, exact measure gain), ties to least a."""
    segments = (seg for arc in covered.arcs for seg in arc.segments())  # sorted but for a wrap
    return _greedy_pick(segments, covered.measure(), p, to_fraction(c))


# ---------------------------------------------------------------------------
# The Fraction segment cover that greedy_sequence and block_construction
# ran on before the integer _Cover, and the per-candidate scan it answered.

def _insert_segment(segs: list[list[Fraction]], s: Fraction, e: Fraction) -> Fraction:
    """Add closed [s, e] to a sorted disjoint segment list; returns measure gained."""
    lo = bisect.bisect_left(segs, [s, s])
    i = lo - 1 if lo > 0 and segs[lo - 1][1] >= s else lo
    new_s, new_e = s, e
    removed = Fraction(0)
    j = i
    while j < len(segs) and segs[j][0] <= e:
        if segs[j][0] < new_s:
            new_s = segs[j][0]
        if segs[j][1] > new_e:
            new_e = segs[j][1]
        removed += segs[j][1] - segs[j][0]
        j += 1
    segs[i:j] = [[new_s, new_e]]
    return (new_e - new_s) - removed


class _SegmentCover:
    """Covered set kept as sorted disjoint closed segments inside [0, 1].

    Wrapping arcs are stored as their two pieces; measures are unaffected
    and _greedy_pick measures the window of a = 0 at both ends of [0, 1].
    """

    def __init__(self) -> None:
        self.segments: list[list[Fraction]] = []
        self.measure = Fraction(0)

    def add_arc(self, arc) -> Fraction:
        gain = Fraction(0)
        for s, e in arc.segments():
            gain += _insert_segment(self.segments, s, e)
        self.measure += gain
        return gain


def fraction_scan_pick(segments, covered, p, c):
    """Oracle: the per-candidate Fraction overlap scan that _greedy_pick replaced.

    Kept verbatim apart from names, so the merge walk is checked against
    the code whose outputs are recorded in the benchmark digests.
    """
    radius = c / p
    full_gain = 2 * radius
    if not segments:
        return 0, full_gain
    if covered == 1:
        return 0, Fraction(0)

    scaled = [(p * s, p * e) for s, e in segments]

    blocked = bytearray(p)
    for ps, pe in scaled:
        lo_base = math.floor(ps - c) + 1
        hi_base = math.ceil(pe + c) - 1
        for k in (-1, 0, 1):
            for a in range(max(lo_base - k * p, 0), min(hi_base - k * p, p - 1) + 1):
                blocked[a] = 1
    for a in range(p):
        if not blocked[a]:
            return a, full_gain

    overlaps = [Fraction(0)] * p  # in units of 1/p
    for ps, pe in scaled:
        lo_base = math.floor(ps - c) + 1
        hi_base = math.ceil(pe + c) - 1
        for k in (-1, 0, 1):
            kp = k * p
            for a in range(max(lo_base - kp, 0), min(hi_base - kp, p - 1) + 1):
                overlap = min(pe, a + kp + c) - max(ps, a + kp - c)
                if overlap > 0:
                    overlaps[a] += overlap
    best_a = min(range(p), key=lambda a: (overlaps[a], a))
    return best_a, full_gain - overlaps[best_a] / p


# ---------------------------------------------------------------------------
# Sequence files and primes.

def sequence_to_dict(seq, schedule=None):
    """Oracle: the document the sequence file held before sequence_text, verbatim."""
    doc = {
        "c": rat_str(seq.c),
        "method": seq.method,
        "seed": seq.seed,
        "entries": [[p, a] for p, a in seq.entries],
    }
    if schedule is not None:
        doc["blocks"] = [
            [b.start, b.end, rat_str(b.epsilon), rat_str(b.achieved_uncovered)]
            for b in schedule.blocks
        ]
    return doc


@lru_cache(maxsize=None)
def full_flag_primes(bound):
    """The earlier sieve, one flag per integer from 0 to bound, kept as an oracle."""
    flags = bytearray([1]) * (bound + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(range(p * p, bound + 1, p))
    return tuple(compress(range(bound + 1), flags))


# ---------------------------------------------------------------------------
# Level sets as level_sets made them before it moved to integer numerators
# in units of 1/(p*v). Positions are sorted here as Fractions,
# independently of arcs.sweep.

def fraction_sweep(pieces):
    """(position, tags starting there, tags ending there), ascending."""
    events = {}
    for start, end, tag in pieces:
        events.setdefault(start, ([], []))[0].append(tag)
        events.setdefault(end, ([], []))[1].append(tag)
    for pos in sorted(events):
        yield (pos, *events[pos])


def fraction_level_sets(seq, x, y):
    primes = primes_between(x, y)
    arcs = arcs_for(seq, primes)
    levels = {0: F(0)}
    prev = F(0)
    count = 0
    for pos, starts, ends in fraction_sweep(
        (s, e, None) for arc in arcs for s, e in arc.segments()
    ):
        if pos > prev:
            levels[count] = levels.get(count, F(0)) + (pos - prev)
            prev = pos
        count += len(starts) - len(ends)
    if prev < 1:
        levels[count] = levels.get(count, F(0)) + (1 - prev)
    for k in range(max(levels)):
        levels.setdefault(k, F(0))
    nu = sum((2 * seq.c / p for p in primes), F(0))
    return levels, nu
