"""Construction and persistence of numerator sequences.

A numerator sequence assigns one residue a_p in [0, p) to each prime p up
to a bound. Constructions: independent uniform residues (seeded), the
greedy rule that maximizes covered measure one prime at a time, a
constant all-zero baseline, and a block builder that certifies each
prime block's uncovered measure against a target.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, compress, repeat
from operator import add, mul
from pathlib import Path
from typing import Iterable, Optional, Union

from .arcs import (
    ArcUnion,
    RationalLike,
    arc_of,
    arc_pieces,
    rat_str,
    to_fraction,
    union_length,
)
from .primes import primes_between, sieve_range

METHODS = ("random", "greedy", "blocks", "constant", "custom")

# consecutive zero-gain greedy steps that trigger the block random restart
_STALL_LIMIT = 30

# fractional bits of the greedy merge walk's fixed point; the exact
# confirmation keeps the pick correct for any value, and more bits only
# leave fewer candidates to confirm
_FIXED_BITS = 64


class BudgetExhaustedError(RuntimeError):
    """Raised when block construction hits its prime budget."""


class SequenceFileError(ValueError):
    """A sequence file that cannot be read as a NumeratorSequence; names the file."""


def _fraction_text(q: Fraction) -> str:
    """q >= 0 as str() gives it, or, past the int-to-str digit limit, an approximation.

    The approximation names the digit counts of the exact numerator and
    denominator and truncates q to 7 significant digits; nothing here
    converts a long int to str, so building it cannot raise.
    """
    try:
        return str(q)
    except ValueError:
        pass
    num, den = q.numerator, q.denominator
    num_digits, den_digits = _digit_count(num), _digit_count(den)
    shift = 7 - (num_digits - den_digits)  # q * 10^shift lies in (10^6, 10^8)
    mantissa = num * 10**shift // den if shift >= 0 else num // (den * 10**-shift)
    digits = str(mantissa)
    return (
        f"~{digits[0]}.{digits[1:7]}e{len(digits) - 1 - shift} (approximate; exact "
        f"value has a {num_digits}-digit numerator and a {den_digits}-digit denominator)"
    )


def _digit_count(n: int) -> int:
    """Decimal digits of n >= 1, without converting n to str."""
    # 2^(bits-1) <= n < 2^bits, so floor(bits * log10(2)) is digits - 1 or digits
    count = int(n.bit_length() * math.log10(2))
    while n >= 10**count:
        count += 1
    return count


@dataclass(frozen=True)
class NumeratorSequence:
    """One residue per prime: entries is an ascending tuple of (p, a_p)."""

    c: Fraction
    entries: tuple[tuple[int, int], ...]
    method: str = "custom"
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not (0 < self.c <= Fraction(1, 2)):
            raise ValueError(f"c must lie in (0, 1/2], got {self.c}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        prev = 1
        for p, a in self.entries:
            if p <= prev:
                raise ValueError(f"primes must be strictly ascending, saw {p} after {prev}")
            if not 0 <= a < p:
                raise ValueError(f"numerator {a} out of range for prime {p}")
            prev = p

    @cached_property
    def numerators(self) -> dict[int, int]:
        return dict(self.entries)

    def numerator_for(self, p: int) -> int:
        try:
            return self.numerators[p]
        except KeyError:
            raise ValueError(f"sequence has no entry for prime {p}") from None

    def arcs_for(self, primes: Iterable[int]) -> list:
        return [arc_of(p, self.numerator_for(p), self.c) for p in primes]


@dataclass(frozen=True)
class Block:
    """One certified block: primes in (start, end] leave at most epsilon uncovered."""

    start: int
    end: int
    epsilon: Fraction
    achieved_uncovered: Fraction

    def __post_init__(self) -> None:
        if self.achieved_uncovered > self.epsilon:
            raise ValueError(
                f"block ({self.start}, {self.end}] uncovered {self.achieved_uncovered} "
                f"exceeds target {self.epsilon}"
            )


@dataclass(frozen=True)
class BlockSchedule:
    blocks: tuple[Block, ...]

    def __post_init__(self) -> None:
        bounds = [self.blocks[0].start] if self.blocks else []
        for b in self.blocks:
            bounds.append(b.end)
        if any(x >= y for x, y in zip(bounds, bounds[1:])):
            raise ValueError("block boundaries must be strictly increasing")

    def final_bound(self) -> int:
        return self.blocks[-1].end if self.blocks else 1


def random_sequence(bound: int, c: RationalLike, seed: int) -> NumeratorSequence:
    """Independent uniform a_p in {0, ..., p-1} for each prime p <= bound.

    randrange is rejection-sampled internally, so there is no modulo bias,
    and the same seed always reproduces the same sequence.
    """
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    c = to_fraction(c)
    rng = random.Random(seed)
    entries = tuple((p, rng.randrange(p)) for p in sieve_range(bound).primes)
    return NumeratorSequence(c=c, entries=entries, method="random", seed=seed)


def constant_sequence(bound: int, c: RationalLike) -> NumeratorSequence:
    """All-zero baseline: every arc clusters around 0 (a known-bad control)."""
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    c = to_fraction(c)
    entries = tuple((p, 0) for p in sieve_range(bound).primes)
    return NumeratorSequence(c=c, entries=entries, method="constant")


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


def _greedy_pick(segments, covered: Fraction, p: int, c: Fraction) -> tuple[int, Fraction]:
    """Best (a, gain) for prime p against sorted disjoint segments of measure `covered`.

    The window of a spans [a - c, a + c] in units of 1/p, so overlap(a),
    the covered length inside it, is F(a + c) - F(a - c) with F(x) the
    covered length of [0, x/p] in those units; the window of a = 0 also
    takes [p - c, p]. The pick is the smallest a of least overlap, and
    its gain is 2c/p - overlap(a)/p, exactly.

    Positions run in fixed point: x/p maps to the integer x * v * 2^K
    (c = u/v, K = _FIXED_BITS), so window a is exactly [aU - W, aU + W]
    with U = v * 2^K and W = u * 2^K. A segment [s, e] is rounded outward
    to [floor(s * pU), ceil(e * pU)].

    1. Gap walk. A window misses the covered set exactly when it fits in
       a closed gap between segments. Against an integer bound,
       x <= N iff ceil(x) <= N and N <= x iff N <= floor(x), so the
       rounded gaps decide this exactly. Walking the gaps in order,
       the first that holds a window gives the smallest such a.
    2. Merge walk. Otherwise est(a), overlap(a) against the rounded
       segments, comes from one walk over the segments. Windows are U
       apart and at most U wide (c <= 1/2), so a segment meets windows
       partly only at its two ends and holds every window between them,
       where F(a + c) - F(a - c) is 2W. The walk adds the two ends, and
       a prefix sum over a difference array counts the windows inside.
    3. Exact confirmation. Lowering a segment's start by less than one
       unit adds less than one unit to its overlap with any window (the
       two pieces of a = 0's window included), and likewise raising its
       end, so with n segments est(a) - overlap(a) lies in [0, 2n). Every
       a of least overlap therefore has est(a) < min(est) + 2n. Those
       candidates alone are measured again with Fraction, from the
       segments bisect finds near their windows: the rounded spans
       contain the exact ones. The least exact overlap wins, ties to the
       smallest a. No float is involved anywhere.
    """
    full_gain = 2 * c / p
    if not segments:
        return 0, full_gain
    if covered == 1:
        return 0, Fraction(0)

    u, v = c.numerator, c.denominator
    unit, half = v << _FIXED_BITS, u << _FIXED_BITS
    scale = p * unit  # fixed-point image of the point 1
    starts = [s.numerator * scale // s.denominator for s, _ in segments]
    ends = [-(-e.numerator * scale // e.denominator) for _, e in segments]

    # 1. gap walk; the window of a = 0 straddles the gap that wraps through 0
    if half <= starts[0] and ends[-1] <= scale - half:
        return 0, full_gain
    for lo, hi in zip([0, *ends], [*starts, scale]):
        if hi - lo >= 2 * half:
            a = -(-(lo + half) // unit)
            if a * unit + half <= hi:
                return a, full_gain

    # 2. merge walk; index p is the window of a = 0 seen from the far end
    est = [0] * (p + 1)
    inside = [0] * (p + 1)
    for lo, hi in zip(starts, ends):
        first = (lo - half) // unit + 1  # smallest a with aU + W > lo
        last = (hi + half - 1) // unit  # largest a with aU - W < hi
        if first > last:
            continue
        est[first] += min(hi, first * unit + half) - max(lo, first * unit - half)
        if first < last:
            est[last] += min(hi, last * unit + half) - (last * unit - half)
            inside[first + 1] += 1
            inside[last] -= 1
    est = list(map(add, est, map(mul, accumulate(inside), repeat(2 * half))))
    est[0] += est.pop()

    # 3. exact confirmation of every a within the error bound of the minimum
    def exact_overlap(a: int) -> Fraction:
        total = Fraction(0)
        for b in (a, p) if a == 0 else (a,):
            left, right = (b - c) / p, (b + c) / p
            lo, hi = b * unit - half, b * unit + half
            for i in range(bisect.bisect_right(ends, lo), bisect.bisect_left(starts, hi)):
                s, e = segments[i]
                piece = min(e, right) - max(s, left)
                if piece > 0:
                    total += piece
        return total

    cutoff = min(est) + 2 * len(segments)
    overlap, a = min((exact_overlap(a), a) for a in compress(range(p), map(cutoff.__gt__, est)))
    return a, full_gain - overlap


def greedy_step(covered: ArcUnion, p: int, c: RationalLike) -> tuple[int, Fraction]:
    """Best numerator for prime p against `covered`: (a, exact measure gain).

    Ties break to the smallest a. A gap walk over the covered set finds
    the smallest a whose arc misses it (gain 2c/p, the maximum); failing
    that, one fixed-point merge walk estimates every candidate's overlap
    within a derived error bound, and the candidates near the least
    estimate are compared exactly. See _greedy_pick.
    """
    segments = sorted(piece for arc in covered.arcs for piece in arc.segments())
    return _greedy_pick(segments, covered.measure(), p, to_fraction(c))


def greedy_sequence(bound: int, c: RationalLike) -> NumeratorSequence:
    """For each prime in increasing order pick a_p maximizing covered measure."""
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    c = to_fraction(c)
    if not (0 < c <= Fraction(1, 2)):
        raise ValueError(f"c must lie in (0, 1/2], got {c}")
    cover = _SegmentCover()
    entries = []
    for p in sieve_range(bound).primes:
        a, _ = _greedy_pick(cover.segments, cover.measure, p, c)
        entries.append((p, a))
        cover.add_arc(arc_of(p, a, c))
    return NumeratorSequence(c=c, entries=tuple(entries), method="greedy")


def uncovered_measure(
    seq: NumeratorSequence, x: RationalLike, y: RationalLike
) -> Fraction:
    """Exact measure of the set missed by every arc of primes in (x, y]."""
    x, y = to_fraction(x), to_fraction(y)
    if not x < y:
        raise ValueError(f"need X < Y, got X={x}, Y={y}")
    return uncovered_by([(p, seq.numerator_for(p)) for p in primes_between(x, y)], seq.c)


def uncovered_by(entries: Iterable[tuple[int, int]], c: Fraction) -> Fraction:
    """Exact measure of the set missed by the arcs of the (p, a_p) pairs.

    With c = u/v every arc is [a*v - u, a*v + u] in units of 1/(p*v), so
    the sweep sees integers only: scaled by v, each endpoint is a
    numerator over its prime p (arc_pieces), the covered length is one
    exact sum over the primes, and the covered measure is that length
    over v. Arguments are trusted: 0 < c <= 1/2 and 0 <= a_p < p.
    """
    return 1 - union_length(arc_pieces(entries, c)) / c.denominator


def block_construction(
    epsilons: list[RationalLike],
    c: RationalLike,
    max_bound: int,
    restart_seed: int = 1729,
) -> tuple[NumeratorSequence, BlockSchedule]:
    """Greedy-within-block construction with exact coverage certificates.

    Block n consumes primes after the previous block's end, each placed
    greedily against a fresh covered set, until the block's uncovered
    measure drops to epsilon_n; the prime reaching the target becomes the
    block's end. If a block stalls (a long run of zero-gain steps, which
    cannot happen while gaps remain at c = 1/2 but can in degenerate
    configurations for smaller c), its numerators are redrawn once from a
    seeded stream and the better of the two coverings is kept.

    Raises BudgetExhaustedError when max_bound is reached before the
    current block meets its target.
    """
    c = to_fraction(c)
    eps_list = [to_fraction(e) for e in epsilons]
    if any(not (0 < e < 1) for e in eps_list):
        raise ValueError("every epsilon must lie in (0, 1)")
    if max_bound < 2:
        raise ValueError(f"max_bound must be >= 2, got {max_bound}")

    primes = sieve_range(max_bound).primes
    idx = 0
    x_start = 1
    all_entries: list[tuple[int, int]] = []
    blocks: list[Block] = []

    for n, eps in enumerate(eps_list, start=1):
        cover = _SegmentCover()
        block_entries: list[tuple[int, int]] = []
        stall = 0
        restarted = False
        while True:
            uncovered = 1 - cover.measure
            if uncovered <= eps and block_entries:
                end = block_entries[-1][0]
                blocks.append(Block(x_start, end, eps, uncovered))
                all_entries.extend(block_entries)
                x_start = end
                break
            if idx >= len(primes):
                raise BudgetExhaustedError(
                    f"budget exhausted at block {n}: primes up to {max_bound} "
                    f"leave {_fraction_text(uncovered)} uncovered, target {_fraction_text(eps)}"
                )
            p = primes[idx]
            idx += 1
            a, gain = _greedy_pick(cover.segments, cover.measure, p, c)
            block_entries.append((p, a))
            cover.add_arc(arc_of(p, a, c))
            stall = stall + 1 if gain == 0 else 0
            if stall >= _STALL_LIMIT and not restarted:
                restarted = True
                stall = 0
                block_entries, cover = _redraw_block(
                    block_entries, cover, c, restart_seed, n
                )

    seq = NumeratorSequence(
        c=c, entries=tuple(all_entries), method="blocks", seed=restart_seed
    )
    return seq, BlockSchedule(tuple(blocks))


def _redraw_block(block_entries, cover: _SegmentCover, c, seed, block_index):
    """Seeded random restart: keep the redraw only if it covers more."""
    rng = random.Random(f"{seed}:{block_index}")
    redraw = [(p, rng.randrange(p)) for p, _ in block_entries]
    redraw_cover = _SegmentCover()
    for p, a in redraw:
        redraw_cover.add_arc(arc_of(p, a, c))
    if redraw_cover.measure > cover.measure:
        return redraw, redraw_cover
    return block_entries, cover


# ---------------------------------------------------------------------------
# persistence

# one entries row as json.dumps(..., indent=2) lays out [p, a] inside the file
_ENTRY_ROW = "    [\n      %d,\n      %d\n    ]"


def schedule_rows(schedule: BlockSchedule) -> list[list]:
    """The schedule as the file stores it: [start, end, epsilon, achieved] per block."""
    return [
        [b.start, b.end, rat_str(b.epsilon), rat_str(b.achieved_uncovered)]
        for b in schedule.blocks
    ]


def sequence_text(seq: NumeratorSequence, schedule: Optional[BlockSchedule] = None) -> str:
    """The sequence file's text, the one place its layout is written.

    Byte contract: the text equals json.dumps(doc, sort_keys=True,
    indent=2) + "\n" for doc = {"c": rat_str(seq.c), "method":
    seq.method, "seed": seq.seed, "entries": [[p, a], ...]}, plus
    "blocks": schedule_rows(schedule) when a schedule is given. The keys
    are written in sorted order by hand; the scalars and the short blocks
    list go through json.dumps, and the entries rows are one C-level map
    of a %-format joined once, since indent turns off json's C encoder
    and its Python encoder would walk every pair. A 1e6-prime file
    (78,498 entries, 3.09 MB) is laid out in about 0.07 s, against 0.43 s
    through the indent encoder (2-core VM, Python 3.11.7).
    """
    rows = ",\n".join(map(_ENTRY_ROW.__mod__, seq.entries))
    entries = "[\n" + rows + "\n  ]" if rows else "[]"
    blocks = ""
    if schedule is not None:
        nested = "\n  ".join(json.dumps(schedule_rows(schedule), indent=2).split("\n"))
        blocks = f'  "blocks": {nested},\n'
    return (
        f"{{\n{blocks}"
        f'  "c": {json.dumps(rat_str(seq.c))},\n'
        f'  "entries": {entries},\n'
        f'  "method": {json.dumps(seq.method)},\n'
        f'  "seed": {json.dumps(seq.seed)}\n'
        "}\n"
    )


def schedule_from_dict(doc: dict) -> Optional[BlockSchedule]:
    if "blocks" not in doc:
        return None
    return BlockSchedule(
        tuple(
            Block(int(s), int(e), to_fraction(eps), to_fraction(ach))
            for s, e, eps, ach in doc["blocks"]
        )
    )


def save_sequence(
    seq: NumeratorSequence,
    path: Union[str, Path],
    schedule: Optional[BlockSchedule] = None,
) -> None:
    """Write sequence_text(seq, schedule) to path.

    The bytes equal json.dumps(doc, sort_keys=True, indent=2) + "\n" of
    the document sequence_text describes, so load_sequence (and any JSON
    reader) reads the file back unchanged.
    """
    Path(path).write_text(sequence_text(seq, schedule))


def load_sequence(path: Union[str, Path]) -> NumeratorSequence:
    """Read a sequence file; any malformed content raises SequenceFileError.

    The file must hold a JSON object with "c" as a "num/den" string and
    "entries" as a list of [p, a] integer pairs; NumeratorSequence then
    checks c, the method, the ascending primes and each numerator. The
    schema checks run at C speed (map and set over the parsed lists); a
    78k-entry file loads in about 0.1 s, most of it json.loads.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise SequenceFileError(f"{path}: not a JSON sequence file ({exc})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("c"), str):
        raise SequenceFileError(f'{path}: expected an object with "c" as a "num/den" string')
    raw = doc.get("entries")
    try:
        entries = tuple(map(tuple, raw)) if isinstance(raw, list) else None
    except TypeError:  # an entry that is not a list
        entries = None
    if (
        entries is None
        or not set(map(len, entries)) <= {2}
        or not set(map(type, chain.from_iterable(entries))) <= {int}
    ):
        raise SequenceFileError(f'{path}: "entries" must be a list of [p, a] integer pairs')
    try:
        return NumeratorSequence(
            c=to_fraction(doc["c"]),
            entries=entries,
            method=doc.get("method", "custom"),
            seed=doc.get("seed"),
        )
    except ValueError as exc:
        raise SequenceFileError(f"{path}: {exc}") from None


def load_schedule(path: Union[str, Path]) -> Optional[BlockSchedule]:
    return schedule_from_dict(json.loads(Path(path).read_text()))
