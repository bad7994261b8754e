"""Construction and persistence of numerator sequences.

A numerator sequence assigns one residue a_p in [0, p) to each prime p up
to a bound. Constructions: independent uniform residues (seeded), the
greedy rule that maximizes covered measure one prime at a time, a
constant all-zero baseline, and a block builder that certifies each
prime block's uncovered measure against a target.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat
from operator import le
from pathlib import Path
from typing import Iterable, Optional, Union

from .arcs import (
    RationalLike,
    arc_pieces,
    exact_sum,
    rat_str,
    to_fraction,
    union_length,
)
from .primes import primes_between, sieve_range

METHODS = ("random", "greedy", "blocks", "constant", "custom")

# consecutive zero-gain greedy steps that trigger the block random restart
_STALL_LIMIT = 30

# fractional bits of the greedy pick's fixed point; any value picks exactly,
# and more bits only leave fewer near-ties to confirm with Fraction
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


class _Cover:
    """The covered part of the circle [0, span] as sorted disjoint closed segments.

    Endpoints are integer pairs (num, den), ordered by the exact key
    floor(x * 2^b), b = 2B + 1 for B the bit length of max_den, as in
    arcs.sweep. span = v takes arcs.arc_pieces for c = u/v as they are.
    gaps[i] is the key length of the gap before segment i. The one segment
    [0, span] is full and adds nothing. The covered length telescopes into
    one integer per den; the key lengths bound it within n / 2^b.
    """

    def __init__(self, span: int, max_den: int) -> None:
        self.span, self.max_den, self.shift = span, max_den, 2 * max_den.bit_length() + 1
        self.top = span << self.shift  # the key of the point span
        self.skeys, self.ekeys, self.starts, self.ends, self.gaps = [], [], [], [], [self.top]
        self.totals: defaultdict[int, int] = defaultdict(int)  # den -> run ends minus starts
        self.key_length, self.full = 0, False

    def add(self, pieces: Iterable[tuple[int, int, int, object]]) -> bool:
        """Add closed pieces (start, end, den, tag); True if one added measure."""
        skeys, ekeys, starts, ends = self.skeys, self.ekeys, self.starts, self.ends
        grew = False
        for start, end, den, _ in pieces:
            ks, ke = (start << self.shift) // den, (end << self.shift) // den
            lo = bisect.bisect_left(ekeys, ks)  # first segment ending at or after start
            hi = bisect.bisect_right(skeys, ke)  # segments before hi start at or before end
            if hi == lo + 1 and skeys[lo] <= ks and ke <= ekeys[lo]:
                continue
            s, e = (start, den), (end, den)
            if lo < hi:  # equal keys are equal points, so either pair will do
                ks, s = min((ks, s), (skeys[lo], starts[lo]))
                ke, e = max((ke, e), (ekeys[hi - 1], ends[hi - 1]))
            totals = self.totals
            for (sn, sd), (en, ed) in zip(starts[lo:hi], ends[lo:hi]):
                totals[sd] += sn
                totals[ed] -= en
            totals[s[1]] -= s[0]
            totals[e[1]] += e[0]
            self.key_length += ke - ks - sum(ekeys[lo:hi]) + sum(skeys[lo:hi])
            skeys[lo:hi], ekeys[lo:hi], starts[lo:hi], ends[lo:hi] = [ks], [ke], [s], [e]
            after = skeys[lo + 1] if lo + 1 < len(skeys) else self.top
            self.gaps[lo : hi + 1] = [ks - (ekeys[lo - 1] if lo else 0), after - ke]
            self.full, grew = ks == 0 and ke == self.top, True
        return grew

    @property
    def measure(self) -> Fraction:
        """Exact covered measure: one exact_sum of the per-den numerators."""
        return exact_sum((n, d) for d, n in self.totals.items() if n) / self.span

    def uncovered_within(self, eps: Fraction) -> Optional[Fraction]:
        """The exact uncovered measure if at most eps < 1, else None; summed only near eps."""
        num, den = eps.numerator, eps.denominator
        near = (self.key_length + len(self.skeys)) * den > self.span * (den - num) << self.shift
        uncovered = 1 - self.measure if near else 1
        return uncovered if uncovered <= eps else None

    def pick(self, p: int, c: Fraction) -> int:
        """Smallest a whose window holds the most uncovered (free) length.

        Window a is [a - c, a + c] in units of 1/p (a = 0 also takes
        [p - c, p]). In fixed point, x/p -> x * v * 2^K (c = u/v, K =
        _FIXED_BITS; span divides v), it is [aU - W, aU + W] with U = v * 2^K
        and W = u * 2^K; a gap [e, s] rounds inward to [ceil(e*pU), floor(s*pU)].

        1. Gap walk. For an integer N, x <= N iff ceil(x) <= N and N <= x iff
           N <= floor(x), so the rounded gaps decide exactly whether a window
           fits in a gap; the first gap holding one gives the smallest a of
           full gain. Gaps shorter in key length than a window are skipped.
        2. Sparse estimate. Otherwise every gap is shorter than 2W + U and
           meets at most four windows: free'(a), the rounded free length, is
           summed for those, and every other window has free' = 0.
        3. Exact confirmation. Rounding loses under one unit at each end of at
           most n gaps, so free(a) - free'(a) lies in [0, 2n), and a best a
           has free'(a) > max(free') - 2n (any a, if that is below 0). A lone
           candidate wins; several are measured exactly (free), ties to the
           smallest a. No float is involved. A step costs O(gaps walked +
           windows meeting a gap), not O(p).
        """
        n = len(self.skeys)
        if self.full or not n:
            return 0
        u, v = c.numerator, c.denominator
        unit, half = v << _FIXED_BITS, u << _FIXED_BITS
        scale, starts, ends = p * unit, self.starts, self.ends  # scale: the point 1
        mult = scale // self.span

        # 1. gap walk; the window of a = 0 straddles the gap that wraps through 0
        (sn, sd), (en, ed) = starts[0], ends[-1]
        if half <= sn * mult // sd and -(-en * mult // ed) <= scale - half:
            return 0
        need = (2 * u * self.span << self.shift) // (p * v)  # no shorter gap holds a window
        for i in compress(range(n + 1), map(le, repeat(need), self.gaps)):
            lo = -(-ends[i - 1][0] * mult // ends[i - 1][1]) if i else 0
            hi = starts[i][0] * mult // starts[i][1] if i < n else scale
            a = -(-(lo + half) // unit)
            if a * unit + half <= hi:
                return a

        # 2. sparse estimate; window p is the window of a = 0 seen from the far end
        est: defaultdict[int, int] = defaultdict(int)  # free'(a)
        lows = [0, *(-(-num * mult // den) for num, den in ends)]
        for lo, hi in zip(lows, [*(num * mult // den for num, den in starts), scale]):
            for a in range((lo - half) // unit + 1, (hi + half - 1) // unit + 1) if lo < hi else ():
                est[a % p] += min(hi, a * unit + half) - max(lo, a * unit - half)

        # 3. exact confirmation of every a within the error bound of the best
        cutoff = max(est.values(), default=0) - 2 * n
        candidates = range(p) if cutoff < 0 else [a for a, f in est.items() if f > cutoff]
        if len(candidates) == 1:
            return candidates[0]
        return min(candidates, key=lambda a: (-self.free(p, c, a), a))

    def free(self, p: int, c: Fraction, a: int) -> Fraction:
        """Exact uncovered measure inside the window of a/p, from the gaps the keys find."""
        u, v, span, shift, n = c.numerator, c.denominator, self.span, self.shift, len(self.skeys)
        total = Fraction(0)
        for b in (a, p) if a == 0 else (a,):
            left, right = Fraction(span * (b * v - u), p * v), Fraction(span * (b * v + u), p * v)
            first = bisect.bisect_left(self.skeys, (left.numerator << shift) // left.denominator)
            last = bisect.bisect_right(self.ekeys, (right.numerator << shift) // right.denominator)
            for i in range(first, min(last, n) + 1):
                lo = Fraction(*self.ends[i - 1]) if i else 0
                hi = Fraction(*self.starts[i]) if i < n else span
                total += max(0, min(hi, right) - max(lo, left))
        return total / span


def greedy_sequence(bound: int, c: RationalLike) -> NumeratorSequence:
    """For each prime in increasing order pick a_p maximizing covered measure."""
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    c = to_fraction(c)
    if not (0 < c <= Fraction(1, 2)):
        raise ValueError(f"c must lie in (0, 1/2], got {c}")
    cover = _Cover(c.denominator, bound)
    entries = []
    for p in sieve_range(bound).primes:
        a = cover.pick(p, c)
        entries.append((p, a))
        cover.add(arc_pieces(((p, a),), c))
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
    idx, x_start = 0, 1
    all_entries: list[tuple[int, int]] = []
    blocks: list[Block] = []

    for n, eps in enumerate(eps_list, start=1):
        cover = _Cover(c.denominator, max_bound)
        block_entries: list[tuple[int, int]] = []
        stall, restarted = 0, False
        while True:
            if (achieved := cover.uncovered_within(eps)) is not None:  # never for an empty cover
                end = block_entries[-1][0]
                blocks.append(Block(x_start, end, eps, achieved))
                all_entries.extend(block_entries)
                x_start = end
                break
            if idx >= len(primes):
                raise BudgetExhaustedError(
                    f"budget exhausted at block {n}: primes up to {max_bound} leave "
                    f"{_fraction_text(1 - cover.measure)} uncovered, target {_fraction_text(eps)}"
                )
            p = primes[idx]
            idx += 1
            a = cover.pick(p, c)
            block_entries.append((p, a))
            stall = 0 if cover.add(arc_pieces(((p, a),), c)) else stall + 1
            if stall >= _STALL_LIMIT and not restarted:
                stall, restarted = 0, True
                block_entries, cover = _redraw_block(block_entries, cover, c, restart_seed, n)

    seq = NumeratorSequence(c=c, entries=tuple(all_entries), method="blocks", seed=restart_seed)
    return seq, BlockSchedule(tuple(blocks))


def _redraw_block(block_entries, cover: _Cover, c, seed, block_index):
    """Seeded random restart: keep the redraw only if it covers more."""
    rng = random.Random(f"{seed}:{block_index}")
    redraw = [(p, rng.randrange(p)) for p, _ in block_entries]
    redraw_cover = _Cover(cover.span, cover.max_den)
    redraw_cover.add(arc_pieces(redraw, c))
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
    schema checks run at C speed (map and set over the parsed lists).

    The cyclic garbage collector is paused while the file is parsed and
    checked: the ~160k lists and tuples made here form no cycles, yet
    their allocations would set off some 220 collector passes that free
    nothing. Refcounting still frees everything, and the collector is
    left as it was found. A 78k-entry file (primes to 1e6) loads in about
    0.07 s, half of it json.loads, against 0.12 s with the collector on
    (2-core VM, Python 3.11.7).
    """
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
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
    finally:
        if gc_enabled:
            gc.enable()


def load_schedule(path: Union[str, Path]) -> Optional[BlockSchedule]:
    return schedule_from_dict(json.loads(Path(path).read_text()))
