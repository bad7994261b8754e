"""Construction and persistence of numerator sequences.

A numerator sequence assigns one residue a_p in [0, p) to each prime p up
to a bound. Constructions: independent uniform residues (seeded), the
greedy rule that maximizes covered measure one prime at a time, a
constant all-zero baseline, and a block builder that certifies each
prime block's uncovered measure against a target.

A sequence holds its primes and numerators in one storage form, two
ascending array('q') columns, 16 bytes per entry, so every p and a_p is
an int below 2^63; `seq.entries` reads them back as a tuple of pairs
would. Every per-prime scan of a range gets its primes and their
numerators from `NumeratorSequence.scan`, which sieves no further than
the last entry and names the smallest prime the sequence lacks.

A sequence file is `sequence_text`, written in windows by `save_sequence`
and read by `load_sequence`: `_json_text` of its document, the layout of
every JSON file and report, with its rows one template, `_ROW`.
`_canonical_doc` reads a file in windows straight into the columns, and
takes a window or the frame around the entries only when writing what it
parsed gives back its bytes; `_json_doc` reads any other file through
json.loads, and a canonical one with a value of 2^63 or more, which no
column holds, for NumeratorSequence to reject. `write_atomically` is the
one writer of the package: the sequence files and the CLI's --out
reports go through it, so a file is replaced whole or left as it was.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import tempfile
from array import array
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import itemgetter, le, lt
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from .arcs import (
    RationalLike,
    arc_pieces,
    check_numerator,
    checked_c,
    checked_range,
    fraction_text,
    key_shift,
    rat_str,
    runs_length,
    to_fraction,
    union_length,
)
from .primes import iter_primes, least_prime_past, primes_between

METHODS = ("random", "greedy", "blocks", "constant", "custom")

# fixed default so undocumented runs stay reproducible; blocks files record it
DEFAULT_SEED = 1729

# fractional bits of the greedy pick's fixed point; any value picks exactly,
# and more bits only leave fewer near-ties to confirm with Fraction
_FIXED_BITS = 64


class BudgetExhaustedError(RuntimeError):
    """Raised when block construction hits its prime budget."""


class SequenceFileError(ValueError):
    """A sequence file that cannot be read as a NumeratorSequence; names the file."""


class EntryView(Sequence):
    """The (p, a_p) pairs of a sequence, read from its two ascending columns.

    To its readers it is the tuple of pairs: len, iteration, indexing,
    slices (which return tuples), == with a tuple in either direction,
    hash and repr all give what the tuple would. In a NumeratorSequence
    primes and numerators are array('q') columns.
    """

    __slots__ = ("primes", "numerators")

    def __init__(self, primes, numerators) -> None:
        self.primes, self.numerators = primes, numerators

    def __len__(self) -> int:
        return len(self.primes)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self.primes, self.numerators)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(zip(self.primes[index], self.numerators[index]))
        return self.primes[index], self.numerators[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, (EntryView, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class NumeratorSequence:
    """One residue per prime, held as two ascending array('q') columns.

    entries, given as ascending (p, a_p) pairs or as an EntryView, is
    stored as the columns of one EntryView, 16 bytes per entry; pairs are
    split into columns first, and array('q') columns handed in are kept,
    not copied. seq.entries reads back as that view, which equals and
    hashes as the tuple of pairs. Every p and a_p must be an int below
    2^63. The columns are checked at C speed, and `_first_fault` words
    the first failure only when one fails.
    """

    c: Fraction
    entries: Sequence[tuple[int, int]]
    method: str = "custom"
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", checked_c(self.c))
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        entries = self.entries
        if not isinstance(entries, EntryView):
            pairs = tuple(entries)
            if not set(map(len, pairs)) <= {2}:
                raise ValueError("entries must be (p, a_p) pairs")
            entries = EntryView(list(map(itemgetter(0), pairs)), list(map(itemgetter(1), pairs)))
        primes, numerators = entries.primes, entries.numerators
        if len(primes) != len(numerators):
            raise ValueError(f"{len(primes)} primes but {len(numerators)} numerators")
        try:  # an array('q') is kept as it is; array() raises past 64 bits or for a non-int
            primes, numerators = (
                col if isinstance(col, array) and col.typecode == "q" else array("q", col)
                for col in (primes, numerators)
            )
            ok = _columns_ok(primes, numerators)
        except (OverflowError, TypeError):
            ok = False
        if not ok:
            _first_fault(entries)
        object.__setattr__(self, "entries", EntryView(primes, numerators))

    def numerator_for(self, p: int) -> int:
        primes = self.entries.primes
        i = bisect.bisect_left(primes, p)
        if i == len(primes) or primes[i] != p:
            raise ValueError(f"sequence has no entry for prime {p}")
        return self.entries.numerators[i]

    def numerators_of(self, primes: Sequence[int]) -> Sequence[int]:
        """a_p for each p of the ascending primes, in order.

        One bisect finds the first prime, and one C-level compare checks
        that the next len(primes) entries hold exactly these primes; then
        the answer is a slice of the numerators column. The compare is
        needed: nothing checks that an entry's p is prime, so a file may
        hold an entry at a composite p, and a zip by position would then
        pair a prime with another p's numerator. Otherwise each prime is
        looked up alone, and the smallest one missing raises.
        """
        column = self.entries.primes
        lo = bisect.bisect_left(column, primes[0]) if primes else 0
        hi = lo + len(primes)
        if array("q", primes) == column[lo:hi]:
            return self.entries.numerators[lo:hi]
        return [self.numerator_for(p) for p in primes]

    def scan(self, x: Fraction, y: Fraction) -> tuple[list[int], Sequence[int]]:
        """The primes of (x, y] and numerators_of them, sieved no further than the last entry.

        Every per-prime scan of a range takes its primes and numerators
        here. numerators_of names the smallest prime missing up to the
        last entry; past it every prime is missing, so the first one in
        (x, y], if there is one, is named without sieving the rest of the
        range. Either way it raises before the caller reads a row.
        """
        last = self.entries.primes[-1] if self.entries.primes else 1
        primes = primes_between(x, min(y, last))
        numerators = self.numerators_of(primes)
        if y > last:
            missing = least_prime_past(last, x, y, (
                f"cannot scan ({fraction_text(x)}, {fraction_text(y)}]: the sequence ends at "
                f"prime {last}, and a prime it lacks"
            ))
            if missing is not None:
                self.numerator_for(missing)  # raises: no entry lies past the last
        return primes, numerators


_CHECKED = 1024  # entries per window of _columns_ok


def _columns_ok(primes: array, numerators: array) -> bool:
    """Whether 1 < p ascends strictly and 0 <= a_p < p, checked at C speed.

    The columns are read in windows of _CHECKED entries, each boxed once
    by tolist() for the three checks; the last prime of a window leads
    the next one's ascent. On the 78k entries of the primes to 1e6 this
    takes 7.3 ms, against 9.6 ms when each check boxes the entries
    again; windows of 1,024 entries are as fast as windows of 4,096 and
    hold a quarter of the ints at once (168 KiB against 672).
    """
    prev = 1
    for lo in range(0, len(primes), _CHECKED):
        ps, ns = primes[lo : lo + _CHECKED].tolist(), numerators[lo : lo + _CHECKED].tolist()
        if not (all(map(lt, chain((prev,), ps), ps)) and min(ns) >= 0 and all(map(lt, ns, ps))):
            return False
        prev = ps[-1]
    return True


def _first_fault(entries: Iterable[tuple[int, int]]) -> None:
    """Raise for the first entry that breaks the sequence's rules, in entry order."""
    prev = 1
    for i, (p, a) in enumerate(entries):
        if not (isinstance(p, int) and isinstance(a, int) and p < 1 << 63 and a < 1 << 63):
            raise ValueError(
                f"entry {i} ({_text(p)}, {_text(a)}): p and a_p must be ints below 2^63"
            )
        if p <= prev:
            raise ValueError(f"primes must be strictly ascending, saw {p} after {prev}")
        check_numerator(p, a)
        prev = p


def _text(value) -> str:
    """An entry's value in an error message: an int by fraction_text, anything else by repr."""
    return fraction_text(Fraction(value)) if isinstance(value, int) else repr(value)


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
                f"block ({self.start}, {self.end}] uncovered "
                f"{fraction_text(self.achieved_uncovered)} exceeds target "
                f"{fraction_text(self.epsilon)}"
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


def uniform_draws(rng: random.Random, primes: Iterable[int]) -> Iterator[int]:
    """One a uniform in {0, ..., p-1} for each p, drawn from rng.

    Each a is getrandbits(k) with k the bit length of p, drawn again
    while it is p or more: the rejection sampling of Random.randrange(p)
    on Python 3.10 to 3.13, so the stream, and every file made from it,
    is the same, with no modulo bias and without randrange's checks and
    calls per draw.
    """
    getrandbits = rng.getrandbits
    for p in primes:
        k = p.bit_length()
        a = getrandbits(k)
        while a >= p:
            a = getrandbits(k)
        yield a


def random_sequence(bound: int, c: RationalLike, seed: int) -> NumeratorSequence:
    """Independent uniform a_p in {0, ..., p-1} for each prime p <= bound.

    The same seed always reproduces the same sequence (`uniform_draws`).
    Both columns fill array('q') with no int object kept per entry.
    """
    c = checked_c(c)
    primes = array("q", iter_primes(bound))
    entries = EntryView(primes, array("q", uniform_draws(random.Random(seed), primes)))
    return NumeratorSequence(c=c, entries=entries, method="random", seed=seed)


def constant_sequence(bound: int, c: RationalLike) -> NumeratorSequence:
    """All-zero baseline: every arc clusters around 0 (a known-bad control)."""
    c = checked_c(c)
    primes = array("q", iter_primes(bound))
    entries = EntryView(primes, array("q", [0]) * len(primes))
    return NumeratorSequence(c=c, entries=entries, method="constant")


class _Cover:
    """The covered part of the circle [0, span] as sorted disjoint closed segments.

    Endpoints are integer pairs (num, den), ordered by the exact key
    floor(x * 2^b) with b = arcs.key_shift(max_den). span = v takes
    arcs.arc_pieces for c = u/v as they are.
    gaps[i] is the key length of the gap before segment i. The one segment
    [0, span] is full and adds nothing. The key lengths bound the covered
    length within n / 2^b; the exact measure is computed from the segment
    ends only when it is asked for.
    """

    def __init__(self, span: int, max_den: int) -> None:
        self.span, self.shift = span, key_shift(max_den)
        self.top = span << self.shift  # the key of the point span
        self.skeys, self.ekeys, self.starts, self.ends, self.gaps = [], [], [], [], [self.top]
        self.key_length, self.full = 0, False

    def add(self, pieces: Iterable[tuple[int, int, int]]) -> bool:
        """Add closed pieces (start, end, den); True if one added measure."""
        skeys, ekeys, starts, ends = self.skeys, self.ekeys, self.starts, self.ends
        grew = False
        for start, end, den in pieces:
            ks, ke = (start << self.shift) // den, (end << self.shift) // den
            lo = bisect.bisect_left(ekeys, ks)  # first segment ending at or after start
            hi = bisect.bisect_right(skeys, ke)  # segments before hi start at or before end
            if hi == lo + 1 and skeys[lo] <= ks and ke <= ekeys[lo]:
                continue
            s, e = (start, den), (end, den)
            if lo < hi:  # equal keys are equal points, so either pair will do
                ks, s = min((ks, s), (skeys[lo], starts[lo]))
                ke, e = max((ke, e), (ekeys[hi - 1], ends[hi - 1]))
            self.key_length += ke - ks - sum(ekeys[lo:hi]) + sum(skeys[lo:hi])
            skeys[lo:hi], ekeys[lo:hi], starts[lo:hi], ends[lo:hi] = [ks], [ke], [s], [e]
            after = skeys[lo + 1] if lo + 1 < len(skeys) else self.top
            self.gaps[lo : hi + 1] = [ks - (ekeys[lo - 1] if lo else 0), after - ke]
            self.full, grew = ks == 0 and ke == self.top, True
        return grew

    @property
    def measure(self) -> Fraction:
        """Exact covered measure: the segments telescope in one O(n) pass."""
        return runs_length((*s, *e) for s, e in zip(self.starts, self.ends)) / self.span

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
    """For each prime in increasing order pick a_p maximizing covered measure.

    Once the cover is full (at c = 1/2 by p = 7), every later prime takes
    a = 0 without a pick: `pick` returns 0 on a full cover, and the arc of
    a = 0 lies inside the one segment [0, span], so `add` would change
    nothing and the cover stays full. Greedy to 1e6 at c = 1/2 takes about
    0.02 s, most of it the sieve, against 0.14 s with a pick and an add
    on every prime (2-core VM, Python 3.11.7).
    """
    c = checked_c(c)
    cover = _Cover(c.denominator, bound)
    walk = iter_primes(bound)
    primes, numerators = array("q"), array("q")
    for p in walk:
        a = cover.pick(p, c)
        primes.append(p)
        numerators.append(a)
        cover.add(arc_pieces(((p, a),), c))
        if cover.full:
            break
    primes.extend(walk)
    numerators += array("q", [0]) * (len(primes) - len(numerators))
    return NumeratorSequence(c=c, entries=EntryView(primes, numerators), method="greedy")


def uncovered_measure(
    seq: NumeratorSequence, x: RationalLike, y: RationalLike
) -> Fraction:
    """Exact measure of the set missed by every arc of primes in (x, y]."""
    return uncovered_by(zip(*seq.scan(*checked_range(x, y))), seq.c)


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
) -> tuple[NumeratorSequence, BlockSchedule]:
    """Greedy-within-block construction with exact coverage certificates.

    Block n consumes primes after the previous block's end, each placed
    greedily against a fresh covered set, until the block's uncovered
    measure drops to epsilon_n; the prime reaching the target becomes the
    block's end.

    Nothing is drawn at random; the sequence records DEFAULT_SEED as its
    seed, as blocks files always have. Every step gains, so each step is
    pick, append and add. For c < 1/2 the point 1/2 stays uncovered:
    prime 2 can only be first on a fresh cover, where it takes a = 0, and
    an odd q has no centre within c/q of 1/2. The window of p centred at
    (p-1)/(2p) ends at 1/2 - (1/2 - c)/p, inside the uncovered interval
    around 1/2, whose radius is at least (1/2 - c)/q for the largest
    q < p placed. For c = 1/2 the windows of p cover the circle, so a
    flat step would need a full cover, which meets every target first.

    Raises BudgetExhaustedError when max_bound is reached before the
    current block meets its target.
    """
    c = checked_c(c)
    eps_list = [to_fraction(e) for e in epsilons]
    if any(not (0 < e < 1) for e in eps_list):
        raise ValueError("every epsilon must lie in (0, 1)")

    walk = iter_primes(max_bound)  # sieved only as far as the last block reaches
    x_start = 1
    primes, numerators = array("q"), array("q")
    blocks: list[Block] = []

    for n, eps in enumerate(eps_list, start=1):
        cover = _Cover(c.denominator, max_bound)
        while True:
            if (achieved := cover.uncovered_within(eps)) is not None:  # never for an empty cover
                end = primes[-1]
                blocks.append(Block(x_start, end, eps, achieved))
                x_start = end
                break
            p = next(walk, None)
            if p is None:
                raise BudgetExhaustedError(
                    f"budget exhausted at block {n}: primes up to {max_bound} leave "
                    f"{fraction_text(1 - cover.measure)} uncovered, target {fraction_text(eps)}"
                )
            a = cover.pick(p, c)
            primes.append(p)
            numerators.append(a)
            cover.add(arc_pieces(((p, a),), c))

    entries = EntryView(primes, numerators)
    seq = NumeratorSequence(c=c, entries=entries, method="blocks", seed=DEFAULT_SEED)
    return seq, BlockSchedule(tuple(blocks))


# ---------------------------------------------------------------------------
# persistence

def _json_text(doc) -> str:
    """The text of every JSON file and report: sorted keys, indent 2, a final newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# one entries row as _json_text lays out [p, a] inside the file, led by the
# ",\n" after the row before it (the first row's "," is the list's "["); the
# rows stand between _KEY and _BLOCK_END. Written and read by this one template.
_ROW = ",\n    [\n      %d,\n      %d\n    ]"
_KEY = '\n  "entries": '
_BLOCK_END = "\n  ]"  # after the last row; no row holds it

_WINDOW = 4096  # entries per piece of the file's text


def _frame(seq: NumeratorSequence, schedule: Optional[BlockSchedule]) -> dict:
    """Every key of the sequence file but "entries".

    "blocks", given a schedule, holds [start, end, epsilon, achieved] per block.
    """
    doc = {"c": rat_str(seq.c), "method": seq.method, "seed": seq.seed}
    if schedule is not None:
        doc["blocks"] = [
            [b.start, b.end, rat_str(b.epsilon), rat_str(b.achieved_uncovered)]
            for b in schedule.blocks
        ]
    return doc


def _sequence_pieces(seq: NumeratorSequence, schedule: Optional[BlockSchedule]) -> Iterator[str]:
    """sequence_text as pieces; head and tail are made at the call, before any file opens."""
    head, tail = _json_text({**_frame(seq, schedule), "entries": []}).split(_KEY + "[]")
    return chain((head + _KEY,), _entry_pieces(seq.entries.primes, seq.entries.numerators), (tail,))


def _entry_pieces(primes, numerators) -> Iterator[str]:
    """The entries value; each window interleaves its columns for one %-format of _ROW."""
    for lo in range(0, len(primes), _WINDOW):
        window = primes[lo : lo + _WINDOW]
        flat = [0] * (2 * len(window))
        flat[::2], flat[1::2] = window, numerators[lo : lo + _WINDOW]
        text = _ROW * len(window) % tuple(flat)
        yield text if lo else "[" + text[1:]
    yield _BLOCK_END if primes else "[]"


def sequence_text(seq: NumeratorSequence, schedule: Optional[BlockSchedule] = None) -> str:
    """The sequence file's text; its layout is written in `_ROW` and `_sequence_pieces`.

    Byte contract: `_json_text(doc)` for doc = {**_frame(seq, schedule),
    "entries": [[p, a], ...]}.
    The text around the entries is `_json_text` of doc with "entries" as
    [], cut at that value (`_sequence_pieces`), and each window of 4,096
    entries is one %-format of `_ROW` repeated: indent turns off json's C
    encoder, and its Python encoder would walk every pair.
    """
    return "".join(_sequence_pieces(seq, schedule))


def write_atomically(path: Union[str, Path], pieces: Iterable[str]) -> None:
    """Write the text pieces to path all at once or not at all; every file is written here.

    The pieces go to a temporary file in the target's directory, which
    then replaces the target by one rename, so a failed write (or piece)
    leaves neither a partial file nor a truncated old one. The file gets the
    mode a plain open would give a new file (0o666 less the umask). A
    failure raises OSError("cannot write {path}: {reason}").
    """
    target = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.writelines(pieces)
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None


def save_sequence(
    seq: NumeratorSequence,
    path: Union[str, Path],
    schedule: Optional[BlockSchedule] = None,
) -> None:
    """Write sequence_text(seq, schedule) to path through write_atomically, in pieces.

    The bytes equal `_json_text` of the document sequence_text describes,
    so load_sequence (and any JSON reader) reads the file back unchanged.
    The CLI builds and writes the 1e7 random file (27.5 MB) at 32.8 MiB
    peak RSS, 171.1 as one string.
    """
    write_atomically(path, _sequence_pieces(seq, schedule))


_READ = 1 << 16  # bytes read at a time
_ROW_BYTES = _ROW.encode()  # a bytes template: % on bytes, not % then encode
_ROW_END = _ROW_BYTES.split(b"%d")[-1]  # a row's text after its a; windows are cut after it


def _window_rows(window: bytes, primes: array, numerators: array) -> bool:
    """Append the window's rows to the columns; False if it is not in the exact layout.

    The numbers are read by one json.loads of the digits and commas left
    once ' \n[]' are deleted, and the window is taken only when writing
    them again, `_ROW_BYTES` n times filled with them, gives back its
    bytes: the rule the frame is held to as well. A value %d does not
    write back, such as 1e3, -0 or a leading zero, fails it; one %d
    cannot take (null, a string) raises TypeError, and a count that is
    not 2n does too. A negative value does write back, and
    NumeratorSequence rejects it as the json path would.
    """
    try:
        flat = json.loads(b"[" + window.translate(None, b" \n[]")[1:] + b"]")
        if _ROW_BYTES * (len(flat) // 2) % tuple(flat) != window:
            return False
    except (ValueError, TypeError):  # no rows, such as a later key's text, or no ints
        return False
    primes.fromlist(flat[::2])  # OverflowError past 64 bits: _canonical_doc gives None
    numerators.fromlist(flat[1::2])
    return True


def _canonical_doc(path: Union[str, Path]) -> Optional[dict]:
    """The document of a file that writing what was parsed gives back byte for byte; else None.

    The one rule holds for each part. The entries block is read _READ
    bytes at a time, cut after its last whole row, into two array('q')
    columns (`_window_rows`: a window must be `_ROW` filled with its own
    numbers), so neither the file's bytes nor an int object per number is
    held at once. A window that runs past the block into a later key's
    nested list, which ends as a row does, fails as rows, and the file
    goes to `_json_doc`; save_sequence writes no such key. The frame, the
    text before and after the block, is parsed by json.loads with
    "entries" as [], and must equal `_json_text` of the document it
    parsed: json.dumps' layout of the file's own keys. That full match
    also rules out a key written twice. None sends the file to
    `_json_doc`, which words every failure.
    """
    key, block_end = _KEY.encode(), _BLOCK_END.encode()
    primes, numerators = array("q"), array("q")
    try:
        with open(path, "rb") as handle:
            data = bytearray()
            while (cut := data.find(key, max(0, len(data) - _READ - len(key)))) < 0:
                chunk = handle.read(_READ)
                if not chunk:
                    return None
                data += chunk
            cut += len(key)
            head, rest = bytes(data[:cut]), bytes(data[cut:]) + handle.read(2)
            if rest.startswith(b"[]"):
                tail = rest[2:] + handle.read()
            elif rest.startswith(b"[\n"):
                pending = b"," + rest[1:]  # the first row as the others: after ",\n"
                while True:
                    end = pending.rfind(_ROW_END) + len(_ROW_END)
                    if end >= len(_ROW_END):
                        if not _window_rows(pending[:end], primes, numerators):
                            return None
                        pending = pending[end:]
                    chunk = handle.read(_READ)
                    if not chunk:
                        break
                    pending += chunk
                if not pending.startswith(block_end):
                    return None
                tail = pending[len(block_end):]
            else:
                return None
        doc = json.loads(frame := head + b"[]" + tail)
        canonical = frame == _json_text(doc).encode()  # 3.12 loads nests deeper than dumps
    except (OSError, ValueError, OverflowError, RecursionError):
        return None
    if not canonical or not isinstance(doc, dict) or not isinstance(doc.get("c"), str):
        return None
    doc["entries"] = EntryView(primes, numerators)
    return doc


def _json_doc(path: Union[str, Path]) -> dict:
    """The document of any sequence file, through json.loads; a malformed one raises.

    The schema checks run at C speed (map and set over the parsed lists),
    and NumeratorSequence splits the [p, a] lists into its array('q')
    columns and checks them at C speed too. The program writes every file
    in the layout `_canonical_doc` reads, so this path serves hand-written
    files.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise SequenceFileError(f"{path}: not a JSON sequence file ({exc})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("c"), str):
        raise SequenceFileError(f'{path}: expected an object with "c" as a "num/den" string')
    raw = doc.get("entries")
    if (
        not isinstance(raw, list)
        or not set(map(type, raw)) <= {list}
        or not set(map(len, raw)) <= {2}
        or not set(map(type, chain.from_iterable(raw))) <= {int}
    ):
        raise SequenceFileError(f'{path}: "entries" must be a list of [p, a] integer pairs')
    return doc


def load_sequence(path: Union[str, Path]) -> NumeratorSequence:
    """Read a sequence file; any malformed content raises SequenceFileError.

    The file must hold a JSON object with "c" as a "num/den" string and
    "entries" as a list of [p, a] integer pairs; NumeratorSequence then
    checks c, the method, the ascending primes and each numerator.

    A file as save_sequence writes it is read by `_canonical_doc`, at 16
    bytes per entry; any other file by `_json_doc`, so every error
    message is the one json.loads' path gives. Both paths give equal
    sequences. On one CPU, a 78k-entry file (primes to 1e6) loads in
    about 0.040 s at +2.0 MiB of peak RSS, and the 665k entries of primes
    to 1e7 in about 0.31 s at +11.0 MiB, little more than their columns;
    json.loads of the same 665k entries peaks at +133 MiB (2-core VM,
    Python 3.11.7).
    """
    doc = _canonical_doc(path) or _json_doc(path)
    try:
        return NumeratorSequence(
            c=to_fraction(doc["c"]),
            entries=doc["entries"],
            method=doc.get("method", "custom"),
            seed=doc.get("seed"),
        )
    except ValueError as exc:
        raise SequenceFileError(f"{path}: {exc}") from None
