import gc
import json
import math
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _greedy_pick,
    _insert_segment,
    _SegmentCover,
    arc_of,
    every_prime_greedy,
    fraction_scan_pick,
    greedy_step,
    measure,
    normalize_union,
    sequence_to_dict,
)
from primecover.arcs import arc_pieces, rat_str
from primecover.hits import fractional_classes, hit_classes, rational_point
from primecover.primes import iter_primes, sieve_range
from primecover.sequences import (
    METHODS,
    Block,
    BlockSchedule,
    BudgetExhaustedError,
    NumeratorSequence,
    SequenceFileError,
    _Cover,
    block_construction,
    constant_sequence,
    greedy_sequence,
    load_sequence,
    random_sequence,
    save_sequence,
    sequence_text,
    uncovered_measure,
    uniform_numerators,
)

F = Fraction
HALF = F(1, 2)


def replay_greedy_gains(seq):
    """Replay a sequence prime by prime, returning exact per-step gains."""
    covered = normalize_union([])
    gains = []
    for p, a in seq.entries:
        before = measure(covered)
        covered = normalize_union(covered.arcs + (arc_of(p, a, seq.c),))
        gains.append(measure(covered) - before)
    return gains


def exhaustive_best(covered, p, c):
    """Oracle: recompute every candidate's gain from scratch."""
    base = measure(covered)
    gains = [
        measure(normalize_union(covered.arcs + (arc_of(p, a, c),))) - base
        for a in range(p)
    ]
    best = max(gains)
    return gains.index(best), best


def cover_of_gaps(gaps):
    """Sorted segments covering [0, 1] except the given open gaps (mod 1)."""
    segments = [[F(0), F(1)]]
    for start, length in gaps:
        pieces = [(start, start + length)] if start + length <= 1 else [
            (start, F(1)), (F(0), start + length - 1)
        ]
        for lo, hi in pieces:
            segments = [
                [s, e] for seg in segments
                for s, e in ((seg[0], min(seg[1], lo)), (max(seg[0], hi), seg[1]))
                if s < e
            ]
    return sorted(segments)


def farey_pair(x, denominator):
    """Fractions h/b < k/d with k*b - h*d = 1, b = denominator, d in (b/2, 3b/2), h/b near x."""
    b = denominator
    h = round(x * b)
    while math.gcd(h, b) != 1:
        h += 1
    d = -pow(h, -1, b) % b  # h*d = -1 (mod b)
    if d < b // 2:
        d += b  # keeps h*d = -1 (mod b) and puts d near b too
    return F(h, b), F((h * d + 1) // b, d)


class TestRandomSequence:
    def test_support(self):
        for seed in range(6):
            seq = random_sequence(2, HALF, seed)
            assert len(seq.entries) == 1
            p, a = seq.entries[0]
            assert p == 2 and a in (0, 1)

    def test_deterministic(self):
        assert random_sequence(500, F(1, 4), 42) == random_sequence(500, F(1, 4), 42)

    def test_seed_changes_output(self):
        assert random_sequence(500, F(1, 4), 1) != random_sequence(500, F(1, 4), 2)

    def test_law_of_large_numbers(self):
        seq = random_sequence(10**4, HALF, seed=5)
        frac_below_half = sum(1 for p, a in seq.entries if a < p / 2) / len(seq.entries)
        assert abs(frac_below_half - 0.5) <= 0.02

    @given(
        st.lists(
            st.one_of(
                st.just(2),
                st.integers(1, 70).flatmap(lambda k: st.sampled_from([2**k - 1, 2**k + 1])),
                st.integers(2**32 + 1, 2**80),
                st.integers(2, 10**6),
            ),
            max_size=30,
        ),
        st.integers(0, 2**64),
    )
    def test_draws_are_the_randrange_stream(self, bounds, seed):
        # 2^k + 1 rejects almost half of its draws, 2^k - 1 almost none
        rng, ours = random.Random(seed), random.Random(seed)
        expected = [(p, rng.randrange(p)) for p in bounds]
        assert uniform_numerators(ours, bounds) == expected
        assert ours.getstate() == rng.getstate()  # the same number of draws


# c is checked before the bound is sieved: bound 1 would fail the sieve
@pytest.mark.parametrize("build", [
    lambda c: random_sequence(1, c, 7),
    lambda c: constant_sequence(1, c),
], ids=["random_sequence", "constant_sequence"])
@pytest.mark.parametrize("c", [F(0), F(-1, 4), F(3, 4)])
def test_c_outside_range_rejected_before_sieving(build, c):
    with pytest.raises(ValueError, match="^c must lie in"):
        build(c)


# every per-prime scan leaves its bound to iter_primes, directly or through
# sieve_range; generators are consumed
SMALL_BOUND_ENTRY_POINTS = {
    "random_sequence": lambda bound: random_sequence(bound, HALF, 0),
    "constant_sequence": lambda bound: constant_sequence(bound, HALF),
    "greedy_sequence": lambda bound: greedy_sequence(bound, HALF),
    "block_construction": lambda bound: block_construction([HALF], HALF, bound),
    "sieve_range": sieve_range,
    # checked at the call, before a prime is asked for
    "iter_primes": iter_primes,
    "hit_classes": lambda bound: list(
        hit_classes(rational_point(F(1, 3)), constant_sequence(10, HALF), bound)
    ),
    "fractional_classes": lambda bound: list(
        fractional_classes(rational_point(F(1, 3)), F(1, 4), bound)
    ),
}


@pytest.mark.parametrize("name", SMALL_BOUND_ENTRY_POINTS)
@pytest.mark.parametrize("bound", [1, 0, -7])
def test_rejects_small_bound(name, bound):
    with pytest.raises(ValueError, match=f"^sieve bound must be >= 2, got {bound}$"):
        SMALL_BOUND_ENTRY_POINTS[name](bound)


class TestValidation:
    def test_numerator_range(self):
        with pytest.raises(ValueError):
            NumeratorSequence(HALF, ((2, 2),))

    def test_ascending_primes(self):
        with pytest.raises(ValueError):
            NumeratorSequence(HALF, ((3, 0), (2, 0)))

    def test_c_range(self):
        with pytest.raises(ValueError):
            NumeratorSequence(F(3, 4), ((2, 0),))

    def test_c_stored_as_fraction(self):
        seq = NumeratorSequence("1/4", ((2, 0),))
        assert seq.c == F(1, 4) and type(seq.c) is F
        assert rat_str(seq.c) == "1/4"

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            NumeratorSequence(HALF, ((2, 0),), method="magic")


class TestGreedy:
    def test_bound_two_tie_breaks_low(self):
        seq = greedy_sequence(2, F(1, 4))
        assert seq.entries == ((2, 0),)

    def test_bound_three_exhaustive(self):
        # After a_2 = 0, candidate a=0 gains nothing, a=1 and a=2 tie at 1/6.
        seq = greedy_sequence(3, F(1, 4))
        assert seq.entries == ((2, 0), (3, 1))
        covered = normalize_union([arc_of(2, 0, F(1, 4))])
        gains = [
            measure(normalize_union(covered.arcs + (arc_of(3, a, F(1, 4)),)))
            - measure(covered)
            for a in range(3)
        ]
        assert gains == [F(0), F(1, 6), F(1, 6)]

    def test_steps_match_exhaustive_oracle(self):
        c = HALF
        seq = greedy_sequence(7, c)
        covered = normalize_union([])
        for p, a in seq.entries:
            _, best_gain = exhaustive_best(covered, p, c)
            chosen = normalize_union(covered.arcs + (arc_of(p, a, c),))
            assert measure(chosen) - measure(covered) == best_gain
            # smallest numerator among the maximizers
            for smaller in range(a):
                alt = normalize_union(covered.arcs + (arc_of(p, smaller, c),))
                assert measure(alt) - measure(covered) < best_gain
            covered = chosen

    def test_gain_bounds_and_monotone_coverage(self):
        seq = greedy_sequence(50, F(1, 3))
        gains = replay_greedy_gains(seq)
        for (p, _), gain in zip(seq.entries, gains):
            assert 0 <= gain <= 2 * F(1, 3) / p

    def test_full_cover_at_seven_for_c_half(self):
        seq = greedy_sequence(7, HALF)
        assert uncovered_measure(seq, 1, 7) == 0

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            greedy_sequence(10, F(2, 3))

    @pytest.mark.parametrize("c, bound", [
        *((HALF, bound) for bound in (2, 7, 11, 10**4)),
        # the cover never fills at these c: every prime is picked
        *((c, bound) for c in (F(1, 4), F(1, 3)) for bound in (2, 7, 11, 2000)),
    ])
    def test_early_exit_matches_picking_every_prime(self, c, bound):
        assert greedy_sequence(bound, c) == every_prime_greedy(bound, c)

    @pytest.mark.parametrize("bound", [7, 11, 10**4])
    def test_no_pick_or_add_once_the_cover_is_full(self, monkeypatch, bound):
        # each call records whether the cover was already full when it began
        calls = []
        pick, add = _Cover.pick, _Cover.add

        def recording_pick(cover, p, c):
            calls.append(("pick", p, cover.full))
            return pick(cover, p, c)

        def recording_add(cover, pieces):
            calls.append(("add", None, cover.full))
            return add(cover, pieces)

        monkeypatch.setattr(_Cover, "pick", recording_pick)
        monkeypatch.setattr(_Cover, "add", recording_add)
        seq = greedy_sequence(bound, HALF)
        # full after the add of p = 7, and nothing runs after that
        assert [p for name, p, _ in calls if name == "pick"] == [2, 3, 5, 7]
        assert len(calls) == 8 and not any(full for *_, full in calls)
        assert seq.entries[4:] == tuple((p, 0) for p in sieve_range(bound)[4:])

    def test_segment_cover_matches_union_measure(self):
        rng = random.Random(17)
        for _ in range(40):
            arcs = [
                arc_of(p, rng.randrange(p), F(rng.randint(1, 8), 16))
                for p in rng.choices([2, 3, 5, 7, 11, 13, 17], k=rng.randint(1, 10))
            ]
            cover = _SegmentCover()
            for arc in arcs:
                cover.add_arc(arc)
            assert cover.measure == measure(normalize_union(arcs))

    def test_greedy_step_matches_oracle_on_random_covers(self):
        rng = random.Random(11)
        c = F(1, 3)
        for _ in range(25):
            arcs = [
                arc_of(p, rng.randrange(p), c)
                for p in rng.sample([2, 3, 5, 7, 11, 13], rng.randint(0, 4))
            ]
            covered = normalize_union(arcs)
            p = rng.choice([5, 7, 11, 13, 17])
            a, gain = greedy_step(covered, p, c)
            oracle_a, oracle_gain = exhaustive_best(covered, p, c)
            assert gain == oracle_gain
            assert a == oracle_a


SMALL_PRIMES = sieve_range(200)
ORACLE_CS = [F(1, 8), F(1, 4), F(2, 7), F(1, 3), HALF]


class TestGreedyPickOracle:
    """_greedy_pick (gap walk, fixed-point merge walk, exact confirmation) against the scan."""

    def check(self, segments, p, c):
        covered = sum((e - s for s, e in segments), F(0))
        assert _greedy_pick(segments, covered, p, c) == fraction_scan_pick(segments, covered, p, c)

    def test_random_arc_covers(self):
        rng = random.Random(3)
        for c in ORACLE_CS:
            for _ in range(40):
                cover = _SegmentCover()
                for q in rng.sample(SMALL_PRIMES, rng.randint(1, 30)):
                    cover.add_arc(arc_of(q, rng.randrange(q), c))
                self.check(cover.segments, rng.choice(SMALL_PRIMES), c)

    def test_random_rational_covers(self):
        rng = random.Random(5)
        for c in ORACLE_CS:
            for _ in range(40):
                segments = []
                for _ in range(rng.randint(1, 60)):
                    den = rng.randint(2, 10**6)
                    s = F(rng.randrange(den), den)
                    e = min(s + F(rng.randint(1, den // 8 + 1), den), F(1))
                    _insert_segment(segments, s, e)
                self.check(segments, rng.choice(SMALL_PRIMES), c)

    def test_near_ties_below_the_filter(self):
        # Windows a1 and a2 each hold one gap; the gaps' lengths are Farey
        # neighbours with denominators near 10^12, so the two overlaps
        # differ by 1/(b*d), about 10^-24, far below the merge walk's error
        # bound. Every other window is fully covered.
        rng = random.Random(7)
        for c in ORACLE_CS:
            for p in (101, 197):
                for a1, a2 in ((0, 1), (0, p - 1), (3, 4), (5, 60), (p - 2, p - 1)):
                    short, long = farey_pair(c / (2 * p), 10**12 + rng.randrange(10**6))
                    assert 0 < long - short < F(1, 10**23)
                    for g1, g2 in ((short, long), (long, short), (short, short)):
                        gaps = [((a - c / 3) / p % 1, g) for a, g in ((a1, g1), (a2, g2))]
                        self.check(cover_of_gaps(gaps), p, c)
                    # a1's window is covered 10^-30 deep at one edge; a2's is free
                    tiny = F(1, 10**30)
                    for start in ((a1 - c) / p + tiny, (a1 - c) / p):
                        gaps = [(start % 1, 2 * c / p - tiny), ((a2 - c) / p % 1, 2 * c / p)]
                        self.check(cover_of_gaps(gaps), p, c)

    def test_exact_ties_go_to_smallest_a(self):
        for c in ORACLE_CS:
            for p in (7, 53, 199):
                gap = c / (3 * p)
                for ties in ((1, p // 2, p - 1), (0, p // 3, 2 * p // 3)):
                    segments = cover_of_gaps([((a - c / 2) / p % 1, gap) for a in ties])
                    self.check(segments, p, c)
                    assert _greedy_pick(segments, 1 - 3 * gap, p, c)[0] == ties[0]
                # every residue of q: a cover symmetric under x -> -x
                for q in (3, 5, 11):
                    cover = _SegmentCover()
                    for r in range(q):
                        cover.add_arc(arc_of(q, r, c))
                    if cover.measure < 1:
                        self.check(cover.segments, p, c)

    def test_wrapping_piece_at_zero(self):
        rng = random.Random(9)
        for c in ORACLE_CS:
            for _ in range(30):
                cover = _SegmentCover()
                for q in rng.sample(SMALL_PRIMES, rng.randint(1, 20)):
                    cover.add_arc(arc_of(q, 0 if not cover.segments else rng.randrange(q), c))
                assert cover.segments[0][0] == 0 and cover.segments[-1][1] == 1
                self.check(cover.segments, rng.choice(SMALL_PRIMES), c)


def oracle_greedy(bound, c):
    """greedy_sequence's entries replayed on the oracle cover and the Fraction scan pick."""
    cover = _SegmentCover()
    entries = []
    for p in sieve_range(bound):
        a, _ = fraction_scan_pick(cover.segments, cover.measure, p, c)
        entries.append((p, a))
        cover.add_arc(arc_of(p, a, c))
    return tuple(entries)


def oracle_blocks(epsilons, c, max_bound, restart_seed=1729):
    """block_construction's loop on the oracle cover and the Fraction scan pick.

    Returns (entries, [(start, end, epsilon, achieved), ...]), or the
    budget error's message (its Fractions are short enough for str here).
    """
    primes = sieve_range(max_bound)
    idx, x_start, entries, blocks = 0, 1, [], []
    for n, eps in enumerate(epsilons, start=1):
        cover, block_entries, stall, restarted = _SegmentCover(), [], 0, False
        while True:
            uncovered = 1 - cover.measure
            if uncovered <= eps and block_entries:
                end = block_entries[-1][0]
                blocks.append((x_start, end, eps, uncovered))
                entries.extend(block_entries)
                x_start = end
                break
            if idx >= len(primes):
                return (
                    f"budget exhausted at block {n}: primes up to {max_bound} "
                    f"leave {uncovered} uncovered, target {eps}"
                )
            p = primes[idx]
            idx += 1
            a, gain = fraction_scan_pick(cover.segments, cover.measure, p, c)
            block_entries.append((p, a))
            cover.add_arc(arc_of(p, a, c))
            stall = stall + 1 if gain == 0 else 0
            if stall >= 30 and not restarted:
                restarted, stall = True, 0
                rng = random.Random(f"{restart_seed}:{n}")
                redraw = [(q, rng.randrange(q)) for q, _ in block_entries]
                redraw_cover = _SegmentCover()
                for q, r in redraw:
                    redraw_cover.add_arc(arc_of(q, r, c))
                if redraw_cover.measure > cover.measure:
                    block_entries, cover = redraw, redraw_cover
    return tuple(entries), blocks


def integer_cover_of_arcs(arcs):
    """A span-1 _Cover of Fraction arcs, each piece over the lcm of its ends' denominators."""
    pieces = []
    for arc in arcs:
        for s, e in arc.segments():
            den = math.lcm(s.denominator, e.denominator)
            pieces.append((int(s * den), int(e * den), den))
    cover = _Cover(1, max((den for _, _, den in pieces), default=1))
    cover.add(pieces)
    return cover


class TestIntegerCoverAgainstOracles:
    """greedy_sequence and block_construction on the integer cover against the Fraction replays."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 400), st.sampled_from(ORACLE_CS))
    def test_greedy_matches_oracle_replay(self, bound, c):
        assert greedy_sequence(bound, c).entries == oracle_greedy(bound, c)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.fractions(F(1, 1000), F(999, 1000), max_denominator=1000), min_size=1, max_size=4
        ),
        st.sampled_from(ORACLE_CS),
        st.integers(2, 400),
    )
    def test_blocks_match_oracle_replay(self, epsilons, c, max_bound):
        expected = oracle_blocks(epsilons, c, max_bound)
        if isinstance(expected, str):
            with pytest.raises(BudgetExhaustedError) as info:
                block_construction(epsilons, c, max_bound)
            assert str(info.value) == expected
        else:
            seq, schedule = block_construction(epsilons, c, max_bound)
            assert seq.entries == expected[0]
            assert [
                (b.start, b.end, b.epsilon, b.achieved_uncovered) for b in schedule.blocks
            ] == expected[1]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(SMALL_PRIMES[:25]),
                st.integers(0, 10**6),
                st.fractions(F(1, 10**6), HALF, max_denominator=10**6),
            ),
            max_size=30,
        ),
        st.fractions(F(1, 10**6), F(999999, 10**6), max_denominator=10**6),
    )
    def test_measure_matches_normalize_union(self, triples, eps):
        arcs = [arc_of(p, a % p, c) for p, a, c in triples]
        exact = measure(normalize_union(arcs))
        cover = integer_cover_of_arcs(arcs)
        assert cover.measure == exact
        assert cover.full == (exact == 1)
        assert cover.uncovered_within(eps) == (1 - exact if 1 - exact <= eps else None)

    def test_gap_the_size_of_a_window(self):
        # a gap exactly one window long has a key length within one of the
        # window's, so the walk's length filter must not skip it in favour
        # of a longer gap further on
        for c in ORACLE_CS:
            for p in (7, 53, 199):
                for a in (0, 1, p // 3, p // 2):
                    exact = ((a - c) / p % 1, 2 * c / p)
                    longer = ((p - 1 - c - F(1, 3)) / p, (2 * c + F(2, 3)) / p)
                    for gaps in ([exact], [exact, longer]):
                        segments = cover_of_gaps(gaps)
                        covered = 1 - sum(length for _, length in gaps)
                        assert _greedy_pick(segments, covered, p, c) == (a, 2 * c / p)
                        assert fraction_scan_pick(segments, covered, p, c) == (a, 2 * c / p)

    def test_touching_arcs_merge_and_fill(self):
        # [3/4, 5/4] and [1/4, 3/4] touch at both ends: one segment, the full circle
        cover = _Cover(2, 2)
        assert cover.add(arc_pieces([(2, 0)], HALF))
        assert cover.add(arc_pieces([(2, 1)], HALF))
        assert (cover.skeys, cover.full, cover.measure) == ([0], True, 1)
        assert not cover.add(arc_pieces([(3, 1)], HALF))
        assert cover.pick(5, HALF) == 0
        # greedy at c = 1/2 saturates at p = 7
        cover = _Cover(2, 7)
        cover.add(arc_pieces(greedy_sequence(7, HALF).entries, HALF))
        assert cover.full and cover.measure == 1

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(SMALL_PRIMES), st.integers(0, 10**6)), max_size=40),
        st.sampled_from(ORACLE_CS),
    )
    def test_arc_pieces_cover_measure(self, pairs, c):
        # the span-v form that greedy_sequence and block_construction use
        entries = [(p, a % p) for p, a in pairs]
        cover = _Cover(c.denominator, SMALL_PRIMES[-1])
        cover.add(arc_pieces(entries, c))
        assert cover.measure == measure(normalize_union(arc_of(p, a, c) for p, a in entries))


class TestUncovered:
    def test_single_prime(self):
        for a in range(3):
            seq = NumeratorSequence(HALF, ((3, a),))
            assert uncovered_measure(seq, 2, 3) == F(2, 3)

    def test_two_prime_manual_merge(self):
        seq = NumeratorSequence(HALF, ((2, 0), (3, 1)))
        assert uncovered_measure(seq, 1, 3) == F(1, 4)

    def test_empty_range(self):
        seq = NumeratorSequence(HALF, ((2, 0),))
        assert uncovered_measure(seq, 7, 10) == 1

    def test_missing_prime_rejected(self):
        seq = NumeratorSequence(HALF, ((2, 0), (5, 1)))
        with pytest.raises(ValueError):
            uncovered_measure(seq, 1, 5)


class TestConstantBaseline:
    def test_all_zero(self):
        seq = constant_sequence(30, F(1, 4))
        assert all(a == 0 for _, a in seq.entries)
        assert seq.method == "constant"
        # clustered arcs overlap heavily: far less coverage than disjoint sum
        covered = 1 - uncovered_measure(seq, 1, 30)
        disjoint_sum = sum(2 * F(1, 4) / p for p, _ in seq.entries)
        assert covered < disjoint_sum / 2


class TestBlocks:
    def test_first_block_ends_immediately_at_two(self):
        seq, schedule = block_construction([HALF], HALF, max_bound=100)
        assert schedule.blocks[0].start == 1
        assert schedule.blocks[0].end == 2
        assert schedule.blocks[0].achieved_uncovered == HALF
        assert schedule.blocks[-1].end <= 7

    def test_two_blocks_stay_small(self):
        seq, schedule = block_construction([HALF, HALF], HALF, max_bound=2000)
        assert len(schedule.blocks) == 2
        assert schedule.blocks[-1].end <= 1000
        b1, b2 = schedule.blocks
        assert b2.start == b1.end

    def test_certificates_recompute_exactly(self):
        eps = [F(1, 2), F(1, 3), F(1, 4)]
        seq, schedule = block_construction(eps, HALF, max_bound=10**4)
        for block in schedule.blocks:
            achieved = uncovered_measure(seq, block.start, block.end)
            assert achieved == block.achieved_uncovered
            assert achieved <= block.epsilon

    def test_budget_exhausted(self):
        with pytest.raises(BudgetExhaustedError, match="budget exhausted at block 1"):
            block_construction([F(1, 10**6)], F(1, 100), max_bound=100)

    def test_budget_message_at_scale(self):
        # the message the Fraction segment cover gave, recorded before the integer cover
        with pytest.raises(BudgetExhaustedError) as info:
            block_construction([HALF, F(1, 4), F(1, 8), F(1, 16)], HALF, max_bound=30000)
        assert str(info.value) == (
            "budget exhausted at block 4: primes up to 30000 leave ~5.476102e-1 (approximate; "
            "exact value has a 12640-digit numerator and a 12640-digit denominator) uncovered, "
            "target 1/16"
        )

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_budget_message_past_the_int_str_digit_limit(self):
        # arcs of half-width 10^-700/p never meet, so the uncovered measure
        # 1 - sum(2c/p) has a denominator of more than 700 digits
        c = F(1, 10**700 + 1)
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            uncovered = 1 - sum(2 * c / p for p in sieve_range(30))
            num_digits, den_digits = len(str(uncovered.numerator)), len(str(uncovered.denominator))
            sys.set_int_max_str_digits(640)
            with pytest.raises(BudgetExhaustedError) as info:
                block_construction([HALF], c, max_bound=30)
        finally:
            sys.set_int_max_str_digits(limit)
        assert den_digits > 700
        assert str(info.value) == (
            "budget exhausted at block 1: primes up to 30 leave ~9.999999e-1 (approximate; "
            f"exact value has a {num_digits}-digit numerator and a {den_digits}-digit "
            "denominator) uncovered, target 1/2"
        )

    def test_bound_far_past_the_last_block(self):
        # the walk stops at p = 673, where the last target is met, so a bound
        # of 1e8 sieves one window, not the 5.8 million primes below it
        epsilons = ["1/2", "1/4", "1/8"]
        assert block_construction(epsilons, "1/2", 10**8) == block_construction(
            epsilons, "1/2", 10**5
        )

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError):
            block_construction([F(3, 2)], HALF, max_bound=100)

    @pytest.mark.parametrize("c", [F(0), F(-1, 4), F(3, 4)])
    def test_c_outside_range_rejected_before_sieving(self, c):
        with pytest.raises(ValueError, match="c must lie in"):
            block_construction([HALF], c, max_bound=200)

    def test_blocks_consume_disjoint_prime_ranges(self):
        seq, schedule = block_construction([HALF, HALF, HALF], HALF, max_bound=10**4)
        primes_seen = [p for p, _ in seq.entries]
        assert primes_seen == sorted(primes_seen)
        covered_ranges = [(b.start, b.end) for b in schedule.blocks]
        for (s1, e1), (s2, e2) in zip(covered_ranges, covered_ranges[1:]):
            assert e1 == s2

    @pytest.mark.parametrize("epsilons", [[HALF, F(1, 4), F(1, 8), F(1, 16)], [F(1, 1000)]])
    @pytest.mark.parametrize("c", [HALF, F(49, 100), F(2, 5), F(1, 4), F(1, 10)])
    def test_every_step_gains(self, monkeypatch, epsilons, c):
        # no step is flat (see block_construction), so the stall redraw never runs
        grew = []
        add = _Cover.add

        def recording_add(cover, pieces):
            grew.append(add(cover, pieces))
            return grew[-1]

        monkeypatch.setattr(_Cover, "add", recording_add)
        try:
            block_construction(epsilons, c, max_bound=5000)
        except BudgetExhaustedError:
            pass
        assert grew and all(grew)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            Block(1, 10, F(1, 4), F(1, 2))
        with pytest.raises(ValueError):
            BlockSchedule((Block(1, 10, HALF, F(1, 4)), Block(5, 8, HALF, F(1, 4))))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        seq = random_sequence(100, F(1, 3), seed=9)
        path = tmp_path / "seq.json"
        save_sequence(seq, path)
        assert load_sequence(path) == seq

    def test_round_trip_with_schedule(self, tmp_path):
        seq, schedule = block_construction([HALF, HALF], HALF, max_bound=2000)
        path = tmp_path / "blocks.json"
        save_sequence(seq, path, schedule)
        assert load_sequence(path) == seq

    def test_file_shape(self, tmp_path):
        import json

        seq = greedy_sequence(10, HALF)
        path = tmp_path / "g.json"
        save_sequence(seq, path)
        doc = json.loads(path.read_text())
        assert doc["c"] == "1/2"
        assert doc["method"] == "greedy"
        assert doc["seed"] is None
        assert doc["entries"][0] == [2, 0]
        assert [p for p, _ in doc["entries"]] == [2, 3, 5, 7]


def json_writer_text(seq, schedule=None):
    """Oracle: the file text the indent encoder wrote before sequence_text."""
    return json.dumps(sequence_to_dict(seq, schedule), sort_keys=True, indent=2) + "\n"


def fractions_upto(high, positive=True):
    """Fractions in (0, high], or [0, high], with denominators up to 10^40 times high's."""
    return st.integers(1, 10**40).flatmap(
        lambda den: st.integers(1 if positive else 0, den).map(lambda num: high * Fraction(num, den))
    )


@st.composite
def sequences(draw):
    primes = sorted(draw(st.lists(st.integers(2, 10**12), unique=True, max_size=25)))
    entries = tuple(
        (p, draw(st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))))
        for p in primes
    )
    return NumeratorSequence(
        c=draw(fractions_upto(HALF)),
        entries=entries,
        method=draw(st.sampled_from(METHODS)),
        seed=draw(st.one_of(st.none(), st.integers(-(2**70), 2**70))),
    )


@st.composite
def schedules(draw):
    bounds = sorted(draw(st.lists(st.integers(1, 10**12), unique=True, max_size=6)))
    blocks = []
    for start, end in zip(bounds, bounds[1:]):
        eps = draw(fractions_upto(Fraction(1)))
        blocks.append(Block(start, end, eps, draw(fractions_upto(eps, positive=False))))
    return BlockSchedule(tuple(blocks))


class TestSequenceText:
    @settings(max_examples=300, deadline=None)
    @given(sequences(), st.one_of(st.none(), schedules()))
    def test_matches_json_writer_bytes(self, seq, schedule):
        assert sequence_text(seq, schedule) == json_writer_text(seq, schedule)

    @settings(max_examples=100, deadline=None)
    @given(sequences(), st.one_of(st.none(), schedules()))
    def test_save_load_round_trip(self, seq, schedule):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "seq.json"
            save_sequence(seq, path, schedule)
            assert path.read_text() == json_writer_text(seq, schedule)
            assert load_sequence(path) == seq

    @pytest.mark.parametrize("schedule", [None, BlockSchedule(())], ids=["none", "no_blocks"])
    def test_empty_sequence(self, schedule):
        seq = NumeratorSequence(HALF, ())
        assert sequence_text(seq, schedule) == json_writer_text(seq, schedule)
        assert '"entries": [],' in sequence_text(seq, schedule)

    def test_entries_skip_the_indent_encoder(self, monkeypatch):
        # indent turns off json's C encoder; the entries must never reach the
        # Python one, which is what _make_iterencode builds
        calls = []
        real = json.encoder._make_iterencode
        monkeypatch.setattr(
            json.encoder, "_make_iterencode", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        sequence_text(random_sequence(1000, F(1, 4), 3))
        assert calls == []


class TestLoadSequenceValidation:
    # each malformed file gives one SequenceFileError (a ValueError) that
    # names the file, never a KeyError, TypeError or bare parser message
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"entries": [[2, 1]]}', '"c"'),
            ("[[2, 1], [3, 2]]", '"c"'),
            ("", "not a JSON sequence file"),
            ('{"c": 0.25, "entries": [[2, 1]]}', '"c"'),
            ('{"c": "1/4", "entries": [[2, 1, 0]]}', "pairs"),
            ('{"c": "1/4", "entries": [["2", "1"]]}', "pairs"),
            ('{"c": "1/4", "entries": [2, 3]}', "pairs"),
            ('{"c": "1/4", "entries": [[2, true]]}', "pairs"),
            ('{"c": "1/4"}', "pairs"),
            ('{"c": "x", "entries": []}', "cannot parse rational"),
            ('{"c": "3/4", "entries": []}', "c must lie in"),
            ('{"c": "1/4", "entries": [[3, 1], [2, 1]]}', "strictly ascending"),
            ('{"c": "1/4", "entries": [[3, 3]]}', "out of range"),
            ('{"c": "1/4", "entries": [], "method": "magic"}', "unknown method"),
        ],
        ids=[
            "missing_c", "top_level_list", "empty_file", "c_not_a_string",
            "triple", "string_entries", "bare_ints", "bool_entry", "missing_entries",
            "bad_c", "c_out_of_range", "descending", "numerator_range", "method",
        ],
    )
    def test_malformed_file(self, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(SequenceFileError, match=message) as info:
            load_sequence(path)
        assert isinstance(info.value, ValueError)
        assert str(info.value).startswith(f"{path}: ")

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(SequenceFileError, match="not a JSON sequence file"):
            load_sequence(path)



class TestLoadSequenceCollector:
    # load_sequence pauses the cyclic garbage collector while it parses;
    # whatever the outcome, the collector is left as it was found
    FILES = {
        "valid": '{"c": "1/4", "entries": [[2, 1], [3, 2]], "method": "custom", "seed": null}',
        "bad_json": "{",
        "undecodable": b"\xff\xfe",
        "wrong_schema": '{"entries": [[2, 1]]}',
        "bad_entries": '{"c": "1/4", "entries": [[3, 1], [2, 1]]}',
    }

    @pytest.fixture
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("name", list(FILES))
    def test_collector_state_kept(self, tmp_path, restore_collector, name, enabled):
        path = tmp_path / f"{name}.json"
        content = self.FILES[name]
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        (gc.enable if enabled else gc.disable)()
        if name == "valid":
            assert load_sequence(path).entries == ((2, 1), (3, 2))
        else:
            with pytest.raises(SequenceFileError):
                load_sequence(path)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_collector_state_kept_on_missing_file(self, tmp_path, restore_collector, enabled):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(FileNotFoundError):
            load_sequence(tmp_path / "missing.json")
        assert gc.isenabled() is enabled


class TestSequenceOrderIndependentHash:
    def test_numerator_lookup(self):
        seq = greedy_sequence(30, HALF)
        for p, a in seq.entries:
            assert seq.numerator_for(p) == a
        with pytest.raises(ValueError):
            seq.numerator_for(31)
