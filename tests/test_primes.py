import math
from bisect import bisect_right
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import full_flag_primes
from primecover import fanout
from primecover import primes as primes_module
from primecover.primes import (
    _PIECE,
    _SEGMENT,
    MERTENS,
    harmonic_H,
    harmonic_H_float,
    is_prime,
    iter_primes,
    map_prime_intervals,
    next_prime,
    prime_count,
    primes_between,
    sieve_range,
)

F = Fraction


def trial_division_primes(bound):
    out = []
    for n in range(2, bound + 1):
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


class TestPrimeCount:
    @given(st.integers(2, 10**5))
    @settings(max_examples=60, deadline=None)
    def test_matches_sieve(self, bound):
        assert prime_count(bound) == len(sieve_range(bound))

    def test_segment_edges(self):
        # bounds at the square-root piece and the first 2^18-window edges
        for bound in (2, 3, 4, 8, 9, 2**18 + 512, 2**18 + 513, 2**18 + 514):
            assert prime_count(bound) == len(sieve_range(bound))

    def test_rejects_small_bound(self):
        with pytest.raises(ValueError):
            prime_count(1)


class TestSieve:
    def test_small(self):
        assert sieve_range(10) == (2, 3, 5, 7)

    def test_edge(self):
        assert sieve_range(2) == (2,)

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            sieve_range(1)

    def test_against_trial_division(self):
        assert list(sieve_range(2000)) == trial_division_primes(2000)

    def test_pi_of_one_million(self):
        assert len(sieve_range(10**6)) == 78498

    def test_segment_boundaries(self):
        # bounds straddling the segment size must not drop or repeat primes
        for bound in (2**18 - 1, 2**18, 2**18 + 1, 2**18 + 500):
            primes = sieve_range(bound)
            assert len(primes) == len(set(primes))
            assert all(is_prime(p) for p in primes[-5:])

    @pytest.mark.parametrize("x, y", [
        (F(7, 2), F(13, 2)),  # fractional bounds
        (-5, 12),  # negative x
        (F(-9, 4), F(7, 4)),  # y < 2
        (1, F(3, 2)),  # y < 2
        (7, 29),  # x prime (excluded), y prime (included)
        (F(14, 2), F(58, 2)),  # the same primes as Fractions
        (29, 7),  # empty: x > y
        (97, 1000),  # a window reaching past 100
    ])
    def test_primes_between_matches_comparison_oracle(self, x, y):
        assert primes_between(x, y) == [p for p in sieve_range(max(int(y), 2)) if x < p <= y]

    @given(st.fractions(-30, 130, max_denominator=50), st.fractions(-30, 130, max_denominator=50))
    @settings(max_examples=200)
    def test_primes_between_against_table(self, x, y):
        assert primes_between(x, y) == [p for p in sieve_range(130) if x < p <= y]
        assert primes_between(str(x), str(y)) == primes_between(x, y)

    def test_primes_between_uses_half_open_interval(self):
        assert primes_between(3, 11) == [5, 7, 11]
        assert primes_between(F(5, 2), 3) == [3]


ORACLE_BOUND = 3 * 2 * _SEGMENT


def oracle_between(x, y):
    """Primes p with x < p <= y from the full-flag oracle (y <= ORACLE_BOUND)."""
    primes = full_flag_primes(ORACLE_BOUND)
    return list(primes[bisect_right(primes, math.floor(x)) : bisect_right(primes, math.floor(y))])


class TestOddOnlyWindows:
    # a window holds _SEGMENT flags for odd numbers, so it spans 2 * _SEGMENT
    # numbers; a full sieve's windows start at 3, a primes_between window at
    # the first odd number above x
    SPAN = 2 * _SEGMENT
    PIECE_SPAN = 2 * _PIECE  # _odd_primes reads each window in pieces of _PIECE flags
    EDGES = sorted({e + d for e in (SPAN, 3 + SPAN, 2 * SPAN, 3 + 2 * SPAN) for d in (-2, -1, 0, 1, 2)}
                   | {e + d for e in (3 + PIECE_SPAN, 3 + SPAN - PIECE_SPAN) for d in (-2, 0, 2)})

    @pytest.mark.parametrize("bound", EDGES)
    def test_bounds_at_window_edges(self, bound):
        expected = oracle_between(1, bound)
        assert sieve_range(bound) == tuple(expected)
        assert prime_count(bound) == len(expected)

    def test_small_bounds(self):
        for bound in range(2, 200):
            assert sieve_range(bound) == tuple(oracle_between(1, bound))
            assert prime_count(bound) == len(oracle_between(1, bound))

    # 727 is the least prime whose square, 528529, exceeds one window's span
    @pytest.mark.parametrize("x", [
        727**2 - 1,  # p*p is the first flag of the first window
        727**2 - 2 * _SEGMENT + 1,  # p*p is the last flag of the first window
        727**2 - 2 * _SEGMENT - 1,  # p*p is the first flag of the second window
    ])
    def test_base_prime_square_on_a_window_edge(self, x):
        y = 727**2 + 2 * _SEGMENT
        primes = primes_between(x, y)
        assert 727**2 not in primes
        assert primes == oracle_between(x, y)

    def test_full_sieve_ending_on_a_square(self):
        bound = 727**2
        assert sieve_range(bound) == tuple(oracle_between(1, bound))
        assert prime_count(bound) == len(oracle_between(1, bound))

    @given(st.fractions(-40, 2500, max_denominator=20), st.fractions(-60, 2500, max_denominator=20))
    @settings(max_examples=200, deadline=None)
    def test_primes_between_property(self, x, y):
        # fractional, negative and empty windows (y <= x, or y below 2)
        expected = [p for p in sieve_range(max(math.floor(y), 2)) if x < p <= y]
        assert primes_between(x, y) == expected

    @given(st.integers(-3, ORACLE_BOUND - 5000), st.integers(0, 5000))
    @settings(max_examples=100, deadline=None)
    def test_primes_between_short_windows_high_up(self, x, length):
        assert primes_between(x, x + length) == oracle_between(x, x + length)

    def test_primes_between_across_window_edges(self):
        for x in (0, 1, 2, 3, 4, 2 * _SEGMENT - 7, 2 * _SEGMENT):
            assert primes_between(x, ORACLE_BOUND) == oracle_between(x, ORACLE_BOUND)

    @pytest.mark.parametrize("lo", [0, 1, 2, 3, 4, 10**5, 10**5 + 1]
                             + [3 + e + d for e in (PIECE_SPAN, SPAN) for d in (-2, -1, 0, 1)])
    def test_ranges_ending_at_piece_and_window_edges(self, lo):
        # lo, odd or even, on each side of a full sieve's piece and window
        # edges; a range's windows, and so its pieces, start at the first odd
        # number above lo, and hi lies on each side of its first and second
        # piece edge, its first window edge and the piece edge after it
        first = max(lo + 1, 3) | 1
        for edge in (self.PIECE_SPAN, 2 * self.PIECE_SPAN, 2 * _SEGMENT,
                     2 * _SEGMENT + self.PIECE_SPAN):
            for hi in range(first + edge - 3, first + edge + 2):
                assert primes_between(lo, hi) == oracle_between(lo, hi)
        assert primes_between(lo, lo + 1) == oracle_between(lo, lo + 1)

    def test_short_window_near_1e9(self):
        primes = primes_between(10**9 - 10**4, 10**9)
        assert len(primes) == 475
        assert primes == [n for n in range(10**9 - 10**4 + 1, 10**9 + 1) if is_prime(n)]


@contextmanager
def cores(n):
    """fanout sees n CPUs, and every prime is worth a fork, counted ones too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fanout, "MIN_CHUNK", 1)
        mp.setattr(fanout, "cpu_count", lambda: n)
        mp.setattr(primes_module, "COUNT_WORK", 1)
        yield


def split(fn, bound, chunks):
    """map_prime_intervals over `chunks` CPUs, a prime weighing one evaluation."""
    with cores(chunks):
        return map_prime_intervals(fn, bound, 1)


def interval_and_primes(lo, hi):
    return lo, hi, primes_between(lo, hi)


class TestPrimeIntervals:
    """(1, bound] cut into intervals that each process sieves itself."""

    @given(st.integers(2, 5000), st.integers(1, 5))
    @example(100, 3)  # cut at 23, a prime
    @settings(max_examples=40, deadline=None)
    def test_intervals_join_to_the_sieve(self, bound, chunks):
        parts = split(interval_and_primes, bound, chunks)
        assert 1 <= len(parts) <= chunks
        if bound >= 30:  # from there (1, bound] has at least 5 shares
            assert len(parts) == chunks
        ends = [lo for lo, _, _ in parts] + [bound]
        assert ends[0] == 1 and [hi for _, hi, _ in parts] == ends[1:]
        assert ends == sorted(ends)
        primes = sieve_range(bound)
        assert [p for _, _, part in parts for p in part] == list(primes)
        with cores(chunks):
            # a prime at a cut is counted once
            assert prime_count(bound) == len(primes)

    def test_a_prime_at_a_cut_lands_in_one_interval(self):
        parts = split(interval_and_primes, 100, 3)
        assert [(lo, hi) for lo, hi, _ in parts] == [(1, 23), (23, 60), (60, 100)]
        assert parts[0][2][-1] == 23 and parts[1][2][0] == 29

    @pytest.mark.parametrize("chunks", [2, 3, 4])
    def test_count_split_over_the_cores(self, chunks):
        counts = split(lambda lo, hi: len(primes_between(lo, hi)), 10**5, chunks)
        assert len(counts) == chunks and sum(counts) == 9592
        # about equal shares of the primes: equal spans would put 5,133 and 4,459
        # primes in the two halves
        assert max(counts) - min(counts) < 9592 // 100
        with cores(chunks):
            assert prime_count(10**5) == 9592

    def test_two_halves_of_a_million(self):
        parts = split(interval_and_primes, 10**6, 2)
        assert [(lo, hi, len(primes)) for lo, hi, primes in parts] == [
            (1, 472898, 39454), (472898, 10**6, 39044)
        ]

    @pytest.mark.parametrize("bound", [1, 0, -7])
    def test_rejects_small_bound_before_a_fork(self, bound):
        with pytest.raises(ValueError, match=f"^sieve bound must be >= 2, got {bound}$"):
            split(lambda lo, hi: pytest.fail("an interval was mapped"), bound, 4)


class TestIterPrimes:
    """The lazy walk: the primes of sieve_range, one window at a time."""

    # 2 * _SEGMENT + 1 is the last number of the first window (test_sequences checks
    # a bound below 2 at the call)
    @pytest.mark.parametrize("bound", [2, 3, 10**4, 2 * _SEGMENT - 1, 2 * _SEGMENT + 1])
    def test_matches_sieve_range(self, bound):
        primes = tuple(iter_primes(bound))
        assert primes == sieve_range(bound) == tuple(oracle_between(1, bound))

    def test_sieves_only_what_is_taken(self):
        # base primes to 1e6, then one window of the 1.9 million to 1e12
        assert list(islice(iter_primes(10**12), 6)) == [2, 3, 5, 7, 11, 13]

    def test_takes_the_largest_bound(self):
        # 2^63 - 1 is the last bound the one check lets through (2^63 fails,
        # test_sequences); 2 comes before any window is sieved
        assert next(iter_primes(2**63 - 1)) == 2


class TestHarmonic:
    def test_direct_summation(self):
        assert harmonic_H(2, 10) == F(1, 3) + F(1, 5) + F(1, 7)
        assert harmonic_H(2, 10) == F(71, 105)

    def test_empty_range(self):
        assert harmonic_H(7, 10) == 0

    def test_single_prime(self):
        assert harmonic_H(1, 2) == F(1, 2)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            harmonic_H(10, 10)
        with pytest.raises(ValueError):
            harmonic_H(F(1, 2), 5)

    def test_rational_endpoints(self):
        # only the integer parts matter for prime membership
        assert harmonic_H(F(5, 2), F(11, 2)) == F(1, 3) + F(1, 5)

    def test_additivity(self):
        assert harmonic_H(1, 50) == harmonic_H(1, 20) + harmonic_H(20, 50)
        assert harmonic_H(2, 100) == harmonic_H(2, 37) + harmonic_H(37, 100)

    def test_mertens_sanity(self):
        y = 10**4
        approx = math.log(math.log(y)) + MERTENS
        assert abs(harmonic_H_float(1, y) - approx) < 0.05

    def test_float_matches_exact_at_desk_scale(self):
        exact = float(harmonic_H(1, 3000))
        assert harmonic_H_float(1, 3000) == pytest.approx(exact, abs=1e-12)


class TestSmallPrimeHelpers:
    def test_is_prime(self):
        assert [n for n in range(2, 30) if is_prime(n)] == trial_division_primes(29)
        assert not is_prime(1)
        assert not is_prime(0)

    def test_next_prime(self):
        assert next_prime(4) == 5
        assert next_prime(16) == 17
        assert next_prime(64) == 67
        assert next_prime(256) == 257
        assert next_prime(2) == 3

    def test_is_prime_is_the_sieve_below_one_million(self):
        primes = set(sieve_range(10**6))
        assert [n for n in range(-5, 10**6) if is_prime(n) != (n in primes)] == []

    @pytest.mark.parametrize(
        "pseudoprime, below, above",
        [
            # 151 * 21291601: a strong pseudoprime to the bases 2, 3, 5 and 7
            (3215031751, 3215031749, 3215031767),
            # psi_11, a strong pseudoprime to every base from 2 to 31; 37 catches it
            (3825123056546413051, 3825123056546412979, 3825123056546413057),
        ],
    )
    def test_strong_pseudoprimes_are_composite(self, pseudoprime, below, above):
        assert not is_prime(pseudoprime)
        assert is_prime(below) and is_prime(above)
        assert next_prime(below) == above

    def test_primality_past_psi12_is_rejected(self):
        psi12 = 318665857834031151167461
        assert not is_prime(psi12 - 1) and not is_prime(psi12 - 2)  # 2 and 3 divide them
        for n in (psi12, 10**5000):
            with pytest.raises(ValueError, match="primality is proven only below 3186658"):
                is_prime(n)

    def test_next_prime_is_the_least_prime_above(self):
        primes = sieve_range(10**4)
        for n in range(-3, primes[-1]):
            assert next_prime(n) == primes[bisect_right(primes, n)]

    def test_primes_between(self):
        assert primes_between(2, 7) == [3, 5, 7]
        assert primes_between(1, 1) == []
