import math
from bisect import bisect_right
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import full_flag_primes
from primecover.primes import (
    _SEGMENT,
    MERTENS,
    harmonic_H,
    harmonic_H_float,
    is_prime,
    iter_primes,
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
    EDGES = sorted({e + d for e in (SPAN, 3 + SPAN, 2 * SPAN, 3 + 2 * SPAN) for d in (-2, -1, 0, 1, 2)})

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

    def test_short_window_near_1e9(self):
        primes = primes_between(10**9 - 10**4, 10**9)
        assert len(primes) == 475
        assert primes == [n for n in range(10**9 - 10**4 + 1, 10**9 + 1) if is_prime(n)]


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

    def test_primes_between(self):
        assert primes_between(2, 7) == [3, 5, 7]
        assert primes_between(1, 1) == []
