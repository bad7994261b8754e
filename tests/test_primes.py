import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primecover.primes import (
    MERTENS,
    harmonic_H,
    harmonic_H_float,
    is_prime,
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
        assert prime_count(bound) == sieve_range(bound).count()

    def test_segment_edges(self):
        # bounds at the square-root piece and the first 2^18-window edges
        for bound in (2, 3, 4, 8, 9, 2**18 + 512, 2**18 + 513, 2**18 + 514):
            assert prime_count(bound) == sieve_range(bound).count()

    def test_rejects_small_bound(self):
        with pytest.raises(ValueError):
            prime_count(1)


class TestSieve:
    def test_small(self):
        assert sieve_range(10).primes == (2, 3, 5, 7)

    def test_edge(self):
        assert sieve_range(2).primes == (2,)

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            sieve_range(1)

    def test_against_trial_division(self):
        assert list(sieve_range(2000).primes) == trial_division_primes(2000)

    def test_pi_of_one_million(self):
        table = sieve_range(10**6)
        assert table.count() == 78498

    def test_segment_boundaries(self):
        # bounds straddling the segment size must not drop or repeat primes
        for bound in (2**18 - 1, 2**18, 2**18 + 1, 2**18 + 500):
            primes = sieve_range(bound).primes
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
        (97, 1000),  # past the table
    ])
    def test_in_range_matches_comparison_oracle(self, x, y):
        table = sieve_range(100)
        expected = [p for p in table.primes if x < p <= y]
        assert table.in_range(x, y) == expected
        assert primes_between(x, y) == [p for p in sieve_range(max(int(y), 2)).primes if x < p <= y]

    @given(st.fractions(-30, 130, max_denominator=50), st.fractions(-30, 130, max_denominator=50))
    @settings(max_examples=200)
    def test_in_range_property(self, x, y):
        table = sieve_range(100)
        assert table.in_range(x, y) == [p for p in table.primes if x < p <= y]
        assert table.in_range(str(x), str(y)) == table.in_range(x, y)

    def test_in_range_uses_half_open_interval(self):
        table = sieve_range(20)
        assert table.in_range(3, 11) == [5, 7, 11]
        assert table.in_range(F(5, 2), 3) == [3]


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
