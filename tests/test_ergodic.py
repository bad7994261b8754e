import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import circle_distance
from primecover.ergodic import (
    ergodic_rows,
    reduce_offset,
    s_closed,
    s_direct,
    sparse_prime_set,
)
from primecover.hits import classify_hits, rational_point
from primecover.primes import sieve_range
from primecover.sequences import NumeratorSequence, greedy_sequence

F = Fraction
HALF = F(1, 2)
TWO_OVER_PI = 2.0 / math.pi

PRIMES_TO_9973 = sieve_range(9973)


def e(t):
    return cmath.exp(2j * math.pi * t)


class TestReduceOffset:
    def test_range(self):
        rng = random.Random(0)
        for _ in range(200):
            d = rng.uniform(-50, 50)
            r = reduce_offset(d)
            assert -0.5 < r <= 0.5
            # reduced value differs from the input by an integer
            assert abs((d - r) - round(d - r)) < 1e-9

    def test_half_maps_to_half(self):
        assert reduce_offset(0.5) == 0.5
        assert reduce_offset(1.5) == 0.5
        assert reduce_offset(-0.5) == 0.5


class TestResonance:
    def test_y_equals_center(self):
        rng = random.Random(1)
        for _ in range(50):
            p = rng.choice(PRIMES_TO_9973[:200])
            a = rng.randrange(p)
            x = rng.random()
            val = s_direct(p, a, x, a / p)
            assert abs(val - e(x)) <= 1e-12

    def test_zero_orbit(self):
        for x in (0.0, 0.3, 0.77):
            assert abs(s_direct(5, 0, x, 0.0) - e(x)) <= 1e-12

    def test_closed_falls_back_at_zero_offset(self):
        val = s_closed(7, 3, 0.2, 3 / 7)
        assert abs(val - e(0.2)) <= 1e-12


class TestOracleEquivalence:
    def test_known_point(self):
        assert abs(s_direct(5, 2, 0.3, 0.41) - s_closed(5, 2, 0.3, 0.41)) <= 1e-12

    def test_random_tuples(self):
        rng = random.Random(99)
        for _ in range(250):
            p = rng.choice(PRIMES_TO_9973)
            a = rng.randrange(p)
            x, y = rng.random(), rng.random()
            assert abs(s_direct(p, a, x, y) - s_closed(p, a, x, y)) <= 1e-9

    def test_near_singular_offsets(self):
        # offsets straddling the fallback threshold
        for d in (1e-10, 5e-9, 3.2e-9, 1e-7, 1e-5):
            p = 9973
            val_closed = s_closed(p, 0, 0.1, d)
            val_direct = s_direct(p, 0, 0.1, d)
            assert abs(val_closed - val_direct) <= 1e-9

    @pytest.mark.parametrize("evaluate", [s_direct, s_closed])
    @pytest.mark.parametrize("a", [7, -1])
    def test_numerator_out_of_range_rejected(self, evaluate, a):
        with pytest.raises(ValueError, match=f"^numerator {a} out of range for prime 7$"):
            evaluate(7, a, 0.3, 0.4)


class TestModulusBounds:
    def test_never_above_one(self):
        rng = random.Random(5)
        for _ in range(300):
            p = rng.choice(PRIMES_TO_9973[:500])
            a = rng.randrange(p)
            val = s_closed(p, a, rng.random(), rng.random())
            assert abs(val) <= 1.0 + 1e-12

    def test_kernel_decay(self):
        rng = random.Random(6)
        for _ in range(200):
            p = rng.choice(PRIMES_TO_9973[:500])
            a = rng.randrange(p)
            y = rng.random()
            d = abs(reduce_offset(y - a / p))
            if d == 0:
                continue
            val = s_closed(p, a, 0.0, y)
            assert abs(val) <= 1.0 / (2.0 * p * d) + 1e-9

    def test_hit_lower_bound(self):
        # p*d <= 1/2 keeps the kernel above 2/pi
        rng = random.Random(7)
        for _ in range(200):
            p = rng.choice(PRIMES_TO_9973)
            a = rng.randrange(p)
            d = rng.uniform(-0.5, 0.5) / p
            val = s_closed(p, a, 0.3, a / p + d)
            assert abs(val) >= TWO_OVER_PI - 1e-9

    def test_half_width_offset(self):
        for p in (5, 101, 9973):
            val = s_closed(p, 0, 0.0, 1.0 / (2.0 * p))
            expected = 1.0 / (p * math.sin(math.pi / (2 * p)))
            assert abs(abs(val) - expected) <= 1e-12
            assert abs(val) >= TWO_OVER_PI


class TestConvergenceSeries:
    def test_engineered_hit_sample(self):
        seq = greedy_sequence(100, F(1, 2))
        p = 97
        a = seq.numerator_for(p)
        y = a / p + 1.0 / (3.0 * p)
        rows = list(ergodic_rows(seq.c, 0.3, y, [p], [a]))
        ((_, _, _, s, _, is_hit),) = rows
        assert is_hit
        assert abs(s) >= TWO_OVER_PI - 1e-9

    def test_distant_primes_decay(self):
        seq = greedy_sequence(300, F(1, 2))
        primes = [p for p, _ in seq.entries if p >= 11]
        for p in primes:
            a = seq.numerator_for(p)
            y = (a / p + math.log(p) / p) % 1.0
            ((_, _, _, s, _, _),) = list(ergodic_rows(seq.c, 0.1, y, [p], [a]))
            assert abs(s) <= 1.0 / (2.0 * math.log(p)) + 1e-9

    def test_empty_list(self):
        seq = greedy_sequence(10, F(1, 2))
        assert list(ergodic_rows(seq.c, 0.1, 0.2, [], [])) == []

    def test_missing_prime_rejected(self):
        seq = greedy_sequence(10, F(1, 2))
        with pytest.raises(ValueError, match="^sequence has no entry for prime 11$"):
            list(ergodic_rows(seq.c, 0.1, 0.2, *seq.scan(1, 11)))

    def test_hit_flag_consistency(self):
        seq = greedy_sequence(50, F(1, 4))
        rows = ergodic_rows(seq.c, 0.25, 0.6180339887, *seq.scan(1, 50))
        for p, _, distance, _, _, is_hit in rows:
            assert is_hit == (p * distance <= 0.25)


def exact_hits(c, y, primes, numerators):
    """is_hit by Fractions: p times the circle distance from y to a/p is at most c."""
    return [p * circle_distance(F(y), F(a, p)) <= c for p, a in zip(primes, numerators)]


def every_numerator(bound):
    """Each prime up to bound once per a in [0, p), as (primes, numerators) columns."""
    pairs = [(p, a) for p in sieve_range(bound) for a in range(p)]
    return [p for p, _ in pairs], [a for _, a in pairs]


class TestExactHitFlag:
    def test_closed_endpoint_is_a_hit(self):
        # 625033 * |1/4 - 156258/625033| = 1/4 = c exactly; arcs are closed,
        # but the rounded float product lands just above 0.25
        ((p, _, distance, _, _, is_hit),) = list(
            ergodic_rows(F(1, 4), 0.3, 0.25, [625033], [156258])
        )
        assert F(625033) * abs(F(1, 4) - F(156258, 625033)) == F(1, 4)
        assert not p * distance <= 0.25
        assert is_hit

    @given(
        st.data(),
        st.one_of(
            st.floats(-3, 3, allow_nan=False),
            st.integers(-24, 24).map(lambda j: j / 8),
        ),
        st.sampled_from([F(1, 2), F(1, 4), F(1, 8), F(2, 7), F(3, 10)]),
        st.integers(2, 150),
    )
    @settings(max_examples=150, deadline=None)
    def test_is_hit_matches_hit_rows(self, data, y, c, bound):
        # numerators at, just inside and just outside the arc ends around
        # y, mixed with random ones; y = j/8 puts many exactly on an end
        exact_y = F(y)
        entries = []
        for p in sieve_range(bound):
            ends = {math.floor(p * exact_y + s * c) % p for s in (-1, 1)}
            ends |= {math.ceil(p * exact_y + s * c) % p for s in (-1, 1)}
            pick = st.one_of(st.sampled_from(sorted(ends)), st.integers(0, p - 1))
            entries.append((p, data.draw(pick)))
        seq = NumeratorSequence(c, tuple(entries))
        primes, numerators = seq.scan(1, bound)
        classes = classify_hits(rational_point(exact_y), c, primes, numerators)
        rows = ergodic_rows(c, 0.3, y, primes, numerators)
        assert [row[5] for row in rows] == [hit for _, _, _, hit, _ in classes]

    # the cases of the mask-and-shift hit test that random draws rarely reach
    CS = [F(1, 2), F(1, 4), F(2, 7), F(1, 3)]

    @pytest.mark.parametrize("y", [0.5, -0.5, 1.5, 2.5, -7.5])
    def test_half_at_c_half_hits_on_both_sides(self, y):
        # y = h/2 with h odd: f = k/2 = near for every odd p, so both branches
        # of the test pass their f check, and exactly the two numerators
        # next to y, at distance 1/(2p) each, are hits
        primes, numerators = every_numerator(60)
        hits = [row[5] for row in ergodic_rows(F(1, 2), 0.3, y, primes, numerators)]
        assert hits == exact_hits(F(1, 2), y, primes, numerators)
        for p in sieve_range(60)[1:]:
            assert [a for q, a, hit in zip(primes, numerators, hits) if q == p and hit] == [
                (p - 1) // 2, (p + 1) // 2
            ]

    @pytest.mark.parametrize("y", [0.25, -0.25, 0.75, 1.25, -1.75])
    def test_closed_ends_on_both_sides(self, y):
        # at c = 1/4 some a/p lie exactly c/p below y (f = near) and some
        # exactly c/p above it (f = k - near); closed arcs make both hits
        c = F(1, 4)
        primes, numerators = every_numerator(60)
        hits = [row[5] for row in ergodic_rows(c, 0.3, y, primes, numerators)]
        assert hits == exact_hits(c, y, primes, numerators)
        offsets = [(F(y) - F(a, p) + HALF) % 1 - HALF for p, a in zip(primes, numerators)]
        ends = [d for p, d, hit in zip(primes, offsets, hits) if hit and p * abs(d) == c]
        assert min(ends) < 0 < max(ends)

    @pytest.mark.parametrize("c", CS)
    def test_prime_two(self, c):
        ys = [0.0, 0.25, 0.5, 0.75, -0.25, 1 / 3, 0.7123, 2.0**-30, -(2.0**-30)]
        for y in ys:
            rows = list(ergodic_rows(c, 0.3, y, [2, 2], [0, 1]))
            assert [row[5] for row in rows] == exact_hits(c, y, [2, 2], [0, 1])

    @pytest.mark.parametrize("y", [
        0.0, -0.0, -0.7123, -2.25, 5e-324, -5e-324, 2.0**-1022,
        2.0**60, -(2.0**60), math.nextafter(2.0**60, 0), math.nextafter(2.0**60, math.inf),
        -math.nextafter(2.0**60, 0), 2.0**60 + 2.0**9,
    ])
    @pytest.mark.parametrize("c", CS)
    def test_extreme_and_signed_y(self, c, y):
        primes, numerators = every_numerator(40)
        hits = [row[5] for row in ergodic_rows(c, 0.3, y, primes, numerators)]
        assert hits == exact_hits(c, y, primes, numerators)
        assert {type(hit) for hit in hits} == {bool}

    def test_a_y_that_is_not_dyadic_is_rejected(self):
        with pytest.raises(ValueError, match=r"^y must be a dyadic rational, such as a float; "
                                             r"got Fraction\(1, 3\)$"):
            list(ergodic_rows(F(1, 4), 0.3, F(1, 3), [5], [1]))


class TestSparsePrimeSet:
    def test_geometric_small(self):
        s = sparse_prime_set(300, "geometric")
        assert s.primes == (5, 17, 67, 257)

    def test_geometric_weight_sum_below_one(self):
        s = sparse_prime_set(10**6, "geometric")
        assert s.primes[:4] == (5, 17, 67, 257)
        assert s.weight_sum == pytest.approx(
            math.fsum(math.log(p) / p for p in s.primes)
        )
        assert s.weight_sum < 1.0

    def test_geometric_members_to_two_to_the_62(self):
        # p - 4^n for the least prime p above 4^n, n = 1, ..., 30: trial
        # division's to n = 23 (below 1e14), and all 30 as sympy.nextprime gives
        offsets = (1, 1, 3, 1, 7, 3, 27, 1, 3, 7, 15, 43, 15, 3, 3, 15, 25, 31, 7, 15,
                   15, 7, 15, 21, 55, 21, 159, 81, 69, 33)
        s = sparse_prime_set(2**62, "geometric")
        assert s.primes == tuple(4**n + d for n, d in enumerate(offsets, 1))
        assert s.weight_sum == math.fsum(math.log(p) / p for p in s.primes)

    def test_tiny_bound_gives_empty_set(self):
        s = sparse_prime_set(3, "geometric")
        assert s.primes == ()
        assert s.weight_sum == 0.0

    def test_psi_mode(self):
        s = sparse_prime_set(1000, "psi")
        assert s.primes == (3, 5, 11, 17, 37, 67, 131, 257, 521)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            sparse_prime_set(100, "arithmetic")
