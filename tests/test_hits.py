import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import circle_distance, exact_rows, mean_count
from primecover.arcs import ONE
from primecover.hits import (
    RealApproximant,
    approximant_named,
    fractional_classes,
    fractional_hits,
    golden_approximant,
    hit_classes,
    hit_primes,
    loglog_heuristic,
    rational_point,
    sqrt2_approximant,
)
from primecover.primes import sieve_range
from primecover.sequences import NumeratorSequence, constant_sequence

F = Fraction
HALF = F(1, 2)


def seq_from_rule(bound, c, rule):
    entries = tuple((p, rule(p) % p) for p in sieve_range(bound))
    return NumeratorSequence(to_c(c), entries)


def to_c(c):
    return F(c) if not isinstance(c, F) else c


class TestApproximants:
    def test_sqrt2_is_certified(self):
        x = sqrt2_approximant(F(1, 10**14))
        assert x.eta <= F(1, 10**14)
        # sqrt(2) really lies in [value - eta, value + eta]
        assert (x.value - x.eta) ** 2 < 2 < (x.value + x.eta) ** 2

    def test_golden_is_certified(self):
        x = golden_approximant(F(1, 10**10))
        assert x.eta <= F(1, 10**10)
        lo, hi = x.value - x.eta, x.value + x.eta
        assert lo**2 - lo - 1 < 0 < hi**2 - hi - 1

    def test_named_lookup(self):
        assert approximant_named("sqrt2", F(1, 100)).label == "sqrt2"
        with pytest.raises(ValueError, match="unknown named point"):
            approximant_named("pi")

    def test_rational_point_is_exact(self):
        x = rational_point("1/3")
        assert x.value == F(1, 3)
        assert x.eta == 0

    def test_negative_eta_rejected(self):
        from primecover.hits import RealApproximant

        with pytest.raises(ValueError):
            RealApproximant(F(1, 2), F(-1, 10))


class TestCircleDistance:
    def test_wraps(self):
        assert circle_distance(F(9, 10), F(1, 10)) == F(1, 5)
        assert circle_distance(F(1, 10), F(9, 10)) == F(1, 5)
        assert circle_distance(F(1, 4), F(3, 4)) == HALF


class TestHitPrimes:
    def test_nearest_residue_hits_everything(self):
        seq = seq_from_rule(100, HALF, lambda p: (2 * p + 3) // 6)  # round(p/3)
        report = hit_primes(rational_point(F(1, 3)), seq, 100)
        assert list(report.hits) == list(sieve_range(100))
        assert report.ambiguous == ()

    def test_zero_with_constant_sequence(self):
        seq = constant_sequence(50, F(1, 4))
        report = hit_primes(rational_point(0), seq, 50)
        assert list(report.hits) == list(sieve_range(50))

    def test_antipodal_sequence_never_hits(self):
        seq = seq_from_rule(50, F(1, 4), lambda p: p // 2)
        report = hit_primes(rational_point(0), seq, 50)
        assert report.hits == ()
        assert report.ambiguous == ()

    def test_heuristic_and_ratio(self):
        seq = constant_sequence(10, HALF)
        report = hit_primes(rational_point(0), seq, 10)
        expected = 1.0 * math.fsum([1 / 2, 1 / 3, 1 / 5, 1 / 7])
        assert report.heuristic == pytest.approx(expected)
        assert report.ratio == pytest.approx(4 / expected)
        assert report.hit_reciprocal_sum == pytest.approx(expected)

    def test_ambiguity_exactly_at_threshold(self):
        # distance equals c/p: a hit when eta = 0, ambiguous when eta > 0
        seq = NumeratorSequence(F(1, 4), ((2, 0), (3, 1)))
        x = rational_point(F(1, 3) + F(1, 12))
        assert exact_rows(hit_classes(x, seq, 3))[1] == (3, F(1, 12), True, False)
        fuzzy = x.__class__(x.value, F(1, 1000), "fuzzy")
        assert exact_rows(hit_classes(fuzzy, seq, 3))[1][3]

    def test_expected_hit_count_identity(self):
        # averaged over x, the number of hit primes up to the bound is the
        # mean of the counting step function: exactly 2c * sum(1/p)
        from primecover.primes import harmonic_H
        from primecover.sequences import random_sequence
        from primecover.sievelab import level_sets

        seq = random_sequence(60, F(1, 4), seed=2)
        profile = level_sets(seq, 1, 60)
        assert mean_count(profile) == 2 * F(1, 4) * harmonic_H(1, 60)

    def test_refinement_never_flips(self):
        seq = seq_from_rule(200, F(1, 4), lambda p: p // 3)
        coarse = sqrt2_approximant(F(1, 10**4))
        fine = sqrt2_approximant(F(1, 10**12))
        coarse_rows = {r[0]: r for r in exact_rows(hit_classes(coarse, seq, 200))}
        fine_rows = {r[0]: r for r in exact_rows(hit_classes(fine, seq, 200))}
        for p, (_, _, hit, ambiguous) in coarse_rows.items():
            if not ambiguous:
                assert fine_rows[p][2] == hit
                assert not fine_rows[p][3]


class TestFractionalHits:
    def test_zero_hits_everything(self):
        report = fractional_hits(rational_point(0), F(1, 4), 50)
        assert list(report.hits) == list(sieve_range(50))

    def test_half_only_two(self):
        report = fractional_hits(rational_point(HALF), F(1, 4), 100)
        assert report.hits == (2,)
        assert report.ambiguous == ()

    def test_sqrt2_equidistribution_desk_scale(self):
        x = sqrt2_approximant(F(1, 10**14))
        report = fractional_hits(x, F(1, 4), 10**4)
        assert report.ambiguous == ()
        density = len(report.hits) / len(sieve_range(10**4))
        assert abs(density - 0.25) <= 0.02

    def test_rational_cycle_oracle(self):
        # for x = a/q the fractional part {xp} only depends on p mod q
        a, q, c, bound = 3, 7, F(1, 4), 1000
        x = rational_point(F(a, q))
        report = fractional_hits(x, c, bound)
        expected = 0
        for p in sieve_range(bound):
            if (F(a, q) * p) % 1 < c:
                expected += 1
            # sanity: the predicate really only depends on p mod q
            assert ((a * (p % q)) % q < c * q) == ((F(a, q) * p) % 1 < c)
        assert len(report.hits) == expected

    def test_heuristic_is_density_times_pi(self):
        report = fractional_hits(rational_point(0), F(1, 4), 100)
        assert report.heuristic == pytest.approx(0.25 * 25)

    def test_imprecise_input_rejected(self):
        fuzzy = sqrt2_approximant(F(1, 100))
        with pytest.raises(ValueError, match="too imprecise"):
            fractional_hits(fuzzy, F(1, 4), 1000)

    def test_wrap_band_is_ambiguous(self):
        # fractional part within p*eta of 0 cannot be certified either way
        from primecover.hits import RealApproximant

        x = RealApproximant(F(1, 2), F(1, 10**6), "fuzzy half")
        rows = exact_rows(fractional_classes(x, F(1, 4), 10))
        by_p = {r[0]: r for r in rows}
        assert by_p[2][3]  # {2x} = 0 sits on the wrap cut
        assert by_p[3][2] is False and not by_p[3][3]


class TestLogLogHeuristic:
    def test_small_bound_sum(self):
        h = loglog_heuristic(HALF, 10)
        assert h.partial_sum == pytest.approx(math.fsum([1 / 2, 1 / 3, 1 / 5, 1 / 7]))

    def test_linear_in_c(self):
        h1 = loglog_heuristic(F(1, 8), 1000)
        h2 = loglog_heuristic(F(1, 4), 1000)
        assert h2.partial_sum == pytest.approx(2 * h1.partial_sum)
        assert h2.asymptotic == pytest.approx(2 * h1.asymptotic)

    def test_mertens_difference(self):
        c = F(1, 2)
        big = loglog_heuristic(c, 10**6)
        small = loglog_heuristic(c, 10**3)
        actual = big.partial_sum - small.partial_sum
        predicted = 2 * float(c) * (
            math.log(math.log(10**6)) - math.log(math.log(10**3))
        )
        assert abs(actual - predicted) <= 0.05 * predicted


# -------------------------------------------------- Fraction oracles
# The Fraction versions of hit_classes and fractional_classes that the integer
# cross-multiplication replaced, kept as the reference the new loops must equal.


def fraction_hit_rows(x, seq, bound):
    rows = []
    for p in sieve_range(bound):
        a = seq.numerator_for(p)
        threshold = seq.c / p
        dist = circle_distance(x.value, Fraction(a, p))
        if dist + x.eta <= threshold:
            rows.append((p, dist, True, False))
        elif dist - x.eta > threshold:
            rows.append((p, dist, False, False))
        else:
            rows.append((p, dist, False, True))
    return rows


def fraction_fractional_rows(x, c, bound):
    rows = []
    for p in sieve_range(bound):
        f = (x.value * p) % ONE
        delta = p * x.eta
        if delta == 0:
            rows.append((p, f, f < c, False))
        elif f - delta >= 0 and f + delta < ONE:
            if f + delta < c:
                rows.append((p, f, True, False))
            elif f - delta >= c:
                rows.append((p, f, False, False))
            else:
                rows.append((p, f, False, True))
        else:
            rows.append((p, f, False, True))
    return rows


@st.composite
def rationals(draw, max_den=10**9, span=5):
    """Rationals in [-span, span], negative and past 1 included."""
    den = draw(st.integers(1, max_den))
    return F(draw(st.integers(-span * den, span * den)), den)


@st.composite
def widths(draw):
    """c in (0, 1/2], 1/2 included."""
    v = draw(st.integers(2, 64))
    return F(draw(st.integers(1, v // 2)), v)


@st.composite
def etas(draw, top):
    """0, or a random rational in (0, top)."""
    if draw(st.booleans()):
        return F(0)
    den = draw(st.integers(2, 10**18))
    return F(draw(st.integers(1, den - 1)), den) * top


@st.composite
def numerator_sequences(draw, bound, c):
    primes = sieve_range(bound)
    raw = draw(st.lists(st.integers(0, 10**6), min_size=len(primes), max_size=len(primes)))
    return NumeratorSequence(c, tuple((p, a % p) for p, a in zip(primes, raw)))


class TestIntegerClassificationOracle:
    @given(st.data(), rationals(), widths(), st.integers(2, 120))
    @settings(max_examples=150, deadline=None)
    def test_hit_rows_match_fraction_oracle(self, data, value, c, bound):
        eta = data.draw(etas(F(1, 8)))
        seq = data.draw(numerator_sequences(bound, c))
        x = RealApproximant(value, eta, "drawn")
        assert exact_rows(hit_classes(x, seq, bound)) == fraction_hit_rows(x, seq, bound)

    @given(st.data(), rationals(), widths(), st.integers(2, 120))
    @settings(max_examples=150, deadline=None)
    def test_fractional_rows_match_fraction_oracle(self, data, value, c, bound):
        eta = data.draw(etas(F(1, 4 * bound)))
        x = RealApproximant(value, eta, "drawn")
        rows = exact_rows(fractional_classes(x, c, bound))
        assert rows == fraction_fractional_rows(x, c, bound)

    @given(st.data(), st.integers(2, 120))
    @settings(max_examples=100, deadline=None)
    def test_near_threshold_points_match_fraction_oracle(self, data, bound):
        # x a few eta from a_p/p + c/p for one prime, so the distance sits
        # at the threshold to within the band, where the three statuses meet
        c = data.draw(widths())
        seq = data.draw(numerator_sequences(bound, c))
        p, a = data.draw(st.sampled_from(seq.entries))
        eta = F(1, data.draw(st.integers(10**3, 10**12)))
        shift = data.draw(st.integers(-3, 3)) * eta
        side = data.draw(st.sampled_from((-1, 1)))
        x = RealApproximant(F(a, p) + side * (c / p + shift) + data.draw(st.integers(-2, 2)),
                            eta, "near")
        assert exact_rows(hit_classes(x, seq, bound)) == fraction_hit_rows(x, seq, bound)

    def test_sqrt2_at_scale_matches_fraction_oracle(self):
        from primecover.sequences import random_sequence

        seq = random_sequence(3000, F(1, 4), seed=3)
        x = sqrt2_approximant(F(1, 10**16))
        assert exact_rows(hit_classes(x, seq, 3000)) == fraction_hit_rows(x, seq, 3000)
        y = golden_approximant(F(1, 10**16))
        assert exact_rows(fractional_classes(y, F(1, 4), 3000)) == fraction_fractional_rows(
            y, F(1, 4), 3000
        )


class TestClassificationBoundaries:
    # p = 3, a_3 = 1, c = 1/4: the threshold c/p is 1/12
    SEQ = NumeratorSequence(F(1, 4), ((2, 0), (3, 1)))
    ETA = F(1, 1000)

    def row_for_three(self, value, eta=ETA):
        x = RealApproximant(value, eta, "edge")
        rows = exact_rows(hit_classes(x, self.SEQ, 3))
        assert rows == fraction_hit_rows(x, self.SEQ, 3)
        return rows[1]

    @pytest.mark.parametrize("side", [-1, 1])
    @pytest.mark.parametrize("turns", [-1, 0, 2])
    def test_distance_plus_eta_on_threshold_is_a_hit(self, side, turns):
        row = self.row_for_three(F(1, 3) + side * (F(1, 12) - self.ETA) + turns)
        assert row == (3, F(1, 12) - self.ETA, True, False)

    @pytest.mark.parametrize("side", [-1, 1])
    @pytest.mark.parametrize("turns", [-1, 0, 2])
    def test_distance_minus_eta_on_threshold_is_ambiguous(self, side, turns):
        row = self.row_for_three(F(1, 3) + side * (F(1, 12) + self.ETA) + turns)
        assert row == (3, F(1, 12) + self.ETA, False, True)

    def test_just_past_the_band_is_a_miss(self):
        row = self.row_for_three(F(1, 3) + F(1, 12) + self.ETA + F(1, 10**30))
        assert row[2:] == (False, False)

    def test_half_width_threshold_wraps_through_zero(self):
        # c = 1/2 at p = 2 with a_2 = 0: every point is within 1/4 of 0 or is on it
        seq = NumeratorSequence(HALF, ((2, 0),))
        for value, status in ((F(3, 4), (True, False)), (F(-1, 4), (True, False)),
                              (F(1, 4) + F(1, 10**20), (False, False))):
            x = RealApproximant(value, F(0), "edge")
            rows = exact_rows(hit_classes(x, seq, 2))
            assert rows == fraction_hit_rows(x, seq, 2)
            assert rows[0][2:] == status

    # fracparts at bound 2: only p = 2, so f = {2*value} and delta = 2*eta

    def fractional_row(self, value, c=F(1, 4), eta=F(1, 100)):
        x = RealApproximant(value, eta, "edge")
        rows = exact_rows(fractional_classes(x, c, 2))
        assert rows == fraction_fractional_rows(x, c, 2)
        return rows[0]

    def test_band_touching_zero_is_classified(self):
        row = self.fractional_row(F(1, 100))  # f - delta = 0
        assert row == (2, F(1, 50), True, False)

    def test_band_touching_one_is_ambiguous(self):
        row = self.fractional_row(F(1, 2) - F(1, 100))  # f + delta = 1
        assert row == (2, F(49, 50), False, True)

    def test_band_reaching_c_from_below_is_ambiguous(self):
        row = self.fractional_row(F(1, 8) - F(1, 100))  # f + delta = c
        assert row[2:] == (False, True)

    def test_band_leaving_c_from_above_is_a_miss(self):
        row = self.fractional_row(F(1, 8) + F(1, 100) + 3)  # f - delta = c
        assert row == (2, F(1, 4) + F(1, 50), False, False)

    def test_exact_point_on_c_is_a_miss(self):
        row = self.fractional_row(F(-7, 8), eta=F(0))  # f = c
        assert row == (2, F(1, 4), False, False)
        assert self.fractional_row(F(-7, 8) - F(1, 10**30), eta=F(0))[2]
