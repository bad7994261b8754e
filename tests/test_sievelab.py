import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    arc_of,
    fraction_level_sets,
    fraction_sweep,
    intersect_measure,
    mean_count,
    measure,
    normalize_union,
    total,
)
from primecover.primes import harmonic_H, primes_between
from primecover.primes import sieve_range
from primecover.sequences import NumeratorSequence, random_sequence, sequence_text
from primecover.sequences import constant_sequence, uncovered_by, uncovered_measure
from primecover.sievelab import (
    LevelSetProfile,
    alpha_and_markov,
    level_sets,
    omega_expectation_exact,
    omega_expectation_mc,
    pair_expectation,
)

F = Fraction
HALF = F(1, 2)


def enumeration_average(primes, c):
    """Oracle: average uncovered measure over every numerator assignment."""
    total = F(0)
    count = 0
    for combo in itertools.product(*[range(p) for p in primes]):
        arcs = [arc_of(p, a, c) for p, a in zip(primes, combo)]
        total += 1 - measure(normalize_union(arcs))
        count += 1
    return total / count


def random_range(rng, max_y=200):
    y = rng.randint(3, max_y)
    x = rng.randint(1, y - 1)
    while not primes_between(x, y):
        y = rng.randint(3, max_y)
        x = rng.randint(1, y - 1)
    return x, y


class TestLevelSets:
    def test_single_prime(self):
        seq = NumeratorSequence(HALF, ((5, 2),))
        profile = level_sets(seq, 4, 5)
        assert profile.levels == {0: F(4, 5), 1: F(1, 5)}
        assert profile.nu == F(1, 5)

    def test_manual_arrangement(self):
        # arcs [3/4,1]u[0,1/4] and [1/6,1/2]: double covered on [1/6,1/4]
        seq = NumeratorSequence(HALF, ((2, 0), (3, 1)))
        profile = level_sets(seq, 1, 3)
        assert profile.levels == {0: F(1, 4), 1: F(2, 3), 2: F(1, 12)}
        assert total(profile) == 1
        assert mean_count(profile) == HALF + F(1, 3)

    def test_mean_count_identity_on_random_corpus(self):
        rng = random.Random(12)
        for _ in range(20):
            x, y = random_range(rng)
            c = rng.choice([F(1, 8), F(1, 4), F(1, 2), F(3, 8)])
            seq = random_sequence(y, c, seed=rng.randrange(2**32))
            profile = level_sets(seq, x, y)
            assert total(profile) == 1
            assert mean_count(profile) == 2 * c * harmonic_H(x, y)

    def test_missing_prime_rejected(self):
        seq = NumeratorSequence(HALF, ((2, 0),))
        with pytest.raises(ValueError):
            level_sets(seq, 1, 3)


class TestAlphaMarkov:
    def test_bernoulli_variance_single_prime(self):
        seq = NumeratorSequence(HALF, ((5, 3),))
        report = alpha_and_markov(level_sets(seq, 4, 5))
        assert report.alpha == F(4, 25)
        q = 2 * HALF / 5
        assert report.alpha == q * (1 - q)

    def test_degenerate_empty_range(self):
        seq = NumeratorSequence(HALF, ((2, 0),))
        report = alpha_and_markov(level_sets(seq, 7, 10))
        assert report.profile.levels == {0: F(1)}
        assert report.alpha == 0
        assert report.profile.nu == 0
        assert report.markov_bound is None
        assert report.omega_measure == 1

    def test_alpha_matches_pairwise_expansion(self):
        # independent oracle: alpha as a sum over ordered prime pairs of
        # intersection measure minus product of densities
        rng = random.Random(3)
        for _ in range(8):
            y = rng.randint(6, 14)  # at most 6 primes
            c = rng.choice([F(1, 4), F(1, 2), F(1, 3)])
            seq = random_sequence(y, c, seed=rng.randrange(2**32))
            primes = primes_between(1, y)
            report = alpha_and_markov(level_sets(seq, 1, y))
            arcs = {p: arc_of(p, seq.numerator_for(p), c) for p in primes}
            expansion = F(0)
            for p1 in primes:
                for p2 in primes:
                    expansion += intersect_measure(arcs[p1], arcs[p2]) - (
                        (2 * c / p1) * (2 * c / p2)
                    )
            assert report.alpha == expansion

    def test_profile_needs_its_moments(self):
        # a profile without its integer moments would report alpha = 0
        with pytest.raises(TypeError):
            LevelSetProfile(x=F(1), y=F(3), c=HALF, nu=F(5, 6), levels={0: F(1)})

    def test_markov_holds_on_corpus(self):
        rng = random.Random(4)
        for _ in range(20):
            x, y = random_range(rng)
            seq = random_sequence(y, F(1, 4), seed=rng.randrange(2**32))
            report = alpha_and_markov(level_sets(seq, x, y))
            assert report.omega_measure <= report.markov_bound


class TestBenchmarkLevelsOp:
    def test_levels_to_5e4_digest(self):
        # the benchmark's `levels` op: level sets and alpha over (2, 5e4] of
        # the seed-1729 random sequence, digested from int bytes because
        # its numbers pass the int-to-str digit limit
        seq = random_sequence(100_000, F(1, 4), 1729)
        assert hashlib.sha256(sequence_text(seq).encode()).hexdigest() == (
            "9edd2aaaa6cd125a80d810d7eb83f2efc306e96dea850832bb4053105e55a12e"
        )
        report = alpha_and_markov(level_sets(seq, 2, 50_000))
        levels = report.profile.levels
        values = [q for k in sorted(levels) for q in (F(k), levels[k])]
        values += [report.profile.nu, report.alpha, report.omega_measure, report.markov_bound]
        h = hashlib.sha256()
        for q in values:
            for n in (q.numerator, q.denominator):
                part = n.to_bytes(n.bit_length() // 8 + 1, "big", signed=True)
                h.update(len(part).to_bytes(8, "big"))
                h.update(part)
        assert h.hexdigest() == "d8288038dc687000b3afc9b364be3619dadb0fd597e053cee806e11aa8c18e71"


class TestPairExpectation:
    def brute_force(self, p1, p2, c):
        total = F(0)
        for a in range(p1):
            for b in range(p2):
                total += intersect_measure(arc_of(p1, a, c), arc_of(p2, b, c))
        return total / (p1 * p2)

    def test_smallest_pair_is_exact(self):
        value = pair_expectation(2, 3, HALF)
        assert value == F(1, 6)
        assert value == 4 * HALF**2 / 6
        assert value == self.brute_force(2, 3, HALF)

    def test_quarter_c(self):
        value = pair_expectation(2, 3, F(1, 4))
        assert value == self.brute_force(2, 3, F(1, 4))
        assert abs(value - F(1, 24)) <= F(2, 9)

    def test_error_bound_sample(self):
        for p1, p2 in [(2, 5), (3, 7), (5, 11), (7, 13)]:
            for c in (F(1, 8), F(1, 4), F(1, 2)):
                err = abs(pair_expectation(p1, p2, c) - 4 * c**2 / (p1 * p2))
                assert err <= F(2, p2**2)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            pair_expectation(5, 3, HALF)
        with pytest.raises(ValueError):
            pair_expectation(4, 7, HALF)

    def test_summed_error_bound_to_one_hundred(self):
        # total pair error over all p1 < p2 <= 100 against the counting bound
        primes = primes_between(1, 100)
        c = F(1, 4)
        total_err = F(0)
        gross_bound = F(0)
        for j, p2 in enumerate(primes):
            for p1 in primes[:j]:
                total_err += abs(pair_expectation(p1, p2, c) - 4 * c**2 / (p1 * p2))
            gross_bound += F(2 * j, p2**2)
        assert total_err <= gross_bound


class TestOmegaExact:
    def test_single_prime_range(self):
        for c in (F(1, 4), F(1, 2), F(1, 3)):
            assert omega_expectation_exact(2, 3, c) == 1 - 2 * c / 3

    def test_matches_full_enumeration(self):
        primes = primes_between(2, 7)
        assert primes == [3, 5, 7]
        for c in (F(1, 4), F(1, 2)):
            exact = omega_expectation_exact(2, 7, c)
            assert exact == enumeration_average(primes, c)

    def test_enumeration_with_two(self):
        primes = primes_between(1, 7)
        # at c = 1/2 the two arcs of 2 touch at both ends
        for c in (F(1, 3), HALF):
            exact = omega_expectation_exact(1, 7, c)
            assert exact == enumeration_average(primes, c)

    def test_enumeration_larger_range(self):
        # product of primes 7*11*13 = 1001 still enumerable
        primes = primes_between(6, 13)
        exact = omega_expectation_exact(6, 13, F(2, 5))
        assert exact == enumeration_average(primes, F(2, 5))

    def test_monotone_in_y(self):
        values = [omega_expectation_exact(2, y, F(1, 4)) for y in (3, 5, 7, 11, 13)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_range_too_large_guard(self):
        with pytest.raises(ValueError, match="range too large"):
            omega_expectation_exact(2, 10**4, F(1, 4))

    def test_empty_range(self):
        assert omega_expectation_exact(7, 10, F(1, 2)) == 1


class TestOmegaMonteCarlo:
    def test_three_sigma_agreement(self):
        exact = float(omega_expectation_exact(2, 7, HALF))
        mean, stderr = omega_expectation_mc(2, 7, HALF, trials=10**4, seed=11)
        assert abs(mean - exact) <= 3 * stderr

    def test_single_trial_is_one_sample(self):
        mean, stderr = omega_expectation_mc(2, 7, F(1, 4), trials=1, seed=5)
        assert stderr == 0.0
        # reproduce the sample by hand from the derived stream
        from primecover.sievelab import _trial_seed

        rng = random.Random(_trial_seed(5, 0))
        arcs = [arc_of(p, rng.randrange(p), F(1, 4)) for p in primes_between(2, 7)]
        assert mean == float(1 - measure(normalize_union(arcs)))

    def test_deterministic(self):
        a = omega_expectation_mc(2, 30, F(1, 2), trials=25, seed=3)
        b = omega_expectation_mc(2, 30, F(1, 2), trials=25, seed=3)
        assert a == b

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            omega_expectation_mc(2, 7, HALF, trials=0, seed=1)

    def test_rejects_empty_or_reversed_range(self):
        # the same check and message as omega_expectation_exact
        for x, y in ((10, 5), (7, 7)):
            with pytest.raises(ValueError, match=f"need X < Y, got X={x}, Y={y}"):
                omega_expectation_mc(x, y, F(1, 4), trials=5, seed=1)


class TestReportSerialization:
    def test_to_dict_shapes(self):
        seq = NumeratorSequence(HALF, ((2, 0), (3, 1)))
        report = alpha_and_markov(level_sets(seq, 1, 3))
        doc = report.to_dict()
        assert doc["nu"] == "5/6"
        assert doc["levels"]["2"] == "1/12"
        assert "/" in doc["alpha"]
        assert doc["omega_measure"] == "1/4"

    def test_infinite_sentinel(self):
        seq = NumeratorSequence(HALF, ((2, 0),))
        doc = alpha_and_markov(level_sets(seq, 7, 10)).to_dict()
        assert doc["markov_bound"] == "inf"


# ---------------------------------------------------------------------------
# Fraction oracles: the sums level_sets, alpha_and_markov,
# omega_expectation_exact and the Monte Carlo trials made before they
# moved to integer numerators in units of 1/(p*v). Positions are sorted
# here as Fractions, independently of arcs.sweep.

WIDTHS = (F(1, 8), F(1, 4), F(2, 7), F(1, 3), F(3, 7), HALF)


def fraction_alpha_and_markov(levels, nu):
    alpha = sum(((k - nu) ** 2 * m for k, m in levels.items()), F(0))
    omega = levels.get(0, F(0))
    markov = alpha / nu**2 if nu > 0 else None
    return alpha, omega, markov


def fraction_omega_expectation_exact(x, y, c):
    primes = primes_between(x, y)
    counts = [0] * len(primes)
    product = F(1)
    expectation = F(0)
    prev = F(0)
    for pos, starts, ends in fraction_sweep(
        (s, e, i)
        for i, p in enumerate(primes)
        for a in range(p)
        for s, e in arc_of(p, a, c).segments()
    ):
        if pos > prev:
            expectation += (pos - prev) * product
            prev = pos
        for idx, delta in [(i, -1) for i in ends] + [(i, 1) for i in starts]:
            p, old = primes[idx], counts[idx]
            counts[idx] = old + delta
            product *= F(p - old - delta, p - old)
    if prev < 1:
        expectation += (1 - prev) * product
    return expectation


def fraction_mc(x, y, c, trials, seed):
    from primecover.sievelab import _trial_seed

    primes = primes_between(x, y)
    values = []
    for i in range(trials):
        rng = random.Random(_trial_seed(seed, i))
        arcs = [arc_of(p, rng.randrange(p), c) for p in primes]
        values.append(1 - normalize_union(arcs).measure())
    mean = sum(values, F(0)) / trials
    if trials > 1:
        variance = sum(((v - mean) ** 2 for v in values), F(0)) / (trials - 1)
        stderr = math.sqrt(float(variance) / trials)
    else:
        stderr = 0.0
    return float(mean), stderr


@st.composite
def prime_ranges(draw, top=200):
    """(x, y) with 0 <= x < y <= top, either possibly fractional; x < 2 half the time."""
    low = draw(st.sampled_from((min(top, 2), top)))
    x = draw(st.fractions(min_value=0, max_value=low - 1, max_denominator=6))
    y = draw(st.fractions(min_value=x, max_value=top, max_denominator=6).filter(lambda y: y > x))
    return x, y


@st.composite
def drawn_sequences(draw, c, bound=200):
    primes = sieve_range(bound)
    entries = tuple((p, draw(st.integers(0, p - 1))) for p in primes)
    return NumeratorSequence(c, entries)


def assert_report_matches_oracle(seq, x, y):
    profile = level_sets(seq, x, y)
    report = alpha_and_markov(profile)
    levels, nu = fraction_level_sets(seq, x, y)
    assert profile.levels == levels
    assert profile.nu == nu
    assert (report.alpha, report.omega_measure, report.markov_bound) == (
        fraction_alpha_and_markov(levels, nu)
    )


class TestIntegerSumsMatchFractionOracles:
    @given(st.data(), st.sampled_from(WIDTHS), prime_ranges())
    @settings(max_examples=60, deadline=None)
    def test_level_report(self, data, c, bounds):
        seq = data.draw(drawn_sequences(c))
        assert_report_matches_oracle(seq, *bounds)

    @given(st.data(), st.sampled_from(WIDTHS), prime_ranges(top=2))
    @settings(max_examples=20, deadline=None)
    def test_level_report_below_two(self, data, c, bounds):
        assert_report_matches_oracle(data.draw(drawn_sequences(c)), *bounds)

    @given(st.sampled_from(WIDTHS), prime_ranges(top=120))
    @settings(max_examples=25, deadline=None)
    def test_exact_expectation(self, c, bounds):
        x, y = bounds
        assert omega_expectation_exact(x, y, c) == fraction_omega_expectation_exact(x, y, c)

    @given(st.sampled_from(WIDTHS), prime_ranges(), st.integers(1, 6), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_monte_carlo_bit_equal(self, c, bounds, trials, seed):
        x, y = bounds
        assert omega_expectation_mc(x, y, c, trials, seed) == fraction_mc(x, y, c, trials, seed)

    @given(st.sampled_from(WIDTHS), st.data())
    @settings(max_examples=30, deadline=None)
    def test_pair_expectation(self, c, data):
        primes = primes_between(1, 45)
        p1, p2 = sorted(data.draw(st.lists(st.sampled_from(primes), min_size=2, max_size=2, unique=True)))
        assert pair_expectation(p1, p2, c) == TestPairExpectation.brute_force(None, p1, p2, c)

    @pytest.mark.parametrize("c", WIDTHS)
    def test_all_numerators_zero_wrap(self, c):
        # every arc is the wrapping arc a = 0, split at the point 0
        seq = constant_sequence(200, c)
        assert_report_matches_oracle(seq, F(3, 2), 200)
        assert uncovered_measure(seq, 1, 200) == fraction_level_sets(seq, 1, 200)[0][0]

    def test_touching_arcs_at_half(self):
        # [1/6, 1/2] and [1/2, 7/10] meet in the point 1/2 only
        seq = NumeratorSequence(HALF, ((3, 1), (5, 3)))
        assert level_sets(seq, 2, 5).levels == {0: F(7, 15), 1: F(8, 15)}
        assert_report_matches_oracle(seq, 2, 5)
        assert uncovered_measure(seq, 2, 5) == F(7, 15)

    @pytest.mark.parametrize(
        "c, x, y",
        [(HALF, 1, 2000), (F(1, 4), F(3, 2), 1999), (F(2, 7), 1, 2003),
         (F(3, 7), F(3, 2), 2011), (F(5, 11), 1, 1997)],
    )
    def test_level_report_reducible_moments(self, c, x, y):
        # with 2 in range, 2 divides both L = v*P and S1 = 2*u*(P*H), so
        # alpha's Fraction(S2*L - S1^2, L^2) is reduced by the constructor;
        # v shares a prime with the range too
        seq = random_sequence(y, c, seed=1729)
        profile = level_sets(seq, x, y)
        spread = profile.s2 * profile.common - profile.s1**2
        assert math.gcd(spread, profile.common**2) > 1
        assert math.gcd(c.denominator, profile.common // c.denominator) > 1
        assert_report_matches_oracle(seq, x, y)

    def test_prime_two_covers_the_circle_at_half(self):
        # the two candidate arcs of 2 touch at 1/4 and 3/4 and cover everything
        assert uncovered_by([(2, 0), (2, 1)], HALF) == 0
        assert omega_expectation_exact(1, 2, HALF) == HALF
        for y in (3, 7, 13):
            assert omega_expectation_exact(1, y, HALF) == fraction_omega_expectation_exact(1, y, HALF)
        assert omega_expectation_mc(1, 2, HALF, 5, 1729) == (0.5, 0.0)
        assert omega_expectation_mc(1, 13, HALF, 7, 3) == fraction_mc(1, 13, HALF, 7, 3)

    def test_empty_prime_range(self):
        seq = random_sequence(30, F(1, 4), seed=1)
        profile = level_sets(seq, 24, 28)
        assert profile.levels == {0: 1} and profile.nu == 0
        assert alpha_and_markov(profile).markov_bound is None
        assert_report_matches_oracle(seq, 24, 28)
        assert omega_expectation_exact(24, 28, F(1, 4)) == 1
        assert omega_expectation_mc(24, 28, F(1, 4), 3, 5) == (1.0, 0.0)
        assert uncovered_measure(seq, 24, 28) == 1


# ---------------------------------------------------------------------------
# The reports reduced by their known factors against the Fraction oracle:
# numerator and denominator of every value. In c = u/v, u even (2/7, 4/9),
# u sharing a prime with the range (w > 1 for alpha: 2/7, 3/7, 5/11 and
# 6/13 once 2, 3, 5 or 13 is in range), and v sharing one (1/3, 2/9).

REDUCTION_WIDTHS = (F(1, 4), F(2, 7), F(3, 7), F(5, 11), F(6, 13), F(4, 9), F(2, 9), F(1, 3), HALF)


def pairs_of(report):
    values = [report.profile.nu, report.alpha, report.omega_measure, report.markov_bound]
    values += [report.profile.levels[k] for k in sorted(report.profile.levels)]
    return [None if q is None else (q.numerator, q.denominator) for q in values]


def oracle_pairs(seq, x, y):
    levels, nu = fraction_level_sets(seq, x, y)
    alpha, omega, markov = fraction_alpha_and_markov(levels, nu)
    values = [nu, alpha, omega, markov] + [levels[k] for k in sorted(levels)]
    return [None if q is None else (q.numerator, q.denominator) for q in values]


def markov_cofactor(profile):
    """h = gcd(spread mod Q, Q), Q the numerator of sum 1/p, which alpha_and_markov reduces by."""
    u, v = profile.c.numerator, profile.c.denominator
    q = profile.s1 // (2 * u)
    return math.gcd(profile.s2 * v % q, q)


class TestReductionByKnownFactors:
    @given(st.data(), st.sampled_from(REDUCTION_WIDTHS), prime_ranges(top=120))
    @settings(max_examples=80, deadline=None)
    def test_reduced_report_is_the_fraction_report(self, data, c, bounds):
        seq = data.draw(drawn_sequences(c, bound=120))
        assert pairs_of(alpha_and_markov(level_sets(seq, *bounds))) == oracle_pairs(seq, *bounds)

    @pytest.mark.parametrize("c, x, y", [(F(3, 7), 1, 60), (F(6, 13), F(3, 2), 80), (F(2, 7), 1, 50)])
    def test_alpha_with_primes_of_the_range_in_2u(self, c, x, y):
        u = c.numerator
        assert math.prod(p for p in primes_between(x, y) if 2 * u % p == 0) > 1  # w > 1
        seq = random_sequence(y, c, seed=7)
        assert pairs_of(alpha_and_markov(level_sets(seq, x, y))) == oracle_pairs(seq, x, y)

    @pytest.mark.parametrize("c, y", [(F(1, 4), 23), (F(2, 9), 17), (F(3, 7), 17), (F(1, 8), 7), (F(1, 8), 11)])
    def test_markov_when_spread_shares_a_factor_with_q(self, c, y):
        # the cofactors here are 2, 8, 2, 71 and 886 = 2 * 443: an even count of
        # odd primes makes Q even, and an odd prime of Q can divide spread too
        seq = random_sequence(y, c, seed=1729)
        profile = level_sets(seq, 2, y)
        assert markov_cofactor(profile) > 1
        assert pairs_of(alpha_and_markov(profile)) == oracle_pairs(seq, 2, y)


class TestPairExpectationInputs:
    @pytest.mark.parametrize("c, shown", [(F(0), "0"), (F(3, 5), "3/5"), (F(1), "1")])
    def test_c_outside_range(self, c, shown):
        with pytest.raises(ValueError, match=rf"^c must lie in \(0, 1/2\], got {shown}$"):
            pair_expectation(3, 5, c)

    def test_order_and_primality_checked_first(self):
        with pytest.raises(ValueError, match="need p1 < p2"):
            pair_expectation(5, 3, F(3, 5))
        with pytest.raises(ValueError, match="must both be prime"):
            pair_expectation(4, 7, F(3, 5))
