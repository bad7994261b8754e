import itertools
import random
from fractions import Fraction

import pytest

from primecover.arcs import arc_of, intersect_measure, measure, normalize_union
from primecover.primes import harmonic_H, primes_between
from primecover.sequences import NumeratorSequence, random_sequence
from primecover.sievelab import (
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
        assert profile.total() == 1
        assert profile.mean_count() == HALF + F(1, 3)

    def test_mean_count_identity_on_random_corpus(self):
        rng = random.Random(12)
        for _ in range(20):
            x, y = random_range(rng)
            c = rng.choice([F(1, 8), F(1, 4), F(1, 2), F(3, 8)])
            seq = random_sequence(y, c, seed=rng.randrange(2**32))
            profile = level_sets(seq, x, y)
            assert profile.total() == 1
            assert profile.mean_count() == 2 * c * harmonic_H(x, y)

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

    def test_markov_holds_on_corpus(self):
        rng = random.Random(4)
        for _ in range(20):
            x, y = random_range(rng)
            seq = random_sequence(y, F(1, 4), seed=rng.randrange(2**32))
            report = alpha_and_markov(level_sets(seq, x, y))
            assert report.omega_measure <= report.markov_bound


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
            omega_expectation_exact(2, 10**4, F(1, 4), max_endpoints=1000)

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

    def test_thread_count_does_not_change_result(self):
        serial = omega_expectation_mc(2, 50, F(1, 4), trials=40, seed=9, threads=1)
        threaded = omega_expectation_mc(2, 50, F(1, 4), trials=40, seed=9, threads=4)
        assert serial == threaded

    def test_deterministic(self):
        a = omega_expectation_mc(2, 30, F(1, 2), trials=25, seed=3)
        b = omega_expectation_mc(2, 30, F(1, 2), trials=25, seed=3)
        assert a == b

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            omega_expectation_mc(2, 7, HALF, trials=0, seed=1)


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
