"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible with pytest -s). Exact
identities are checked as rational equalities with no tolerance at all;
floating-point criteria carry their stated epsilons; runtime caps are
asserted with time.monotonic.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from oracles import arc_of, intersect_measure, mean_count, measure, normalize_union, total
from primecover.cli import main as cli_main
from primecover.ergodic import (
    reduce_offset,
    s_closed,
    s_direct,
    sparse_prime_set,
)
from primecover.hits import fractional_hits, sqrt2_approximant
from primecover.primes import harmonic_H, primes_between, sieve_range
from primecover.sequences import (
    block_construction,
    greedy_sequence,
    random_sequence,
)
from primecover.sievelab import (
    alpha_and_markov,
    level_sets,
    omega_expectation_exact,
    omega_expectation_mc,
    pair_expectation,
)
from test_cli import split_and_serial

F = Fraction
HALF = F(1, 2)
TWO_OVER_PI = 2.0 / math.pi


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """50 random sequences with ranges Y <= 200, shared by criteria 1-2."""
    start = time.monotonic()
    rng = random.Random(20260810)
    items = []
    while len(items) < 50:
        y = rng.randint(3, 200)
        x = rng.randint(1, y - 1)
        if not primes_between(x, y):
            continue
        c = rng.choice([F(1, 8), F(1, 4), F(1, 3), F(1, 2)])
        seq = random_sequence(y, c, seed=rng.randrange(2**32))
        items.append((seq, x, y, alpha_and_markov(level_sets(seq, x, y))))
    return items, time.monotonic() - start


def test_criterion_1_exact_sieve_identities(corpus):
    items, build_seconds = corpus
    start = time.monotonic()
    for seq, x, y, rep in items:
        profile = rep.profile
        assert total(profile) == 1
        assert mean_count(profile) == 2 * seq.c * harmonic_H(x, y)
        assert profile.nu == 2 * seq.c * harmonic_H(x, y)
    elapsed = build_seconds + (time.monotonic() - start)
    report(1, elapsed < 10, f"50 level-set profiles exact (sum=1, mean=2cH) in {elapsed:.2f}s")


def test_criterion_2_markov_step(corpus):
    items, _ = corpus
    violations = 0
    for _, _, _, rep in items:
        assert rep.markov_bound is not None
        if rep.omega_measure > rep.markov_bound:
            violations += 1
    report(2, violations == 0, f"levels[0] <= alpha/nu^2 on all 50 profiles, {violations} violations")


def test_criterion_3_bernoulli_variance():
    checked = 0
    for c in (F(1, 8), F(1, 4), HALF):
        for p in sieve_range(100):
            seq = random_sequence(p, c, seed=p)
            rep = alpha_and_markov(level_sets(seq, p - 1, p))
            q = 2 * c / p
            assert rep.alpha == q * (1 - q)
            checked += 1
    report(3, True, f"single-prime alpha = (2c/p)(1-2c/p) exactly, {checked} cases")


def test_criterion_4_pair_expectation():
    start = time.monotonic()
    assert pair_expectation(2, 3, HALF) == F(1, 6)
    primes = sieve_range(50)
    worst = F(0)
    for c in (F(1, 8), F(1, 4), HALF):
        for p1, p2 in itertools.combinations(primes, 2):
            err = abs(pair_expectation(p1, p2, c) - 4 * c**2 / (p1 * p2))
            assert err <= F(2, p2**2)
            worst = max(worst, err * p2**2)
    elapsed = time.monotonic() - start
    report(4, elapsed < 60,
           f"(2,3,1/2)=1/6 and |E-4c^2/p1p2| <= 2/p2^2 for all p1<p2<=50 "
           f"(worst err*p2^2 = {float(worst):.3f}) in {elapsed:.1f}s")


def test_criterion_5_expectation_oracle():
    primes = primes_between(2, 7)
    for c in (F(1, 4), HALF):
        exact = omega_expectation_exact(2, 7, c)
        total = F(0)
        count = 0
        for combo in itertools.product(*[range(p) for p in primes]):
            arcs = [arc_of(p, a, c) for p, a in zip(primes, combo)]
            total += 1 - measure(normalize_union(arcs))
            count += 1
        assert count == 105
        assert exact == total / count
    mean, stderr = omega_expectation_mc(2, 7, HALF, trials=10**4, seed=1729)
    gap = abs(mean - float(omega_expectation_exact(2, 7, HALF)))
    report(5, gap <= 3 * stderr,
           f"exact = 105-sequence average for c in (1/4,1/2); MC gap {gap:.2e} <= 3*{stderr:.2e}")


def test_criterion_6_uncovered_bound_at_scale():
    start = time.monotonic()
    c = F(1, 4)
    mean, _ = omega_expectation_mc(2, 5000, c, trials=200, seed=1729)
    h = float(harmonic_H(2, 5000))
    product = mean * h
    bound = 1 / (2 * float(c)) + 1
    elapsed = time.monotonic() - start
    report(6, product <= bound and elapsed < 300,
           f"MC mean * H(2,5000) = {product:.3f} <= {bound} in {elapsed:.1f}s")


def test_criterion_7_block_certificates():
    start = time.monotonic()
    seq, schedule = block_construction([HALF, HALF, HALF], HALF, max_bound=10**5)
    elapsed = time.monotonic() - start
    ok = schedule.blocks[-1].end <= 10**5 and elapsed < 120
    for block in schedule.blocks:
        assert block.achieved_uncovered <= HALF
        from primecover.sequences import uncovered_measure

        assert uncovered_measure(seq, block.start, block.end) == block.achieved_uncovered
    report(7, ok,
           f"3 blocks certified (ends {[b.end for b in schedule.blocks]}), "
           f"final bound {schedule.blocks[-1].end} <= 1e5 in {elapsed:.1f}s")


def test_criterion_8_greedy_optimality():
    c = HALF
    seq = greedy_sequence(200, c)
    covered = normalize_union([])
    steps = 0
    for p, a in seq.entries:
        base = measure(covered)
        gains = [
            measure(normalize_union(covered.arcs + (arc_of(p, cand, c),))) - base
            for cand in range(p)
        ]
        best = max(gains)
        assert gains[a] == best
        assert gains.index(best) == a  # smallest maximizer
        covered = normalize_union(covered.arcs + (arc_of(p, a, c),))
        steps += 1
    report(8, True, f"every greedy step to 200 attains the exhaustive max gain ({steps} steps)")


def test_criterion_9_equidistribution():
    start = time.monotonic()
    x = sqrt2_approximant(F(1, 10**14))
    rep = fractional_hits(x, F(1, 4), 10**5)
    pi_bound = len(sieve_range(10**5))
    density_gap = abs(len(rep.hits) / pi_bound - 0.25)
    elapsed = time.monotonic() - start
    report(9, len(rep.ambiguous) == 0 and density_gap <= 0.02 and elapsed < 30,
           f"sqrt2: {len(rep.hits)} hits of {pi_bound} primes "
           f"(|density-1/4| = {density_gap:.4f}), {len(rep.ambiguous)} ambiguous, {elapsed:.1f}s")


def test_criterion_10_ergodic_oracle_equivalence():
    primes = sieve_range(9973)
    rng = random.Random(424242)
    worst = 0.0
    violations = 0
    for _ in range(10**3):
        p = rng.choice(primes)
        a = rng.randrange(p)
        x, y = rng.random(), rng.random()
        direct = s_direct(p, a, x, y)
        closed = s_closed(p, a, x, y)
        worst = max(worst, abs(direct - closed))
        d = abs(reduce_offset(y - a / p))
        if abs(closed) > 1.0 + 1e-12:
            violations += 1
        if d > 0 and abs(closed) > 1.0 / (2.0 * p * d) + 1e-9:
            violations += 1
        if p * d <= 0.5 and abs(closed) < TWO_OVER_PI - 1e-9:
            violations += 1
    # engineered near-hit and resonance samples
    for _ in range(100):
        p = rng.choice(primes)
        a = rng.randrange(p)
        x = rng.random()
        d = rng.uniform(1e-12, 0.5) / p
        val = s_closed(p, a, x, a / p + d)
        if abs(val) < TWO_OVER_PI - 1e-9 or abs(val) > 1.0 + 1e-12:
            violations += 1
        resonance = s_direct(p, a, x, a / p)
        expected = complex(math.cos(2 * math.pi * x), math.sin(2 * math.pi * x))
        if abs(resonance - expected) > 1e-12:
            violations += 1
    report(10, worst <= 1e-9 and violations == 0,
           f"|direct-closed| worst {worst:.2e} over 1000 tuples; "
           f"{violations} bound violations over 1100 samples")


def test_criterion_11_sparse_set_convergence():
    s = sparse_prime_set(10**6, "geometric")
    assert s.primes[:4] == (5, 17, 67, 257)
    ok_weight = s.weight_sum < 1.0
    violations = 0
    for p in s.primes:
        d = math.log(p) / p
        val = s_closed(p, 0, 0.3, d)  # distance exactly log(p)/p from a_p/p
        if abs(val) > 1.0 / (2.0 * math.log(p)) + 1e-9:
            violations += 1
    report(11, ok_weight and violations == 0,
           f"geometric set to 1e6: weight_sum {s.weight_sum:.4f} < 1.0, "
           f"{violations} kernel-bound violations at d = log(p)/p")


def test_criterion_12_reproducibility(capsys, monkeypatch, tmp_path):
    args = ["sievelab", "--x", "2", "--y", "200", "--c", "1/4",
            "--exact", "--mc", "50", "--seed", "1729"]
    # one run split over 4 CPUs, one on 1 CPU
    (code, first, _), (_, second, _) = split_and_serial(capsys, monkeypatch, *args)
    assert code == 0
    same_json = first.encode() == second.encode()

    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert cli_main(["seq", "build", "--method", "random", "--bound", "200",
                         "--c", "1/4", "--seed", "3", "--out", str(path)]) == 0
        capsys.readouterr()
    same_file = paths[0].read_bytes() == paths[1].read_bytes()
    # sanity: the JSON output is well-formed and carries the MC block
    doc = json.loads(first)
    assert doc["mc"]["trials"] == 50
    with capsys.disabled():
        report(12, same_json and same_file,
               "byte-identical JSON across runs and core counts; identical sequence files")
