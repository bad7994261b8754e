import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ArcUnion, arc_of, complement, intersect_measure, measure, normalize_union, runs
from primecover.arcs import Arc, rat_str, to_fraction
from primecover.arcs import arc_pieces, coprime_fraction, exact_sum, runs_length, sweep, tree_sum, union_length

F = Fraction


def arcs_of(*triples):
    return [arc_of(p, a, c) for p, a, c in triples]


class TestArcOf:
    def test_plain_arc(self):
        arc = arc_of(5, 2, F(1, 2))
        assert arc.left == F(3, 10)
        assert arc.end == F(1, 2)
        assert arc.length == F(1, 5)

    def test_wrapping_arc(self):
        arc = arc_of(2, 0, F(1, 2))
        assert arc.left == F(3, 4)
        assert arc.length == F(1, 2)
        assert arc.wraps()

    def test_endpoint_arithmetic(self):
        # center 1/3, half-width 1/12
        arc = arc_of(3, 1, F(1, 4))
        assert arc.left == F(1, 4)
        assert arc.end == F(5, 12)
        assert arc.length == F(1, 6)

    def test_rejects_bad_numerator(self):
        with pytest.raises(ValueError):
            arc_of(5, 5, F(1, 2))
        with pytest.raises(ValueError):
            arc_of(5, -1, F(1, 2))

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            arc_of(5, 2, F(3, 4))
        with pytest.raises(ValueError):
            arc_of(5, 2, 0)

    def test_measure_is_2c_over_p_even_near_zero(self):
        for a in range(7):
            assert arc_of(7, a, F(1, 3)).length == F(2, 21)


class TestNormalizeUnion:
    def test_empty(self):
        u = normalize_union([])
        assert u.arcs == ()
        assert measure(u) == 0

    def test_manual_merge_oracle(self):
        # {[3/4,1] u [0,1/4]} and [1/6,1/2] merge into one arc of measure 3/4
        u = normalize_union(arcs_of((2, 0, F(1, 2)), (3, 1, F(1, 2))))
        assert measure(u) == F(3, 4)
        assert u.arcs == (Arc(F(3, 4), F(3, 4)),)

    def test_duplicates_collapse(self):
        a = arc_of(5, 2, F(1, 4))
        assert normalize_union([a, a]) == normalize_union([a])

    def test_idempotent(self):
        u = normalize_union(arcs_of((2, 1, F(1, 2)), (3, 0, F(1, 3)), (5, 4, F(1, 5))))
        assert normalize_union(u.arcs) == u

    def test_full_circle_collapses(self):
        u = normalize_union([Arc(F(0), F(1, 2)), Arc(F(1, 2), F(1, 2))])
        assert u.arcs == (Arc(F(0), F(1)),)
        assert measure(u) == 1

    def test_wrap_stitch(self):
        u = normalize_union([Arc(F(7, 8), F(1, 8)), Arc(F(0), F(1, 8))])
        assert u.arcs == (Arc(F(7, 8), F(1, 4)),)

    def test_touching_closed_arcs_merge(self):
        u = normalize_union([Arc(F(1, 4), F(1, 4)), Arc(F(1, 2), F(1, 4))])
        assert u.arcs == (Arc(F(1, 4), F(1, 2)),)

    def test_farey_neighbours_near_10_to_12(self):
        k = 5 * 10**11
        lo, hi = F(k, 2 * k + 1), F(k + 1, 2 * k + 3)  # hi - lo = 1/(b*d)
        first = Arc(F(1, 4), lo - F(1, 4))
        touching = normalize_union([Arc(lo, F(1, 4)), first])
        assert touching.arcs == (Arc(F(1, 4), lo),)
        apart = normalize_union([Arc(hi, F(1, 4)), first])
        assert apart.arcs == (first, Arc(hi, F(1, 4)))


class TestMeasure:
    def test_single_arc(self):
        assert measure(normalize_union([arc_of(5, 2, F(1, 2))])) == F(1, 5)

    def test_three_disjoint_arcs(self):
        u = normalize_union(arc_of(3, a, F(1, 4)) for a in range(3))
        assert len(u.arcs) == 3
        assert measure(u) == F(1, 2)


class TestIntersectMeasure:
    def test_overlapping_pair(self):
        # [1/4,3/4] meets [1/6,1/2] in [1/4,1/2]
        a = arc_of(2, 1, F(1, 2))
        b = arc_of(3, 1, F(1, 2))
        assert intersect_measure(a, b) == F(1, 4)

    def test_disjoint(self):
        assert intersect_measure(arc_of(3, 0, F(1, 4)), arc_of(3, 1, F(1, 4))) == 0

    def test_self_intersection(self):
        a = arc_of(7, 3, F(1, 3))
        assert intersect_measure(a, a) == a.length

    def test_wrapping_intersection(self):
        a = arc_of(2, 0, F(1, 2))  # [3/4, 5/4]
        b = Arc(F(9, 10), F(1, 5))  # [9/10, 11/10]
        assert intersect_measure(a, b) == F(1, 5)

    def test_symmetric(self):
        rng = random.Random(7)
        for _ in range(50):
            a = _random_arc(rng)
            b = _random_arc(rng)
            assert intersect_measure(a, b) == intersect_measure(b, a)


def _random_arc(rng, max_den=32):
    den = rng.randint(1, max_den)
    left = F(rng.randrange(den), den)
    length = F(rng.randint(0, den), den)
    if length > 1:
        length = F(1)
    return Arc(left, length)


small_fractions = st.fractions(min_value=0, max_value=1, max_denominator=16)
arc_strategy = st.builds(
    lambda left, length: Arc(left % 1, length),
    small_fractions,
    small_fractions,
)
family_strategy = st.lists(arc_strategy, max_size=6)


@st.composite
def farey_family(draw):
    """Arcs whose endpoints are Farey neighbours with denominators near 10^12.

    Neighbours a/b < c/d satisfy bc - ad = 1, so they differ by 1/(b*d),
    about 10^-24. Returns the family and a probe point among the endpoints
    and the midpoints between them.
    """
    near = st.integers(10**12, 10**12 + 10**6)
    d = draw(near)
    b = draw(near.filter(lambda b: math.gcd(b, d) == 1))
    c = pow(b, -1, d)
    a = (b * c - 1) // d
    points = sorted([F(a, b), F(c, d), F(a + c, b + d)])
    ends = st.sampled_from(points)
    family = [
        Arc(left, (right - left) % 1)
        for left, right in draw(st.lists(st.tuples(ends, ends), max_size=6))
    ]
    probes = points + [(s + t) / 2 for s, t in zip(points, points[1:])]
    return family, draw(st.sampled_from(probes))


class TestInvariants:
    @given(family_strategy)
    def test_subadditive(self, family):
        total = sum((a.length for a in family), F(0))
        assert measure(normalize_union(family)) <= total

    @given(family_strategy, farey_family())
    @settings(max_examples=60)
    def test_order_independent(self, family, farey):
        rng = random.Random(1)
        for family in (family, farey[0]):
            shuffled = family[:]
            rng.shuffle(shuffled)
            assert normalize_union(shuffled) == normalize_union(family)

    @given(family_strategy, farey_family())
    @settings(max_examples=60)
    def test_complement_measure(self, family, farey):
        for family in (family, farey[0]):
            u = normalize_union(family)
            assert measure(u) + measure(complement(u)) == 1

    @given(family_strategy, small_fractions, farey_family())
    @settings(max_examples=80)
    def test_membership_matches_sources(self, family, x, farey):
        for family, x in ((family, x), farey):
            u = normalize_union(family)
            assert u.contains(x) == any(a.contains(x) for a in family)

    def test_equality_iff_disjoint(self):
        rng = random.Random(20)
        for _ in range(40):
            family = [_random_arc(rng, max_den=12) for _ in range(rng.randint(1, 4))]
            total = sum((a.length for a in family), F(0))
            exact = measure(normalize_union(family))
            pairwise_disjoint = all(
                intersect_measure(family[i], family[j]) == 0
                for i in range(len(family))
                for j in range(i + 1, len(family))
            )
            if pairwise_disjoint:
                assert exact == min(total, 1)
            else:
                assert exact < total

    def test_point_sampling_estimator(self):
        # Grid estimate of the union measure agrees within boundary error.
        rng = random.Random(5)
        grid = 4096
        for _ in range(10):
            family = [_random_arc(rng, max_den=20) for _ in range(rng.randint(1, 5))]
            u = normalize_union(family)
            hits = sum(u.contains(F(j, grid)) for j in range(grid))
            estimate = F(hits, grid)
            assert abs(estimate - measure(u)) <= F(2 * len(family) + 2, grid)


class TestSerialization:
    def test_pairs_round_trip(self):
        u = normalize_union(arcs_of((2, 0, F(1, 2)), (5, 3, F(1, 4))))
        pairs = u.to_pairs()
        assert all(len(p) == 2 and "/" in p[0] and "/" in p[1] for p in pairs)
        assert ArcUnion.from_pairs(pairs) == u

    def test_rat_str(self):
        assert rat_str(F(3, 4)) == "3/4"
        assert rat_str(F(2)) == "2/1"
        assert rat_str(F(0)) == "0/1"

    def test_to_fraction_rejects_garbage(self):
        with pytest.raises(ValueError):
            to_fraction("one half")
        assert to_fraction("1/2") == F(1, 2)
        assert to_fraction("0.25") == F(1, 4)


WIDTHS = (F(1, 8), F(1, 4), F(2, 7), F(1, 3), F(3, 7), F(1, 2))


class TestIntegerUnits:
    @given(st.integers(2, 400), st.data(), st.sampled_from(WIDTHS))
    def test_arc_pieces_are_the_segments(self, p, data, c):
        # pieces are on the circle scaled by v: n/p stands for n/(p*v)
        a = data.draw(st.integers(0, p - 1))
        pieces = list(arc_pieces([(p, a)], c))
        assert [(F(s, p * c.denominator), F(e, p * c.denominator)) for s, e, _ in pieces] == (
            arc_of(p, a, c).segments()
        )
        assert all(den == p for _, _, den in pieces)

    @given(st.lists(st.tuples(st.integers(-10**30, 10**30), st.integers(1, 10**30)), max_size=40))
    def test_exact_sum_is_the_fraction_sum(self, terms):
        assert exact_sum(terms) == sum((F(n, d) for n, d in terms), F(0))

    def test_exact_sum_of_nothing(self):
        assert exact_sum([]) == 0

    @given(st.lists(st.tuples(st.integers(-10**30, 10**30), st.integers(1, 10**30)), max_size=40))
    def test_tree_sum_keeps_every_denominator(self, terms):
        num, den = tree_sum(terms)
        assert den == math.prod(d for _, d in terms)
        assert F(num, den) == sum((F(n, d) for n, d in terms), F(0))

    @given(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 97, 101, 7919]), unique=True), st.data())
    def test_tree_sum_over_distinct_primes_is_reduced(self, primes, data):
        # no p divides its numerator, so N/D needs no gcd
        terms = [(data.draw(st.integers(-10**6, 10**6).filter(lambda n: n % p)), p) for p in primes]
        num, den = tree_sum(terms)
        assert math.gcd(num, den) == 1

    @given(st.integers(-10**40, 10**40), st.integers(1, 10**40))
    def test_coprime_fraction_is_the_reduced_fraction(self, n, d):
        g = math.gcd(n, d)
        value = coprime_fraction(n // g, d // g)
        expected = F(n, d)
        assert type(value) is F
        assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)
        assert value == expected and hash(value) == hash(expected)

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(1, 30)), max_size=12))
    def test_sweep_groups_equal_positions(self, raw):
        pieces = [(min(s, e), max(s, e), d) for s, e, d in raw]
        walked = [(F(n, d), starts, ends) for n, d, starts, ends in sweep(pieces)]
        positions = [pos for pos, _, _ in walked]
        assert positions == sorted({F(n, d) for s, e, d in pieces for n in (s, e)})
        for pos, starts, ends in walked:
            assert sorted(starts) == sorted(d for s, _, d in pieces if F(s, d) == pos)
            assert sorted(ends) == sorted(d for _, e, d in pieces if F(e, d) == pos)

    def test_union_length_matches_normalize_union(self):
        rng = random.Random(17)
        for _ in range(200):
            family = [_random_arc(rng, max_den=rng.choice([7, 60, 10**12])) for _ in range(rng.randint(0, 6))]
            pieces = []
            for arc in family:
                for s, e in arc.segments():
                    den = s.denominator * e.denominator
                    pieces.append((s.numerator * e.denominator, e.numerator * s.denominator, den))
            assert union_length(pieces) == measure(normalize_union(family))


@st.composite
def closed_pieces(draw):
    """Pieces (start, end, den) inside [0, den]: touching ends, duplicates and split arcs."""
    dens = draw(st.lists(st.sampled_from([1, 2, 3, 4, 6, 7, 12, 13]), min_size=1, max_size=3))
    pieces = []
    for _ in range(draw(st.integers(0, 10))):
        den = draw(st.sampled_from(dens))
        kind = draw(st.sampled_from(["plain", "copy", "touch", "wrap"]))
        if kind == "copy" and pieces:
            pieces.append(draw(st.sampled_from(pieces)))
        elif kind == "touch" and pieces:
            # starts where an earlier piece ends, over its own denominator
            s, e, d = draw(st.sampled_from(pieces))
            start = e * den // d if e * den % d == 0 else e * den // d + 1
            end = draw(st.integers(min(start, den), den))
            pieces.append((min(start, den), end, den))
        elif kind == "wrap":
            # an arc through 0 split at 0, as arc_pieces splits a = 0
            width = draw(st.integers(0, den))
            pieces += [(den - width, den, den), (0, width, den)]
        else:
            a, b = draw(st.integers(0, den)), draw(st.integers(0, den))
            pieces.append((min(a, b), max(a, b), den))
    return pieces


class TestUnionMerge:
    @given(closed_pieces())
    @settings(max_examples=300)
    def test_merge_equals_the_sweep_runs(self, pieces):
        assert union_length(pieces) == runs_length(runs(pieces))
