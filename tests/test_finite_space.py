import functools
import itertools
import math
import operator
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from hierkit.finite_space import (
    FinitePoset,
    all_posets_upto_iso,
    bits,
    mask_of,
    posets_by_size,
    random_poset,
)


def rand_posets(max_n=6):
    return st.builds(
        lambda n, seed: random_poset(n, seed),
        st.integers(1, max_n),
        st.integers(0, 10**6),
    )


def test_chain_basics():
    p = FinitePoset.chain(3)
    assert p.leq(0, 2) and not p.leq(2, 0)
    assert p.least_element() == 0
    assert p.height() == 3
    # opens of a 3-chain: {}, {2}, {1,2}, {0,1,2}
    assert p.opens() == [0, 0b100, 0b110, 0b111]
    assert p.closure(0b010) == 0b011
    assert p.is_open(p.carrier & ~0b011) and not p.is_open(0b011)


def test_antichain():
    p = FinitePoset.antichain(3)
    assert len(p.opens()) == 8
    assert p.least_element() is None
    assert p.height() == 1


def test_cover_roundtrip():
    p = random_poset(7, 1234)
    q = FinitePoset.from_json(p.to_json())
    assert q == p


def reference_cover_pairs(p):
    """(i, j) with j above i and nothing strictly between, by definition."""
    return [
        (i, j)
        for i in range(p.n)
        for j in range(p.n)
        if p.lt(i, j) and not any(p.lt(i, k) and p.lt(k, j) for k in range(p.n))
    ]


def test_cover_pairs_match_the_definition():
    rng = random.Random("cover pairs")
    small = [p for level in posets_by_size(6) for p in level]
    seeded = [random_poset(rng.randint(8, 20), rng, rng.uniform(0.1, 0.6)) for _ in range(300)]
    for p in small + seeded:
        assert p.cover_pairs() == reference_cover_pairs(p), p.up


def test_adjoin_point_below():
    p = FinitePoset.chain(3)
    q = p.adjoin_point_below(0b110)  # strictly below {1, 2}
    assert q.n == 4
    assert q.lt(3, 1) and q.lt(3, 2) and not q.leq(3, 0) and not q.leq(0, 3)
    with pytest.raises(ValueError):
        p.adjoin_point_below(0b011)  # not an up-set


def test_validation_catches_junk():
    with pytest.raises(ValueError):
        FinitePoset(2, [0b11, 0b11])  # antisymmetry
    with pytest.raises(ValueError):
        FinitePoset(2, [0b10, 0b10])  # reflexivity broken at 0
    with pytest.raises(ValueError):
        FinitePoset(3, [0b011, 0b110, 0b100])  # 0<=1<=2 but not 0<=2


def test_counts_up_to_iso():
    # Posets up to isomorphism, OEIS A000112.
    reps = {n: all_posets_upto_iso(n) for n in range(8)}
    assert [len(reps[n]) for n in range(8)] == [0, 1, 2, 5, 16, 63, 318, 2045]
    # Labeled posets, OEIS A001035: each class has n!/|Aut(p)| labelings.
    labeled = [
        sum(
            math.factorial(n)
            // sum(relabel(p, perm) == p for perm in itertools.permutations(range(n)))
            for p in reps[n]
        )
        for n in range(1, 6)
    ]
    assert labeled == [1, 3, 19, 219, 4231]


@given(rand_posets())
@settings(max_examples=60, deadline=None)
def test_opens_closed_under_union_intersection(p):
    opens = p.opens()
    rng = random.Random(0)
    for _ in range(10):
        u, v = rng.choice(opens), rng.choice(opens)
        assert p.is_open(u | v)
        assert p.is_open(u & v)


@given(rand_posets())
@settings(max_examples=60, deadline=None)
def test_specialization_recovers_order(p):
    # x <= y iff x in cl({y})
    for x in range(p.n):
        for y in range(p.n):
            assert p.leq(x, y) == bool((p.closure(1 << y) >> x) & 1)


@given(rand_posets(), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_closure_is_a_closure_operator(p, seed):
    rng = random.Random(seed)
    m = rng.randrange(1 << p.n)
    c = p.closure(m)
    assert c & m == m
    assert p.closure(c) == c
    assert p.is_open(p.carrier & ~c)


def test_bits_mask_roundtrip():
    assert list(bits(mask_of([0, 3, 5]))) == [0, 3, 5]


# -- the enumerations against brute-force references ---------------------------


def scan_opens(p):
    """Reference: test every mask, sort by (size, mask)."""
    found = [m for m in range(1 << p.n) if p.is_open(m)]
    found.sort(key=lambda m: (m.bit_count(), m))
    return found


def scan_all_posets(n):
    """Reference: every strict relation in itertools.product order, kept
    when transitive and antisymmetric."""
    if n == 0:
        return []
    strict_pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for picks in itertools.product([0, 1], repeat=len(strict_pairs)):
        rel = {p for p, b in zip(strict_pairs, picks) if b}
        if any((a, c) not in rel for (a, b) in rel for (b2, c) in rel
               if b == b2 and a != c):
            continue
        if any((b, a) in rel for (a, b) in rel):
            continue
        up = [1 << i for i in range(n)]
        for a, b in rel:
            up[a] |= 1 << b
        out.append(FinitePoset(n, up))
    return out


def least_labelings(p):
    """Reference: the least strict relation vector over all n!
    labelings, read as a number with the first pair (0, 0) highest, and
    every labeling that reaches it."""
    n = p.n
    pairs = [(i, j) for i in range(n) for j in bits(p.up[i]) if i != j]
    keys = {
        label: sum(1 << n * n - 1 - label[i] * n - label[j] for i, j in pairs)
        for label in itertools.permutations(range(n))
    }
    least = min(keys.values())
    return least, [label for label, key in keys.items() if key == least]


def relabel(p, perm):
    up = [0] * p.n
    for i in range(p.n):
        up[perm[i]] = mask_of(perm[j] for j in bits(p.up[i]))
    return FinitePoset(p.n, up)


@given(st.integers(0, 12), st.integers(0, 10**6), st.floats(0, 1))
@settings(max_examples=80, deadline=None)
def test_opens_match_mask_scan(n, seed, edge_prob):
    p = random_poset(n, seed, edge_prob)
    assert p.opens() == scan_opens(p)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
def test_opens_match_mask_scan_on_chains_and_antichains(n):
    for p in (FinitePoset.chain(n), FinitePoset.antichain(n)):
        assert p.opens() == scan_opens(p)
    assert len(FinitePoset.chain(n).opens()) == n + 1
    assert len(FinitePoset.antichain(n).opens()) == 1 << n


def longest_chain(p):
    """Reference: the most points of a chain starting at each point, by
    memoized recursion over the points strictly above it."""

    @functools.cache
    def from_(i):
        return 1 + max((from_(j) for j in bits(p.up[i]) if j != i), default=0)

    return max(map(from_, range(p.n)), default=0)


def fixpoint_closure(n, pairs):
    """Reference: the up masks of the edges, grown by the up masks of
    their members until nothing changes."""
    up = [1 << i for i in range(n)]
    for lo, hi in pairs:
        up[lo] |= 1 << hi
    changed = True
    while changed:
        changed = False
        for i in range(n):
            grown = functools.reduce(operator.or_, (up[j] for j in bits(up[i])), up[i])
            if grown != up[i]:
                up[i], changed = grown, True
    return up


def kernel_posets():
    """Every poset of up to 5 points, then 150 seeded random ones of up
    to 12 points at random densities."""
    for n in range(6):
        yield from all_posets_upto_iso(n)
    rng = random.Random("kernels")
    for _ in range(150):
        yield random_poset(rng.randint(0, 12), rng, rng.random())


def test_opens_and_height_match_their_references():
    for p in kernel_posets():
        assert p.opens() == scan_opens(p), p
        assert p.height() == longest_chain(p), p


def test_opens_of_the_16_point_antichain():
    p = FinitePoset.antichain(16)
    assert len(p.opens()) == 65_536
    assert p.opens() == scan_opens(p)
    assert p.height() == 1


def assert_opens_between_match(p, opens, lo, hi):
    got = p.opens_between(lo, hi)
    assert len(got) == len(set(got)), (p, lo, hi)
    assert sorted(got) == sorted(u for u in opens if u & lo == lo and not u & ~hi), (p, lo, hi)
    if got:
        # the largest comes last and holds every other one
        assert p.largest_open_between(lo, hi) == got[-1], (p, lo, hi)
        assert all(u & ~got[-1] == 0 for u in got), (p, lo, hi)


def test_opens_between_every_bound_on_small_posets():
    for p in [FinitePoset(0, [])] + [q for n in range(1, 5) for q in all_posets_upto_iso(n)]:
        opens = scan_opens(p)
        for lo in opens:
            for hi in range(1 << p.n):
                assert_opens_between_match(p, opens, lo, hi)


def test_opens_between_on_random_posets():
    rng = random.Random("opens between")
    for _ in range(150):
        p = random_poset(rng.randint(1, 10), rng, rng.random())
        opens = scan_opens(p)
        for _ in range(8):
            lo, hi = rng.choice(opens), rng.randrange(1 << p.n)
            assert_opens_between_match(p, opens, lo, hi)
            assert_opens_between_match(p, opens, lo, lo | hi)


def test_from_cover_matches_a_fixpoint_closure():
    # random edge lists in both directions, so about a third hold a
    # cycle; those must fail with the message the closed relation fails
    # with
    rng = random.Random("closure")
    failed = 0
    for _ in range(400):
        n = rng.randint(1, 12)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n))]
        try:
            want = FinitePoset(n, fixpoint_closure(n, pairs))
        except ValueError as e:
            failed += 1
            with pytest.raises(ValueError, match="^%s$" % re.escape(str(e))):
                FinitePoset.from_cover(n, pairs)
        else:
            assert FinitePoset.from_cover(n, pairs) == want
    assert 100 < failed < 300


@pytest.mark.parametrize("n", range(5))
def test_all_posets_match_relation_scan_in_order(n):
    # one class per poset, given by the first member the relation scan
    # meets, in the order the scan meets them
    first = {}
    for p in scan_all_posets(n):
        first.setdefault(p.canon()[0], p)
    assert [p.up for p in all_posets_upto_iso(n)] == [p.up for p in first.values()]


@given(rand_posets(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_canon_is_invariant_under_relabeling(p, rng):
    perm = list(range(p.n))
    rng.shuffle(perm)
    assert relabel(p, perm).canon() == p.canon()


def test_canon_separates_the_5_point_classes():
    # Invariance (above) plus 63 distinct values over every relabeling
    # of the 63 classes, which is every labeled poset on 5 points: canon
    # neither splits nor merges an isomorphism class.
    reps = all_posets_upto_iso(5)
    perms = list(itertools.permutations(range(5)))
    assert len({relabel(p, perm).canon()[0] for p in reps for perm in perms}) == 63
    assert len({least_labelings(p)[0] for p in reps}) == 63


def small_classes_relabeled():
    """Every class of up to 6 points under a seeded random relabeling,
    then 20 seeded random labeled posets of 7 points."""
    rng = random.Random("canon")
    for n in range(7):
        for p in all_posets_upto_iso(n):
            perm = list(range(n))
            rng.shuffle(perm)
            yield relabel(p, perm)
    for _ in range(20):
        yield random_poset(7, rng, rng.random())


def test_canon_matches_the_least_labeling_scan():
    for p in small_classes_relabeled():
        key, q = p.canon()
        want, labelings = least_labelings(p)
        assert key == want, p
        assert q == relabel(p, labelings[0]), p


def test_least_labelings_are_reverse_linear_extensions():
    # canon() hands out labels 0, 1, ... top down only because of this
    for n in range(7):
        for p in all_posets_upto_iso(n):
            for label in least_labelings(p)[1]:
                assert all(label[i] > label[j] for i in range(n) for j in bits(p.up[i]) if i != j)
