import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from hierkit.alt_trees import (
    AltChains,
    LabeledAltTree,
    WfTree,
    ambiguity_audit,
    ambiguous_drop_surgery,
    classify_by_trees,
    kb_less,
    kb_sorted,
    prune_to_rank,
)
from hierkit.diff_hierarchy import denote_mask, sigma_pi_levels
from hierkit.finite_space import FinitePoset, all_posets_upto_iso, random_poset
from hierkit.residues import residue_levels


# -- independent oracle: exhaust alternating chains -------------------------


def oracle_max_rank(poset, a_mask, eps):
    best = None

    def extend(chain):
        nonlocal best
        best = max(best, len(chain) - 1) if best is not None else len(chain) - 1
        last = chain[-1]
        for y in range(poset.n):
            if poset.lt(last, y) and ((a_mask >> y) & 1) != ((a_mask >> last) & 1):
                extend(chain + [y])

    for v in range(poset.n):
        if bool((a_mask >> v) & 1) == bool(eps):
            extend([v])
    return best


# -- trees and ranks ---------------------------------------------------------


def test_rank_conventions():
    assert WfTree([()]).rank() == 0
    path = WfTree([(0,), (0, 0), (0, 0, 0)])
    assert path.rank() == 3
    t = WfTree([(0,), (1,), (1, 0), (1, 0, 0)])
    assert t.rank() == 3
    assert t.node_rank((0,)) == 0 and t.node_rank((1,)) == 2


@given(st.lists(st.lists(st.integers(0, 3), max_size=4), max_size=12))
def test_children_and_ranks_match_their_definitions(seqs):
    # children in the order of iteration over nodes, as prune_to_rank's
    # first match relies on; ranks by the recursive definition
    t = WfTree(s[:k] for s in seqs for k in range(len(s) + 1))

    def rank(node):
        kids = [m for m in t.nodes if m[:-1] == node and len(m) == len(node) + 1]
        return max((rank(k) + 1 for k in kids), default=0)

    for node in t.nodes:
        want = [m for m in t.nodes if len(m) == len(node) + 1 and m[: len(node)] == node]
        assert t.children(node) == want
        assert t.node_rank(node) == rank(node)
    assert t.children((9, 9)) == []


def test_prefix_closure_enforced():
    with pytest.raises(ValueError):
        WfTree([(0, 1)])


def test_kb_order():
    # extensions come first, then first-difference
    assert kb_less((0, 0), (0,))
    assert kb_less((0, 5), (1,))
    assert not kb_less((1,), (0, 5))
    nodes = [(), (0,), (0, 0), (1,)]
    assert kb_sorted(nodes) == [(0, 0), (0,), (1,), ()]


@given(st.lists(st.lists(st.integers(0, 3), max_size=4), max_size=8))
def test_kb_is_total_and_antisymmetric(seqs):
    nodes = set(tuple(s) for s in seqs)
    for a, b in itertools.product(nodes, repeat=2):
        if a == b:
            assert not kb_less(a, b)
        else:
            assert kb_less(a, b) != kb_less(b, a)


_KB_PATHS = st.one_of(
    st.lists(st.lists(st.integers(0, 3), max_size=4), max_size=10),
    st.lists(
        st.lists(st.tuples(st.integers(0, 5), st.integers(1, 4)), max_size=4),
        max_size=10,
    ),
)


@given(_KB_PATHS)
def test_kb_sorted_agrees_with_kb_less(paths):
    # prefix-closed trees with int entries or with (m, t) entries, as
    # the staged transform builds them
    nodes = WfTree({tuple(p[:d]) for p in paths for d in range(len(p) + 1)}).nodes
    order = kb_sorted(nodes)
    assert order[-1] == ()
    rank = {node: r for r, node in enumerate(order)}
    for a, b in itertools.product(nodes, repeat=2):
        assert kb_less(a, b) == (rank[a] < rank[b])


def test_labeled_tree_validation():
    p = FinitePoset.chain(3)
    t = WfTree([(0,)])
    good = LabeledAltTree(t, {(): 0, (0,): 1})
    good.validate(p, 0b010)  # 0 out, 1 in: alternates
    with pytest.raises(ValueError):
        LabeledAltTree(t, {(): 0, (0,): 1}).validate(p, 0b011)  # both in
    with pytest.raises(ValueError):
        LabeledAltTree(t, {(): 1, (0,): 0}).validate(p, 0b010)  # decreasing
    with pytest.raises(ValueError):
        good.validate(p, 0b010, eps=1)  # root sign is 0


# -- pruning -----------------------------------------------------------------


def chain_tree(poset, labels):
    nodes = [tuple([0] * i) for i in range(len(labels))]
    return LabeledAltTree(WfTree(nodes), dict(zip(nodes, labels)))


def test_prune_path():
    p = FinitePoset.chain(4)
    a = 0b0101  # 0 in, 1 out, 2 in, 3 out
    f = chain_tree(p, [0, 1, 2, 3])
    f.validate(p, a)
    g, emb = prune_to_rank(f, p, a, 1, eps=0)
    assert g.rank() == 1 and len(emb) == 2
    g, _ = prune_to_rank(f, p, a, 2, eps=1)  # drop the root
    assert g.rank() == 2
    g, _ = prune_to_rank(f, p, a, 0, eps=0)
    assert g.rank() == 0 and len(g.tree) == 1
    with pytest.raises(ValueError):
        prune_to_rank(f, p, a, 4, eps=1)
    with pytest.raises(ValueError):
        prune_to_rank(f, p, a, 3, eps=0)  # wrong sign at full rank


@given(st.integers(2, 6), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_prune_random(n, seed):
    rng = random.Random(seed)
    p = random_poset(n, rng)
    mask = rng.randrange(1 << p.n)
    for eps in (0, 1):
        f = AltChains(p, mask).witness(eps)
        if f is None or f.rank() == 0:
            continue
        beta = rng.randrange(f.rank())
        g, emb = prune_to_rank(f, p, mask, beta, rng.choice((0, 1)))
        assert g.rank() == beta
        for new, old in emb.items():
            assert g.labels[new] == f.labels[old]


# -- rank computation vs oracle ----------------------------------------------


def test_chain_examples():
    p = FinitePoset.chain(3)
    assert AltChains(p, 0b010).rank(1) == 1
    assert AltChains(p, 0b101).rank(1) == 2
    assert AltChains(p, 0).rank(1) is None
    assert AltChains(p, p.carrier).rank(0) is None


def test_classification_contract():
    # a is D_n exactly when no (a,1)-alternating tree reaches rank n
    p = FinitePoset.chain(3)
    a = 0b010
    sigma, _ = sigma_pi_levels(p, a)
    r = AltChains(p, a).rank(1)
    for n in range(5):
        assert (sigma <= n) == (r < n)


@given(st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_rank_matches_oracle(n, seed):
    rng = random.Random(seed)
    p = random_poset(n, rng)
    mask = rng.randrange(1 << p.n)
    for eps in (0, 1):
        assert AltChains(p, mask).rank(eps) == oracle_max_rank(p, mask, eps)


def test_classify_agrees_with_bruteforce_exhaustive():
    for n in range(1, 4):
        for p in all_posets_upto_iso(n):
            for mask in range(1 << p.n):
                assert classify_by_trees(p, mask) == sigma_pi_levels(p, mask)


@given(st.integers(2, 6), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_witness_tree_attains_rank(n, seed):
    rng = random.Random(seed)
    p = random_poset(n, rng)
    mask = rng.randrange(1 << p.n)
    for eps in (0, 1):
        chains = AltChains(p, mask)
        r, t = chains.rank(eps), chains.witness(eps)
        if r is None:
            assert t is None
        else:
            assert t.rank() == r
            t.validate(p, mask, eps)


def test_witnesses_are_longest_chains_on_random_posets():
    rng = random.Random(16)
    for _ in range(4000):
        p = random_poset(rng.randint(1, 20), rng, rng.uniform(0.05, 0.6))
        mask = rng.randrange(1 << p.n)
        levels = classify_by_trees(p, mask)
        assert residue_levels(p, mask) == levels
        for eps, level in ((1, levels[0]), (0, levels[1])):
            t = AltChains(p, mask).witness(eps)
            if level == 0:
                assert t is None
                continue
            t.validate(p, mask, eps)
            assert all(len(t.tree.children(node)) <= 1 for node in t.tree.nodes)
            assert t.rank() == level - 1 and len(t.tree) == level


@pytest.mark.parametrize("k", range(3, 11))
def test_parity_witnesses_on_boolean_lattices(k):
    # 2^[k] ordered by inclusion, and the sets of odd size: the longest
    # alternating chains climb one element at a time from {} (outside)
    # or from a singleton (inside)
    cover = [(s, s | 1 << i) for s in range(1 << k) for i in range(k) if not s >> i & 1]
    p = FinitePoset.from_cover(1 << k, cover)
    odd = sum(1 << s for s in range(1 << k) if s.bit_count() % 2)
    assert classify_by_trees(p, odd) == residue_levels(p, odd) == (k, k + 1)
    chains = AltChains(p, odd)
    sigma, pi = chains.witness(1), chains.witness(0)
    assert (len(sigma.tree), len(pi.tree)) == (k, k + 1)
    assert pi.labels[()] == 0


# -- code synthesis ----------------------------------------------------------


def sigma_code(poset, a_mask):
    chains = AltChains(poset, a_mask)
    return chains.code(chains.levels()[0])


def test_code_from_trees_examples():
    p = FinitePoset.chain(3)
    c = sigma_code(p, 0b010)
    assert c.alpha.as_int() == 2
    assert denote_mask(c, p) == 0b010
    c = sigma_code(p, 0b110)  # open
    assert len(c.entries) == 1
    assert sigma_code(p, 0).entries == ()


@given(st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_code_from_trees_denotes_at_sigma(n, seed):
    rng = random.Random(seed)
    p = random_poset(n, rng)
    mask = rng.randrange(1 << p.n)
    c = sigma_code(p, mask)
    assert denote_mask(c, p) == mask
    assert c.alpha.as_int() == classify_by_trees(p, mask)[0]


# -- ambiguity ---------------------------------------------------------------


def test_audit_chain_clean():
    rep = ambiguity_audit(FinitePoset.chain(3), 2)
    assert rep.ok()


def test_audit_antichain_level1_fails_level2_holds():
    rep = ambiguity_audit(FinitePoset.antichain(2), 2)
    assert not rep.equal_at[1]
    assert 0b01 in rep.violations[1]
    assert rep.equal_at[2]


def test_audit_least_element_all_levels():
    # With a least element the hierarchy has no ambiguous sets at any
    # finite level; without one, level 3 is still clean at this size
    # (the smallest level-3 ambiguous sets need 6 points).
    for n in range(1, 5):
        for p in all_posets_upto_iso(n):
            rep = ambiguity_audit(p, 3)
            if p.least_element() is not None:
                assert rep.ok()
            else:
                assert rep.equal_at[3]


def test_audit_successor_level_counterexamples():
    # Sets ambiguous at level 2 that are neither open nor closed exist
    # on three 4-element posets, all without least elements.  The
    # smallest is two disjoint 2-chains with {top of one, bottom of the
    # other}; adding a least element dissolves every one of them.
    for cover, mask in [
        ([[2, 1], [3, 0]], 0b0101),
        ([[2, 1], [3, 0], [3, 1]], 0b0101),
        ([[2, 0], [2, 1], [3, 0], [3, 1]], 0b0101),
    ]:
        p = FinitePoset.from_json({"n": 4, "cover": cover})
        assert p.least_element() is None
        assert sigma_pi_levels(p, mask) == (2, 2)
        rep = ambiguity_audit(p, 2)
        assert not rep.equal_at[2]
        assert mask in rep.violations[2]


def test_surgery_construction():
    # two disjoint 2-chains a0 < a1, b0 < b1: {1, 2} is {a1, b0}, the top
    # of one chain and the bottom of the other.  It is neither open nor
    # closed, at levels (2, 2); the surgery glues the new point 4 below
    # both members and the levels stay (2, 2).
    p = FinitePoset.from_json({"n": 4, "cover": [[0, 1], [2, 3]]})
    a = 0b0110
    assert a not in p.opens() and p.carrier & ~a not in p.opens()
    assert sigma_pi_levels(p, a) == (2, 2)
    bigger, new_mask, (s, pi) = ambiguous_drop_surgery(p, a, 2)
    assert bigger.cover_pairs() == [(0, 1), (2, 3), (4, 1), (4, 2)]
    assert new_mask == a | 0b10000
    assert (s, pi) == sigma_pi_levels(bigger, new_mask) == (2, 2)

    # level 3 above a least element: on the diamond 0 < 1, 2 < 3 the set
    # {0, 3} of bottom and top has levels (3, 2).  The new point goes
    # below 0, becomes the least element, and the levels stay (3, 2).
    diamond = FinitePoset.from_json({"n": 4, "cover": [[0, 1], [0, 2], [1, 3], [2, 3]]})
    a = 0b1001
    assert sigma_pi_levels(diamond, a) == (3, 2)
    bigger, new_mask, (s, pi) = ambiguous_drop_surgery(diamond, a, 2)
    assert bigger.cover_pairs() == [(0, 1), (0, 2), (1, 3), (2, 3), (4, 0)]
    assert bigger.least_element() == 4 and new_mask == a | 0b10000
    assert (s, pi) == sigma_pi_levels(bigger, new_mask) == (3, 2)


def test_surgery_drop_can_fail_without_least_element():
    # the adjunction is sound but the level does not always fall
    p = FinitePoset.from_json({"n": 4, "cover": [[2, 1], [3, 0]]})
    a = 0b0101
    assert sigma_pi_levels(p, a) == (2, 2)
    bigger, new_mask, (s, pi) = ambiguous_drop_surgery(p, a, 1)
    assert (s, pi) == (2, 2)


def test_surgery_guards():
    p = FinitePoset.antichain(2)
    with pytest.raises(ValueError):
        ambiguous_drop_surgery(p, 0b01, 0)
    chain = FinitePoset.chain(4)
    with pytest.raises(ValueError):
        ambiguous_drop_surgery(chain, 0b0101, 1)  # level (3,4): not ambiguous at 2


@given(st.integers(2, 5), st.integers(0, 10**6), st.integers(1, 2))
@settings(max_examples=80, deadline=None)
def test_surgery_generated(n, seed, lvl):
    rng = random.Random(seed)
    p = random_poset(n, rng)
    mask = rng.randrange(1 << p.n)
    s, pi = classify_by_trees(p, mask)
    if max(s, pi) > lvl + 1:
        return
    bigger, new_mask, (s2, p2) = ambiguous_drop_surgery(p, mask, lvl)
    # sound parts: old points keep their membership, ambiguity at lvl+1
    # survives the adjunction.  (The level drop itself can fail; see
    # test_surgery_drop_can_fail_without_least_element.)
    assert new_mask & p.carrier == mask
    assert max(s2, p2) <= lvl + 1
    if p.least_element() is not None:
        assert min(s2, p2) <= lvl
