import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from hierkit.alt_trees import (
    AltChains,
    ambiguity_audit,
    check_alternating_chain,
    classify_by_trees,
    kb_less,
    kb_sorted,
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


# -- Kleene-Brouwer order -----------------------------------------------------


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
    nodes = {tuple(p[:d]) for p in paths for d in range(len(p) + 1)} | {()}
    assert all(n[:-1] in nodes for n in nodes if n)
    order = kb_sorted(nodes)
    assert order[-1] == ()
    rank = {node: r for r, node in enumerate(order)}
    for a, b in itertools.product(nodes, repeat=2):
        assert kb_less(a, b) == (rank[a] < rank[b])


@pytest.mark.parametrize(
    "mask, chain, eps, message",
    [
        (0b101, (0, 1, 0), 1, "labels not strictly increasing at (1, 0)"),
        (0b011, (0, 1), 1, "membership does not alternate at (1,)"),
        (0b010, (0, 1), 1, "root sign is not eps=1"),
    ],
)
def test_alternating_chain_check_refuses(mask, chain, eps, message):
    # each refusal of a chain on 0 < 1 < 2; the witness tests below check
    # the chains it accepts
    with pytest.raises(ValueError) as exc:
        check_alternating_chain(FinitePoset.chain(3), mask, chain, eps)
    assert str(exc.value) == message


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
        r, chain = chains.rank(eps), chains.witness(eps)
        if r is None:
            assert chain is None
        else:
            assert len(chain) - 1 == r
            check_alternating_chain(p, mask, chain, eps)


def test_witnesses_are_longest_chains_on_random_posets():
    rng = random.Random(16)
    for _ in range(4000):
        p = random_poset(rng.randint(1, 20), rng, rng.uniform(0.05, 0.6))
        mask = rng.randrange(1 << p.n)
        levels = classify_by_trees(p, mask)
        assert residue_levels(p, mask) == levels
        for eps, level in ((1, levels[0]), (0, levels[1])):
            chain = AltChains(p, mask).witness(eps)
            if level == 0:
                assert chain is None
                continue
            check_alternating_chain(p, mask, chain, eps)
            assert len(chain) - 1 == level - 1


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
    assert (len(sigma), len(pi)) == (k, k + 1)
    assert pi[0] == 0


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
    assert 0b01 in rep.violations[1]
    assert rep.violations[2] == []


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
                assert rep.violations[3] == []


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
        assert mask in rep.violations[2]
