import ast
import itertools
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import hierkit.diff_hierarchy
from hierkit.diff_hierarchy import (
    DiffCode,
    SearchBudgetExceeded,
    code_from_masks,
    denote_mask,
    embed_co,
    eval_diff_mask,
    level_bruteforce,
    normalize_monotone,
    pad,
    sigma_pi_levels,
)
from hierkit.finite_space import FinitePoset, all_posets_upto_iso, mask_of, random_poset
from hierkit.ordinals import OMEGA, Ordinal
from hierkit.residues import residue_levels


# -- independent oracle: sets-of-ints semantics, no shared code ------------


def oracle_eval(alpha_par, entries, x, co=False):
    """entries: sorted list of (int index, set of points)."""
    verdict = False
    for i, s in entries:
        if x in s:
            verdict = (i % 2) != alpha_par
            break
    return (not verdict) if co else verdict


def oracle_least_level(poset, target):
    """Least n such that some increasing n-sequence of opens codes
    `target` (as a set of points).  Dumb product enumeration."""
    opens = [set(v for v in range(poset.n) if (m >> v) & 1) for m in poset.opens()]
    for n in itertools.count():
        for seq in itertools.product(opens, repeat=n):
            if any(not seq[i] <= seq[i + 1] for i in range(n - 1)):
                continue
            denoted = set()
            for x in range(poset.n):
                for i, s in enumerate(seq):
                    if x in s:
                        if i % 2 != n % 2:
                            denoted.add(x)
                        break
            if denoted == target:
                return n
        if n > poset.n + 1:  # pragma: no cover
            raise AssertionError("oracle ran away")


def mask_to_set(m):
    return set(i for i in range(m.bit_length()) if (m >> i) & 1)


def random_code(poset, rng, max_len=4):
    opens = poset.opens()
    k = rng.randrange(0, max_len + 1)
    masks = [rng.choice(opens) for _ in range(k)]
    alpha = k + rng.randrange(0, 3)
    pol = rng.choice(["D", "co-D"])
    ents = tuple((i, m) for i, m in enumerate(masks) if m)
    return DiffCode(alpha, pol, ents)


# -- structure ---------------------------------------------------------------


def test_code_validation():
    with pytest.raises(ValueError):
        DiffCode(2, "D", ((1, 0b1), (1, 0b10)))  # not strictly increasing
    with pytest.raises(ValueError):
        DiffCode(2, "D", ((2, 0b1),))  # index not below alpha
    with pytest.raises(ValueError):
        DiffCode(1, "X", ())
    c = DiffCode(OMEGA + 1, "D", ((OMEGA, 0b1),))
    assert c.alpha == Ordinal(1, 1)


def test_level_zero_degenerate():
    p = FinitePoset.chain(3)
    empty = DiffCode(0, "D", ())
    full = DiffCode(0, "co-D", ())
    assert denote_mask(empty, p) == 0
    assert denote_mask(full, p) == p.carrier


def test_eval_matches_oracle_handmade():
    # alpha = 3, entries at 0 and 2
    c = DiffCode(3, "D", ((0, 0b100), (2, 0b111)))
    ents = [(0, {2}), (2, {0, 1, 2})]
    for x in range(3):
        assert eval_diff_mask(c, x) == oracle_eval(1, ents, x)
    cc = DiffCode(c.alpha, "co-D", c.entries)
    for x in range(3):
        assert eval_diff_mask(cc, x) == oracle_eval(1, ents, x, co=True)


@given(st.integers(2, 5), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_eval_matches_oracle_random(n, seed):
    rng = random.Random(seed)
    p = random_poset(n, rng)
    c = random_code(p, rng)
    ents = [(i.as_int(), mask_to_set(m)) for i, m in c.entries]
    for x in range(p.n):
        assert eval_diff_mask(c, x) == oracle_eval(
            c.alpha.parity(), ents, x, co=(c.polarity == "co-D")
        )


# -- transformations preserve denotation ------------------------------------


@given(st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_normalize_pad_embed_preserve_denotation(n, seed):
    rng = random.Random(seed)
    p = random_poset(n, rng)
    c = random_code(p, rng)
    want = denote_mask(c, p)
    assert denote_mask(normalize_monotone(c, lambda u, v: u | v), p) == want
    up = c.alpha + rng.randrange(0, 3)
    assert denote_mask(pad(c, up), p) == want
    if c.polarity == "co-D":
        assert denote_mask(embed_co(c, p.carrier), p) == want


def test_pad_examples():
    p = FinitePoset.chain(3)
    a0 = 0b100
    c1 = DiffCode(1, "D", ((0, a0),))
    assert denote_mask(pad(c1, 3), p) == a0
    c2 = pad(c1, 2)
    assert c2.entries[0][0].as_int() == 1
    assert denote_mask(c2, p) == a0


def test_embed_co_example():
    p = FinitePoset.chain(3)
    a0 = 0b100
    co = DiffCode(1, "co-D", ((0, a0),))
    d2 = embed_co(co, p.carrier)
    assert d2.alpha.as_int() == 2 and d2.polarity == "D"
    assert denote_mask(d2, p) == p.carrier & ~a0


def test_pad_below_alpha_rejected():
    with pytest.raises(ValueError):
        pad(DiffCode(3, "D", ()), 2)


# -- the nested-triple identities -------------------------------------------


def nested_triple(poset, rng):
    opens = poset.opens()
    a, b, c = sorted(rng.choice(opens) for _ in range(3))
    return a, a | b, a | b | c


@given(st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_difference_identities(n, seed):
    rng = random.Random(seed)
    p = random_poset(n, rng)
    a0, a1, a2 = nested_triple(p, rng)
    lhs = denote_mask(code_from_masks(2, [0, a0]), p) | denote_mask(
        code_from_masks(2, [a1, a2]), p
    )
    rhs = denote_mask(code_from_masks(3, [a0, a1, a2]), p)
    assert lhs == rhs
    lhs2 = denote_mask(code_from_masks(3, [0, a0, p.carrier]), p) & denote_mask(
        code_from_masks(3, [a1, a2, p.carrier]), p
    )
    rhs2 = denote_mask(code_from_masks(4, [a0, a1, a2, p.carrier]), p)
    assert lhs2 == rhs2


# -- brute-force level search ------------------------------------------------


def test_levels_on_3chain():
    p = FinitePoset.chain(3)
    assert level_bruteforce(p, 0) == 0
    assert level_bruteforce(p, p.carrier) == 1
    assert level_bruteforce(p, 0b100) == 1  # open
    assert level_bruteforce(p, 0b011) == 2  # closed, proper
    assert sigma_pi_levels(p, 0b010) == (2, 3)


@given(st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_level_matches_oracle(n, seed):
    rng = random.Random(seed)
    p = random_poset(n, rng)
    mask = rng.randrange(1 << p.n)
    assert level_bruteforce(p, mask) == oracle_least_level(p, mask_to_set(mask))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_level_matches_oracle_exhaustive(n):
    for p in all_posets_upto_iso(n):
        for mask in range(1 << n):
            assert level_bruteforce(p, mask) == oracle_least_level(p, mask_to_set(mask))


@pytest.mark.parametrize("density", [0.2, 0.35, 0.5])
def test_level_search_expands_each_state_once(density):
    # a 16-point poset as the benchmark builds them: a random DAG on a
    # shuffled labelling, closed transitively.  There are (height + 1) *
    # |opens| states (slots left, union), so a search that expands none
    # twice stays within that budget; without the dead-state memo the
    # search passes it on most subsets at densities 0.35 and 0.5.
    rng = random.Random("16 points at %s" % density)
    p = random_poset(16, rng, edge_prob=density)
    for _ in range(32):
        mask = rng.randrange(1 << p.n)
        level_bruteforce(p, mask, max_nodes=(p.height() + 1) * len(p.opens()))


def test_level_search_budget():
    p = FinitePoset.chain(3)
    assert level_bruteforce(p, 0b010, max_nodes=20) == 2
    with pytest.raises(SearchBudgetExceeded, match="^3$"):
        level_bruteforce(p, 0b010, max_nodes=2)


def unbanded_level(poset, target_mask):
    """Reference: the level search as a scan of every open at every
    state, kept when its slot allows it.  (level, states expanded)."""
    cap = poset.height() + 1
    larger_first = poset.opens()[::-1]
    dead = [set() for _ in range(cap + 1)]
    nodes = 0
    target = target_mask & poset.carrier

    def finishes(r, union):
        nonlocal nodes
        nodes += 1
        if r == 0:
            if not target & ~union:
                return True
        else:
            banned = ~(union | target) if r % 2 else target & ~union
            for u in larger_first:
                if (
                    u & union == union
                    and not u & banned
                    and u not in dead[r - 1]
                    and finishes(r - 1, u)
                ):
                    return True
        dead[r].add(union)
        return False

    return next((n, nodes) for n in range(cap + 1) if finishes(n, 0))


def assert_expands_the_reference_states(p, mask):
    # the least passing max_nodes is the number of states expanded
    level, nodes = unbanded_level(p, mask)
    assert level_bruteforce(p, mask, max_nodes=nodes) == level
    with pytest.raises(SearchBudgetExceeded):
        level_bruteforce(p, mask, max_nodes=nodes - 1)


def test_level_search_expands_the_reference_states():
    for p in [FinitePoset(0, [])] + [q for n in range(1, 5) for q in all_posets_upto_iso(n)]:
        for mask in range(1 << p.n):
            assert_expands_the_reference_states(p, mask)
    rng = random.Random("size band")
    for _ in range(150):
        p = random_poset(rng.randint(1, 12), rng, rng.random())
        assert_expands_the_reference_states(p, rng.randrange(1 << p.n))


def test_level_search_expands_the_reference_states_on_sparse_posets():
    # few edges make many opens, and each state's slot allows many
    rng = random.Random("sparse")
    for _ in range(60):
        p = random_poset(rng.randint(13, 15), rng, rng.uniform(0.05, 0.15))
        mask = rng.randrange(1 << p.n)
        assert_expands_the_reference_states(p, mask)
        assert_expands_the_reference_states(p, p.carrier & ~mask)


def test_level_search_never_lists_every_open(monkeypatch):
    # the antichain on 20 points has 2^20 opens, and the sparse poset
    # about 5,000; each state generates only the opens it may try
    def refuse(self):
        raise AssertionError("the level search listed every open")

    rng = random.Random("no opens list")
    posets = [FinitePoset.antichain(20), random_poset(20, rng, 0.1)]
    cases = [(p, rng.randrange(1 << p.n)) for p in posets for _ in range(3)]
    expected = [residue_levels(p, mask) for p, mask in cases]
    monkeypatch.setattr(FinitePoset, "opens", refuse)
    assert [sigma_pi_levels(p, mask) for p, mask in cases] == expected


def test_a_slot_whose_largest_open_succeeds_generates_no_other(monkeypatch):
    # every subset of an antichain is open, so each slot's largest
    # candidate finishes the search; on 24 points, with at least 12 on
    # either side of the set, no slot is small enough to be listed at
    # once, and no state lists its candidates (up to 2^24 of them)
    def refuse(self, lo, hi):
        raise AssertionError("the level search generated a slot's candidates")

    p = FinitePoset.antichain(24)
    rng = random.Random("antichain")
    masks = [p.carrier, 0, (1 << 12) - 1, mask_of(rng.sample(range(24), 12))]
    expected = [residue_levels(p, mask) for mask in masks]
    monkeypatch.setattr(FinitePoset, "opens_between", refuse)
    assert [sigma_pi_levels(p, mask) for mask in masks] == expected


@pytest.mark.parametrize("listed", [0, 3])
def test_level_search_expands_the_reference_states_whatever_slots_list_at_once(
    monkeypatch, listed
):
    # a slot with more free points than `_FREE_POINTS_LISTED` tries its
    # largest open alone before listing the rest; lowered, the limit
    # sends most or all slots down that path, which must expand the
    # same states
    monkeypatch.setattr(hierkit.diff_hierarchy, "_FREE_POINTS_LISTED", listed)
    for p in [q for n in range(1, 5) for q in all_posets_upto_iso(n)]:
        for mask in range(1 << p.n):
            assert_expands_the_reference_states(p, mask)
    rng = random.Random("sparse, listed %d" % listed)
    for _ in range(20):
        p = random_poset(rng.randint(8, 13), rng, rng.uniform(0.05, 0.3))
        mask = rng.randrange(1 << p.n)
        assert_expands_the_reference_states(p, mask)
        assert_expands_the_reference_states(p, p.carrier & ~mask)


CLASSIFIERS = ("diff_hierarchy", "residues", "alt_trees")
SEARCH = {"level_bruteforce", "sigma_pi_levels", "_finishes"}


def classifier_leaks(source, module):
    """'line name' for each place where the classifier `module` reaches
    another classifier: an import of residues or alt_trees (other than
    itself), or of a brute-force search function by name, or a read of
    one as an attribute.  diff_hierarchy's code helpers stay allowed."""
    others = {"residues", "alt_trees"} - {module}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base, *("%s.%s" % (base, a.name) for a in node.names)]
        elif isinstance(node, ast.Attribute) and node.attr in SEARCH:
            names = [node.attr]
        else:
            continue
        found += [
            "%d %s" % (node.lineno, name.lstrip("."))
            for name in names
            if (others | SEARCH) & set(name.split("."))
        ]
    return found


def test_bruteforce_classifier_imports_no_other_classifier():
    # the three classifiers are required to agree, so none may be built
    # from another: the brute-force search imports neither of the other
    # two, and they import neither each other nor the search
    here = pathlib.Path(hierkit.diff_hierarchy.__file__)
    for module in CLASSIFIERS:
        source = here.with_name(module + ".py").read_text()
        assert any(isinstance(n, ast.ImportFrom) for n in ast.walk(ast.parse(source)))
        assert classifier_leaks(source, module) == [], module


@pytest.mark.parametrize(
    "module, source, expected",
    [
        ("diff_hierarchy", "from hierkit.residues import residue_levels\n",
         ["1 hierkit.residues", "1 hierkit.residues.residue_levels"]),
        ("diff_hierarchy", "import hierkit.alt_trees as t\n", ["1 hierkit.alt_trees"]),
        ("residues", "from hierkit import alt_trees\n", ["1 hierkit.alt_trees"]),
        ("alt_trees", "from . import residues\n", ["1 residues"]),
        ("alt_trees", "x = 1\nfrom hierkit.diff_hierarchy import sigma_pi_levels\n",
         ["2 hierkit.diff_hierarchy.sigma_pi_levels"]),
        ("residues", "from .diff_hierarchy import _finishes\n",
         ["1 diff_hierarchy._finishes"]),
        ("residues", "from hierkit import diff_hierarchy\ndiff_hierarchy.level_bruteforce\n",
         ["2 level_bruteforce"]),
        ("residues", "from hierkit.diff_hierarchy import code_from_masks, denote_mask\n", []),
        ("residues", "from hierkit.residues import residue_levels\n", []),
        ("alt_trees", "from hierkit.finite_space import bits\n", []),
    ],
)
def test_the_classifier_guard_flags_what_it_should(module, source, expected):
    assert classifier_leaks(source, module) == expected


@given(st.integers(1, 5), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_level_within_height_bound(n, seed):
    rng = random.Random(seed)
    p = random_poset(n, rng)
    mask = rng.randrange(1 << p.n)
    lvl = level_bruteforce(p, mask)
    assert 0 <= lvl <= p.height()
    assert (lvl == 0) == (mask == 0)
