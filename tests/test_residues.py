import random

from hypothesis import given, settings, strategies as st

from hierkit.diff_hierarchy import denote_mask, sigma_pi_levels
from hierkit.finite_space import FinitePoset, all_posets_upto_iso, random_poset
from hierkit.residues import (
    hausdorff_decompose,
    residue_levels,
    residue_sequence,
    trim_code,
)


def test_chain_example():
    p = FinitePoset.chain(3)
    F, theta = residue_sequence(p, 0b010)  # a = {1}
    assert theta == 4
    assert F == [0b111, 0b011, 0b001, 0, 0]


def test_empty_and_full():
    p = FinitePoset.chain(3)
    F, theta = residue_sequence(p, 0)
    assert theta == 2 and F[1] == 0
    F, theta = residue_sequence(p, p.carrier)
    assert theta == 2 and F[1] == p.carrier and F[2] == 0


def test_chain_stall_then_fall():
    # cl(a & F) can fix F while the complement step still shrinks it:
    # on the 2-chain with a = {1}, F_1 = cl({1}) = E.
    p = FinitePoset.chain(2)
    F, theta = residue_sequence(p, 0b10)
    assert F[1] == p.carrier
    assert F[theta] == 0


def test_decompose_chain_example():
    p = FinitePoset.chain(3)
    d = hausdorff_decompose(p, 0b010)
    assert d.theta == 4
    assert denote_mask(d.code, p) == 0b010
    assert d.trimmed_level == 2
    assert d.co_level is None
    assert denote_mask(d.trimmed_code, p) == 0b010


def test_decompose_degenerate():
    p = FinitePoset.chain(3)
    assert hausdorff_decompose(p, 0).trimmed_level == 0
    d = hausdorff_decompose(p, p.carrier)
    assert d.trimmed_level == 1 and d.co_level == 0


def test_decompose_open_and_closed():
    p = FinitePoset.chain(3)
    d = hausdorff_decompose(p, 0b100)  # open {2}
    assert d.trimmed_level == 1 and d.co_level is None
    d = hausdorff_decompose(p, 0b011)  # closed {0,1}
    assert d.trimmed_level == 2 and d.co_level == 1


def test_trim_moves():
    # leading empty entry
    assert trim_code([0, 0b1], 2) == ([0b1], 1)
    # adjacent equal pair, then nothing left
    assert trim_code([0, 0b11, 0b11], 3) == ([], 0)
    # both rules chained
    assert trim_code([0, 0, 0b1, 0b111, 0b111], 5) == ([0b1], 1)


def _trim_by_scans(masks, alpha):
    """The rewriting trim_code does, one move per scan: a leading empty
    entry first, else the first adjacent equal pair."""
    masks = list(masks)
    while True:
        if masks and masks[0] == 0:
            masks.pop(0)
            alpha -= 1
            continue
        pair = next((i for i in range(len(masks) - 1) if masks[i] == masks[i + 1]), None)
        if pair is None:
            return masks, alpha
        del masks[pair : pair + 2]
        alpha -= 2


# few distinct values, so that equal neighbours and empty entries are
# common; the sequences need not be monotone
@given(st.lists(st.integers(0, 3), max_size=12), st.integers(0, 20))
@settings(max_examples=300, deadline=None)
def test_trim_in_one_pass_matches_the_scans(masks, alpha):
    assert trim_code(masks, alpha) == _trim_by_scans(masks, alpha)


def test_clopen_lands_on_co_side():
    # {0} in the 2-antichain is clopen; the decomposition of either side
    # ends with the carrier and the embedded co-level is the exact pi.
    p = FinitePoset.antichain(2)
    d = hausdorff_decompose(p, 0b01)
    assert d.trimmed_level == 2 and d.co_level == 1
    assert residue_levels(p, 0b01) == (1, 1)


def test_trim_is_not_always_minimal():
    # 2 < 1 < {0, 3}: the set {0, 2} has level (3, 2) but its residue
    # code only trims to level 4 (re-basing on the complement side would
    # save a step, which trim_code cannot see).  residue_levels must not
    # inherit that slack.
    p = FinitePoset.from_cover(4, [(2, 1), (1, 0), (1, 3)])
    d = hausdorff_decompose(p, 0b0101)
    assert d.trimmed_level == 4 and d.co_level == 3
    assert residue_levels(p, 0b0101) == (3, 2)
    assert sigma_pi_levels(p, 0b0101) == (3, 2)


def test_levels_on_chain():
    p = FinitePoset.chain(3)
    assert residue_levels(p, 0) == (0, 1)
    assert residue_levels(p, p.carrier) == (1, 0)
    assert residue_levels(p, 0b100) == (1, 2)
    assert residue_levels(p, 0b011) == (2, 1)
    assert residue_levels(p, 0b010) == (2, 3)


def test_levels_agree_with_bruteforce_exhaustive_small():
    for n in range(1, 4):
        for p in all_posets_upto_iso(n):
            for mask in range(1 << p.n):
                assert residue_levels(p, mask) == sigma_pi_levels(p, mask), (
                    p.to_json(),
                    mask,
                )


@given(st.integers(4, 6), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_levels_agree_with_bruteforce_random(n, seed):
    rng = random.Random(seed)
    p = random_poset(n, rng)
    mask = rng.randrange(1 << p.n)
    assert residue_levels(p, mask) == sigma_pi_levels(p, mask)


@given(st.integers(1, 7), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_chain_shape_invariants(n, seed):
    rng = random.Random(seed)
    p = random_poset(n, rng)
    mask = rng.randrange(1 << p.n)
    F, theta = residue_sequence(p, mask)
    assert theta % 2 == 0 and len(F) == theta + 1
    assert F[0] == p.carrier and F[theta] == 0
    for i, f in enumerate(F):
        assert p.is_open(p.carrier & ~f)  # closed
        if i:
            assert f & F[i - 1] == f  # decreasing
    # membership slices: a-points exit at even indices, others at odd
    for x in range(p.n):
        eta = next(i for i, f in enumerate(F) if not (f >> x) & 1)
        assert eta % 2 == (0 if (mask >> x) & 1 else 1)


@given(st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_decompose_denotes_input(n, seed):
    rng = random.Random(seed)
    p = random_poset(n, rng)
    mask = rng.randrange(1 << p.n)
    d = hausdorff_decompose(p, mask)
    assert denote_mask(d.code, p) == mask
    assert denote_mask(d.trimmed_code, p) == mask
    assert d.trimmed_level <= d.theta + 1
