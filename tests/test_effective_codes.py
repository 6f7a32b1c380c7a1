"""Tree codes, staged presentations, and the difference-code transform.

Oracle layout: Borel-code node meanings are checked against an
independent mask-based set computation; the Hausdorff least-index
semantics against the difference-code evaluator; the F counter and the
alternating tree against hand-worked instances on the cylinder space;
the transform against ground-truth membership oracles on three model
families.
"""

import gc
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierkit import cli, effective_codes
from hierkit.diff_hierarchy import DiffCode, SearchBudgetExceeded, eval_diff
from hierkit.effective_codes import (
    PI,
    SIGMA,
    BorelCode,
    HausdorffCode,
    StagedPresentation,
    _default_pool,
    block_start,
    build_alt_tree,
    claim2_gaps,
    clopen_presentation,
    compute_F,
    empty_presentation,
    eval_borel,
    eval_hausdorff_code,
    first_one_presentation,
    hausdorff_from_diff,
    presentation_from_json,
    rows_presentation,
    stage_ladder,
    verify_transform,
)
from hierkit.alt_trees import kb_sorted
from hierkit.finite_space import FinitePoset, random_poset
from hierkit.ordinals import OMEGA, Ordinal, text
from hierkit.space_models import (
    CylinderModel,
    CylPoint,
    FinitePosetModel,
    index_visible,
)


def fork_model():
    """Two-element chain plus an isolated point: exactly six basic
    opens, and {2} is clopen."""
    return FinitePosetModel(FinitePoset.from_cover(3, [(0, 1)]))


def cyl_points(model, depth, tails=None):
    tails = tails if tails is not None else range(model.alphabet)
    return [
        CylPoint(p, (c,))
        for p in itertools.product(range(model.alphabet), repeat=depth)
        for c in tails
    ]


def by_index(model):
    return lambda s, x: model.point_in_basic(x, s)


def _rooted(nodes):
    """The nodes of a transform tree and its root (), which must make a
    prefix-closed set."""
    nodes = {*nodes, ()}
    assert all(seq[:-1] in nodes for seq in nodes if seq)
    return nodes


# -- borel codes: node meanings against direct set computation ---------------


def test_bare_root_denotes_nothing():
    m = fork_model()
    code = BorelCode([()])
    assert all(not eval_borel(code, m, SIGMA, x) for x in m.points())
    assert all(eval_borel(code, m, PI, x) for x in m.points())


def test_single_leaf_reads_its_open():
    m = fork_model()
    for label in range(len(m.opens)):
        code = BorelCode([(), (label,)])
        for x in m.points():
            assert eval_borel(code, m, SIGMA, x) == m.point_in_basic(x, label)
            assert eval_borel(code, m, PI, x) != m.point_in_basic(x, label)


def test_rank_two_difference_matches_direct_sets():
    m = fork_model()
    # root children (0, 1): meaning is [[(0)]] \ [[(1)]] = O_3 \ O_1
    code = BorelCode([(), (0,), (1,), (0, 3)])
    assert code.ranks[()] == 2
    expected = m.opens[3] & ~m.opens[1]
    for x in m.points():
        assert eval_borel(code, m, SIGMA, x) == bool((expected >> x) & 1)


def test_unpaired_children_are_rejected():
    with pytest.raises(ValueError, match="difference partner"):
        BorelCode([(), (0,), (0, 2)])
    with pytest.raises(ValueError, match="difference partner"):
        BorelCode([(), (0,), (1,), (2,), (0, 3)])
    # rank-1 nodes union their children freely, no pairing needed
    BorelCode([(), (0,), (3,)])


def test_trees_must_be_prefix_closed():
    with pytest.raises(ValueError, match="prefix closed"):
        BorelCode([(), (0, 1)])
    # the root is added, no other missing prefix is
    assert BorelCode([(0,)]) == BorelCode([(), (0,)])
    with pytest.raises(ValueError, match=r"not prefix closed at \(0, 1\)"):
        BorelCode([(0, 1)])


def test_borel_side_names_are_checked():
    with pytest.raises(ValueError, match="side"):
        eval_borel(BorelCode([()]), fork_model(), "both", 0)


def test_borel_json_roundtrip():
    code = BorelCode([(), (0,), (1,), (0, 3)])
    again = BorelCode.from_json(json.loads('{"nodes": [[], [0], [0, 3], [1]]}'))
    assert again == code and hash(again) == hash(code)


def _direct_rank(nodes, node):
    kids = [n for n in nodes if len(n) == len(node) + 1 and n[: len(node)] == node]
    return 0 if not kids else 1 + max(_direct_rank(nodes, k) for k in kids)


def _direct_mask(nodes, node, opens):
    """Independent evaluation: compute whole masks by the four cases."""
    rank = _direct_rank(nodes, node)
    if rank == 0:
        return opens[node[-1]] if node else 0
    labels = sorted(
        n[-1] for n in nodes if len(n) == len(node) + 1 and n[: len(node)] == node
    )
    if rank == 1:
        out = 0
        for c in labels:
            out |= opens[c]
        return out
    out = 0
    for c in labels:
        if c % 2 == 0 and c + 1 in labels:
            out |= _direct_mask(nodes, node + (c,), opens) & ~_direct_mask(
                nodes, node + (c + 1,), opens
            )
    return out


def test_small_codes_match_direct_computation():
    m = fork_model()
    universe = [(a,) for a in range(6)] + [
        (a, b) for a in range(6) for b in range(6)
    ]
    checked = 0
    for size in range(5):
        for extra in itertools.combinations(universe, size):
            nodes = set(extra) | {()}
            if any(n[:-1] not in nodes for n in nodes if n):
                continue
            try:
                code = BorelCode(nodes)
            except ValueError:
                continue
            if code.ranks[()] > 2:
                continue
            want = _direct_mask(nodes, (), m.opens)
            for x in m.points():
                inside = bool((want >> x) & 1)
                assert eval_borel(code, m, SIGMA, x) == inside
                assert eval_borel(code, m, PI, x) == (not inside)
            checked += 1
    # every pairing-valid rank-<=2 shape over six labels
    assert checked == 291


def test_borel_rank_conventions():
    assert BorelCode([()]).ranks[()] == 0
    assert BorelCode([(0,)]).ranks[()] == 1
    # (0,) pairs its children 0 and 1, the root pairs (0,) with the leaf (1,)
    code = BorelCode([(0,), (1,), (0, 0), (0, 1), (0, 0, 5)])
    assert code.ranks[()] == 3
    assert code.ranks[(0,)] == 2 and code.ranks[(1,)] == 0 and code.ranks[(0, 0)] == 1


@given(st.lists(st.lists(st.integers(0, 3), max_size=4), max_size=12))
def test_borel_kids_and_ranks_match_their_definitions(seqs):
    # every prefix of each sequence and its label partner c ^ 1, so the
    # tree is prefix-closed and every node's children come in pairs
    nodes = {()} | {
        tuple(s[: k - 1]) + (s[k - 1] ^ flip,)
        for s in seqs
        for k in range(1, len(s) + 1)
        for flip in (0, 1)
    }
    code = BorelCode(nodes)
    assert code.nodes == nodes
    for node in nodes:
        want = sorted(n[-1] for n in nodes if len(n) == len(node) + 1 and n[: len(node)] == node)
        assert code.kids[node] == want
        assert code.ranks[node] == _direct_rank(nodes, node)


# -- hausdorff codes: least-index semantics -----------------------------------


def test_single_tree_with_even_slot_is_plain_sigma():
    m = fork_model()
    tree = BorelCode([(), (4,)])
    code = HausdorffCode((0,), {0}, (tree,))
    for x in m.points():
        assert eval_hausdorff_code(code, m, x) == eval_borel(tree, m, SIGMA, x)


def test_nested_pair_is_a_proper_difference():
    m = fork_model()
    small, big = 1, 4  # opens {1} inside {1,2}
    code = HausdorffCode(
        (0, 1), {1}, (BorelCode([(), (small,)]), BorelCode([(), (big,)]))
    )
    dcode = DiffCode(2, "D", ((0, small), (1, big)))
    expected = m.opens[big] & ~m.opens[small]
    for x in m.points():
        got = eval_hausdorff_code(code, m, x)
        assert got == bool((expected >> x) & 1)
        assert got == eval_diff(dcode, x, by_index(m))


def test_point_in_no_tree_is_out():
    m = fork_model()
    code = HausdorffCode((0,), {0}, (BorelCode([(), (1,)]),))
    assert not eval_hausdorff_code(code, m, 2)  # 2 outside O_1 = {1}


def test_hausdorff_shape_is_validated():
    tree = BorelCode([()])
    with pytest.raises(ValueError, match="one rank per tree"):
        HausdorffCode((0, 2), {0}, (tree, tree))
    with pytest.raises(ValueError, match="outside the order"):
        HausdorffCode((0,), {3}, (tree,))


def test_hausdorff_json_roundtrip():
    code = HausdorffCode(
        (1, 0), {0}, (BorelCode([(), (2,)]), BorelCode([()]))
    )
    again = HausdorffCode.from_json(json.loads(
        '{"order": [1, 0], "parity_set": [0], "trees": [{"nodes": [[], [2]]}, {"nodes": [[]]}]}'
    ))
    assert again == code and hash(again) == hash(code)
    assert again.order.index(1) == 0


# -- translation from difference codes ----------------------------------------


def test_translation_fills_missing_slots_with_dead_trees():
    m = fork_model()
    dcode = DiffCode(3, "D", ((1, 2),))
    h = hausdorff_from_diff(dcode)
    assert len(h.trees) == 3
    for x in m.points():
        assert eval_hausdorff_code(h, m, x) == eval_diff(dcode, x, by_index(m))


def test_co_d_translation_goes_through_the_carrier():
    m = fork_model()
    dcode = DiffCode(2, "co-D", ((0, 1), (1, 4)))
    with pytest.raises(ValueError, match="whole-space"):
        hausdorff_from_diff(dcode)
    h = hausdorff_from_diff(dcode, carrier_index=len(m.opens) - 1)
    for x in m.points():
        assert eval_hausdorff_code(h, m, x) == eval_diff(dcode, x, by_index(m))


def test_translation_needs_a_finite_order():
    with pytest.raises(ValueError, match="finite"):
        hausdorff_from_diff(DiffCode(OMEGA, "D", ((0, 1),)))


@settings(deadline=None, max_examples=120)
@given(
    alpha=st.integers(min_value=1, max_value=6),
    picks=st.lists(st.integers(min_value=0, max_value=5), max_size=6, unique=True),
    handles=st.lists(st.integers(min_value=0, max_value=5), min_size=6, max_size=6),
    polarity=st.sampled_from(["D", "co-D"]),
)
def test_translation_agrees_with_diff_evaluation(alpha, picks, handles, polarity):
    m = fork_model()
    entries = tuple(
        (i, handles[i]) for i in sorted(p for p in picks if p < alpha)
    )
    dcode = DiffCode(alpha, polarity, entries)
    h = hausdorff_from_diff(dcode, carrier_index=len(m.opens) - 1)
    for x in m.points():
        assert eval_hausdorff_code(h, m, x) == eval_diff(dcode, x, by_index(m))


# -- staged presentations ------------------------------------------------------


def test_rows_may_only_grow_with_the_stage():
    shrinking = StagedPresentation(CylinderModel(2), lambda eps, n, t: (1,) if t < 8 else ())
    assert shrinking.row(1, 0, 5) == (1,)
    with pytest.raises(ValueError, match="shrank"):
        shrinking.row(1, 0, 9)
    # asking about an earlier stage may not un-enumerate the index either
    forgetful = StagedPresentation(CylinderModel(2), lambda eps, n, t: (1,) if t == 9 else ())
    assert forgetful.row(0, 2, 9) == (1,)
    with pytest.raises(ValueError, match="shrank"):
        forgetful.row(0, 2, 20)
    fine = StagedPresentation(CylinderModel(2), lambda eps, n, t: (1,) if t >= 8 else ())
    assert fine.row(0, 2, 3) == ()
    assert fine.row(0, 2, 9) == (1,)


def test_visibility_truncates_rows():
    pres = StagedPresentation(CylinderModel(2), lambda eps, n, t: (1 << 10,))
    assert pres.row(1, 0, 5) == ()
    assert pres.row(1, 0, 11) == (1 << 10,)


def test_sides_are_binary():
    with pytest.raises(ValueError, match="side"):
        StagedPresentation(CylinderModel(2), lambda eps, n, t: ()).row(2, 0, 1)


def test_clopen_presentation_is_stable_on_all_points():
    m = fork_model()
    pres = clopen_presentation(m, m.index_of(0b100), m.index_of(0b011))
    report = pres.check_points(m.points(), depth=4, stage=8)
    assert set(report.values()) == {"stable"}


def test_first_one_presentation_is_stable_at_finite_resolution():
    c3 = CylinderModel(3)
    pres = first_one_presentation(c3)
    pts = [
        CylPoint((1,), (0,)),
        CylPoint((2,), (0,)),
        CylPoint((0, 1), (1,)),
        CylPoint((0, 2), (2,)),
        CylPoint((), (0,)),
    ]
    report = pres.check_points(pts, depth=4, stage=32)
    assert set(report.values()) == {"stable"}
    assert pres.member(CylPoint((0, 0), (1,)))
    assert not pres.member(CylPoint((0, 2), (1,)))
    assert not pres.member(CylPoint((), (0,)))


def test_decoded_presentations_match_their_constructors():
    m, c3 = fork_model(), CylinderModel(3)
    cases = [
        (m, {"kind": "rows", "rows1": [[2], [2, 4]], "rows0": [[3]], "tail": "empty"},
         rows_presentation(m, [[2], [2, 4]], [[3]], tail="empty")),
        (m, {"kind": "rows", "rows1": [[2], [2, 4]], "rows0": [[3]]},
         rows_presentation(m, [[2], [2, 4]], [[3]], tail="repeat")),
        (m, {"kind": "clopen", "inside": 4, "outside": 3}, clopen_presentation(m, 4, 3)),
        (m, {"kind": "empty"}, empty_presentation(m)),
        (c3, {"kind": "first-one"}, first_one_presentation(c3)),
    ]
    for model, data, direct in cases:
        decoded = presentation_from_json(model, json.loads(json.dumps(data)))
        for eps, n, t in itertools.product((0, 1), range(4), (4, 8, 32)):
            assert decoded.row(eps, n, t) == direct.row(eps, n, t), (data, eps, n, t)
    with pytest.raises(ValueError, match="unknown presentation"):
        presentation_from_json(m, {"kind": "mystery"})


def test_tail_modes_differ_past_the_list():
    m = fork_model()
    repeat = rows_presentation(m, [[2]], [[3]])
    empty = rows_presentation(m, [[2]], [[3]], tail="empty")
    assert repeat.row(1, 7, 8) == (2,)
    assert empty.row(1, 7, 8) == ()


# -- the F counter -------------------------------------------------------------


def test_zero_stage_never_counts():
    c3 = CylinderModel(3)
    pres = first_one_presentation(c3)
    assert compute_F(c3.singleton((1,)), 0, 1, pres) == 0


def test_constant_rows_count_every_stage():
    c3 = CylinderModel(3)
    pres = rows_presentation(
        c3,
        [[c3.singleton((1,))]],
        [[c3.singleton((0,)), c3.singleton((2,))]],
    )
    sub = c3.singleton((1, 0))  # a sub-cylinder of [1]
    assert compute_F(sub, 10, 1, pres) == 10
    assert compute_F(c3.singleton((1,)), 12, 1, pres) == 12


def test_failing_first_containment_stays_at_zero():
    c3 = CylinderModel(3)
    pres = rows_presentation(
        c3,
        [[c3.singleton((1,))]],
        [[c3.singleton((0,)), c3.singleton((2,))]],
    )
    assert compute_F(c3.singleton((2,)), 10, 1, pres) == 0


def test_invisible_index_counts_nothing():
    c3 = CylinderModel(3)
    pres = rows_presentation(c3, [[c3.singleton((1,))]], [[c3.singleton((0,))]])
    sub = c3.singleton((1, 0))  # needs 9 bits
    assert compute_F(sub, 4, 1, pres) == 0
    assert compute_F(sub, 10, 1, pres) == 10


# -- the alternating tree -------------------------------------------------------


def test_clopen_tree_is_flat_with_hand_types():
    m = fork_model()
    pres = clopen_presentation(m, m.index_of(0b100), m.index_of(0b011))
    tree = build_alt_tree(pres, 8)
    assert {seq[-1][1] for seq in tree.nodes} <= set(stage_ladder(8))
    # {1} and {0,1} sit inside the complement, {2} inside the set;
    # {1,2} and the whole space straddle both, so they never type
    expected = {}
    for t in (2, 4, 8):
        expected[((1, t),)] = 0
        expected[((2, t),)] = 1
        expected[((3, t),)] = 0
    assert {seq: eps for seq, (eps, _, _) in tree.nodes.items()} == expected
    assert tree.growth_violations == ()
    assert tree.frontier == {((1, 8),), ((2, 8),), ((3, 8),)}
    # every node is a child of the root: a prefix-closed tree of rank 1
    assert {seq[:-1] for seq in tree.nodes} == {()}


def test_empty_set_grows_no_type_one_nodes():
    cm = CylinderModel(2)
    tree = build_alt_tree(empty_presentation(cm), 8)
    assert tree.nodes
    assert all(eps == 0 for eps, _, _ in tree.nodes.values())
    assert all(len(seq) == 1 for seq in tree.nodes)


def test_first_one_tree_matches_hand_analysis():
    c3 = CylinderModel(3)
    pres = first_one_presentation(c3)
    tree = build_alt_tree(pres, 16)
    whole = c3.singleton(())
    one = c3.singleton((1,))
    two = c3.singleton((2,))
    # the whole space types 0 immediately: its own side-0 row contains
    # it, while the side-1 union never swallows the 2-branch
    assert tree.nodes[((whole, 1),)][0] == 0
    # [1] types 1 as soon as it becomes visible (stage 4 on the ladder)
    assert tree.nodes[((one, 4),)][0] == 1
    # [2] sits inside every complement row: type 0 forever
    assert tree.nodes[((two, 4),)][0] == 0
    # alternation: the deep branch through the whole space reaches [1]
    assert ((whole, 1), (one, 4)) in tree.nodes
    # nothing inside the set's own union can flip back to type 0
    for seq, (eps, _, _) in tree.nodes.items():
        assert len(seq) <= 2
        if len(seq) == 2:
            assert eps == 1
        f0, f1 = tree.nodes[seq][1:]
        assert f0 != f1 and eps == (1 if f1 > f0 else 0)
    assert tree.growth_violations == ()


def test_node_budget_is_enforced():
    c3 = CylinderModel(3)
    with pytest.raises(SearchBudgetExceeded, match="alternating tree"):
        build_alt_tree(first_one_presentation(c3), 32, node_cap=10)


def test_frontier_marks_leaves_at_the_last_stage():
    c3 = CylinderModel(3)
    tree = build_alt_tree(first_one_presentation(c3), 16)
    prefixes = {seq[:-1] for seq in tree.nodes}
    leaves = set(tree.nodes) - prefixes
    assert tree.frontier
    for seq in tree.frontier:
        assert seq in leaves and seq[-1][1] == 16


def test_stage_ladder_shape():
    assert stage_ladder(1) == (1,)
    assert stage_ladder(8) == (1, 2, 4, 8)
    assert stage_ladder(100) == (1, 2, 4, 8, 16, 32, 64, 100)
    with pytest.raises(ValueError):
        stage_ladder(0)


# -- block ranks ---------------------------------------------------------------


def test_block_starts_collapse_to_omega_r_plus_two():
    assert block_start(0) == Ordinal.from_int(0)
    assert block_start(1) == OMEGA + Ordinal.from_int(2)
    assert block_start(3) == Ordinal(3, 0) + Ordinal.from_int(2)
    for r in range(5):
        start = block_start(r)
        assert (start + OMEGA).parity() == 0
        assert (start + OMEGA + Ordinal.from_int(1)).parity() == 1


def test_kb_order_on_pair_sequences():
    a = ((1, 1), (4, 2))
    b = ((1, 1),)
    c = ((1, 2),)
    assert kb_sorted([(), b, a, c]) == [a, b, c, ()]


# -- the transform --------------------------------------------------------------


def test_clopen_transform_denotes_the_set():
    m = fork_model()
    pres = clopen_presentation(m, m.index_of(0b100), m.index_of(0b011))
    res = build_alt_tree(pres, 8)
    assert res.xi == Ordinal(10, 0) + Ordinal.from_int(2)
    for x in m.points():
        want = x == 2
        assert res.eval_point(m.point_test(x, 8)) == want
        assert eval_diff(res.diff_code, x, by_index(m)) == want
        assert eval_hausdorff_code(_hausdorff(res), m, x) == want
    assert claim2_gaps(res, pres, m.points()) == []


def test_empty_transform_denotes_nothing():
    cm = CylinderModel(2)
    res = build_alt_tree(empty_presentation(cm), 8)
    pts = [CylPoint((), (0,)), CylPoint((1,), (0,)), CylPoint((0, 1), (1,))]
    assert all(not res.eval_point(cm.point_test(x, 8)) for x in pts)
    assert all(not eval_hausdorff_code(_hausdorff(res), cm, x) for x in pts)


def test_whole_space_transform_denotes_everything():
    m = fork_model()
    pres = clopen_presentation(m, m.whole_index(), 0)
    res = build_alt_tree(pres, 8)
    assert all(res.eval_point(m.point_test(x, 8)) for x in m.points())


def test_first_one_transform_verifies_to_depth_three():
    c3 = CylinderModel(3)
    pres = first_one_presentation(c3)
    rep = verify_transform(pres, cyl_points(c3, 3), budget=8, max_budget=64)
    assert rep.ok() and rep.mismatches == ()
    assert rep.budgets[0] == 8 and rep.budgets[-1] <= 64
    res = rep.result
    # slot parity carries the type, and ranks strictly ascend
    slots = _slots(res)
    for _, rank, eps, _ in slots:
        assert rank.parity() == eps
    assert all(a[1] < b[1] for a, b in zip(slots, slots[1:]))
    # one block per node, the root's last
    assert res.xi == block_start(len(res.nodes) + 1)
    assert claim2_gaps(res, pres, cyl_points(c3, 3)) == []


def test_starved_transform_reports_incomplete():
    c3 = CylinderModel(3)
    pres = first_one_presentation(c3)
    rep = verify_transform(pres, cyl_points(c3, 3), budget=2, max_budget=4)
    assert not rep.ok()
    assert rep.status == "INCOMPLETE"
    assert rep.mismatches
    assert rep.budgets == (2, 4)
    assert rep.result is not None


def test_verification_needs_an_oracle():
    cm = CylinderModel(2)
    pres = rows_presentation(cm, [[cm.singleton((1,))]], [[cm.singleton((0,))]])
    with pytest.raises(ValueError, match="oracle"):
        verify_transform(pres, [CylPoint((0,), (0,))], budget=4, max_budget=32)


@settings(deadline=None, max_examples=40)
@given(
    rows1=st.lists(
        st.lists(st.integers(min_value=0, max_value=11), max_size=2), max_size=2
    ),
    rows0=st.lists(
        st.lists(st.integers(min_value=0, max_value=11), max_size=2), max_size=2
    ),
)
def test_renderings_always_agree(rows1, rows0):
    cm = CylinderModel(2)
    pres = rows_presentation(
        cm,
        [[1 << c for c in row] for row in rows1],
        [[1 << c for c in row] for row in rows0],
    )
    res = build_alt_tree(pres, 12)
    assert list(res.nodes) + [()] == kb_sorted(_rooted(res.nodes))
    for x in cyl_points(cm, 3):
        direct = res.eval_point(cm.point_test(x, 12))
        assert direct == eval_diff(res.diff_code, x, by_index(cm))
        assert direct == eval_hausdorff_code(_hausdorff(res), cm, x)


def test_transform_is_deterministic():
    c3 = CylinderModel(3)
    one = build_alt_tree(first_one_presentation(c3), 16)
    two = build_alt_tree(first_one_presentation(c3), 16)
    assert one.report_text() == two.report_text()


# -- keyed tree build and closed-form ranks, against the unkeyed code -------------


def staged_ll(model, i, j, t):
    """ll between two indices both visible at stage t: the staged
    relation the transform is defined with."""
    return index_visible(i, t) and index_visible(j, t) and model.ll(i, j)


def _reference_tree(pres, stage_budget, node_cap=50_000):
    """build_alt_tree as it was before child lists were keyed by (last
    pair, type): every unfolded node searches its own children."""
    model = pres.model
    stages = stage_ladder(stage_budget)
    pool = _default_pool(pres, stage_budget, stages)
    f_memo = {}

    def fvals(m, t):
        if (m, t) not in f_memo:
            f_memo[(m, t)] = (
                compute_F(m, t, 0, pres),
                compute_F(m, t, 1, pres),
            )
        return f_memo[(m, t)]

    typed = {}
    for t in stages:
        entries = []
        for m in pool:
            if not index_visible(m, t):
                continue
            f0, f1 = fvals(m, t)
            if f0 != f1:
                entries.append((m, 1 if f1 > f0 else 0))
        typed[t] = tuple(entries)

    nodes = {}

    def extend(prefix, last_m, last_t, last_eps):
        for t in stages:
            if last_t is not None and t <= last_t:
                continue
            for m, eps in typed[t]:
                if last_m is not None:
                    if m <= last_m or eps == last_eps:
                        continue
                    if not staged_ll(model, last_m, m, t):
                        continue
                if len(nodes) >= node_cap:
                    raise SearchBudgetExceeded(
                        "alternating tree exceeded %d nodes" % node_cap
                    )
                seq = prefix + ((m, t),)
                f0, f1 = fvals(m, t)
                nodes[seq] = (eps, f0, f1)
                extend(seq, m, t, eps)

    extend((), None, None, None)

    prefixes = {seq[:-1] for seq in nodes}
    frontier = frozenset(
        seq for seq in nodes if seq not in prefixes and seq[-1][1] == stages[-1]
    )
    violations = tuple(
        seq
        for seq, (eps, f0, f1) in nodes.items()
        if (f1 if eps else f0) < (len(seq) - 1) // 2
    )
    return nodes, frontier, violations


_REFERENCE_PROBES = (
    (Ordinal.from_int(0), 0),
    (Ordinal.from_int(1), 1),
    (OMEGA, 0),
    (OMEGA + Ordinal.from_int(1), 1),
)


def _reference_slots(nodes):
    """The slot loop as it was, in Ordinal arithmetic throughout:
    (kb_order, xi, ((seq, rank, type, open), ...))."""
    order = kb_sorted(_rooted(nodes))
    slots = []
    for r, seq in enumerate(order):
        start = block_start(r)
        for gamma, want in _REFERENCE_PROBES:
            assert (start + gamma).parity() == want
        if seq:
            eps = nodes[seq][0]
            slots.append((seq, start + OMEGA + Ordinal.from_int(eps), eps, seq[-1][0]))
    return tuple(order), block_start(len(order)), tuple(slots)


def _hausdorff(res):
    """The Hausdorff code of a transform, as its report writes it."""
    return HausdorffCode.from_json(json.loads(res.report_text())["hausdorff"])


def _reference_report(res):
    """The report object of a transform, built as a dict the way
    StagedTree built it before it wrote its report as text, with each
    node's pairs as lists, the form JSON reads them back in."""
    nodes = res.nodes
    return {
        "xi": str(res.xi),
        "budget": res.budget,
        "nodes": len(nodes),
        "frontier": len(res.frontier),
        "slots": [
            {"node": [list(p) for p in seq], "rank": text(r + 1, eps), "type": eps,
             "open": seq[-1][0]}
            for r, (seq, (eps, _, _)) in enumerate(nodes.items())
        ],
        "hausdorff": {
            "order": list(range(len(nodes))),
            "parity_set": [r for r, (eps, _, _) in enumerate(nodes.values()) if eps == 1],
            "trees": [{"nodes": [[], [seq[-1][0]]]} for seq in nodes],
        },
    }


def _slots(res):
    """((seq, rank, type, open), ...) of a transform, one per tree node
    in order, read from its tree and its difference code."""
    entries = res.diff_code.entries
    assert len(entries) == len(res.nodes)
    return tuple(
        (seq, rank, eps, o)
        for (seq, (eps, _, _)), (rank, o) in zip(res.nodes.items(), entries)
    )


def _reference_eval(slots, model, x):
    for _, _, eps, open_index in slots:
        if model.point_in_basic(x, open_index):
            return eps == 1
    return False


def two_chains_model():
    return FinitePosetModel(FinitePoset.from_cover(4, [(0, 1), (2, 3)]))


def _equivalence_cases():
    for k in (2, 3):
        for budget in (16, 32, 64, 128, 256):
            yield "first-one-%d-%d" % (k, budget), CylinderModel(k), first_one_presentation, budget
    posets = {
        "clopen": lambda m: clopen_presentation(m, 3, 5),
        "empty": empty_presentation,
        "rows": lambda m: rows_presentation(m, [[1, 2], [4]], [[3], [5, 6]]),
    }
    for name, make in posets.items():
        for budget in (8, 16, 64):
            yield "poset-%s-%d" % (name, budget), two_chains_model(), make, budget


EQUIVALENCE_CASES = {name: rest for name, *rest in _equivalence_cases()}


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_keyed_transform_matches_the_unkeyed_reference(case):
    model, make, budget = EQUIVALENCE_CASES[case]
    nodes, frontier, violations = _reference_tree(make(model), budget)
    order, xi, slots = _reference_slots(nodes)
    res = build_alt_tree(make(model), budget)
    assert res.nodes == nodes
    assert res.frontier == frontier
    assert Counter(res.growth_violations) == Counter(violations)
    # the walk itself lists the nodes in Kleene-Brouwer order
    assert list(res.nodes) + [()] == list(order)
    assert res.xi == xi
    assert _slots(res) == slots
    assert res.diff_code.entries == tuple((rank, o) for _, rank, _, o in slots)
    assert _hausdorff(res).trees == tuple(BorelCode([(), (o,)]) for *_, o in slots)


def _random_poset_cases():
    for seed in range(10):
        rng = random.Random(seed)
        model = FinitePosetModel(random_poset(rng.randint(3, 7), rng))
        count = len(model.opens)

        def rows():
            return [
                [rng.randrange(count) for _ in range(rng.randrange(3))]
                for _ in range(rng.randrange(1, 4))
            ]

        yield seed, model, "clopen", clopen_presentation(
            model, rng.randrange(count), rng.randrange(count)
        )
        yield seed, model, "rows", rows_presentation(model, rows(), rows())


@pytest.mark.parametrize("budget", [4, 8, 16])
def test_tree_matches_the_reference_on_random_poset_models(budget):
    # opens are indexed smallest first, so no smaller open has a larger
    # index and every tree is flat: this checks the merged root list,
    # its types and F values, and that no key finds a child
    sizes = []
    for seed, model, kind, pres in _random_poset_cases():
        nodes, frontier, violations = _reference_tree(pres, budget)
        tree = build_alt_tree(pres, budget)
        order = [seq for seq in kb_sorted(_rooted(nodes)) if seq]
        assert list(tree.nodes.items()) == [(seq, nodes[seq]) for seq in order], (seed, kind)
        assert tree.frontier == frontier
        assert Counter(tree.growth_violations) == Counter(violations)
        sizes.append(len(tree.nodes))
    assert sum(map(bool, sizes)) >= 10


@pytest.mark.parametrize("cap", [10, 100, 1000])
def test_node_cap_stops_keyed_and_unkeyed_builds_alike(cap):
    c3 = CylinderModel(3)
    with pytest.raises(SearchBudgetExceeded) as want:
        _reference_tree(first_one_presentation(c3), 128, node_cap=cap)
    with pytest.raises(SearchBudgetExceeded) as got:
        build_alt_tree(first_one_presentation(c3), 128, node_cap=cap)
    assert str(got.value) == str(want.value) == "alternating tree exceeded %d nodes" % cap


def test_tree_builds_leave_no_cyclic_garbage():
    # a build's memos are freed by reference counting when it returns,
    # also when the node cap stops it halfway
    c3 = CylinderModel(3)
    gc.collect()
    gc.disable()
    try:
        try:
            build_alt_tree(first_one_presentation(c3), 128, node_cap=100)
        except SearchBudgetExceeded:
            pass
        capped = gc.collect()
        tree = build_alt_tree(first_one_presentation(c3), 64)
        del tree
        built = gc.collect()
        # nor do the report, the evaluation and the unfolded readers
        tree = build_alt_tree(first_one_presentation(c3), 64)
        tree.report_text()
        tree.eval_point(c3.point_test(CylPoint((0, 1), (0,)), 64))
        tree.frontier, tree.growth_violations, tree.diff_code
        del tree
        read = gc.collect()
    finally:
        gc.enable()
    assert (capped, built, read) == (0, 0, 0)


def test_node_cap_counts_unfolded_nodes():
    c3 = CylinderModel(3)
    tree = build_alt_tree(first_one_presentation(c3), 64)
    size = len(tree.nodes)
    # far fewer keys than nodes, so a cap on keys would be too lax
    assert 2 * len({seq[-1] + value[:1] for seq, value in tree.nodes.items()}) < size
    assert len(build_alt_tree(first_one_presentation(c3), 64, node_cap=size).nodes) == size
    with pytest.raises(SearchBudgetExceeded):
        build_alt_tree(first_one_presentation(c3), 64, node_cap=size - 1)


@pytest.mark.parametrize("k, budget", [(2, 256), (3, 128)])
def test_each_key_searches_its_children_once(monkeypatch, k, budget):
    model = CylinderModel(k)
    calls, in_f = [], []

    def counting_F(*args):
        in_f.append(True)
        try:
            return compute_F(*args)
        finally:
            in_f.pop()

    ll = model.ll

    def logging_ll(i, j):
        if not in_f:
            calls.append((i, j))
        return ll(i, j)

    monkeypatch.setattr(effective_codes, "compute_F", counting_F)
    monkeypatch.setattr(model, "ll", logging_ll)
    tree = build_alt_tree(first_one_presentation(model), budget)
    # every typed pair is a child of the root; every node below the last
    # stage is a key, and its index and type ask ll once of each larger
    # index of the other type, whatever the key's stage
    typed = {(seq[0][0], value[0]) for seq, value in tree.nodes.items() if len(seq) == 1}
    keys = {(seq[-1][0], value[0]) for seq, value in tree.nodes.items() if seq[-1][1] < budget}
    want = [(m, n) for m, eps in keys for n in {n for n, e in typed if e != eps and n > m}]
    assert Counter(calls) == Counter(want)
    # keys that differ only in stage share their tests, and keys are
    # fewer than nodes
    pair_keys = {seq[-1] + value[:1] for seq, value in tree.nodes.items()}
    assert len(keys) < len(pair_keys) and 2 * len(pair_keys) < len(tree.nodes)


def _reference_F(m, t, eps, pres):
    """compute_F as it was before row unions were shared: a fresh row
    and union on every step."""
    model = pres.model
    p = 0
    while p < t:
        if not staged_ll(model, model.lam(pres.row(eps, p, t)), m, t):
            break
        p += 1
    return p


F_CASES = {
    "first-one-2-256": (lambda: CylinderModel(2), first_one_presentation, 256),
    "first-one-3-128": (lambda: CylinderModel(3), first_one_presentation, 128),
    "poset-rows-64": (
        two_chains_model,
        lambda m: rows_presentation(m, [[1, 2], [4]], [[3], [5, 6]]),
        64,
    ),
}


@pytest.mark.parametrize("case", sorted(F_CASES))
def test_shared_row_unions_match_the_per_step_F_counter(case):
    make_model, make_pres, budget = F_CASES[case]
    model = make_model()
    pres = make_pres(model)
    requested, unions = [], []
    row, lam = pres.row, model.lam
    pres.row = lambda eps, n, t: requested.append((eps, n, t)) or row(eps, n, t)
    model.lam = lambda indices: unions.append(indices) or lam(indices)
    tree = build_alt_tree(pres, budget)
    # one union per row the build reads, not one per F step
    assert len(unions) == len(set(requested))
    assert len(requested) <= 2 * len(unions)
    ref_pres = make_pres(make_model())
    pairs = {seq[-1]: value[1:] for seq, value in tree.nodes.items()}
    assert len(pairs) > 10
    for (m, t), got in pairs.items():
        want = tuple(_reference_F(m, t, eps, ref_pres) for eps in (0, 1))
        assert got == want, (m, t)


# -- the F counter over runs of equal row unions -------------------------------


def test_a_failing_run_stops_F_before_a_later_passing_run():
    model = CylinderModel(3)
    a, b = model.singleton((1,)), model.singleton((2,))
    m = model.singleton((1, 0))  # inside [1], not inside [2]
    pres = rows_presentation(model, [[a], [a], [b], [a]], [[b]])
    assert pres.union_runs(1, 10) == ((a, 2), (b, 3), (a, 10))
    assert compute_F(m, 10, 1, pres) == 2 == _reference_F(m, 10, 1, pres)


def test_an_invisible_union_mid_sequence_stops_F():
    # {0,1} and {2,3} are visible at stage 3 (indices 3 and 5); their
    # union, the whole space, has index 8, which is not
    model = two_chains_model()
    assert model.lam([3, 5]) == 8
    pres = rows_presentation(model, [[4], [3, 5], [4]], [[2]])
    m = 1  # the open {1}, inside every union above
    assert pres.union_runs(1, 3) == ((4, 1), (8, 2), (4, 3))
    assert compute_F(m, 3, 1, pres) == 1 == _reference_F(m, 3, 1, pres)
    assert compute_F(m, 4, 1, pres) == 4 == _reference_F(m, 4, 1, pres)


def test_one_run_of_constant_rows_counts_every_stage():
    model = CylinderModel(3)
    a = model.singleton((1,))
    pres = rows_presentation(model, [[a]], [[model.singleton((0,))]])
    m = model.singleton((1, 2))  # visible from stage 10
    for t in (10, 11, 31, 64):
        assert pres.union_runs(1, t) == ((a, t),)
        assert compute_F(m, t, 1, pres) == t == _reference_F(m, t, 1, pres)


# -- first-one rows bounded by the longest visible word -------------------------


def _reference_rows(model):
    """first_one_presentation's rows as they were before the length
    bound: every row q encodes 0^q and each 0^d j, d < q."""
    k = model.alphabet

    def visible_singleton(word, t):
        code = model.word_code(word)
        return 1 << code if code + 1 <= t else None

    def rows(eps, n, t):
        out = []
        if eps == 1:
            depth = 0
            while True:
                idx = visible_singleton((0,) * depth + (1,), t)
                if idx is None:
                    return out
                out.append(idx)
                depth += 1
        idx = visible_singleton((0,) * n, t)
        if idx is not None:
            out.append(idx)
        for d in range(n):
            for j in range(2, k):
                idx = visible_singleton((0,) * d + (j,), t)
                if idx is not None:
                    out.append(idx)
        return out

    return rows


def _longest_visible(k, t):
    # the code of 0^L is 1 + k + ... + k^(L-1) = (k^L - 1) / (k - 1)
    length = 0
    while (k ** (length + 1) - 1) // (k - 1) < t:
        length += 1
    return length


@pytest.mark.parametrize("k", [2, 3, 4])
def test_bounded_first_one_rows_match_the_unbounded_rows(k):
    model = CylinderModel(k)
    pres = first_one_presentation(model)
    ref = _reference_rows(model)
    stages = sorted(set(stage_ladder(256)) | {3, 5, 13, 40, 100, 200})
    for t in stages:
        for eps in (0, 1):
            for n in range(t + 2):
                want = tuple(sorted(i for i in ref(eps, n, t) if index_visible(i, t)))
                assert pres.row(eps, n, t) == want, (eps, n, t)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_first_one_rows_encode_only_visible_lengths(k):
    model = CylinderModel(k)
    pres = first_one_presentation(model)
    calls = []
    word_code = model.word_code
    model.word_code = lambda word: calls.append(word) or word_code(word)
    t = 1024
    longest = _longest_visible(k, t)
    for eps, n in ((0, t), (0, longest), (1, t)):
        calls.clear()
        pres.row(eps, n, t)
        assert len(calls) <= (longest + 1) * k, (eps, n)
        assert all(len(word) <= longest + 1 for word in calls)


def _bounded_reference_rows(model):
    """first_one_presentation's rows as they were while every call
    decoded the longest visible length and encoded each singleton
    afresh."""
    k = model.alphabet

    def rows(eps, n, t):
        longest = len(model.code_word(t - 1))
        if eps == 1:
            return [model.singleton((0,) * d + (1,)) for d in range(longest)]
        out = [model.singleton((0,) * n)] if n <= longest else []
        for d in range(min(n, longest)):
            out += [model.singleton((0,) * d + (j,)) for j in range(2, k)]
        return out

    return rows


@pytest.mark.parametrize("k", range(2, 9))
def test_first_one_rows_match_the_per_call_rows(k):
    # the same values in the same order, on every stage the transform
    # reaches; the filtered, sorted rows the presentation hands out stay
    # those the reference gives
    model = CylinderModel(k)
    pres = first_one_presentation(model)
    ref = _bounded_reference_rows(CylinderModel(k))
    for t in stage_ladder(1024):
        for eps in (0, 1):
            for n in range(t + 1):
                want = ref(eps, n, t)
                assert pres._rows(eps, n, t) == want, (eps, n, t)
                visible = tuple(sorted({i for i in want if index_visible(i, t)}))
                assert pres.row(eps, n, t) == visible, (eps, n, t)


def test_closed_form_block_offsets_match_ordinal_arithmetic():
    # block r starts at (omega+2)*r, summed here one block at a time
    start = Ordinal.from_int(0)
    for r in range(2000):
        assert block_start(r) == start, r
        for gamma, want in _REFERENCE_PROBES:
            assert (start + gamma).parity() == want, (r, gamma)
        for eps in (0, 1):
            # the closed form StagedTree writes for node r's slot
            rank = Ordinal(r + 1, eps)
            assert rank == start + OMEGA + Ordinal.from_int(eps), (r, eps)
            assert rank.parity() == eps
        start = start + OMEGA + Ordinal.from_int(2)


class _CountingModel:
    """A model proxy that records every point test it makes and every
    index each test is asked; the rest of the surface is the model's."""

    def __init__(self, model):
        self.model = model
        self.tests = []
        self.queries = []

    def __getattr__(self, name):
        return getattr(self.model, name)

    def point_test(self, x, width):
        self.tests.append((x, width))
        test = self.model.point_test(x, width)

        def counted(i):
            self.queries.append((x, i))
            return test(i)

        return counted


@pytest.mark.parametrize("budget", [16, 64, 256])
def test_eval_point_matches_reference_on_criterion_8_points(budget):
    # one test per point, and no open asked twice of it, though opens
    # repeat across the nodes
    c3 = CylinderModel(3)
    res = build_alt_tree(first_one_presentation(c3), budget)
    slots = _slots(res)
    points = cyl_points(c3, 4)
    assert len(points) == 243
    counting = _CountingModel(c3)
    for x in points:
        got = res.eval_point(counting.point_test(x, budget))
        assert got == _reference_eval(slots, c3, x), x
    assert len(counting.tests) == len(points)
    assert len(counting.queries) == len(set(counting.queries))
    assert len({o for *_, o in slots}) < len(slots)


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_first_opens_from_one_expansion_per_key_match_the_unfolded_tree(case):
    # the keyed walk skips a key's later nodes; the unfolded tree lists
    # every node, and the first node of each open gives the same list
    model, make, budget = EQUIVALENCE_CASES[case]
    res = build_alt_tree(make(model), budget)
    first = {}
    for seq, (eps, _, _) in res.nodes.items():
        first.setdefault(seq[-1][0], eps == 1)
    assert res._first_opens == tuple(first.items())


def _descend(tree, test):
    """Greedy descent: from the root, step to the first child in sibling
    order whose open holds the point, until no child's does.  The
    verdict is the type of the node it stops at, outside at the root."""
    key, inside = effective_codes._ROOT, False
    while True:
        for (o, _), (eps, _, _), child in tree.kids[key]:
            if test(o):
                key, inside = child, eps == 1
                break
        else:
            return inside


def _seeded_points(k, count, seed):
    rng = random.Random("descent:%d:%d" % (k, seed))
    return [
        CylPoint(tuple(rng.randrange(k) for _ in range(rng.randrange(12))),
                 tuple(rng.randrange(k) for _ in range(1 + rng.randrange(3))))
        for _ in range(count)
    ]


@pytest.mark.parametrize("k, budgets, points", [
    (3, (16, 32, 64, 128, 256), lambda model: cyl_points(model, 4)),
    (2, (16, 32, 64, 128, 256, 512, 1024), lambda model: _seeded_points(2, 300, 1)),
])
def test_greedy_descent_is_the_least_slot_verdict(k, budgets, points):
    # every child's open lies inside its parent's, so the first node in
    # Kleene-Brouwer order whose open holds a point is the end of this
    # descent: asserted here, not trusted
    model = CylinderModel(k)
    points = points(model)
    verdicts = set()
    for budget in budgets:
        res = build_alt_tree(first_one_presentation(model), budget)
        for x in points:
            test = model.point_test(x, budget)
            got = res.eval_point(test)
            assert _descend(res, test) == got, (budget, x)
            verdicts.add(got)
    assert verdicts == {False, True}


def test_verification_makes_one_point_test_per_point():
    # the criterion-8 ladder builds at four budgets from one test per
    # point, each as wide as the last budget allowed
    c3 = CylinderModel(3)
    counting = _CountingModel(c3)
    pres = first_one_presentation(c3)
    pres.model = counting
    points = cyl_points(c3, 4)
    report = verify_transform(pres, points, budget=16, max_budget=256)
    assert report.ok() and report.budgets == (16, 32, 64, 128)
    assert counting.tests == [(x, 256) for x in points]


def test_transform_shares_one_leaf_code_per_open(monkeypatch):
    # the report lists the leaf code of each node's open, and the writer
    # prints each open's decimal text once, for all its pair and leaf
    # texts; its only other decimal texts are the node numbers of the
    # order and of the parity set
    printed = Counter()

    def counting_str(value):
        printed[value] += 1
        return str(value)

    c3 = CylinderModel(3)
    res = build_alt_tree(first_one_presentation(c3), 64)
    monkeypatch.setattr(effective_codes, "str", counting_str, raising=False)
    trees = json.loads(res.report_text())["hausdorff"]["trees"]
    assert trees == [{"nodes": [[], [seq[-1][0]]]} for seq in res.nodes]
    opens = {seq[-1][0] for seq in res.nodes}
    parity = [r for r, (eps, _, _) in enumerate(res.nodes.values()) if eps == 1]
    assert printed == Counter(opens) + Counter(range(len(res.nodes))) + Counter(parity)
    assert len(opens) < len(res.nodes)


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_report_is_written_from_the_slots_as_the_codes_would_write_it(case):
    model, make, budget = EQUIVALENCE_CASES[case]
    res = build_alt_tree(make(model), budget)
    report = json.loads(res.report_text())
    assert report["xi"] == str(block_start(len(res.nodes) + 1)) == str(res.xi)
    slots = _slots(res)
    assert [(s["node"], s["rank"], s["type"], s["open"]) for s in report["slots"]] == [
        ([list(p) for p in seq], str(rank), eps, o) for seq, rank, eps, o in slots
    ]
    # the form `hier eval-code --hausdorff` reads, of the code the
    # slots spell: one leaf tree per slot, type-1 slots in the parity set
    assert HausdorffCode.from_json(report["hausdorff"]) == HausdorffCode(
        range(len(slots)),
        {r for r, (_, _, eps, _) in enumerate(slots) if eps == 1},
        [BorelCode([(), (o,)]) for *_, o in slots],
    )
    # built on demand, the code still passes DiffCode's validation, and
    # its ranks are the blocks' offsets omega + type in Ordinal arithmetic
    code = res.diff_code
    assert code == DiffCode(res.xi, "D", tuple(
        (block_start(r) + OMEGA + Ordinal.from_int(eps), seq[-1][0])
        for r, (seq, (eps, _, _)) in enumerate(res.nodes.items())
    ))
    assert res.diff_code is code


def _report_law_cases():
    """(name, presentation, budget) of the transforms whose report text
    the law below checks: the equivalence cases, 60 seeded rows
    presentations on random posets, and first-one on 2 to 8 letters at
    budgets from 1 to 64."""
    for name in sorted(EQUIVALENCE_CASES):
        model, make, budget = EQUIVALENCE_CASES[name]
        yield name, make(model), budget
    for seed in range(60):
        rng = random.Random("report rows:%d" % seed)
        model = FinitePosetModel(random_poset(rng.randint(3, 7), rng))
        rows = [
            [[rng.randrange(len(model.opens)) for _ in range(rng.randrange(3))]
             for _ in range(rng.randrange(1, 4))]
            for _ in range(2)
        ]
        tail = rng.choice(("repeat", "empty"))
        yield "rows-%d" % seed, rows_presentation(model, *rows, tail=tail), rng.choice((4, 8, 16))
    for k in range(2, 9):
        for budget in (1, 2, 3, 4, 7, 8, 16, 31, 32, 64):
            yield "first-one-%d-%d" % (k, budget), first_one_presentation(CylinderModel(k)), budget


def test_report_text_is_the_canonical_text_of_the_reference_report():
    # the text reads back as the dict report, and it is that dict's
    # canonical text byte for byte: key order, separators, rank texts.
    # The outcomes are asserted as booleans, as pytest's diff of two
    # reports of a megabyte would take minutes
    rows_nodes, depth = 0, 0
    for name, pres, budget in _report_law_cases():
        res = build_alt_tree(pres, budget)
        report, want = res.report_text(), _reference_report(res)
        reads_back = json.loads(report) == want
        canonical = report == cli._canon(want)
        assert reads_back and canonical, (name, reads_back, canonical)
        if name.startswith("rows"):
            rows_nodes += len(res.nodes)
        depth = max([depth, *map(len, res.nodes)])
    assert rows_nodes >= 100 and depth >= 2


def test_a_transform_builds_ordinals_only_for_xi(monkeypatch):
    built = []
    init = Ordinal.__init__

    def counting_init(self, a=0, b=0):
        built.append((a, b))
        init(self, a, b)

    monkeypatch.setattr(Ordinal, "__init__", counting_init)
    c3 = CylinderModel(3)
    per_build, per_report, slots = [], [], []
    for budget in (16, 64, 256):
        built.clear()
        res = build_alt_tree(first_one_presentation(c3), budget)
        per_build.append(len(built))
        res.report_text()
        res.report_text()
        per_report.append(len(built) - per_build[-1])
        slots.append(len(res.nodes))
    # none for the build, and xi alone for each report, whatever the
    # slot count
    assert per_build == [0, 0, 0]
    assert per_report == [2, 2, 2]
    assert slots[0] < slots[1] < slots[2]
    # the codes, when read, build one rank per slot
    built.clear()
    res.diff_code
    assert len(built) >= slots[-1]
    # verification reads neither code nor xi on any of its budgets
    built.clear()
    rep = verify_transform(first_one_presentation(c3), cyl_points(c3, 3), 4, 64)
    rep.result.report_text()
    assert len(rep.budgets) > 1 and len(built) == 1
