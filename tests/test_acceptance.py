"""The acceptance gate: one test per numbered criterion, each ending in
a single printed pass/fail line (run with -s or -rA to see them all).

Tolerances are exact everywhere; seeds and budgets are fixed, so the
gate is deterministic.  Criterion 4 asserts the successor-level
ambiguity collapse where it is a theorem, above a least element, and
checks the counterexamples where it is not: on posets without a least
element every violation must be confirmed by all three classifiers, the
level-2 violations must be exactly the sets ambiguous at level 2 that
are neither open nor closed, and the two-disjoint-2-chains witness must
be among them.
"""

import itertools
import random
import sys
import time

import pytest

from hierkit.alt_trees import ambiguity_audit, classify_by_trees
from hierkit.diff_hierarchy import (
    DiffCode,
    code_from_masks,
    denote_mask,
    embed_co,
    eval_diff,
    normalize_monotone,
    pad,
    sigma_pi_levels,
)
from hierkit.effective_codes import (
    PI,
    SIGMA,
    BorelCode,
    block_start,
    claim2_gaps,
    clopen_presentation,
    empty_presentation,
    eval_borel,
    eval_hausdorff_code,
    first_one_presentation,
    hausdorff_from_diff,
    verify_transform,
)
from hierkit.finite_space import FinitePoset, all_posets_upto_iso, random_poset
from hierkit.games import (
    NONEMPTY_WINS,
    DeepeningEmpty,
    RandomEmpty,
    play,
    stationary_from_relation,
)
from hierkit.ordinals import OMEGA, ONE, Ordinal
from hierkit.residues import residue_levels
from hierkit.space_models import (
    CylinderModel,
    CylPoint,
    FinitePosetModel,
    baire_witness,
    check_approx_conditions,
    pinf_model,
)


def _report(num, ok, detail):
    line = "criterion %d: %s - %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    sys.stdout.flush()
    if not ok:
        pytest.fail(line, pytrace=False)


# -- 1: the three classifiers agree everywhere --------------------------------


def test_criterion_1_three_way_classifier_agreement():
    started = time.monotonic()
    posets = sets = 0
    for size in range(1, 5):
        for poset in all_posets_upto_iso(size):
            posets += 1
            for mask in range(1 << poset.n):
                sets += 1
                a = residue_levels(poset, mask)
                b = classify_by_trees(poset, mask)
                c = sigma_pi_levels(poset, mask)
                assert a == b == c, (poset.up, mask, a, b, c)
    elapsed = time.monotonic() - started
    assert elapsed < 120
    _report(
        1, True,
        "residues, trees and brute force agree on %d posets / %d subsets in %.1fs"
        % (posets, sets, elapsed),
    )


# -- 2: nested-triple identities ----------------------------------------------


def test_criterion_2_difference_algebra_identities():
    for seed in range(500):
        rng = random.Random(seed)
        poset = random_poset(2 + seed % 7, rng)
        opens = poset.opens()
        picks = sorted(rng.choice(opens) for _ in range(3))
        a0, a1, a2 = picks[0], picks[0] | picks[1], picks[0] | picks[1] | picks[2]
        two_union = denote_mask(code_from_masks(2, [0, a0]), poset) | denote_mask(
            code_from_masks(2, [a1, a2]), poset
        )
        assert two_union == denote_mask(code_from_masks(3, [a0, a1, a2]), poset)
        three_meet = denote_mask(
            code_from_masks(3, [0, a0, poset.carrier]), poset
        ) & denote_mask(code_from_masks(3, [a1, a2, poset.carrier]), poset)
        assert three_meet == denote_mask(
            code_from_masks(4, [a0, a1, a2, poset.carrier]), poset
        )
    _report(2, True, "union-as-level-3 and meet-as-level-4 hold on 500 seeded posets")


# -- 3: code surgery preserves denotation --------------------------------------


def _random_code(poset, rng):
    opens = poset.opens()
    alpha = rng.randrange(1, 6)
    ranks = sorted(rng.sample(range(alpha), rng.randrange(alpha + 1)))
    entries = tuple((r, rng.choice(opens)) for r in ranks)
    return DiffCode(alpha, rng.choice(("D", "co-D")), entries)


def test_criterion_3_normalize_pad_embed_preserve_denotation():
    for seed in range(1000):
        rng = random.Random(seed)
        poset = random_poset(1 + seed % 6, rng)
        code = _random_code(poset, rng)
        want = denote_mask(code, poset)
        mono = normalize_monotone(code, lambda a, b: a | b)
        assert denote_mask(mono, poset) == want
        padded = pad(code, code.alpha + Ordinal.from_int(rng.randrange(4)))
        assert denote_mask(padded, poset) == want
        co = DiffCode(code.alpha, "co-D", code.entries)
        lifted = embed_co(co, poset.carrier)
        assert lifted.polarity == "D"
        assert denote_mask(lifted, poset) == denote_mask(co, poset)
    _report(3, True, "1000 seeded codes survive normalize/pad/embed unchanged")


# -- 4: ambiguity collapse ------------------------------------------------------


def _relabel(mask, perm):
    """The image of `mask` when element i is renamed perm[i]."""
    return sum(1 << perm[i] for i in range(len(perm)) if (mask >> i) & 1)


def test_criterion_4_ambiguity_audit():
    # (a) with a least element the ambiguous classes collapse, depth <= 3.
    for size in range(1, 5):
        for poset in all_posets_upto_iso(size):
            if not any(poset.up[i] == poset.carrier for i in range(poset.n)):
                continue
            report = ambiguity_audit(poset, 3)
            assert report.ok(), (poset.up, report.violations)

    # (c) the truncated-prefix witness: binary words of length 1..2
    # without the empty word.  The 0-cone is clopen yet proper, so it is
    # ambiguous at level 1 without being at level 0 — the collapse needs
    # the least element it lacks.
    trunc = FinitePoset.from_cover(6, [(0, 2), (0, 3), (1, 4), (1, 5)])
    zero_cone = 0b001101
    assert classify_by_trees(trunc, zero_cone) == (1, 1)
    assert zero_cone not in (0, trunc.carrier)

    # (b) the successor levels n = 2, 3.  D_n & co-D_n equals the union of
    # the classes below n only above a least element.  Without one it
    # fails: on two disjoint 2-chains a0 < a1, b0 < b1 the set {a1, b0} is
    # {a1, b0, b1} - {b1} and its complement is {a0, a1, b1} - {a1}, so
    # sigma = pi = 2, yet it is neither an up-set nor the complement of
    # one.  So: no violation may occur above a least element, every other
    # violation must be confirmed by brute force and residues, at level 2
    # the violations must be exactly the sets of levels <= (2, 2) that are
    # neither open nor closed, and the two-chain witness must be found.
    chains = FinitePoset.from_cover(4, [(0, 1), (2, 3)])
    chains_witness = 0b0110  # {a1, b0} with a0, a1, b0, b1 = 0, 1, 2, 3
    violations = []
    witness_found = False
    for size in range(1, 5):
        for poset in all_posets_upto_iso(size):
            report = ambiguity_audit(poset, 3)
            for n in (2, 3):
                for mask in report.violations[n]:
                    assert poset.least_element() is None, (poset.up, n, mask)
                    pair = report.levels[mask]
                    assert sigma_pi_levels(poset, mask) == pair, (poset.up, mask)
                    assert residue_levels(poset, mask) == pair, (poset.up, mask)
                    violations.append((tuple(poset.up), n, mask, pair))
            opens = set(poset.opens())
            neither = [
                m for m in range(1 << poset.n)
                if max(sigma_pi_levels(poset, m)) <= 2
                and m not in opens and poset.carrier & ~m not in opens
            ]
            assert report.violations[2] == neither, (poset.up, neither)
            if poset.canon() == chains.canon():
                witness_found = any(
                    _relabel(chains_witness, perm) in report.violations[2]
                    for perm in itertools.permutations(range(4))
                    if all(
                        chains.leq(i, j) == poset.leq(perm[i], perm[j])
                        for i in range(4) for j in range(4)
                    )
                )
    assert witness_found, "two-chain witness {a1, b0} not among the violations"
    up, n, mask, pair = violations[0]
    _report(
        4, True,
        "collapse holds above a least element (depth 3) and the truncated-prefix "
        "witness holds; %d successor-level violations, none above a least "
        "element, all confirmed by brute force and residues, and at level 2 "
        "exactly the neither-open-nor-closed sets; e.g. up-sets %r, set %#x "
        "has levels %r at n = %d" % (len(violations), up, mask, pair, n),
    )


# -- 5: approximation-relation axioms -------------------------------------------


def test_criterion_5_approximation_axioms():
    model = pinf_model()
    report = check_approx_conditions(model, range(128))
    assert report.ok(), report
    for seed in range(200):
        rng = random.Random(seed)
        chain = [rng.randrange(1, 128)]
        for _ in range(9):
            chain.append(model.random_ll_successor(chain[-1], rng))
        x = model.chain_limit(chain)
        assert all(model.point_in_basic(x, c) for c in chain), (seed, chain)
    _report(
        5, True,
        "shrink/stability/refinability exhaustive on 128 cones; 200 seeded "
        "10-step chains each carry a common point",
    )


# -- 6: the stationary strategy never loses --------------------------------------


def test_criterion_6_game_soundness():
    plays = 0
    for seed in range(500):
        rng = random.Random(seed)
        model = FinitePosetModel(random_poset(1 + seed % 5, rng))
        mover = (RandomEmpty if seed % 2 else DeepeningEmpty)(model, rng)
        t = play(model, mover, stationary_from_relation(model), rounds=20)
        assert t.outcome == NONEMPTY_WINS, (seed, t.outcome, t.reason)
        plays += 1
    pinf = pinf_model()
    cylinder = CylinderModel(2)
    strategies = {id(pinf): stationary_from_relation(pinf),
                  id(cylinder): stationary_from_relation(cylinder)}
    for seed in range(500):
        rng = random.Random(10_000 + seed)
        model = pinf if seed % 2 else cylinder
        mover = (RandomEmpty if seed % 3 else DeepeningEmpty)(model, rng)
        t = play(model, mover, strategies[id(model)], rounds=20)
        assert t.outcome == NONEMPTY_WINS, (seed, t.outcome, t.reason)
        assert t.witness is not None, seed
        for v in t.opens_played():
            assert model.point_in_basic(t.witness, v), (seed, v)
        plays += 1
    _report(6, True, "zero losses in %d twenty-round plays, witnesses certified" % plays)


# -- 7: density witnesses ---------------------------------------------------------


def _level_singletons(model, length):
    return [
        model.singleton(w)
        for w in itertools.product(range(model.alphabet), repeat=length)
    ]


def _dense_constraint(model, rng):
    """A dense open-union-closed pair.  Finite index tuples can only
    describe a dense union by covering everything, so either a full
    singleton level, or a level punctured on the reserved top-symbol
    branch with the hole returned as the closed part.  The least-index
    chain never enters that branch, so the search stays affordable."""
    level = rng.choice((1, 2))
    slots = _level_singletons(model, level)
    if rng.randrange(2):
        return tuple(slots), ()
    top = model.alphabet - 1
    hole_word = (top,) if level == 1 else (top, rng.randrange(model.alphabet))
    hole = model.singleton(hole_word)
    rest = tuple(m for m in slots if m != hole)
    return rest, rest


def test_criterion_7_baire_witness():
    for seed in range(100):
        rng = random.Random(seed)
        model = CylinderModel(2 + seed % 2)
        dense = [_dense_constraint(model, rng) for _ in range(3)]
        word = tuple(rng.randrange(model.alphabet - 1) for _ in range(rng.randrange(3)))
        target = model.singleton(word)
        result = baire_witness(model, dense, target, budget=10_000)
        assert result.outcome == "VERIFIED", (seed, result.outcome)
        x = result.point
        assert model.point_in_basic(x, target), seed
        for u_part, f_part in dense:
            assert model.point_in_union(x, u_part) or not model.point_in_union(
                x, f_part
            ), (seed, u_part, f_part)
    _report(7, True, "100 seeded instances verified within 10^4 steps each")


# -- 8: the staged transform ------------------------------------------------------


_PROBES = ((Ordinal.from_int(0), 0), (ONE, 1), (OMEGA, 0), (OMEGA + ONE, 1))


def _assert_rank_parity(result):
    for r in range(len(result.nodes) + 1):
        for gamma, want in _PROBES:
            assert (block_start(r) + gamma).parity() == want, r
    entries = result.diff_code.entries
    assert len(entries) == len(result.nodes)
    for (rank, _), (eps, _, _) in zip(entries, result.nodes.values()):
        assert rank.parity() == eps, (rank, eps)


def _verified(pres, points, budget, max_budget):
    report = verify_transform(pres, points, budget, max_budget=max_budget)
    assert report.status == "COMPLETE", (report.budgets, report.mismatches)
    _assert_rank_parity(report.result)
    assert claim2_gaps(report.result, pres, points) == []
    return report


def test_criterion_8_effective_transform():
    started = time.monotonic()
    fork = FinitePosetModel(FinitePoset.from_cover(3, [(0, 1)]))
    elements = [0, 1, 2]
    clopen = clopen_presentation(fork, fork.index_of(0b100), fork.index_of(0b011))
    _verified(clopen, elements, 4, 64)
    _verified(empty_presentation(fork), elements, 4, 64)
    whole = clopen_presentation(fork, fork.index_of(0b111), fork.index_of(0))
    _verified(whole, elements, 4, 64)

    model = CylinderModel(3)
    pres = first_one_presentation(model)
    points = [
        CylPoint(prefix, (tail,))
        for prefix in itertools.product(range(3), repeat=4)
        for tail in range(3)
    ]
    assert len(points) == 243
    report = _verified(pres, points, 16, 256)
    elapsed = time.monotonic() - started
    assert elapsed < 300
    _report(
        8, True,
        "smoke instances and the 243-point first-one instance verified "
        "(budgets %s) with rank parity at every node, %.1fs"
        % (list(report.budgets), elapsed),
    )


# -- 9: evaluators agree with direct computation -----------------------------------


def _node_set(nodes, node, model):
    kids = sorted(
        n[-1] for n in nodes if len(n) == len(node) + 1 and n[: len(node)] == node
    )
    if not kids:
        if not node:
            return set()
        return {x for x in model.points() if model.point_in_basic(x, node[-1])}
    if all(
        not any(len(n) == len(node) + 2 and n[: len(node) + 1] == node + (c,) for n in nodes)
        for c in kids
    ):
        out = set()
        for c in kids:
            out |= {x for x in model.points() if model.point_in_basic(x, c)}
        return out
    out = set()
    for c in kids:
        if c % 2 == 0 and c + 1 in kids:
            out |= _node_set(nodes, node + (c,), model) - _node_set(
                nodes, node + (c + 1,), model
            )
    return out


def test_criterion_9_code_evaluators():
    fork = FinitePosetModel(FinitePoset.from_cover(3, [(0, 1)]))
    universe = [(a,) for a in range(6)] + [(a, b) for a in range(6) for b in range(6)]
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
            want = _node_set(nodes, (), fork)
            for x in fork.points():
                assert eval_borel(code, fork, SIGMA, x) == (x in want)
                assert eval_borel(code, fork, PI, x) == (x not in want)
            checked += 1
    assert checked == 291

    translated = 0
    for seed in range(500):
        rng = random.Random(seed)
        model = FinitePosetModel(random_poset(1 + seed % 5, rng))
        handles = range(len(model.opens))
        alpha = rng.randrange(1, 7)
        ranks = sorted(rng.sample(range(alpha), rng.randrange(alpha + 1)))
        code = DiffCode(
            alpha,
            rng.choice(("D", "co-D")),
            tuple((r, rng.choice(handles)) for r in ranks),
        )
        whole = model.index_of(model.poset.carrier)
        haus = hausdorff_from_diff(code, carrier_index=whole)
        for x in model.points():
            direct = eval_diff(code, x, lambda h, y: model.point_in_basic(y, h))
            assert eval_hausdorff_code(haus, model, x) == direct, (seed, x)
        translated += 1
    _report(
        9, True,
        "291 exhaustive tree codes match direct sets; %d seeded translations "
        "match least-index evaluation" % translated,
    )
