"""Model-layer tests.

Documented oracle values come first: the closed form of the P_inf
relation, clause-row bookkeeping on tiny hand-checked systems, and the
Baire construction on cylinder spaces.  Property tests then confirm the
approximation-relation conditions on every shipped model.
"""

import functools
import heapq
import itertools
import json
import operator
import pathlib
import random
import re
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hierkit
from hierkit.finite_space import FinitePoset, all_posets_upto_iso, bits, mask_of, random_poset
from hierkit.space_models import (
    _MAX_DEPTH,
    INF,
    NOT_A_CLAUSE,
    SOLVED,
    UNSOLVED_CLAUSE,
    ApproxReport,
    BaireResult,
    ClauseSystem,
    CylinderModel,
    CylPoint,
    FinitePosetModel,
    PSpaceModel,
    SetPoint,
    baire_witness,
    check_approx_conditions,
    index_visible,
    model_from_json,
    pinf_model,
    pn_model,
)

# -- oracles ----------------------------------------------------------------


def test_pinf_rows_always_clauses_solved_iff_max_reaches():
    m = pinf_model()
    for a in ({0}, {0, 3}, {2, 5}, set()):
        i = mask_of(a)
        top = max(a, default=-1)
        for n in range(8):
            st_ = m.clause_status(i, n)
            assert st_ != NOT_A_CLAUSE
            assert (st_ == SOLVED) == (n <= top)
        assert m.n_u(i) == top + 1


def test_finite_row_clause_status():
    sys_ = ClauseSystem([({0}, [{1}])])
    m = PSpaceModel(sys_)
    assert m.clause_status(mask_of({2}), 0) == NOT_A_CLAUSE
    assert m.clause_status(mask_of({0, 1}), 0) == SOLVED
    assert m.clause_status(mask_of({0}), 0) == UNSOLVED_CLAUSE
    assert m.n_u(mask_of({0})) == 0
    assert m.n_u(mask_of({2})) == INF


def test_pinf_ll_documented_pairs():
    m = pinf_model()
    assert m.ll(mask_of({0}), mask_of({0, 3}))
    assert not m.ll(mask_of({2}), mask_of({2}))
    # failing containment kills the relation regardless of clauses
    assert not m.ll(mask_of({0, 1}), mask_of({0}))
    # max(empty) = -1: the empty cone sits below any inhabited one
    assert m.ll(mask_of(set()), mask_of({0}))


def pinf_ll(a, b):
    """Closed form of the clause relation on P_inf(N) cones."""
    a, b = frozenset(a), frozenset(b)
    return a <= b and max(a, default=-1) < max(b, default=-1)


def horizon(x):
    """Largest element a SetPoint's finite data mentions."""
    tail = -1 if x.cofinite_from is None else x.cofinite_from
    return max(x.core.bit_length() - 1, tail)


def test_pinf_generic_clause_ll_matches_closed_form():
    m = pinf_model()
    for a in range(128):
        for b in range(128):
            assert m.ll(a, b) == pinf_ll(bits(a), bits(b))


class _EnumeratedPinf:
    """Reference P_inf(N) at a given bound: row n < bound is generated as
    the explicit singleton witnesses {n}, ..., {ceiling}, with the
    ceiling just above the cone's top element or the point's horizon, and
    every query reads those lists (rows >= bound do not exist)."""

    def __init__(self, bound):
        self.bound = bound

    def row(self, n, ceiling):
        if n >= self.bound:
            return None
        return frozenset(), [frozenset((j,)) for j in range(n, ceiling + 1)]

    def clause_status(self, i, n):
        beta = frozenset(bits(i))
        row = self.row(n, max(beta, default=0) + 1)
        if row is None or not row[0] <= beta:
            return NOT_A_CLAUSE
        return SOLVED if any(g <= beta for g in row[1]) else UNSOLVED_CLAUSE

    def n_u(self, i):
        unsolved = (n for n in range(self.bound)
                    if self.clause_status(i, n) == UNSOLVED_CLAUSE)
        return next(unsolved, INF)

    def ll(self, i, j):
        if i & ~j:
            return False
        nu = self.n_u(i)
        if nu == INF or self.clause_status(j, nu) == SOLVED:
            return True
        return any(self.clause_status(i, m) == NOT_A_CLAUSE
                   and self.clause_status(j, m) == SOLVED for m in range(nu))

    def check_point(self, x):
        fx = _frozen(x)
        for n in range(self.bound):
            alpha, gammas = self.row(n, max(horizon(x), n) + 1)
            if fx.includes(alpha) and not any(fx.includes(g) for g in gammas):
                return n
        return None

    def refine_witness(self, x, i):
        fx = _frozen(x)
        if not fx.includes(bits(i)):
            raise ValueError("point is not in the open to refine")
        nu = self.n_u(i)
        if nu == INF:
            return i
        for g in self.row(nu, max(horizon(x), nu) + 1)[1]:
            if fx.includes(g):
                return i | mask_of(g)
        raise ValueError("point fails clause %d: not in the presented subspace" % nu)

    def completion(self, i):
        beta = frozenset(bits(i))
        for x in (SetPoint(i), SetPoint(i, max(beta, default=-1) + 1)):
            if self.check_point(x) is None:
                return x
        return None


@pytest.mark.parametrize("bound", [1, 2, 3, 8, 16, 64])
def test_pinf_closed_form_matches_enumerated_rows(bound):
    rng = random.Random(bound)
    m, ref = pinf_model(bound), _EnumeratedPinf(bound)
    # wide indices have top >= bound - 1: no examined row is unsolved,
    # so the truncation alone decides their answers
    wide = [1 << top | rng.getrandbits(top)
            for top in range(bound - 1, bound + 4) for _ in range(3)]
    indices = list(range(256)) + wide
    statuses = range(bound + 2)
    for i in indices:
        assert [m.clause_status(i, n) for n in statuses] == [
            ref.clause_status(i, n) for n in statuses
        ]
        assert m.n_u(i) == ref.n_u(i)
        assert m.some_point_in(i) == ref.completion(i)
        for j in [i | 1 << k for k in range(10)] + rng.sample(indices, 6):
            assert m.ll(i, j) == ref.ll(i, j)
        top = i.bit_length() - 1
        points = [SetPoint(i)] + [
            SetPoint(i, cofinite_from=c) for c in (0, top + 1, rng.randrange(top + 3))
        ]
        for x in points:
            assert m.check_point(x) == ref.check_point(x)
            for j in (0, i, i & rng.getrandbits(top + 1), rng.choice(indices)):
                # the enumerated rows list the witnesses {nu}, {nu + 1},
                # ... in order, so the first one x includes is the least
                want = _outcome(ref.refine_witness, x, j)
                assert _outcome(m.least_ll_above, j, x) == want
    # the truncated regime: a finite point whose max is bound - 1 passes
    assert m.check_point(SetPoint(wide[0])) is None


def test_pn_ll_is_containment():
    # betas grow, cones shrink: O_b <= O_a iff a's bits sit in b
    m = pn_model()
    for a in range(32):
        for b in range(32):
            assert m.ll(a, b) == (a | b == b)


def test_least_ll_above_follows_least_unsolved_clause():
    m = pinf_model()
    x = SetPoint(mask_of({0, 5}), cofinite_from=6)
    v = m.least_ll_above(mask_of({0}), x)
    assert set(bits(v)) == {0, 5}
    assert m.ll(mask_of({0}), v)
    # nothing unsolved: the open itself comes back
    pn = pn_model()
    assert pn.least_ll_above(mask_of({1}), SetPoint(mask_of({1}))) == mask_of({1})
    with pytest.raises(ValueError, match="^point is not in the open to refine$"):
        m.least_ll_above(mask_of({0}), SetPoint(mask_of({7})))
    with pytest.raises(ValueError, match="^point fails clause 1: not in the presented subspace$"):
        # finite point: not actually in the presented subspace
        m.least_ll_above(mask_of({0}), SetPoint(mask_of({0})))


def test_chain_limit_pinf_and_pn():
    m = pinf_model()
    chain = [mask_of(set()), mask_of({0}), mask_of({0, 1})]
    x = m.chain_limit(chain)
    assert x.includes(mask_of({0, 1})) and x.cofinite_from is not None
    assert all(m.point_in_basic(x, i) for i in chain)
    pn = pn_model()
    const = [mask_of({3, 4})] * 3
    y = pn.chain_limit(const)
    assert y == SetPoint(mask_of({3, 4}))


def test_chain_limit_rejects_bad_chains():
    m = pinf_model()
    with pytest.raises(ValueError, match="step 1"):
        m.chain_limit([mask_of(set()), mask_of({0}), mask_of({0})])
    # the finite point {0} triggers the row but misses its witness; the
    # cofinite point from 1 has it
    s = PSpaceModel(ClauseSystem([({0}, [{1}])]))
    assert s.chain_limit([mask_of(set()), mask_of({0})]) == SetPoint(1, cofinite_from=1)
    # a row with no witness: nothing in the subspace includes 0
    s = PSpaceModel(ClauseSystem([({0}, [])]))
    with pytest.raises(ValueError, match="chain ends in the empty open"):
        s.chain_limit([mask_of(set()), mask_of({0})])


def test_some_point_in_adds_the_witness_of_each_violated_row():
    # every point includes 0; a point with 1 includes 3 or 4, and one
    # with 3 includes 5
    m = PSpaceModel(ClauseSystem([(set(), [{0}]), ({1}, [{3}, {4}]), ({3}, [{5}])]))
    assert m.some_point_in(mask_of({2})) == SetPoint(mask_of({0, 2}))
    assert m.some_point_in(mask_of({1})) == SetPoint(mask_of({0, 1, 3, 5}))
    assert m.some_point_in(mask_of({0})) == SetPoint(mask_of({0}))
    # a violated row with no witness leaves the cone empty
    m = PSpaceModel(ClauseSystem([(set(), [{0}]), ({0, 2}, [])]))
    assert m.some_point_in(mask_of({2})) is None
    assert not m.basic_nonempty(mask_of({2}))


def test_pn_chain_converges_to_union_neighborhoods():
    # the union point's own cone refines every member: convergence in
    # the strong sense, not just membership
    m = pn_model()
    chain = [mask_of(set()), mask_of({1}), mask_of({1, 4})]
    union = 0
    for i in chain:
        union |= i
    assert all(m.basic_subset(union, i) for i in chain)


# -- bitmask sets against the frozenset code -----------------------------------

# Reference copies of the P(N) model code as it stood when a point's core
# and a clause row's sets were frozensets: every membership test turned
# the cone's index into the frozenset of its bits.  The least ll-successor
# around a point is found by brute force.


@dataclass(frozen=True)
class _FrozenPoint:
    core: frozenset
    cofinite_from: int | None = None

    def contains(self, n):
        if n in self.core:
            return True
        return self.cofinite_from is not None and n >= self.cofinite_from

    def includes(self, finite_set):
        return all(self.contains(n) for n in finite_set)


def _frozen(x):
    return None if x is None else _FrozenPoint(frozenset(bits(x.core)), x.cofinite_from)


class _FrozenClauses:
    def __init__(self, rows):
        self.rows = [(frozenset(a), tuple(frozenset(g) for g in gs)) for a, gs in rows]
        # the largest element a row mentions
        self.top = max((n for a, gs in self.rows for s in (a, *gs) for n in s), default=-1)

    def clause_status(self, i, n):
        beta = frozenset(bits(i))
        row = self.rows[n] if n < len(self.rows) else None
        if row is None or not row[0] <= beta:
            return NOT_A_CLAUSE
        return SOLVED if any(g <= beta for g in row[1]) else UNSOLVED_CLAUSE

    def n_u(self, i):
        rows = range(len(self.rows))
        return next((n for n in rows if self.clause_status(i, n) == UNSOLVED_CLAUSE), INF)

    def check_point(self, x):
        for n, (alpha, gammas) in enumerate(self.rows):
            if x.includes(alpha) and not any(x.includes(g) for g in gammas):
                return n
        return None


class _FrozenPinf:
    top = -1

    def __init__(self, bound):
        self.bound = bound

    def clause_status(self, i, n):
        if n >= self.bound:
            return NOT_A_CLAUSE
        return SOLVED if i.bit_length() > n else UNSOLVED_CLAUSE

    def n_u(self, i):
        n = i.bit_length()
        return n if n < self.bound else INF

    def check_point(self, x):
        if x.cofinite_from is not None:
            return None
        n = max(x.core, default=-1) + 1
        return n if n < self.bound else None


def _ascending_subsets(elements):
    """Bitmasks of the subsets of `elements`, in increasing numeric order."""
    heap, seen = [0], {0}
    while heap:
        m = heapq.heappop(heap)
        yield m
        for n in elements:
            if m | 1 << n not in seen:
                seen.add(m | 1 << n)
                heapq.heappush(heap, m | 1 << n)


class _FrozenModel:
    """PSpaceModel's frozenset code over a _FrozenClauses or
    _FrozenPinf system; points are _FrozenPoints."""

    def __init__(self, system):
        self.system = system

    def point_in_basic(self, x, i):
        return x.includes(frozenset(bits(i)))

    def ll(self, i, j):
        status = self.system.clause_status
        if i & ~j:
            return False
        nu = self.system.n_u(i)
        if nu == INF or status(j, nu) == SOLVED:
            return True
        return any(status(i, m) == NOT_A_CLAUSE and status(j, m) == SOLVED for m in range(nu))

    def some_point_in(self, i):
        beta = frozenset(bits(i))
        for x in (_FrozenPoint(beta), _FrozenPoint(beta, max(beta, default=-1) + 1)):
            if self.system.check_point(x) is None:
                return x
        x = _FrozenPoint(beta)
        while (n := self.system.check_point(x)) is not None:
            gammas = self.system.rows[n][1]
            if not gammas:
                return None
            x = _FrozenPoint(x.core | gammas[0])
        return x

    def chain_limit(self, chain):
        for k in range(len(chain) - 1):
            if not self.ll(chain[k], chain[k + 1]):
                raise ValueError("chain is not ll-increasing at step %d" % k)
        x = self.some_point_in(chain[-1])
        if x is None:
            raise ValueError("chain ends in the empty open")
        return x

    def least_ll_above(self, c, x):
        """Brute force: every b = c | e, e a set of elements of x outside
        c, in increasing order.  Elements at or above `limit` need not be
        tried: no row mentions them, and on P_inf the least j >= n_u(c)
        in x lies below it when there is one."""
        if not self.point_in_basic(x, c):
            raise ValueError("point is not in the open to refine")
        tail = -1 if x.cofinite_from is None else x.cofinite_from
        limit = max(*x.core, tail, c.bit_length(), self.system.top) + 1
        free = [n for n in range(limit) if x.contains(n) and not c >> n & 1]
        for e in _ascending_subsets(free):
            if self.ll(c, c | e):
                return c | e
        nu = self.system.n_u(c)
        raise ValueError("point fails clause %d: not in the presented subspace" % nu)

    def random_ll_successor(self, i, rng):
        x = self.some_point_in(i)
        if x is None:
            raise ValueError("cannot extend an empty basic open")
        j = self.least_ll_above(i, x)
        if j == i or rng.randrange(2):
            jittered = j | 1 << (max(bits(j), default=-1) + 1 + rng.randrange(3))
            if self.some_point_in(jittered) is not None:
                j = jittered
        return j


_SAMPLE_ROWS = [({0}, [{1}, {2, 3}]), ({1}, [{4}]), (set(), [{5}, {7, 9}]), ({2, 6}, [])]


def _frozen_pairs():
    """(model, frozenset reference) for pn, pinf at four bounds and an
    explicit clause system."""
    pairs = {"pn": (pn_model(), _FrozenModel(_FrozenClauses([])))}
    for bound in (1, 16, 64, 1024):
        pairs["pinf%d" % bound] = pinf_model(bound), _FrozenModel(_FrozenPinf(bound))
    pairs["clauses"] = (
        PSpaceModel(ClauseSystem(_SAMPLE_ROWS)), _FrozenModel(_FrozenClauses(_SAMPLE_ROWS))
    )
    return pairs


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return type(e), str(e)


@pytest.mark.parametrize("name", sorted(_frozen_pairs()))
def test_bitmask_sets_match_the_frozenset_code(name):
    m, ref = _frozen_pairs()[name]
    rng = random.Random(name)
    wide = [rng.getrandbits(rng.randint(1, 80)) for _ in range(40)]
    indices = list(range(1024 if name == "clauses" else 128)) + wide
    # every explicit row, or the low rows of P_inf
    rows = {"pn": 0, "clauses": len(_SAMPLE_ROWS)}.get(name, 72)
    statuses = sorted(set(range(rows)) | {rows, rows + 1})
    for i in indices:
        top = i.bit_length()
        assert [m.clause_status(i, n) for n in statuses] == [
            ref.system.clause_status(i, n) for n in statuses
        ]
        assert m.n_u(i) == ref.system.n_u(i)
        assert _frozen(m.some_point_in(i)) == ref.some_point_in(i)
        probes = [0, i, i & rng.getrandbits(top + 1), rng.choice(indices), 1 << top + 2]
        points = [
            SetPoint(i),
            SetPoint(rng.getrandbits(top + 3)),
            SetPoint(i, cofinite_from=top),
            SetPoint(rng.getrandbits(top + 1), cofinite_from=rng.randrange(top + 4)),
            SetPoint(0, cofinite_from=0),
        ]
        for x in points:
            fx = _frozen(x)
            assert m.check_point(x) == ref.system.check_point(fx)
            for j in probes:
                assert x.includes(j) == fx.includes(frozenset(bits(j)))
                assert m.point_in_basic(x, j) == ref.point_in_basic(fx, j)
                # the brute force walks every subset of x's elements
                # below the horizon: narrow points and probes only
                if i < 128 and j < 1024:
                    want = _outcome(ref.least_ll_above, j, fx)
                    assert _outcome(m.least_ll_above, j, x) == want, (x, j)
        if i < 128 and m.some_point_in(i) is not None:
            chain = [i]
            for seed in range(4):
                # every step keeps a point, so the next one can start
                step = m.random_ll_successor(chain[-1], random.Random(seed))
                assert step == ref.random_ll_successor(chain[-1], random.Random(seed))
                chain.append(step)
            for c in (chain, chain[:2], [i, i], [i, rng.choice(indices)]):
                got = _outcome(m.chain_limit, c)
                want = _outcome(ref.chain_limit, c)
                assert (_frozen(got) if type(got) is SetPoint else got) == want


def test_random_ll_successor_keeps_a_point():
    # the jitter of cone 6 = {1, 2} under _SAMPLE_ROWS would be 86 =
    # {1, 2, 4, 6}, which forces the witnessless last row
    m = PSpaceModel(ClauseSystem(_SAMPLE_ROWS))
    assert m.some_point_in(86) is None
    assert m.random_ll_successor(6, random.Random(0)) == 22
    # on seeded random clause systems, witnessless rows included, every
    # random successor is ll-above its cone and has a point
    rng = random.Random(20)
    for _ in range(60):
        rows = [
            (rng.sample(range(6), rng.randrange(3)),
             [rng.sample(range(9), rng.randint(1, 2)) for _ in range(rng.randrange(3))])
            for _ in range(rng.randint(1, 4))
        ]
        m = PSpaceModel(ClauseSystem(rows))
        for i in range(128):
            if m.some_point_in(i) is None:
                continue
            for seed in range(3):
                j = m.random_ll_successor(i, random.Random(seed))
                assert m.ll(i, j) and m.some_point_in(j) is not None, (rows, i, seed)


def test_least_ll_above_is_exact_past_the_tail_window():
    # the row forces 8 and is solved by 12 or 10, listed in that order:
    # the least successor takes 10 at every tail, also where 10 lies 8
    # or more elements past the tail's start
    rows = [({8}, [{12}, {10}])]
    m, ref = PSpaceModel(ClauseSystem(rows)), _FrozenModel(_FrozenClauses(rows))
    c = 1 << 8
    for tail in range(11):
        x = SetPoint(c, cofinite_from=tail)
        assert m.least_ll_above(c, x) == ref.least_ll_above(c, _frozen(x)) == c | 1 << 10


# -- staging ----------------------------------------------------------------

def test_staged_relation_grows_with_t():
    m = CylinderModel(2)
    idx = [m.singleton(w) for w in [(), (0,), (1,), (0, 1), (1, 0, 1)]]
    for t in range(12):
        for i in idx:
            for j in idx:
                # ll between indices both visible at stage t
                if index_visible(i, t) and index_visible(j, t) and m.ll(i, j):
                    assert index_visible(i, t + 1) and index_visible(j, t + 1)
    assert index_visible(0, 0) and not index_visible(2, 1)


# -- shipped models satisfy the approximation conditions ---------------------


def test_conditions_hold_on_all_shipped_models():
    rng = random.Random(11)
    m = pinf_model()
    assert check_approx_conditions(m, range(64), rng=rng, chains=25).ok()
    assert check_approx_conditions(pn_model(), range(32), rng=rng, chains=10).ok()
    fm = FinitePosetModel(FinitePoset.from_cover(4, [(0, 1), (1, 2), (1, 3)]))
    assert check_approx_conditions(fm, fm.candidate_indices(len(fm.opens)), rng=rng, chains=10).ok()
    cy = CylinderModel(2)
    sample = [cy.singleton(w) for w in [(), (0,), (1,), (0, 0), (0, 1), (1, 1)]]
    assert check_approx_conditions(cy, sample, rng=rng, chains=10).ok()


# Negative controls: the 2-chain 0 < 1 has opens 0 = {}, 1 = {1} and
# 2 = {0, 1}, and each model below breaks one condition on them.


class _LlGrows(FinitePosetModel):
    """ll(1, 2), though O_2 does not lie inside O_1."""

    def ll(self, i, j):
        return super().ll(i, j) or (i, j) == (1, 2)


class _LlUnstable(FinitePosetModel):
    """ll(1, 1) but not ll(2, 1), though O_1 lies inside O_2."""

    def ll(self, i, j):
        return super().ll(i, j) and (i, j) != (2, 1)


class _NoSuccessor(FinitePosetModel):
    """No ll-successor of O_2 around its point 0."""

    def least_ll_above(self, c, x):
        if c == 2:
            raise ValueError("no successor")
        return super().least_ll_above(c, x)


class _EmptyLimit(FinitePosetModel):
    """ll admits the empty open, and every chain runs into it."""

    def ll(self, i, j):
        return self.basic_subset(j, i)

    def random_ll_successor(self, i, rng):
        return 0


@pytest.mark.parametrize(
    "model, want",
    [
        (_LlGrows, ApproxReport(cond1=[(1, 2)])),
        (_LlUnstable, ApproxReport(cond2=[(1, 2, 1)])),
        (_NoSuccessor, ApproxReport(cond3=[(2, 0)])),
        (_EmptyLimit, ApproxReport()),
    ],
)
def test_each_broken_condition_is_reported_alone(model, want):
    m = model(FinitePoset.chain(2))
    assert check_approx_conditions(m, range(3)) == want


def test_a_chain_without_a_limit_is_reported():
    m = _EmptyLimit(FinitePoset.chain(2))
    report = check_approx_conditions(m, range(3), rng=random.Random(5), chains=8, chain_len=3)
    # the chains start where the check's own draws do, and skip the empty open
    replay = random.Random(5)
    starts = [s for s in (replay.choice(range(3)) for _ in range(8)) if s]
    assert starts and report == ApproxReport(cond4=[(s, 0, 0) for s in starts])


@given(st.integers(0, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_random_clause_systems_keep_first_two_conditions(nrows, data):
    rows = []
    for _ in range(nrows):
        alpha = data.draw(st.frozensets(st.integers(0, 3), max_size=2))
        wits = data.draw(
            st.lists(st.frozensets(st.integers(0, 4), max_size=2), max_size=3)
        )
        rows.append((alpha, wits))
    m = PSpaceModel(ClauseSystem(rows))
    idx = range(32)
    for i in idx:
        for j in idx:
            if m.ll(i, j):
                assert m.basic_subset(j, i)
    for u in idx:
        for v in idx:
            if not m.ll(u, v):
                continue
            for t in range(0, 32, 5):
                if m.basic_subset(u, t):
                    assert m.ll(t, v)


# -- cylinder specifics -----------------------------------------------------


@given(st.integers(2, 3), st.lists(st.integers(0, 2), max_size=6))
def test_word_code_roundtrip(k, word):
    word = tuple(a % k for a in word)
    m = CylinderModel(k)
    assert m.code_word(m.word_code(word)) == word


def test_cylinder_covering_awareness():
    m = CylinderModel(2)
    assert m.basic_subset(m.singleton((0, 1)), m.singleton((0,)))
    # the whole space is covered by the two depth-1 cylinders together
    assert m.basic_subset(m.singleton(()), m.singleton((0,)) | m.singleton((1,)))
    assert not m.basic_subset(m.singleton(()), m.singleton((0,)))
    three = CylinderModel(3)
    both = three.singleton((0,)) | three.singleton((1,))
    assert not three.basic_subset(three.singleton(()), both)


# A reference covering test that shares no code with the model: every
# call decodes both indices into words and, unless the leaf count rules
# it out, checks every extension down to the deepest cover word.


def _ref_words(k, i):
    out = []
    for c in bits(i):
        length, start, block = 0, 0, 1
        while start + block <= c:
            start, block, length = start + block, block * k, length + 1
        v, word = c - start, []
        for _ in range(length):
            word.append(v % k)
            v //= k
        out.append(tuple(reversed(word)))
    return out


def _ref_covered(k, word, cover):
    if any(word[: len(v)] == v for v in cover):
        return True
    depth = max((len(v) for v in cover), default=0)
    if len(word) >= depth:
        return False
    need = k ** (depth - len(word))
    have = sum(k ** (depth - len(v)) for v in cover if v[: len(word)] == word)
    if have < need:
        return False
    exts = itertools.product(range(k), repeat=depth - len(word))
    return all(any((word + e)[: len(v)] == v for v in cover) for e in exts)


def _ref_subset(k, i, j):
    cover = _ref_words(k, j)
    return all(_ref_covered(k, w, cover) for w in _ref_words(k, i))


def _ref_answer(k, query):
    name, i, j = query
    if name == "basic_subset":
        return _ref_subset(k, i, j)
    if name == "ll":
        return j != 0 and _ref_subset(k, j, i)
    if name == "union_subset":
        return _ref_subset(k, i, functools.reduce(operator.or_, j, 0))
    return tuple(_ref_words(k, i))


def _ask(model, query):
    name, i, j = query
    return model.words(i) if name == "words" else getattr(model, name)(i, j)


def _cylinder_indices(k, rng, count):
    """Indices of up to 1024 bits, the widths the stage budgets reach:
    sparse and dense masks, whole levels (covers of the root found only
    by the leaf count), levels with one word missing, and bitwise subsets
    of earlier indices."""
    levels, start = [], 0
    while start + k ** len(levels) <= 1024:
        size = k ** len(levels)
        levels.append(((1 << size) - 1) << start)
        start += size
    out = [0, 1]
    while len(out) < count:
        shape = rng.randrange(5)
        width = rng.randint(1, 1024)
        if shape == 0:
            i = functools.reduce(
                operator.or_, (1 << rng.randrange(width) for _ in range(rng.randint(1, 4)))
            )
        elif shape == 1:
            i = rng.getrandbits(width)
        elif shape == 2:
            i = rng.choice(levels) | (1 << rng.randrange(width))
        elif shape == 3:
            level = rng.choice(levels[1:])
            i = level & ~(1 << rng.choice(list(bits(level))))
        else:
            prev = rng.choice(out)
            i = prev & rng.getrandbits(max(prev.bit_length(), 1))
        out.append(i)
    return out


@pytest.mark.parametrize("k", [2, 3, 8])
def test_cylinder_queries_match_a_fresh_model_and_the_reference(k):
    rng = random.Random(k)
    pool = _cylinder_indices(k, rng, 40)
    memo = CylinderModel(k)
    for _ in range(150):
        a, b, c = (rng.choice(pool) for _ in range(3))
        queries = [
            ("basic_subset", a, b), ("basic_subset", b, a),
            ("ll", a, b), ("ll", b, a),
            ("union_subset", a, (b, c)), ("union_subset", c, (b, a)),
            ("words", a, None), ("words", b, None),
        ]
        rng.shuffle(queries)
        for query in queries:
            got = _ask(memo, query)
            assert got == _ask(CylinderModel(k), query) == _ref_answer(k, query), query
    assert all(type(memo.words(i)) is tuple for i in pool)
    assert memo.words(0) == ()


def _deep_covers(k, rng):
    """(depth, cover words, a word of the cover): full word levels (8-12
    letters on two, 5-7 on three, 4-6 on four) and, below the deepest
    level, covers that mix depths (the words after a first letter 1 cut
    three letters shorter), each whole and with that word missing.
    Shorter words come first, as `words` lists them."""
    depths = {2: range(8, 13), 3: range(5, 8), 4: range(4, 7)}[k]
    for depth in depths:
        level = list(itertools.product(range(k), repeat=depth))
        covers = [level]
        if depth < depths[-1]:
            cut = {w[: depth - 3] if w[0] == 1 else w for w in level}
            covers.append(sorted(cut, key=lambda w: (len(w), w)))
        for words in covers:
            gone = rng.randrange(len(words))
            yield depth, words, words[gone]
            yield depth, words[:gone] + words[gone + 1 :], words[gone]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_deep_cylinder_covers_match_the_reference(k):
    # The reference enumerates every extension of a word down to the
    # deepest cover word, which is slow for short words.  So the queries
    # are the root (which its leaf count decides at once when a word is
    # missing) and words within five letters of the depth, and the
    # points follow the chosen word, whose prefixes the leaf count
    # decides at once too.
    rng = random.Random(500 + k)
    for depth, words, chosen in _deep_covers(k, rng):
        m = CylinderModel(k)
        cover = m.lam(map(m.singleton, words))
        half = len(words) // 2
        parts = tuple(m.lam(map(m.singleton, ws)) for ws in (words[:half], words[half:]))
        covered = functools.cache(lambda w: _ref_covered(k, w, words))
        queries = [()] + [
            tuple(rng.randrange(k) for _ in range(rng.randint(depth - 5, depth + 1)))
            for _ in range(4)
        ]
        for w in queries:
            i, want = m.singleton(w), covered(w)
            assert m.basic_subset(i, cover) == want, (depth, w)
            assert m.union_subset(i, parts) == want, (depth, w)
            assert m.ll(cover, i) == want, (depth, w)
        sibling = chosen[:-1] + ((chosen[-1] + 1) % k,)
        for x in (CylPoint(chosen), CylPoint(sibling, (1,))):
            want = next(
                (m.singleton(x.word(d)) for d in range(_MAX_DEPTH + 1) if covered(x.word(d))),
                None,
            )
            if want is None:
                with pytest.raises(ValueError, match="no small enough neighborhood"):
                    m.least_containing(x, parts)
            else:
                assert m.least_containing(x, parts) == want, (depth, x)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_least_containing_descends_the_cover_once(k):
    # The answer matches the letter loop, which asks the reference
    # covering from the cover's root at every depth.  The search itself
    # walks down the point once: with a word missing it asks the kernel
    # `_covers` at most once per depth for a point along that word or its
    # sibling, and on a whole cover at most once per prefix of a cover
    # word and per depth, counting the kernel's calls of itself.
    rng = random.Random(600 + k)
    for depth, words, chosen in _deep_covers(k, rng):
        m = CylinderModel(k)
        half = len(words) // 2
        parts = tuple(m.lam(map(m.singleton, ws)) for ws in (words[:half], words[half:]))
        covers, calls = m._covers, []

        def counted(c, j):
            calls.append(c)
            return covers(c, j)

        whole = chosen in words
        bound = len({w[:n] for w in words for n in range(len(w) + 1)}) + depth if whole else depth
        sibling = chosen[:-1] + ((chosen[-1] + 1) % k,)
        for x in (CylPoint(chosen), CylPoint(sibling, (1,))):
            outcome = _outcome(_least_containing_by_letters, m, x, parts)
            m._covers, calls[:] = counted, []
            assert _outcome(m.least_containing, x, parts) == outcome, (depth, x)
            del m._covers
            assert len(calls) <= bound, (depth, x, len(calls))


def test_cylinder_points_and_searches():
    m = CylinderModel(2)
    x = CylPoint((0, 1), (1, 0))
    assert x.word(6) == (0, 1, 1, 0, 1, 0)
    assert m.point_in_basic(x, m.singleton((0, 1, 1)))
    assert m.least_containing(x, (m.whole_index(),)) == m.singleton(())
    c = m.singleton((0,))
    assert m.least_ll_above(c, x) == m.singleton((0,))
    y = CylPoint((1,), (0,))
    with pytest.raises(Exception):
        m.least_ll_above(c, y)


def _letter(x, i):
    # the letter-by-letter definition of a point's i-th letter
    if i < len(x.prefix):
        return x.prefix[i]
    return x.cycle[(i - len(x.prefix)) % len(x.cycle)]


def _letters(x, n):
    return tuple(_letter(x, i) for i in range(n))


def _seeded_cyl_points(k, seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        prefix = [rng.randrange(k) for _ in range(rng.randrange(5))]
        cycle = [rng.randrange(k) for _ in range(rng.randrange(1, 4))]
        yield CylPoint(prefix, cycle)


@pytest.mark.parametrize("k", [2, 3])
def test_point_words_match_the_letters(k):
    for x in _seeded_cyl_points(k, 100 + k, 60):
        for n in range(len(x.prefix) + 3 * len(x.cycle) + 1):
            word = _letters(x, n)
            assert x.word(n) == word
            assert type(x.word(n)) is tuple


@pytest.mark.parametrize("k", [2, 3, 8])
def test_point_membership_matches_the_reference_words(k):
    # point_in_basic reads i's bits at the codes of x's prefixes; the
    # reference decodes every word of i and compares it with x's letters
    rng = random.Random(700 + k)
    pool = _cylinder_indices(k, rng, 40)
    points = list(_seeded_cyl_points(k, 700 + k, 20)) + [
        CylPoint([rng.randrange(k) for _ in range(rng.randrange(13))],
                 [rng.randrange(k) for _ in range(rng.randint(1, 3))])
        for _ in range(20)
    ]
    ref_words = functools.cache(lambda i: _ref_words(k, i))
    m = CylinderModel(k)
    seen = Counter()
    for x in points:
        # the codes below 1024 of x's prefixes, each put into an index
        # of the pool and taken out of one
        on_path = [c for c in map(m.word_code, map(x.word, range(11))) if c < 1024]
        extra = [rng.choice(pool) | 1 << c for c in on_path]
        extra += [rng.choice(pool) & ~(1 << c) for c in on_path]
        for i in pool + extra:
            want = any(_letters(x, len(w)) == w for w in ref_words(i))
            assert m.point_in_basic(x, i) == want, (x, i)
            seen[want, i.bit_length() > 512] += 1
    assert min(seen[key] for key in itertools.product((False, True), repeat=2)) >= 50


def _point_test_cases():
    """(model, points, pool, widths): pn, pinf at two bounds, seeded
    clause systems and random posets, then 2-, 3- and 8-letter cylinders
    with indices of up to 1024 bits.  On a cylinder each point's path
    codes below 1024 are put into pooled indices and taken out of them,
    and each code c gives the width c + 1, where it is the top bit."""
    rng = random.Random(38)

    def set_points(count):
        return [SetPoint(rng.getrandbits(rng.randint(0, 14)),
                         cofinite_from=rng.choice([None, rng.randrange(16)]))
                for _ in range(count)]

    set_models = [pn_model(), pinf_model(16), pinf_model(64)]
    for _ in range(6):
        rows = [
            (rng.sample(range(6), rng.randrange(3)),
             [rng.sample(range(9), rng.randint(1, 2)) for _ in range(rng.randrange(4))])
            for _ in range(rng.randint(1, 4))
        ]
        set_models.append(PSpaceModel(ClauseSystem(rows)))
    for m in set_models:
        pool = [0] + [rng.getrandbits(rng.randint(1, 16)) for _ in range(60)]
        yield m, set_points(20), pool, (0, 1, 5, 12, 16)
    for n in range(1, 8):
        m = FinitePosetModel(random_poset(n, rng))
        yield m, list(m.points()), list(range(len(m.opens))), (len(m.opens).bit_length(),)
    for k in (2, 3, 8):
        m = CylinderModel(k)
        points = list(_seeded_cyl_points(k, 38 + k, 15)) + [
            CylPoint([rng.randrange(k) for _ in range(rng.randrange(13))],
                     [rng.randrange(k) for _ in range(rng.randint(1, 3))])
            for _ in range(15)
        ]
        for x in points:
            base = _cylinder_indices(k, rng, 20)
            on_path = [c for c in map(m.word_code, map(x.word, range(11))) if c < 1024]
            pool = base + [rng.choice(base) | 1 << c for c in on_path]
            pool += [rng.choice(base) & ~(1 << c) for c in on_path]
            widths = {1, rng.randint(1, 1024), 1024} | {c + 1 for c in on_path}
            yield m, [x], pool, sorted(widths)


def test_point_test_answers_as_point_in_basic_does():
    # each pooled index is cut down to the width's bits, which leaves it
    # whole where its bit length fits
    seen = Counter()
    for m, points, pool, widths in _point_test_cases():
        for x in points:
            for w in widths:
                test = m.point_test(x, w)
                cut = (1 << w) - 1
                for i in {i & cut for i in pool}:
                    want = m.point_in_basic(x, i)
                    assert bool(test(i)) == want, (m.kind, x, w, i)
                    seen[m.kind, want] += 1
    kinds = ("pn", "pinf", "clauses", "poset", "cylinder")
    assert min(seen[key] for key in itertools.product(kinds, (False, True))) >= 100


def test_candidate_indices_are_the_first_limit_indices_on_every_model():
    # one contract on every model kind: `candidate_indices(k)` lists k
    # valid indices, or the whole basis where that is smaller, and
    # raising the limit only appends
    models = {id(m): m for m, *_ in _point_test_cases()}.values()
    for m in models:
        size = len(m.opens) if m.kind == "poset" else None
        top = 40 if size is None else size + 3
        for k in range(top):
            got = list(m.candidate_indices(k))
            assert len(got) == (k if size is None else min(k, size)), (m.kind, k)
            assert list(m.candidate_indices(k + 1))[:k] == got, (m.kind, k)
            assert [m.check_index(i) for i in got] == got
    assert {m.kind for m in models} == {"pn", "pinf", "clauses", "cylinder", "poset"}


def _least_containing_by_letters(model, x, within):
    # CylinderModel.least_containing with the prefix built letter by
    # letter at each depth and the reference covering asked afresh
    cover = [w for j in within for w in _ref_words(model.alphabet, j)]
    for d in range(_MAX_DEPTH + 1):
        w = _letters(x, d)
        if _ref_covered(model.alphabet, w, cover):
            return model.singleton(w)
    raise ValueError("point has no small enough neighborhood")


@pytest.mark.parametrize("k", [2, 3, 4])
def test_least_containing_matches_the_letter_loop(k):
    m = CylinderModel(k)
    rng = random.Random(200 + k)
    covers = [(m.whole_index(),)]
    for _ in range(25):
        words = [
            tuple(rng.randrange(k) for _ in range(rng.randrange(4)))
            for _ in range(rng.randrange(1, 4))
        ]
        covers.append(tuple(m.singleton(w) for w in words))
    for x in _seeded_cyl_points(k, 300 + k, 40):
        for within in covers:
            try:
                want = _least_containing_by_letters(m, x, within)
            except ValueError as e:
                with pytest.raises(ValueError, match=str(e)):
                    m.least_containing(x, within)
                continue
            assert m.least_containing(x, within) == want


def _some_point_by_codes(model, i):
    # reference: CylinderModel.some_point_in with the least code
    # decoded afresh, not read from the words memo
    if i == 0:
        return None
    w = model.code_word(next(bits(i)))
    return CylPoint(w, (0,))


def _successor_by_codes(model, i, rng):
    # reference: CylinderModel.random_ll_successor drawing over the
    # index's codes and decoding the drawn one afresh
    if i == 0:
        raise ValueError("cannot extend the empty open")
    w = model.code_word(rng.choice(list(bits(i))))
    return model.singleton(w + (rng.randrange(model.alphabet),))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_point_and_successor_match_the_code_decoders(k):
    # singletons, unions of two to five words and whole levels; each
    # successor draw must take the same word and leave the generator in
    # the same state, so later moves of a play stay in step
    m = CylinderModel(k)
    for seed in range(200):
        pick = random.Random(seed)
        shape = seed % 3
        if shape == 2:
            words = itertools.product(range(k), repeat=pick.randrange(4))
        else:
            words = [
                tuple(pick.randrange(k) for _ in range(pick.randrange(5)))
                for _ in range(1 if shape == 0 else pick.randint(2, 5))
            ]
        i = m.lam(map(m.singleton, words))
        assert m.some_point_in(i) == _some_point_by_codes(m, i), (seed, i)
        got, want = random.Random(seed), random.Random(seed)
        j = i
        for _ in range(3):
            step = m.random_ll_successor(j, got)
            assert step == _successor_by_codes(m, j, want), (seed, j)
            assert got.getstate() == want.getstate(), (seed, j)
            j = step
    assert m.some_point_in(0) is None
    with pytest.raises(ValueError, match="cannot extend the empty open"):
        m.random_ll_successor(0, random.Random(0))


# -- baire ------------------------------------------------------------------


def _ones_after(model, k, depth):
    out = []
    for n in range(k, depth):
        for pre in _words(model.alphabet, n):
            out.append(model.singleton(pre + (1,)))
    return tuple(out)


def _words(k, n):
    if n == 0:
        yield ()
        return
    for w in _words(k, n - 1):
        for a in range(k):
            yield w + (a,)


def test_baire_degenerate_whole_space_dense_sets():
    m = pn_model()
    res = baire_witness(m, [((mask_of(set()),), ())], mask_of({1}), budget=500)
    assert res.outcome == "VERIFIED"
    assert res.point.includes(1 << 1)


def test_baire_budget_cut_is_not_a_density_verdict():
    # the first step's search ran out of candidates within the budget and
    # was read as a density violation on the unbounded cylinder basis
    m = CylinderModel(2)
    dense = [((2,), ())]
    assert baire_witness(m, dense, 1024, budget=3).outcome == "BUDGET_EXCEEDED"
    assert baire_witness(m, dense, 1024, budget=10_000).outcome == "VERIFIED"


def test_baire_two_dense_cylinder_sets():
    m = CylinderModel(2)
    dense = [(_ones_after(m, k, 4), ()) for k in (0, 1)]
    res = baire_witness(m, dense, m.singleton((0,)), budget=10_000)
    assert res.outcome == "VERIFIED"
    x = res.point
    assert x.word(1) == (0,)
    for u_part, _ in dense:
        assert m.point_in_union(x, u_part)
    assert len(res.chain) >= 3


def test_baire_flags_non_dense_constraint():
    m = CylinderModel(2)
    # U empty and F = [1] (encoded as the complement of [0]), so the
    # union misses the target [0] entirely
    res = baire_witness(m, [((), (m.singleton((0,)),))], m.singleton((0,)), budget=500)
    assert res.outcome == "DENSITY_VIOLATION"
    assert res.failed_index == 0


def test_baire_budget_exhaustion():
    m = CylinderModel(2)
    dense = [(_ones_after(m, 0, 3), ())]
    res = baire_witness(m, dense, m.singleton((0,)), budget=2)
    assert res.outcome == "BUDGET_EXCEEDED"


def test_baire_result_serialization():
    r = BaireResult("VERIFIED", [1, 2], CylPoint((0,), (0,)))
    data = r.to_json(CylinderModel(2))
    assert data["outcome"] == "VERIFIED" and data["point"]["prefix"] == [0]


def _threaded_least(model, i, budget, inside=None):
    """Reference: the least-successor search with its own step count,
    (index or None, steps used, cut by the budget)."""
    steps = 0
    for j in model.candidate_indices(budget + 1):
        steps += 1
        if steps > budget:
            return None, steps, True
        if not model.ll(i, j):
            continue
        if inside is not None and not model.union_subset(j, inside):
            continue
        return j, steps, False
    return None, steps, False


def _threaded_baire(model, dense, o, budget):
    """Reference: the chain search with the remaining budget threaded
    through return tuples.  (result, how a search ended the run: "first
    cut", "first empty", "w cut", "w empty", "w* cut" or None)."""
    steps = 0
    o0, used, capped = _threaded_least(model, o, budget)
    steps += used
    if o0 is None:
        if capped:
            return BaireResult("BUDGET_EXCEEDED", []), "first cut"
        return BaireResult("DENSITY_VIOLATION", []), "first empty"
    chain = [o0]
    for n in range(2 * len(dense)):
        j = n % len(dense)
        u_part, f_part = dense[j]
        w, used, capped = _threaded_least(model, chain[-1], budget - steps)
        steps += used
        if w is None:
            return BaireResult("BUDGET_EXCEEDED", chain), "w cut" if capped else "w empty"
        if u_part:
            w_star, used, capped = _threaded_least(model, w, budget - steps, inside=u_part)
            steps += used
        else:
            w_star, capped = None, False
        if w_star is None:
            if capped:
                return BaireResult("BUDGET_EXCEEDED", chain), "w* cut"
            if model.union_subset(w, f_part):
                return BaireResult("DENSITY_VIOLATION", chain, failed_index=j), None
        chain.append(w if w_star is None else w_star)
    x = model.chain_limit(chain)
    if not model.point_in_basic(x, o):
        return BaireResult("DENSITY_VIOLATION", chain, x, failed_index=-1), None
    for j, (u_part, f_part) in enumerate(dense):
        if not (model.point_in_union(x, u_part) or not model.point_in_union(x, f_part)):
            return BaireResult("DENSITY_VIOLATION", chain, x, failed_index=j), None
    return BaireResult("VERIFIED", chain, x), None


class _DeadEndModel(FinitePosetModel):
    """A poset model in which only the whole space has ll-successors, so
    a chain that leaves it meets an open without one."""

    def ll(self, i, j):
        return i == self.whole_index() and super().ll(i, j)


def _baire_cases():
    """Seeded (model, dense list, target) triples on every model kind.
    Poset targets include the empty open, which has no ll-successor."""
    rng = random.Random(21)
    models = [CylinderModel(2), CylinderModel(3), pinf_model(16), pn_model(),
              PSpaceModel(ClauseSystem(_SAMPLE_ROWS))]
    models += [FinitePosetModel(random_poset(n, rng)) for n in (3, 4, 5, 6)]
    models.append(_DeadEndModel(random_poset(4, rng)))
    for m in models:
        for k in range(8):
            dense = [
                (tuple(m.random_open(rng) for _ in range(rng.randrange(3))),
                 tuple(m.random_open(rng) for _ in range(rng.randrange(2))))
                for _ in range(rng.randrange(1, 4))
            ]
            target = m.random_open(rng)
            if isinstance(m, FinitePosetModel) and k == 0:
                target = m.whole_index() if isinstance(m, _DeadEndModel) else 0
            yield m, dense, target


def test_one_budget_stops_the_chain_search_where_threaded_steps_did():
    outcomes, endings = set(), set()
    for m, dense, target in _baire_cases():
        for budget in range(1, 121):
            want, ending = _threaded_baire(m, dense, target, budget)
            got = baire_witness(m, dense, target, budget=budget)
            assert got.to_json(m) == want.to_json(m), (m.kind, dense, target, budget)
            outcomes.add(want.outcome)
            endings.add(ending)
    assert outcomes == {"VERIFIED", "DENSITY_VIOLATION", "BUDGET_EXCEEDED"}
    assert endings == {"first cut", "first empty", "w cut", "w empty", "w* cut", None}


# -- symbolic points and serialization --------------------------------------


def test_set_point_membership_and_horizon():
    x = SetPoint(mask_of({1, 4}), cofinite_from=10)
    assert x.includes(1 << 1) and x.includes(1 << 12) and not x.includes(1 << 5)
    assert x.includes(mask_of({1, 4, 11})) and not x.includes(mask_of({3}))
    assert horizon(x) == 10 and horizon(SetPoint(mask_of({3}))) == 3
    assert SetPoint.from_json(x.to_json()) == x


def test_wide_pn_cores_round_trip():
    # every allowed element, a random half of them, and none: the mask
    # and the list equal those of one OR per element and `bits`
    rng = random.Random(5)
    for core in (list(range(65536)), sorted(rng.sample(range(65536), 32768)), []):
        mask = 0
        for x in core:
            mask |= 1 << x
        point = pn_model().point_from_json({"core": core})
        assert point == SetPoint(mask) and mask_of(reversed(core)) == mask
        assert point.to_json() == {"core": list(bits(mask)), "cofinite_from": None}
        assert point.to_json()["core"] == core
    with pytest.raises(ValueError):
        mask_of([3, -1])


def test_cyl_point_requires_tail():
    with pytest.raises(ValueError):
        CylPoint((0,), ())
    x = CylPoint((), (1, 0))
    assert CylPoint.from_json(x.to_json(), 2) == x


def test_model_json_roundtrip():
    m = CylinderModel(2)
    x = m.point_from_json({"prefix": [0, 1], "cycle": [1]})
    assert x == CylPoint((0, 1), (1,))
    assert pn_model().point_from_json({"core": [2]}) == SetPoint(mask_of({2}))
    chain = FinitePosetModel(FinitePoset.from_cover(3, [(0, 1), (1, 2)]))
    assert chain.point_from_json(2) == 2
    # JSON text is parsed by the command line, never here
    for text in ('{"kind": "pn"}', '"2"'):
        with pytest.raises(ValueError):
            model_from_json(text)
        with pytest.raises(ValueError):
            chain.point_from_json(text)


def test_poset_model_least_searches():
    fm = FinitePosetModel(FinitePoset.from_cover(3, [(0, 1), (1, 2)]))
    # opens ascend by size: empty, {2}, {1,2}, whole; the first two are
    # candidates at limit 2, and a limit past the basis size lists them all
    assert [fm.opens[i] for i in fm.candidate_indices(2)] == [0, 4]
    assert [fm.opens[i] for i in fm.candidate_indices(9)] == [0, 4, 6, 7]
    assert fm.opens[fm.least_containing(1, (fm.whole_index(),))] == 0b110
    assert fm.opens[fm.least_ll_above(fm.index_of(0b110), 1)] == 0b110
    assert fm.some_point_in(fm.index_of(0)) is None


def _scan_least_containing(m, x, within):
    """FinitePosetModel.least_containing as a scan of the opens."""
    w = m.lam(within)
    for i in range(len(m.opens)):
        if m.point_in_basic(x, i) and m.basic_subset(i, w):
            return i
    raise ValueError("no basic open contains the point")


def test_poset_closed_forms_match_the_scans():
    # up[x] for the least open around x, and a draw from a range for
    # Empty's random opening
    for n in range(1, 9):
        for seed in range(3):
            m = FinitePosetModel(random_poset(n, 600 + 10 * n + seed))
            every = range(len(m.opens))
            withins = [(c,) for c in every] + list(itertools.combinations(every, 2))
            for x in m.points():
                for within in withins:
                    want = _outcome(_scan_least_containing, m, x, within)
                    assert _outcome(m.least_containing, x, within) == want, (n, x, within)
                    if len(within) == 1:
                        assert _outcome(m.least_ll_above, within[0], x) == want
            for draw in range(20):
                rng, ref = random.Random(draw), random.Random(draw)
                assert m.random_open(rng) == ref.choice([i for i in every if m.basic_nonempty(i)])
                assert rng.random() == ref.random()


def _least_ll_or_none(m, c, x):
    try:
        return m.least_ll_above(c, x)
    except ValueError:
        return None


def _brute_least_ll(m, c, x, pool):
    """The least index i of the pool with x in O_i and ll(c, i), or None."""
    return next((i for i in sorted(pool) if m.point_in_basic(x, i) and m.ll(c, i)), None)


def test_least_ll_above_matches_a_brute_force_search():
    # every index and point of every poset model of up to 4 points
    for n in range(1, 5):
        for p in all_posets_upto_iso(n):
            fm = FinitePosetModel(p)
            every = range(len(fm.opens))
            for c in every:
                for x in fm.points():
                    assert _least_ll_or_none(fm, c, x) == _brute_least_ll(fm, c, x, every)
    # cylinders, where c is a singleton or a union of words of length <= 3.
    # The pool holds every singleton and pair of such words.  It contains
    # the least answer when there is one: a qualifying index i has a word
    # v that x starts with, and [v] <= O_i <= c qualifies too, with an
    # index no larger than i; x in c starts with a word of c, of length
    # <= 3, so some such [v] qualifies.
    rng = random.Random(18)
    for k in (2, 3):
        m = CylinderModel(k)
        words = [w for d in range(4) for w in itertools.product(range(k), repeat=d)]
        singles = [m.singleton(w) for w in words]
        pool = singles + [a | b for a, b in itertools.combinations(singles, 2)]
        unions = [m.lam(rng.sample(singles, rng.randint(2, 5))) for _ in range(30)]
        points = [
            CylPoint(
                [rng.randrange(k) for _ in range(rng.randrange(5))],
                [rng.randrange(k) for _ in range(rng.randint(1, 3))],
            )
            for _ in range(10)
        ]
        for c in singles + unions:
            for x in points:
                assert _least_ll_or_none(m, c, x) == _brute_least_ll(m, c, x, pool), (k, c, x)
    # P(N) models: pn, pinf at three bounds and seeded random clause systems
    for m, rows_top, c, x in _set_model_cases():
        want = _brute_least_set(m, c, x, rows_top)
        got = _outcome(m.least_ll_above, c, x)
        if want is None:
            if not x.includes(c):
                msg = "point is not in the open to refine"
            else:
                msg = "point fails clause %d: not in the presented subspace" % m.n_u(c)
            want = ValueError, msg
        assert got == want, (m.kind, vars(m.system), c, x)


def test_second_search_keeps_the_first_answer():
    # The stationary strategy answers C = least_containing(x, within=U),
    # then B = least_ll_above(C, x).  Where ll(U, V) is "V nonempty and
    # V inside U", any open around x inside C lies inside U, so C is
    # already least and B is C again.
    answered = 0
    rng = random.Random(28)
    for k in (2, 3, 4):
        m = CylinderModel(k)
        for x in _seeded_cyl_points(k, 800 + k, 60):
            for _ in range(5):
                # words that often sit on x's path, so some unions cover it
                words = [
                    x.word(rng.randrange(4)) + tuple(rng.choices(range(k), k=rng.randrange(3)))
                    for _ in range(rng.randint(1, 6))
                ]
                if rng.randrange(3) == 0:
                    words += itertools.product(range(k), repeat=rng.randrange(1, 4))
                u = tuple(m.singleton(w) for w in words)
                try:
                    c = m.least_containing(x, within=u)
                except ValueError:
                    continue
                assert m.least_ll_above(c, x) == c, (k, x, words)
                answered += 1
    assert answered >= 700
    for n in range(1, 9):
        fm = FinitePosetModel(random_poset(n, 900 + n))
        for x in fm.points():
            for _ in range(10):
                u = tuple(rng.sample(range(len(fm.opens)), rng.randint(1, min(3, len(fm.opens)))))
                try:
                    c = fm.least_containing(x, within=u)
                except ValueError:
                    continue
                assert fm.least_ll_above(c, x) == c, (n, x, u)
                answered += 1
    assert answered >= 900


def _brute_least_set(m, c, x, rows_top):
    """The least b = c | e with ll(c, b), e a set of elements of x outside
    c, or None; x must include c.  Subsets are walked in increasing order,
    and elements above every row's (`rows_top`), above the point's horizon
    and above c's top element are left out: no explicit row mentions them,
    and on P_inf the least element >= n_u(c) of x lies below them when
    there is one."""
    if not x.includes(c):
        return None
    limit = max(horizon(x), c.bit_length(), rows_top) + 1
    free = [n for n in range(limit) if x.includes(1 << n) and not c >> n & 1]
    return next((c | e for e in _ascending_subsets(free) if m.ll(c, c | e)), None)


def _set_model_cases():
    """(model, largest element a row mentions, c, x): random cones and
    points on pn, pinf and seeded random clause systems, plus points whose
    least extension lies more than 8 elements into the tail or above more
    than 12 elements of x outside c."""
    rng = random.Random(19)

    def random_points(c, count):
        for _ in range(count):
            core = rng.getrandbits(10)
            if rng.randrange(4):
                core |= c
            tail = rng.choice([None, None, rng.randrange(12)])
            yield SetPoint(core, cofinite_from=tail)

    models = [(pn_model(), -1)] + [(pinf_model(b), -1) for b in (1, 16, 64)]
    for _ in range(40):
        rows = [
            (rng.sample(range(6), rng.randrange(3)),
             [rng.sample(range(9), rng.randint(1, 2)) for _ in range(rng.randrange(4))])
            for _ in range(rng.randint(1, 4))
        ]
        models.append((PSpaceModel(ClauseSystem(rows)), 8))
    for m, rows_top in models:
        for _ in range(12):
            c = rng.getrandbits(rng.randint(0, 9))
            for x in random_points(c, 4):
                yield m, rows_top, c, x
    free14 = (1 << 14) - 1
    far = PSpaceModel(ClauseSystem([({8}, [{30}, {20}])]))
    yield far, 30, 1 << 8, SetPoint(1 << 8, cofinite_from=9)
    wide = PSpaceModel(ClauseSystem([({20}, [{30}, {25}])]))
    yield wide, 30, 1 << 20, SetPoint(free14 | 1 << 20 | 1 << 25 | 1 << 30)
    yield wide, 30, 1 << 20, SetPoint(free14 | 1 << 20, cofinite_from=25)
    for bound in (16, 64):
        yield pinf_model(bound), -1, 1 << 14, SetPoint(free14 | 1 << 14, cofinite_from=26)


# -- the shared model surface -----------------------------------------------


def _surface_models():
    return {
        "pn": pn_model(),
        "pinf16": pinf_model(16),
        "clauses": PSpaceModel(ClauseSystem([({0}, [{1}, {2, 3}]), ({1}, [{4}])])),
        "cyl2": CylinderModel(2),
        "cyl3": CylinderModel(3),
        "diamond": FinitePosetModel(
            FinitePoset.from_cover(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        ),
    }


def _reference_opening(m, rng):
    """Empty's random opening as the games module drew it while it told
    the model families apart by their types."""
    if isinstance(m, FinitePosetModel):
        return rng.choice([i for i in range(len(m.opens)) if m.basic_nonempty(i)])
    if hasattr(m, "singleton"):
        w = tuple(rng.randrange(m.alphabet) for _ in range(rng.randrange(3)))
        return m.singleton(w)
    return mask_of(frozenset(rng.sample(range(6), rng.randrange(3))))


@pytest.mark.parametrize("name", sorted(_surface_models()))
def test_models_share_one_surface(name):
    m = _surface_models()[name]
    assert m.finite == (name == "diamond")
    whole = m.whole_index()
    assert m.check_index(whole) == whole
    for bad in (-1, "1", True, 1.0, None, [1]):
        with pytest.raises(ValueError):
            m.check_index(bad)
    for seed in range(200):
        u = m.random_open(random.Random(seed))
        ref_rng = random.Random(seed)
        assert u == _reference_opening(m, ref_rng)
        # the same draws were consumed, so later moves stay in step
        rng = random.Random(seed)
        m.random_open(rng)
        assert rng.random() == ref_rng.random()
        x = m.some_point_in(u)
        if x is None:
            continue
        assert m.point_in_basic(x, u) and m.point_in_basic(x, whole)
        data = json.dumps(m.point_to_json(x))
        assert m.point_from_json(json.loads(data)) == x


def test_only_union_closed_models_have_lam():
    for name, m in _surface_models().items():
        if name in ("pn", "pinf16", "clauses"):
            with pytest.raises(ValueError, match="not closed under finite unions"):
                m.lam([1, 2])
        else:
            u, v = m.random_open(random.Random(1)), m.random_open(random.Random(2))
            w = m.lam([u, v])
            assert m.union_subset(w, [u, v])
            assert m.basic_subset(u, w) and m.basic_subset(v, w)


def test_poset_points_and_indices_stay_in_range():
    m = FinitePosetModel(FinitePoset.from_cover(2, [(0, 1)]))
    assert [m.point_from_json(d) for d in (0, 1)] == [0, 1]
    for bad in (2, -1, True, 1.0, "1", "x", None):
        with pytest.raises(ValueError):
            m.point_from_json(bad)
    assert m.check_index(2) == 2
    for bad in (3, 99, -1):
        with pytest.raises(ValueError):
            m.check_index(bad)


@pytest.mark.parametrize("k", [2, 3])
def test_cylinder_points_stay_in_the_alphabet(k):
    m = CylinderModel(k)
    top = k - 1
    assert m.point_from_json({"prefix": [top, 0], "cycle": [top]}) == CylPoint((top, 0), (top,))
    for bad in (
        {"prefix": [k]},
        {"prefix": [-1]},
        {"prefix": [0], "cycle": [k]},
        {"prefix": [True]},
        {"prefix": [0], "cycle": [False]},
        {"prefix": [1.0]},
        {"prefix": ["0"]},
        {"prefix": "01"},
        {"prefix": [None]},
    ):
        with pytest.raises(ValueError):
            m.point_from_json(bad)


def test_bits_refuses_a_negative_mask():
    with pytest.raises(ValueError, match="negative"):
        list(bits(-1))
    assert list(bits(0b1011)) == [0, 1, 3]


def test_no_model_type_checks_in_the_sources():
    banned = re.compile(
        r"hasattr\(|isinstance\([^)]*\b(PSpaceModel|FinitePosetModel|CylinderModel)\b"
    )
    found = [
        "%s:%d" % (path.name, n)
        for path in sorted(pathlib.Path(hierkit.__file__).parent.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert found == []
