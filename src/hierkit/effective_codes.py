"""Tree-shaped set codes and the staged difference-code transform.

Three layers live here.  BorelCode is a finite well-founded tree whose
nodes denote sets by rank: a bare root is empty, a leaf reads the basic
open named by its last entry, a rank-1 node unions its children, and a
rank->=2 node unions the differences of its children taken in (2n,
2n+1) pairs.  HausdorffCode strings a list of such trees along an
explicit finite well-order with a parity set P; a point belongs to the
coded set exactly when the least tree containing it has its index in P.

The third layer turns a two-sided staged presentation of a set A (rows
I_n^{eps,t} of basis indices whose unions intersect to A for eps=1 and
to its complement for eps=0) into a difference code over an ordinal
below omega^2.  The counter F_eps(m,t) measures how many leading rows
of side eps approximate O_m from above at stage t; pairs (m,t) whose
two counters disagree get the type of the larger side, and sequences of
such pairs with increasing coordinates, shrinking opens, and
alternating types form a finite tree.  The walk that builds the tree
lists each node after its children, siblings ascending, which is its
Kleene-Brouwer order.  That order, with each node spread over an
(omega+2)-block of slots, yields the code: the only nonempty slot of a
node's block sits at omega+type, so slot parity tracks the type, and
least-slot evaluation reads off the type of the deepest-leftmost node
whose open contains the point.

Nothing here silently extrapolates: the transform is exact for the
budget it was given, and verify_transform re-runs it on growing budgets
against a membership oracle, reporting INCOMPLETE with the observed
convergence data instead of patching answers.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

from hierkit.alt_trees import WfTree
from hierkit.diff_hierarchy import Budget, DiffCode, embed_co
from hierkit.jsonin import fields, integer, list_of, tagged
from hierkit.ordinals import Ordinal, text
from hierkit.space_models import index_visible, staged_ll

SIGMA = "sigma"
PI = "pi"


# -- tree-shaped codes -------------------------------------------------------


class BorelCode:
    """A finite prefix-closed tree read as a set description.

    Node meaning by rank: the root alone is the empty set; a non-root
    leaf is the basic open named by its last entry; a rank-1 node is
    the union of the opens named by its children; a node of rank >= 2
    is the union over n of (child 2n) minus (child 2n+1).  Children of
    rank->=2 nodes must therefore come in (2n, 2n+1) pairs, which is
    checked at construction.
    """

    def __init__(self, nodes):
        self.tree = WfTree(nodes)
        for node in self.tree.nodes:
            if self.tree.node_rank(node) < 2:
                continue
            labels = {k[-1] for k in self.tree.children(node)}
            for c in labels:
                if c ^ 1 not in labels:
                    raise ValueError(
                        "child %d under %r has no difference partner" % (c, node)
                    )

    def rank(self):
        return self.tree.rank()

    def basis_indices(self):
        """The basis indices the code reads: the last entry of each
        non-root leaf, which covers every child of a rank-1 node.  The
        labels of inner nodes under rank->=2 nodes are pair numbers."""
        inner = {n[:-1] for n in self.tree.nodes}
        return sorted({n[-1] for n in self.tree.nodes if n and n not in inner})

    def __eq__(self, other):
        return isinstance(other, BorelCode) and self.tree.nodes == other.tree.nodes

    def __hash__(self):
        return hash(self.tree.nodes)

    def __repr__(self):
        return "BorelCode(%r)" % (sorted(self.tree.nodes),)

    def to_json(self):
        return {"nodes": [list(n) for n in sorted(self.tree.nodes)]}

    @staticmethod
    def from_json(data):
        (nodes,) = fields(data, "Borel code", ("nodes",))
        label = functools.partial(integer, what="node label")
        return BorelCode([list_of(n, "node", label) for n in list_of(nodes, "nodes")])


def _node_value(tree, node, model, x):
    rank = tree.node_rank(node)
    if rank == 0:
        return bool(node) and model.point_in_basic(x, node[-1])
    labels = sorted(k[-1] for k in tree.children(node))
    if rank == 1:
        return any(model.point_in_basic(x, c) for c in labels)
    for c in labels:
        if c % 2:
            continue
        if _node_value(tree, node + (c,), model, x) and not _node_value(
            tree, node + (c + 1,), model, x
        ):
            return True
    return False


def eval_borel(code, model, side, x):
    """Membership of x in the coded set (side pi is the complement)."""
    if side not in (SIGMA, PI):
        raise ValueError("side must be %r or %r" % (SIGMA, PI))
    inside = _node_value(code.tree, (), model, x)
    return not inside if side == PI else inside


@dataclass(frozen=True)
class HausdorffCode:
    """Trees along a finite well-order with a parity set.

    `order` lists element ids from least to greatest; `trees[n]` is the
    BorelCode attached to element n; a point lands in the coded set
    exactly when the least element whose tree contains it lies in
    `parity_set`.  Points in no tree are out.
    """

    order: tuple
    parity_set: frozenset
    trees: tuple

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        object.__setattr__(self, "parity_set", frozenset(self.parity_set))
        object.__setattr__(self, "trees", tuple(self.trees))
        if sorted(self.order) != list(range(len(self.trees))):
            raise ValueError("order must enumerate one rank per tree")
        if not self.parity_set <= set(self.order):
            raise ValueError("parity set mentions elements outside the order")

    def to_json(self):
        return {
            "order": list(self.order),
            "parity_set": sorted(self.parity_set),
            "trees": [t.to_json() for t in self.trees],
        }

    @staticmethod
    def from_json(data):
        order, parity, trees = fields(data, "Hausdorff code", ("order", "parity_set", "trees"))
        element = functools.partial(integer, what="order element")
        return HausdorffCode(
            list_of(order, "order", element),
            list_of(parity, "parity_set", element),
            list_of(trees, "trees", BorelCode.from_json),
        )


def eval_hausdorff_code(code, model, x):
    for n in code.order:
        if eval_borel(code.trees[n], model, SIGMA, x):
            return n in code.parity_set
    return False


def hausdorff_from_diff(code, carrier_index=None):
    """Re-express a finite difference code whose handles are basis
    indices.  Listed slots become rank-1 trees over their open;
    unlisted slots get the bare-root tree, which never fires, so the
    least-slot semantics carries over unchanged.  A co-D code is first
    pushed into the next level, which needs the whole space's index.
    """
    if code.polarity == "co-D":
        if carrier_index is None:
            raise ValueError("co-D translation needs the whole-space index")
        code = embed_co(code, carrier_index)
    if not code.alpha.is_finite():
        raise ValueError("only finite-length codes translate to explicit orders")
    length = code.alpha.as_int()
    filled = {}
    for idx, handle in code.entries:
        filled[idx.as_int()] = handle
    trees = tuple(
        BorelCode([(), (filled[n],)]) if n in filled else BorelCode([()])
        for n in range(length)
    )
    parity = frozenset(n for n in range(length) if n % 2 != length % 2)
    return HausdorffCode(tuple(range(length)), parity, trees)


# -- staged presentations ----------------------------------------------------


class StagedPresentation:
    """Two staged row enumerations for a set and its complement.

    `rows(eps, n, t)` yields the stage-t approximation of the n-th row
    of side eps as basis indices.  The class filters each row down to
    the indices visible at stage t and checks -- against every row it
    has already handed out -- that rows only grow with the stage.
    `union(model, eps, n, t)` is the row's union as a basic open, kept
    per model so that no row's union is built twice.  `union_runs(model,
    eps, t)` lists the unions of rows 0..t-1 at stage t as runs of equal
    values, `(union, end)` with `end` the first row past the run, also
    kept per model: the F counter answers a whole run with one test.
    `member`, when provided, is the ground-truth membership oracle used
    by verification; the presentation itself never consults it.
    """

    def __init__(self, rows, member=None):
        self._rows = rows
        self.member = member
        self._seen = {}
        self._memo = {}
        self._unions = {}
        self._runs = {}

    def row(self, eps, n, t):
        if eps not in (0, 1):
            raise ValueError("side must be 0 or 1")
        key = (eps, n, t)
        if key in self._memo:
            return self._memo[key]
        got = frozenset(i for i in self._rows(eps, n, t) if index_visible(i, t))
        seen = self._seen.setdefault((eps, n), {})
        for u, prev in seen.items():
            older, newer = (prev, got) if u <= t else (got, prev)
            if not older <= newer:
                raise ValueError(
                    "row (%d, %d) shrank between stages %d and %d"
                    % (eps, n, min(u, t), max(u, t))
                )
        seen[t] = got
        out = tuple(sorted(got))
        self._memo[key] = out
        return out

    def union(self, model, eps, n, t):
        """`model.lam(self.row(eps, n, t))`, worked out once per model
        and row: the key holds the model itself, so no union built by
        one model is handed to another."""
        key = (model, eps, n, t)
        u = self._unions.get(key)
        if u is None:
            u = self._unions[key] = model.lam(self.row(eps, n, t))
        return u

    def union_runs(self, model, eps, t):
        key = (model, eps, t)
        runs = self._runs.get(key)
        if runs is None:
            runs = []
            for q in range(t):
                u = self.union(model, eps, q, t)
                if runs and runs[-1][0] == u:
                    runs[-1] = (u, q + 1)
                else:
                    runs.append((u, q + 1))
            runs = self._runs[key] = tuple(runs)
        return runs

    def check_points(self, model, points, depth=6, stage=32):
        """Disjoint-and-covering sanity at finite resolution: a point is
        `stable` when the examined rows of its own side all contain it
        and some examined row of the other side has already shed it."""
        if self.member is None:
            raise ValueError("check_points needs the membership oracle")
        report = {}
        for x in points:
            side = 1 if self.member(x) else 0
            covered = all(
                model.point_in_union(x, self.row(side, n, stage))
                for n in range(depth)
            )
            escaped = any(
                not model.point_in_union(x, self.row(1 - side, n, stage))
                for n in range(depth)
            )
            report[x] = "stable" if covered and escaped else "unstable"
        return report


def clopen_presentation(model, inside, outside):
    """Constant rows: every row of side 1 is {inside}, of side 0 is
    {outside}.  Correct exactly when the two opens partition the space,
    which is the caller's claim and check_points' job to probe."""
    return StagedPresentation(
        lambda eps, n, t: (inside,) if eps == 1 else (outside,),
        member=lambda x: model.point_in_basic(x, inside),
    )


def empty_presentation(model):
    whole = model.whole_index()
    return StagedPresentation(
        lambda eps, n, t: (whole,) if eps == 0 else (),
        member=lambda x: False,
    )


def first_one_presentation(model):
    """Words whose first letter other than 0 is a 1.

    The set is the open union of the cylinders [0^k 1]; its complement
    is a genuine countable intersection: row n is [0^n] together with
    every [0^k j], k < n, j >= 2.

    Only words short enough to be visible at the stage are encoded.  A
    word of length L has code at least 1 + k + ... + k^(L-1), the code
    of 0^L, and [w] is visible at stage t iff code(w) < t; so no word
    longer than the longest visible 0^L can be visible, and skipping
    those words leaves every filtered row unchanged.
    """
    if model.kind != "cylinder":
        raise ValueError("the first-one presentation lives on a cylinder model")
    k = model.alphabet

    def longest_visible(t):
        # the largest L whose first code 1 + k + ... + k^(L-1) is < t
        length, first, block = 0, 0, 1
        while first + block < t:
            first += block
            block *= k
            length += 1
        return length

    def visible_singleton(word, t):
        # test the code before shifting: word codes grow exponentially
        # with depth, so 1 << code must never be built for losers
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
        longest = longest_visible(t)
        if n <= longest:
            idx = visible_singleton((0,) * n, t)
            if idx is not None:
                out.append(idx)
        for d in range(min(n, longest)):
            for j in range(2, k):
                idx = visible_singleton((0,) * d + (j,), t)
                if idx is not None:
                    out.append(idx)
        return out

    def member(x):
        for i in range(len(x.prefix) + len(x.cycle)):
            a = x.letter(i)
            if a:
                return a == 1
        return False

    return StagedPresentation(rows, member=member)


def rows_presentation(model, rows1, rows0, tail="repeat"):
    """Explicit finite row lists.  Rows past the end repeat the last
    listed row (`tail="repeat"`) or go empty (`tail="empty"`)."""
    if tail not in ("repeat", "empty"):
        raise ValueError("tail must be 'repeat' or 'empty'")
    table = {1: [tuple(r) for r in rows1], 0: [tuple(r) for r in rows0]}

    def rows(eps, n, t):
        listed = table[eps]
        if n < len(listed):
            return listed[n]
        if tail == "repeat" and listed:
            return listed[-1]
        return ()

    return StagedPresentation(rows)


_PRESENTATION_FIELDS = {
    "rows": (("rows1", "rows0"), {"tail": "repeat"}),
    "clopen": (("inside", "outside"), {}),
    "empty": ((), {}),
    "first-one": ((), {}),
}


def presentation_from_json(model, data):
    """Decode a presentation; every basis index it lists must pass
    `model.check_index`."""
    kind, values = tagged(data, "presentation", _PRESENTATION_FIELDS)
    if kind == "rows":
        rows1, rows0 = (
            [list_of(row, "row", model.check_index) for row in list_of(rows, side)]
            for rows, side in zip(values, ("rows1", "rows0"))
        )
        return rows_presentation(model, rows1, rows0, tail=values[2])
    if kind == "clopen":
        return clopen_presentation(model, *map(model.check_index, values))
    if kind == "empty":
        return empty_presentation(model)
    return first_one_presentation(model)


# -- the F counter and the alternating tree ----------------------------------


def compute_F(m, t, eps, pres, model):
    """The largest p <= t such that every row q < p of side eps
    approximates O_m from above at stage t, i.e. the stage-t union of
    row q is nonempty-refined by O_m.  Not monotone in t in general
    (rows grow, but so does the row count to survive) and never assumed
    to be.

    The visibility of m is tested once, and the rows are walked as runs
    of equal unions (`StagedPresentation.union_runs`): equal unions get
    equal answers, so a run that passes adds its whole length."""
    if not index_visible(m, t):
        return 0
    p = 0
    for u, end in pres.union_runs(model, eps, t):
        if not (index_visible(u, t) and model.ll(u, m)):
            break
        p = end
    return p


def stage_ladder(budget):
    """Geometric stage schedule 1, 2, 4, ... capped at the budget. A
    sub-enumeration of stages keeps every check meaningful (each is
    made at its own listed stage) while bounding branch length by the
    ladder's length."""
    if budget < 1:
        raise ValueError("stage budget must be at least 1")
    out, t = [], 1
    while t < budget:
        out.append(t)
        t *= 2
    out.append(budget)
    return tuple(out)


def _default_pool(pres, model, budget, stages):
    cand = set(model.candidate_indices(budget))
    for eps in (0, 1):
        for t in stages:
            for q in range(t):
                cand.update(pres.row(eps, q, t))
                u = pres.union(model, eps, q, t)
                if u:
                    cand.add(u)
    return tuple(
        sorted(
            i
            for i in cand
            if index_visible(i, budget) and model.basic_nonempty(i)
        )
    )


@dataclass
class StagedTree:
    """The alternating tree over (index, stage) pairs, with per-node
    type and counter values.  `nodes` lists every node but the root in
    Kleene-Brouwer order: each node after its children, siblings
    ascending."""

    nodes: dict  # sequence -> (type, F0, F1), Kleene-Brouwer ascending
    stages: tuple
    pool: tuple
    budget: int
    frontier: frozenset  # leaves at the last stage: cut off by the budget
    growth_violations: tuple

    def __len__(self):
        return len(self.nodes)


def build_alt_tree(pres, model, stage_budget, node_cap=50_000):
    """All sequences ((m_0,t_0),...,(m_k,t_k)) with strictly increasing
    m's and t's, each open nonempty-refining its predecessor at the
    later pair's stage, and the two F counters disagreeing at every
    pair with the winning side alternating along the sequence.

    Leaves sitting at the final stage are flagged as frontier: they
    could not gain children inside the budget but might beyond it.  The
    counter-growth bound F_type(m_l, t_l) >= l // 2 is re-checked on
    every node rather than trusted.

    A node's children depend only on its last pair and type, so each
    such key's child list is searched once and the tree is the unfolding
    of that keyed DAG; each unfolded node spends one unit of a `node_cap`
    budget, and the node past it raises SearchBudgetExceeded.  A key's search
    starts past the typed pairs whose index is at most its own, found by
    bisection.  Child lists are in ascending (index, stage) order and
    the walk adds each node after its children, so `nodes` comes out in
    Kleene-Brouwer order.  The child lists and F values are kept only
    for the call: the recursive walk is released on return, so no
    reference cycle holds them for the garbage collector.
    """
    stages = stage_ladder(stage_budget)
    pool = _default_pool(pres, model, stage_budget, stages)

    f_memo = {}

    def fvals(m, t):
        if (m, t) not in f_memo:
            f_memo[(m, t)] = (
                compute_F(m, t, 0, pres, model),
                compute_F(m, t, 1, pres, model),
            )
        return f_memo[(m, t)]

    typed = []  # ((m, t), type) for every typed pair, ascending
    for t in stages:
        for m in pool:
            if not index_visible(m, t):
                continue
            f0, f1 = fvals(m, t)
            if f0 != f1:
                typed.append(((m, t), 1 if f1 > f0 else 0))
    typed.sort()
    typed_m = [m for (m, _), _ in typed]

    kid_memo = {}

    def kids(key):
        # children of any node whose last pair and type form `key`, as
        # (pair, node value), pairs ascending
        if key in kid_memo:
            return kid_memo[key]
        last_m, last_t, last_eps = key
        start = 0 if last_m is None else bisect.bisect_right(typed_m, last_m)
        out = []
        for (m, t), eps in typed[start:]:
            if last_m is not None:
                if t <= last_t or eps == last_eps:
                    continue
                if not staged_ll(model, last_m, m, t):
                    continue
            out.append(((m, t), (eps,) + fvals(m, t)))
        kid_memo[key] = out = tuple(out)
        return out

    nodes = {}
    budget = Budget(node_cap, "alternating tree exceeded %d nodes" % node_cap)

    def extend(prefix, key):
        for pair, value in kids(key):
            budget.spend()
            seq = prefix + (pair,)
            extend(seq, pair + value[:1])
            nodes[seq] = value

    try:
        extend((), (None, None, None))
    finally:
        extend = None  # the closure refers to itself: break the cycle

    frontier = frozenset(
        seq
        for seq, value in nodes.items()
        if seq[-1][1] == stages[-1] and not kid_memo[seq[-1] + value[:1]]
    )
    violations = []
    for seq, (eps, f0, f1) in nodes.items():
        if (f1 if eps else f0) < (len(seq) - 1) // 2:
            violations.append(seq)
    return StagedTree(nodes, tuple(stages), tuple(pool), stage_budget, frontier, tuple(violations))


# -- block ranks and the transform -------------------------------------------


def block_start(r):
    """Ordinal rank of the first slot of the r-th (omega+2)-block:
    (omega+2)*r, which collapses to omega*r + 2 for r >= 1."""
    return Ordinal(*_block_offset(r, 0, 0))


# the probe offsets 0, 1, omega, omega+1 of a block, each as
# omega*a + b with the parity its slot must have
_GAMMA_PROBES = ((0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1))


def _block_offset(r, a, b):
    """block_start(r) + omega*a + b, for a in {0, 1}, as the pair
    (omega coefficient, finite part); integer arithmetic only."""
    if a:
        return r + a, b
    return r, (2 if r else 0) + b


@dataclass(frozen=True)
class Slot:
    """The nonempty slot of block `block`: node `seq`, its type `eps`
    and its open.  It sits at omega + eps in its block, so its rank is
    omega*(block+1) + eps; the slot keeps the integers and builds the
    `rank` ordinal only when it is read."""

    seq: tuple
    block: int
    eps: int
    open_index: int

    @property
    def rank(self):
        return Ordinal(*_block_offset(self.block, 1, self.eps))


@dataclass
class TransformResult:
    """A built difference code plus everything needed to audit it.

    The slots carry their ranks as integers.  `diff_code` and
    `hausdorff`, validated codes over those slots, are built on first
    access; `to_json` writes the same rank text and Hausdorff JSON
    straight from the slots, so a report builds neither."""

    tree: StagedTree
    xi: Ordinal
    slots: tuple  # the nonempty slots, rank-ascending
    budget: int

    @functools.cached_property
    def diff_code(self):
        return DiffCode(self.xi, "D", tuple((s.rank, s.open_index) for s in self.slots))

    @functools.cached_property
    def hausdorff(self):
        leaf_codes = {o: BorelCode([(), (o,)]) for o in {s.open_index for s in self.slots}}
        trees = tuple(leaf_codes[s.open_index] for s in self.slots)
        parity_set = frozenset(i for i, s in enumerate(self.slots) if s.eps == 1)
        return HausdorffCode(tuple(range(len(self.slots))), parity_set, trees)

    def eval_point(self, model, x):
        missed = set()  # opens already found not to contain x
        for s in self.slots:
            if s.open_index in missed:
                continue
            if model.point_in_basic(x, s.open_index):
                return s.eps == 1
            missed.add(s.open_index)
        return False

    def to_json(self):
        slots = self.slots
        return {
            "xi": str(self.xi),
            "budget": self.budget,
            "nodes": len(self.tree),
            "frontier": len(self.tree.frontier),
            "slots": [
                {
                    "node": [list(p) for p in s.seq],
                    "rank": text(*_block_offset(s.block, 1, s.eps)),
                    "type": s.eps,
                    "open": s.open_index,
                }
                for s in slots
            ],
            # what self.hausdorff.to_json() gives
            "hausdorff": {
                "order": list(range(len(slots))),
                "parity_set": [i for i, s in enumerate(slots) if s.eps == 1],
                "trees": [{"nodes": [[], [s.open_index]]} for s in slots],
            },
        }


def effective_hausdorff_transform(pres, model, stage_budget):
    """Build the alternating tree, take its Kleene-Brouwer order with
    the root appended last, spread each node over an (omega+2)-block of
    slots, and emit the difference code whose only nonempty slot per
    block carries the node's open at offset omega + type.

    Block r starts at omega*r + 2 (0 for r = 0), so ranks are worked
    out as (omega coefficient, finite part) pairs of integers, and only
    the code's level xi is built as an ordinal.  Nothing is trusted:
    the probe offsets 0, 1, omega, omega+1 of every block have the
    parity they should, every slot rank's parity is its type, and the
    ranks strictly increase and stay below xi -- the checks `DiffCode`
    makes, which `TransformResult.diff_code` repeats when it is read.
    Evaluation of the result is exact for this budget: a point in no
    slot's open is reported outside, never guessed.
    """
    tree = build_alt_tree(pres, model, stage_budget)
    order = (*tree.nodes, ())
    top = _block_offset(len(order), 0, 0)  # xi as a pair
    slots = []
    prev = None
    for r, seq in enumerate(order):
        for a, b, want in _GAMMA_PROBES:
            if _block_offset(r, a, b)[1] % 2 != want:
                raise AssertionError("slot parity drifted in block %d" % r)
        if seq:
            eps = tree.nodes[seq][0]
            rank = _block_offset(r, 1, eps)
            if rank[1] % 2 != eps:
                raise AssertionError(
                    "slot rank %s does not carry type %d" % (text(*rank), eps)
                )
            if (prev is not None and rank <= prev) or rank >= top:
                raise AssertionError(
                    "slot rank %s does not lie between the last rank and xi"
                    % text(*rank)
                )
            prev = rank
            slots.append(Slot(seq, r, eps, seq[-1][0]))
    return TransformResult(tree, block_start(len(order)), tuple(slots), stage_budget)


# -- honesty: verification against a membership oracle -----------------------


@dataclass
class VerificationReport:
    status: str  # "COMPLETE" | "INCOMPLETE"
    result: TransformResult
    budgets: tuple
    mismatches: tuple  # points still wrong at the last budget tried
    first_change: int | None  # smallest budget increase that moved any answer
    answers: tuple  # the transform's verdict per point at the last budget
    truth: tuple  # the oracle's verdict per point

    def ok(self):
        return self.status == "COMPLETE"


def verify_transform(pres, model, points, budget, max_budget):
    """Run the transform on doubling budgets until its evaluation
    matches the presentation's membership oracle on every test point,
    or the budget cap is hit.  The report never hides a disagreement:
    INCOMPLETE carries the points still wrong and the smallest budget
    increase that changed any answer, so convergence is observable."""
    if pres.member is None:
        raise ValueError("verification needs a membership oracle")
    points = tuple(points)
    truth = [bool(pres.member(x)) for x in points]
    budgets, answers = [], []
    result = None
    b = budget
    while True:
        result = effective_hausdorff_transform(pres, model, b)
        budgets.append(b)
        answers.append([result.eval_point(model, x) for x in points])
        if answers[-1] == truth or b >= max_budget:
            break
        b = min(b * 2, max_budget)
    status = "COMPLETE" if answers[-1] == truth else "INCOMPLETE"
    first_change = None
    for bb, aa in zip(budgets[1:], answers[1:]):
        if aa != answers[0]:
            first_change = bb - budgets[0]
            break
    mismatches = tuple(
        x for x, a, want in zip(points, answers[-1], truth) if a != want
    )
    return VerificationReport(
        status, result, tuple(budgets), mismatches, first_change,
        tuple(answers[-1]), tuple(truth),
    )


def claim2_gaps(result, model, points, member):
    """Saturation check against the membership oracle `member`: every
    node typed against a point's side and containing the point must
    have a child whose open still contains it.  Frontier nodes are
    exempt -- their children were cut off by the budget, which the
    result already reports."""
    tree = result.tree
    kids = {}
    for seq in tree.nodes:
        kids.setdefault(seq[:-1], []).append(seq)
    gaps = []
    for x in points:
        side = 1 if member(x) else 0
        for seq, (eps, _, _) in tree.nodes.items():
            if eps == side or seq in tree.frontier:
                continue
            if not model.point_in_basic(x, seq[-1][0]):
                continue
            if not any(
                model.point_in_basic(x, c[-1][0]) for c in kids.get(seq, ())
            ):
                gaps.append((x, seq))
    return gaps
