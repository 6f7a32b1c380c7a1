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
alternating types form a finite tree, held as the DAG of its nodes'
keys (StagedTree).  Unfolded in Kleene-Brouwer order, each node over
an (omega+2)-block of slots, the tree is the code, so least-slot
evaluation reads off the type of the deepest-leftmost node whose open
contains the point.  The tree writes its own report as canonical JSON
text in one walk over the DAG (StagedTree.report_text).

Nothing here silently extrapolates: the transform is exact for the
budget it was given, and verify_transform re-runs it on growing budgets
against a membership oracle, reporting INCOMPLETE with the observed
convergence data instead of patching answers.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass

from hierkit.diff_hierarchy import Budget, DiffCode, embed_co
from hierkit.jsonin import fields, integer, list_of, tagged
from hierkit.ordinals import Ordinal, text
from hierkit.space_models import index_visible

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
    checked at construction.  `kids` maps each node to its child labels,
    ascending, and `ranks` each node to its rank.
    """

    def __init__(self, nodes):
        nodes = frozenset(map(tuple, nodes)) | {()}
        kids = {m: [] for m in nodes}
        ranks = dict.fromkeys(nodes, 0)
        # longest first, so every child's rank is final before its
        # parent's is read
        for m in sorted(nodes, key=len, reverse=True):
            if m:
                parent = m[:-1]
                if parent not in nodes:
                    raise ValueError("not prefix closed at %r" % (m,))
                kids[parent].append(m[-1])
                ranks[parent] = max(ranks[parent], ranks[m] + 1)
        for node, labels in kids.items():
            labels.sort()
            if ranks[node] < 2:
                continue
            present = set(labels)
            for c in labels:
                if c ^ 1 not in present:
                    raise ValueError(
                        "child %d under %r has no difference partner" % (c, node)
                    )
        self.nodes, self.kids, self.ranks = nodes, kids, ranks

    def basis_indices(self):
        """The basis indices the code reads: the last entry of each
        non-root leaf, which covers every child of a rank-1 node.  The
        labels of inner nodes under rank->=2 nodes are pair numbers."""
        return sorted({n[-1] for n in self.nodes if n and not self.kids[n]})

    def __eq__(self, other):
        return isinstance(other, BorelCode) and self.nodes == other.nodes

    def __hash__(self):
        return hash(self.nodes)

    def __repr__(self):
        return "BorelCode(%r)" % (sorted(self.nodes),)

    @staticmethod
    def from_json(data):
        (nodes,) = fields(data, "Borel code", ("nodes",))
        label = functools.partial(integer, what="node label")
        return BorelCode([list_of(n, "node", label) for n in list_of(nodes, "nodes")])


def _node_value(code, node, model, x):
    rank = code.ranks[node]
    if rank == 0:
        return bool(node) and model.point_in_basic(x, node[-1])
    labels = code.kids[node]
    if rank == 1:
        return any(model.point_in_basic(x, c) for c in labels)
    for c in labels:
        if c % 2:
            continue
        if _node_value(code, node + (c,), model, x) and not _node_value(
            code, node + (c + 1,), model, x
        ):
            return True
    return False


def eval_borel(code, model, side, x):
    """Membership of x in the coded set (side pi is the complement)."""
    if side not in (SIGMA, PI):
        raise ValueError("side must be %r or %r" % (SIGMA, PI))
    inside = _node_value(code, (), model, x)
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
    """Two staged row enumerations over the basis of `model`, for a set
    and its complement.

    `rows(eps, n, t)` yields the stage-t approximation of the n-th row
    of side eps as basis indices.  The class filters each row down to
    the indices visible at stage t, keeps one memo entry per row and
    stage, and checks each new stage of a row against the stages already
    handed out, so rows only grow with the stage.  `member`, when
    provided, is the ground-truth membership oracle used by
    verification; the presentation itself never consults it.
    """

    def __init__(self, model, rows, member=None):
        self.model = model
        self._rows = rows
        self.member = member
        self._seen = {}  # (eps, n) -> {stage: row}
        self._runs = {}  # (eps, t) -> union runs

    def row(self, eps, n, t):
        if eps not in (0, 1):
            raise ValueError("side must be 0 or 1")
        seen = self._seen.setdefault((eps, n), {})
        out = seen.get(t)
        if out is not None:
            return out
        got = frozenset(i for i in self._rows(eps, n, t) if index_visible(i, t))
        for u, prev in seen.items():
            if not (got.issuperset(prev) if u < t else got.issubset(prev)):
                raise ValueError(
                    "row (%d, %d) shrank between stages %d and %d"
                    % (eps, n, min(u, t), max(u, t))
                )
        out = seen[t] = tuple(sorted(got))
        return out

    def union_runs(self, eps, t):
        """The unions of rows 0..t-1 of side eps at stage t as runs
        `(union, end)` of equal values, `end` the first row past the run.
        Each row's union is taken once, as the runs are kept per (eps,
        t), and the F counter answers a whole run with one test."""
        key = (eps, t)
        runs = self._runs.get(key)
        if runs is None:
            lam = self.model.lam
            runs = []
            for q in range(t):
                u = lam(self.row(eps, q, t))
                if runs and runs[-1][0] == u:
                    runs[-1] = (u, q + 1)
                else:
                    runs.append((u, q + 1))
            runs = self._runs[key] = tuple(runs)
        return runs

    def check_points(self, points, depth=6, stage=32):
        """Disjoint-and-covering sanity at finite resolution: a point is
        `stable` when the examined rows of its own side all contain it
        and some examined row of the other side has already shed it."""
        if self.member is None:
            raise ValueError("check_points needs the membership oracle")
        report = {}
        for x in points:
            side = 1 if self.member(x) else 0
            covered = all(
                self.model.point_in_union(x, self.row(side, n, stage))
                for n in range(depth)
            )
            escaped = any(
                not self.model.point_in_union(x, self.row(1 - side, n, stage))
                for n in range(depth)
            )
            report[x] = "stable" if covered and escaped else "unstable"
        return report


def clopen_presentation(model, inside, outside):
    """Constant rows: every row of side 1 is {inside}, of side 0 is
    {outside}.  Correct exactly when the two opens partition the space,
    which is the caller's claim and the presentation's `check_points`
    probes."""
    return StagedPresentation(
        model,
        lambda eps, n, t: (inside,) if eps == 1 else (outside,),
        member=lambda x: model.point_in_basic(x, inside),
    )


def empty_presentation(model):
    whole = model.whole_index()
    return StagedPresentation(
        model,
        lambda eps, n, t: (whole,) if eps == 0 else (),
        member=lambda x: False,
    )


def first_one_presentation(model):
    """Words whose first letter other than 0 is a 1.

    The set is the open union of the cylinders [0^k 1]; its complement
    is a genuine countable intersection: row n is [0^n] together with
    every [0^k j], k < n, j >= 2.

    Only words short enough to be visible at the stage are encoded.  [w]
    is visible at stage t iff code(w) < t, and codes order words by
    length first, so no word is longer than the one with code t - 1;
    skipping longer words leaves every filtered row unchanged.

    Each singleton is built once: [0^d], [0^d 1] and the [0^d j], j >= 2,
    are kept by depth d (the last flat, k - 2 per depth), and the longest
    visible length by stage, so a row is sliced from those lists.
    """
    if model.kind != "cylinder":
        raise ValueError("the first-one presentation lives on a cylinder model")
    k = model.alphabet
    zeros, ones, others = [], [], []  # by depth
    longest_at = {}  # stage -> the longest visible word's length

    def rows(eps, n, t):
        longest = longest_at.get(t)
        if longest is None:
            longest = longest_at[t] = len(model.code_word(t - 1))
            while len(zeros) <= longest:
                stem = (0,) * len(zeros)
                zeros.append(model.singleton(stem))
                ones.append(model.singleton(stem + (1,)))
                others.extend(model.singleton(stem + (j,)) for j in range(2, k))
        if eps == 1:
            return ones[:longest]
        out = [zeros[n]] if n <= longest else []
        return out + others[:min(n, longest) * (k - 2)]

    def member(x):
        word = x.word(len(x.prefix) + len(x.cycle))
        return next((a == 1 for a in word if a), False)

    return StagedPresentation(model, rows, member=member)


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

    return StagedPresentation(model, rows)


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


def compute_F(m, t, eps, pres):
    """The largest p <= t such that every row q < p of side eps
    approximates O_m from above at stage t, i.e. the stage-t union of
    row q is nonempty-refined by O_m in the presentation's model.  Not
    monotone in t in general (rows grow, but so does the row count to
    survive) and never assumed to be.

    The visibility of m is tested once, and the rows are walked as the
    presentation's memoized runs of equal unions (`union_runs`): equal
    unions get equal answers, so a run that passes adds its whole length."""
    if not index_visible(m, t):
        return 0
    ll = pres.model.ll
    p = 0
    for u, end in pres.union_runs(eps, t):
        if not (index_visible(u, t) and ll(u, m)):
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


def _default_pool(pres, budget, stages):
    model = pres.model
    cand = set(model.candidate_indices(budget))
    for eps in (0, 1):
        for t in stages:
            for q in range(t):
                cand.update(pres.row(eps, q, t))
            cand.update(u for u, _ in pres.union_runs(eps, t) if u)
    return tuple(
        sorted(
            i
            for i in cand
            if index_visible(i, budget) and model.basic_nonempty(i)
        )
    )


def block_start(r):
    """Ordinal rank of the first slot of the r-th (omega+2)-block:
    (omega+2)*r, which collapses to omega*r + 2 for r >= 1."""
    return Ordinal(r, 2 if r else 0)


_ROOT = (None, None, None)  # the root's key: no pair, no type


def _unfold(kids, key, prefix, nodes):
    """Fill `nodes` with the subtree below `key` at `prefix`, sequence ->
    (type, F0, F1), in Kleene-Brouwer order."""
    for pair, value, child in kids[key]:
        _unfold(kids, child, prefix + (pair,), nodes)
        nodes[prefix + (pair,)] = value
    return nodes


def _first_types(kids, key, first, seen):
    """Fill `first` with each open below `key` that it lacks, in node
    order, -> whether its first node has type 1.  A key is expanded
    once: its later nodes repeat its first node's opens and types."""
    for (o, _), (eps, _, _), child in kids[key]:
        if child not in seen:
            seen.add(child)
            _first_types(kids, child, first, seen)
        first.setdefault(o, eps == 1)
    return first


@dataclass
class StagedTree:
    """The alternating tree over (index, stage) pairs, held as its keyed
    DAG, and the difference code it is.  A node's key is its last pair
    and type; its open, counter values and subtree depend on the key
    alone.  `kids` maps each key, `_ROOT` included, to its children as
    (pair, (type, F0, F1), child key), pairs ascending; `size` counts
    the nodes but the root, and the budget is the last stage.

    The code is the DAG unfolded in Kleene-Brouwer order: each node
    after its children, siblings ascending.  The r-th node owns block r;
    the block's only nonempty slot holds the node's open, the index of
    its last pair, at rank omega*(r+1) + type.  The root owns the last
    block and no slot, so xi is omega*(N+1) + 2 for N nodes.  A slot's
    parity is thus its node's type, and the ranks ascend below xi:
    `DiffCode` checks both whenever `diff_code` is read, and so do
    test_keyed_transform_matches_the_unkeyed_reference and
    test_closed_form_block_offsets_match_ordinal_arithmetic.

    `report_text` and `eval_point` read the DAG.  `nodes` (sequence ->
    (type, F0, F1)), `frontier`, `growth_violations` and `diff_code`
    unfold it when first read, which no `hier` command does."""

    kids: dict
    pool: tuple
    budget: int
    size: int

    @property
    def xi(self):
        """The level: the block after the root's."""
        return block_start(self.size + 1)

    @functools.cached_property
    def nodes(self):
        return _unfold(self.kids, _ROOT, (), {})

    @functools.cached_property
    def frontier(self):  # the leaves at the last stage, cut off by the budget
        return frozenset(seq for seq in self.nodes if seq[-1][1] == self.budget)

    @functools.cached_property
    def growth_violations(self):  # F_type(m_l, t_l) >= l // 2 re-checked, not trusted
        return tuple(seq for seq, (eps, f0, f1) in self.nodes.items()
                     if (f1 if eps else f0) < (len(seq) - 1) // 2)

    @functools.cached_property
    def diff_code(self):
        return DiffCode(self.xi, "D", tuple(
            (Ordinal(r + 1, eps), seq[-1][0])
            for r, (seq, (eps, _, _)) in enumerate(self.nodes.items())
        ))

    @functools.cached_property
    def _first_opens(self):
        """Each distinct open once, in node order, with whether its
        first node has type 1: a later node with the same open is never
        the first to hold a point."""
        return tuple(_first_types(self.kids, _ROOT, {}, set()).items())

    def eval_point(self, test):
        """The point's verdict, from its `point_test` made for any width
        of at least the budget (every open is visible at the budget):
        the type of the first node whose open holds it, else outside.
        It is exact for the budget, never guessed."""
        for o, inside in self._first_opens:
            if test(o):
                return inside
        return False

    def report_text(self):
        """The report object as canonical JSON text: sorted keys, no
        whitespace, the form the CLI writes every report in.  `slots`
        lists one object per node, its `node` the node's pairs.

        This is the only writer of a Hausdorff code.  The `hausdorff`
        object lists one tree per node, in node order: the leaf code of
        the node's open.  Its parity set holds the type-1 nodes.  It is
        the form `HausdorffCode.from_json` reads, so `hier eval-code
        --hausdorff` takes it as it is.

        Every pair is a child of the root, so one pass over its children
        makes each index's decimal text and leaf code once, and each
        pair's slot tail, from its `[o,t]` up to the rank, once.  One
        post-order walk over the DAG, carrying each slot's opening text
        down to the node's children, lists the slots as pieces, counts
        the frontier and collects the parity set; the pieces are joined
        once.  Ranks are ints here: only xi is an Ordinal."""
        kids, last = self.kids, self.budget
        index_text, leaves, texts = {}, {}, {}
        for (o, t), _, key in kids[_ROOT]:
            if o not in index_text:
                index_text[o] = str(o)
                leaves[o] = '{"nodes":[[],[%s]]}' % index_text[o]
            texts[key] = ('[%s,%d]],"open":%s,"rank":"' % (index_text[o], t, index_text[o]),
                          leaves[o], t == last)
        slots, parity, trees = [None], [], []  # slots[0]: the head, written last
        ends = ('","type":0}', '","type":1}')
        frontier = 0

        def walk(opening, key):
            nonlocal frontier
            for (o, t), (eps, _, _), child in kids[key]:
                tail, leaf, at_last = texts[child]
                if kids[child]:
                    walk("%s[%s,%d]," % (opening, index_text[o], t), child)
                r = len(trees)
                if eps:
                    parity.append(r)
                frontier += at_last
                slots.extend((opening, tail, text(r + 1, eps), ends[eps]))
                trees.append(leaf)

        try:
            walk(',{"node":[', _ROOT)
        finally:
            walk = None  # the closure refers to itself: break the cycle
        if trees:
            slots[1] = slots[1][1:]  # no comma before the first slot
        slots[:1] = [
            '{"budget":%d,"frontier":%d,"hausdorff":{"order":[' % (last, frontier),
            ",".join(map(str, range(len(trees)))), '],"parity_set":[',
            ",".join([str(r) for r in parity]), '],"trees":[', ",".join(trees),
            ']},"nodes":%d,"slots":[' % len(trees),
        ]
        slots.append('],"xi":"%s"}' % self.xi)
        return "".join(slots)


def build_alt_tree(pres, stage_budget, node_cap=50_000):
    """The transform: the alternating tree, which is the difference
    code (see StagedTree).  Its nodes are all sequences
    ((m_0,t_0),...,(m_k,t_k)) with strictly increasing m's and t's, each
    open nonempty-refining its predecessor at the later pair's stage,
    and the two F counters disagreeing at every pair with the winning
    side alternating along the sequence.

    Every typed pair is a child of the root, and a node's children
    depend only on its key, its last pair and type, so each key's child
    list is searched once and the tree is that keyed DAG.  The typed
    pairs are kept in one ascending list per type, grouped by index.  A
    key (m, t, type) below the last stage takes the pairs above stage t
    from the other type's groups past m (found by bisection) whose index
    m' has ll(m, m'), asked once per (m, type).  `ll` is the staged
    relation: each pair is visible at its stage, the key's index at its
    own, below the child's, and visibility is monotone in the stage.

    Keys are searched from the largest index down, so each key's
    unfolded subtree size is summed from its children's.  Each key's
    node under the root spends its subtree's size, itself included, from
    a `node_cap` budget, so the nodes are counted once and a tree past
    the cap raises SearchBudgetExceeded before anything is unfolded or
    written.
    """
    stages = stage_ladder(stage_budget)
    pool = _default_pool(pres, stage_budget, stages)

    sides = ([], [])  # per type: (pair, (type, F0, F1), child key), ascending
    for t in stages:
        for m in pool:
            if not index_visible(m, t):
                continue
            f0 = compute_F(m, t, 0, pres)
            f1 = compute_F(m, t, 1, pres)
            if f0 != f1:
                eps = 1 if f1 > f0 else 0
                sides[eps].append(((m, t), (eps, f0, f1), (m, t, eps)))
    for side in sides:
        side.sort()
    # per type: (index, its pairs, stages ascending), indices ascending
    groups = [[(m, list(g)) for m, g in itertools.groupby(side, lambda kid: kid[0][0])]
              for side in sides]
    group_m = [[m for m, _ in side] for side in groups]
    ll = pres.model.ll

    # children of any node whose last pair and type form the key, as
    # (pair, node value, the child's own key), pairs ascending
    kids = {_ROOT: sorted(sides[0] + sides[1])}
    reach = {}  # (index, type) -> the other type's groups it ll-refines
    sizes = {}  # key -> its unfolded subtree's node count, itself left out
    budget = Budget(node_cap, "alternating tree exceeded %d nodes" % node_cap)
    for _, _, key in reversed(kids[_ROOT]):
        m, t, eps = key
        out = kids[key] = []
        if t < stages[-1]:  # a later stage may hold a child
            if (m, eps) not in reach:
                start = bisect.bisect_right(group_m[1 - eps], m)
                reach[m, eps] = [run for n, run in groups[1 - eps][start:] if ll(m, n)]
            out += [kid for run in reach[m, eps] for kid in run if kid[0][1] > t]
        sizes[key] = len(out) + sum([sizes[child] for _, _, child in out])
        budget.spend(1 + sizes[key])  # the key's node under the root, and its subtree
    return StagedTree(kids, pool, stage_budget, budget.used)


# -- honesty: verification against a membership oracle -----------------------


@dataclass
class VerificationReport:
    status: str  # "COMPLETE" | "INCOMPLETE"
    result: StagedTree
    budgets: tuple
    mismatches: tuple  # points still wrong at the last budget tried
    first_change: int | None  # smallest budget increase that moved any answer
    answers: tuple  # the transform's verdict per point at the last budget
    truth: tuple  # the oracle's verdict per point

    def ok(self):
        return self.status == "COMPLETE"


def verify_transform(pres, points, budget, max_budget):
    """Run the transform on doubling budgets until its evaluation
    matches the presentation's membership oracle on every test point,
    or the budget cap is hit.  The report never hides a disagreement:
    INCOMPLETE carries the points still wrong and the smallest budget
    increase that changed any answer, so convergence is observable."""
    if pres.member is None:
        raise ValueError("verification needs a membership oracle")
    points = tuple(points)
    truth = [bool(pres.member(x)) for x in points]
    # one test per point serves every build: each tree's opens are
    # visible at its budget, which is at most this width
    width = max(budget, max_budget)
    tests = [pres.model.point_test(x, width) for x in points]
    budgets, answers = [], []
    result = None
    b = budget
    while True:
        result = build_alt_tree(pres, b)
        budgets.append(b)
        answers.append([result.eval_point(test) for test in tests])
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


def claim2_gaps(tree, pres, points):
    """Saturation check against the presentation's membership oracle:
    every node typed against a point's side and containing the point
    must have a child whose open still contains it.  Frontier nodes are
    exempt -- their children were cut off by the budget, which the
    tree already reports."""
    model, member = pres.model, pres.member
    gaps = []
    for x in points:
        side = 1 if member(x) else 0
        test = model.point_test(x, tree.budget)
        for seq, (eps, _, _) in tree.nodes.items():
            m, t = seq[-1]
            if eps != side and t != tree.budget and test(m) and not any(
                test(n) for (n, _), _, _ in tree.kids[m, t, eps]
            ):
                gaps.append((x, seq))
    return gaps
