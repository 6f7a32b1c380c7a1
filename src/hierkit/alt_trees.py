"""Alternating chains, the audit they power, and the Kleene-Brouwer order.

Trees are finite prefix-closed sets of tuples; rank(leaf) = 0 and
rank(node) = max(rank(child) + 1).  The classification bridge: a subset
a of a finite poset is at D-level <= n exactly when no membership-
alternating strictly increasing chain starting inside a has n edges.
On a finite poset the maximal rank of an (a, eps)-alternating increasing
tree equals the longest such chain, so the tree search collapses to a
DP over the order and a maximal-rank tree to one longest chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hierkit.diff_hierarchy import code_from_masks, denote_mask
from hierkit.finite_space import bits


# -- Kleene-Brouwer order ------------------------------------------------


def kb_less(s, t):
    """Kleene-Brouwer: proper extensions come first; incomparable nodes
    compare at the first differing entry."""
    s, t = tuple(s), tuple(t)
    if s == t:
        return False
    k = min(len(s), len(t))
    for i in range(k):
        if s[i] != t[i]:
            return s[i] < t[i]
    return len(s) > len(t)


def _kb_key(s):
    # a node's closing (1,) sorts after any extension's next (0, x), so
    # proper extensions come first and the root () comes last
    return tuple((0, x) for x in s) + ((1,),)


def kb_sorted(nodes):
    """Nodes in Kleene-Brouwer order, the order of `kb_less`."""
    return sorted(nodes, key=_kb_key)


# -- alternating chains ---------------------------------------------------


def check_alternating_chain(poset, member_mask, chain, eps):
    """Raise ValueError unless chain (v0, ..., vk) is strictly
    increasing, flips membership in member_mask at every step and starts
    on side eps.  A failure names the offending node (v1, ..., vj) of
    the chain's tree of prefixes, whose root () is v0."""
    chi = lambda v: bool((member_mask >> v) & 1)
    for j in range(1, len(chain)):
        a, b = chain[j - 1], chain[j]
        if not poset.lt(a, b):
            raise ValueError("labels not strictly increasing at %r" % (chain[1 : j + 1],))
        if chi(a) == chi(b):
            raise ValueError("membership does not alternate at %r" % (chain[1 : j + 1],))
    if chi(chain[0]) != bool(eps):
        raise ValueError("root sign is not eps=%d" % eps)


# -- chain DP classification ----------------------------------------------


def _chain_dp(poset, a_mask):
    """m[v] = number of nodes in the longest strictly increasing
    membership-alternating chain starting at v."""
    # tops first: every strict successor of v comes before v, and the
    # ones that count are those of up[v] on the other side of a
    outside = poset.carrier & ~a_mask
    m = [1] * poset.n
    for v in poset.tops_first:
        other = outside if (a_mask >> v) & 1 else a_mask
        best = 0
        for y in bits(poset.up[v] & other):
            if m[y] > best:
                best = m[y]
        m[v] = 1 + best
    return m


class AltChains:
    """The chain DP of a subset a of a finite poset, run once, and what
    is read off it: the levels, one longest alternating chain per side
    and difference codes.  sides[eps] is the mask of the eps side of a."""

    def __init__(self, poset, a_mask):
        self.poset, self.a_mask = poset, a_mask
        self.sides = (poset.carrier & ~a_mask, a_mask)
        self.m = _chain_dp(poset, a_mask)

    def levels(self):
        """(sigma, pi): the most nodes of a chain starting on each side,
        0 when the side is empty.  The largest rank of an (a, eps)-
        alternating increasing tree is the eps level minus one."""
        get = self.m.__getitem__
        return tuple(max(map(get, bits(self.sides[e])), default=0) for e in (1, 0))

    def witness(self, eps):
        """One longest (a, eps)-alternating increasing chain (v0, ..., vk),
        k the maximal tree rank, walked down the DP values.  It starts at
        the first eps-side point with the largest m[v], then takes each
        time the least strict successor of opposite membership whose m
        is one less.  None when the eps side is empty."""
        poset, sides, m = self.poset, self.sides, self.m
        v = max(bits(sides[eps]), key=m.__getitem__, default=None)
        if v is None:
            return None
        chain, side = [v], eps
        while m[v] > 1:
            side ^= 1
            v = next(y for y in bits(poset.up[v] & sides[side]) if m[y] == m[v] - 1)
            chain.append(v)
        chain = tuple(chain)
        check_alternating_chain(poset, self.a_mask, chain, eps)
        return chain

    def code(self, alpha):
        """Difference code for a at level alpha.

        Slot beta collects the up-sets of every element c whose residual
        chain rank m(c)-1 is <= beta and whose membership matches the
        slot parity (in a iff beta and alpha have different parities).
        """
        masks = []
        for beta in range(alpha):
            acc = 0
            for c in bits(self.sides[(beta % 2) != (alpha % 2)]):
                if self.m[c] - 1 <= beta:
                    acc |= self.poset.up[c]
            masks.append(acc)
        code = code_from_masks(alpha, masks)
        if denote_mask(code, self.poset) != self.a_mask:
            raise AssertionError("tree code does not denote its set")  # pragma: no cover
        return code


def classify_by_trees(poset, a_mask):
    """(sigma, pi) levels from the chain characterization."""
    return AltChains(poset, a_mask).levels()


# -- ambiguity audit --------------------------------------------------------


@dataclass
class AmbiguityReport:
    levels: dict = field(default_factory=dict)  # mask -> (sigma, pi)
    violations: dict = field(default_factory=dict)  # n -> [mask, ...]

    def ok(self):
        return not any(self.violations.values())


def ambiguity_audit(poset, n_max):
    """Compare D_n & co-D_n against the union of everything below n.

    For each subset: membership in D_n is sigma <= n, in co-D_n is
    pi <= n.  Records, per 1 <= n <= n_max, whether

        D_n & co-D_n  ==  union over m < n of (D_m | co-D_m)

    and the offending masks when not.
    """
    report = AmbiguityReport()
    for mask in range(1 << poset.n):
        report.levels[mask] = classify_by_trees(poset, mask)
    for n in range(1, n_max + 1):
        bad = []
        for mask, (s, p) in report.levels.items():
            lhs = s <= n and p <= n
            rhs = s < n or p < n
            if lhs != rhs:
                bad.append(mask)
        report.violations[n] = bad
    return report
