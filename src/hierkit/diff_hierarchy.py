"""Difference codes and the level machinery built on them.

A code is (alpha, polarity, entries): entries are (index, open-set)
pairs with strictly increasing ordinal indices below alpha.  Missing
indices denote the empty set.  Evaluation uses least-index semantics:
for polarity "D" a point belongs to the coded set iff the least listed
index whose set contains it exists and has parity different from
alpha's; "co-D" is the complement.

Level 0 is degenerate by design: D_0 denotes the empty set and co-D_0
the whole carrier, with no entries.

Set handles are opaque: on finite posets they are bitmasks, on symbolic
models they are tuples of basis indices.  Every operation that needs to
look inside a set takes callbacks.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from hierkit.ordinals import Ordinal


def _as_ordinal(x):
    if isinstance(x, Ordinal):
        return x
    if isinstance(x, int):
        return Ordinal.from_int(x)
    raise TypeError("not an ordinal: %r" % (x,))


@dataclass(frozen=True)
class DiffCode:
    alpha: Ordinal
    polarity: str  # "D" | "co-D"
    entries: tuple  # ((Ordinal, set_handle), ...)

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_ordinal(self.alpha))
        if self.polarity not in ("D", "co-D"):
            raise ValueError("polarity must be 'D' or 'co-D'")
        ents = tuple((_as_ordinal(i), s) for i, s in self.entries)
        object.__setattr__(self, "entries", ents)
        prev = None
        for idx, _ in ents:
            if not idx < self.alpha:
                raise ValueError("entry index %s not below alpha=%s" % (idx, self.alpha))
            if prev is not None and not prev < idx:
                raise ValueError("entry indices must strictly increase")
            prev = idx


def eval_diff(code, x, contains):
    """Least-index evaluation.  contains(set_handle, x) -> bool."""
    verdict = False
    for idx, s in code.entries:
        if contains(s, x):
            verdict = idx.parity() != code.alpha.parity()
            break
    if code.polarity == "co-D":
        verdict = not verdict
    return verdict


def normalize_monotone(code, union):
    """Replace each entry set by the union of it and all earlier entry
    sets.  Denotation is unchanged under least-index semantics."""
    ents = []
    acc = None
    for idx, s in code.entries:
        acc = s if acc is None else union(acc, s)
        ents.append((idx, acc))
    return DiffCode(code.alpha, code.polarity, tuple(ents))


def pad(code, alpha2):
    """Re-express the same set at a higher level alpha2 >= alpha.

    Same parity: indices stay put.  Opposite parity: every index shifts
    up by one (slot 0 is left implicitly empty), which flips each
    entry parity in step with alpha's.
    """
    alpha2 = _as_ordinal(alpha2)
    if alpha2 < code.alpha:
        raise ValueError("pad target %s below alpha %s" % (alpha2, code.alpha))
    if alpha2.parity() == code.alpha.parity():
        return DiffCode(alpha2, code.polarity, code.entries)
    ents = tuple((idx + 1, s) for idx, s in code.entries)
    return DiffCode(alpha2, code.polarity, ents)


def embed_co(code, carrier):
    """Turn a co-D_alpha code into a D_(alpha+1) code by appending the
    carrier at slot alpha."""
    if code.polarity != "co-D":
        raise ValueError("embed_co starts from a co-D code")
    ents = code.entries + ((code.alpha, carrier),)
    return DiffCode(code.alpha + 1, "D", ents)


# -- finite poset glue -----------------------------------------------------


def mask_contains(mask, x):
    return bool((mask >> x) & 1)


def eval_diff_mask(code, x):
    return eval_diff(code, x, mask_contains)


def denote_mask(code, poset):
    m = 0
    for x in range(poset.n):
        if eval_diff_mask(code, x):
            m |= 1 << x
    return m


def code_from_masks(alpha, masks, polarity="D"):
    """Entries at 0..len(masks)-1; empty masks are dropped (they can
    never fire)."""
    ents = tuple(
        (Ordinal.from_int(i), m) for i, m in enumerate(masks) if m
    )
    return DiffCode(_as_ordinal(alpha), polarity, ents)


class SearchBudgetExceeded(Exception):
    pass


@dataclass
class Budget:
    """The step count of one bounded search.  Each step calls spend();
    the first step past `limit` raises SearchBudgetExceeded(message)."""

    limit: int
    message: str
    used: int = 0

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise SearchBudgetExceeded(self.message)


def level_bruteforce(poset, target_mask, max_nodes=2_000_000):
    """Least n such that target is D_n of a <=-increasing n-tuple of
    opens.  Existence is guaranteed at n = height + 1, where the search
    stops.  Only monotone sequences are searched; that loses no
    generality because cumulative unions preserve the denotation.

    The search runs over states (r, U): r slots are left to fill and U
    is the union of the slots filled so far.  A point first covered by
    a slot with r slots left (that one included) lies in the coded set
    iff r is odd, whatever n is, and after the last slot the target
    must lie in U.  So whether a state can finish depends on (r, U)
    alone, not on n or on the path that reached it, and one set of
    dead states serves every n from 0 to height + 1.  A node is one
    expanded state, r = 0 leaves included; no state is expanded twice,
    so a call uses at most (height + 2) * |opens| nodes.

    Candidate opens are tried largest first, so a feasible level
    succeeds on its first branch, while an infeasible one is still
    explored state by state: there is no pruning by "if the largest
    allowed next open fails, every smaller one fails".  That argument
    would turn the search into the greedy residue chain, and this
    classifier would stop being an independent check on `residues`.
    Each state scans only the opens sized between its union and the room
    its slot leaves; every other open fails the slot's test anyway.

    Raises SearchBudgetExceeded("<max_nodes + 1>") past max_nodes states.
    """
    cap = poset.height() + 1
    larger_first = poset.opens()[::-1]
    sizes = list(map(operator.neg, map(int.bit_count, larger_first)))
    dead = [set() for _ in range(cap + 1)]
    # a bare state count, because bench/oracle.py reads it as an integer
    budget = Budget(max_nodes, str(max_nodes + 1))
    target = target_mask & poset.carrier
    for n in range(cap + 1):
        if _finishes(n, 0, target, larger_first, sizes, dead, budget):
            return n
    raise RuntimeError(
        "no representation up to cap=%d; this should be impossible on a finite poset"
        % cap
    )


def _finishes(r, union, target, larger_first, sizes, dead, budget):
    """Whether r more slots above `union` can complete a code of `target`;
    if not, `union` joins dead[r].  sizes[k] = -|larger_first[k]| ascends,
    so a size band is a bisected slice.  Each call expands one state and
    spends one unit of `budget`.  A module function, not a closure, so
    that no reference cycle keeps `dead` alive."""
    budget.spend()
    if r == 0:
        if not target & ~union:
            return True
    else:
        # the next slot's fresh points u - union lie inside target iff r is
        # odd: u holds union and avoids `banned` (one mask test, as the two
        # are disjoint), so |union| <= |u| <= |room|
        banned = ~(union | target) if r % 2 else target & ~union
        keep = union | banned
        room = larger_first[0] & ~banned  # the largest open is the carrier
        below = dead[r - 1]
        lo = bisect_left(sizes, -room.bit_count())
        for u in larger_first[lo : bisect_right(sizes, -union.bit_count())]:
            if (
                u & keep == union
                and u not in below
                and _finishes(r - 1, u, target, larger_first, sizes, dead, budget)
            ):
                return True
    dead[r].add(union)
    return False


def sigma_pi_levels(poset, mask):
    """(least D-level, least co-D-level) by brute force."""
    return level_bruteforce(poset, mask), level_bruteforce(poset, poset.carrier & ~mask)
