"""Finite posets carrying their Scott topology.

Points are 0..n-1 and subsets are int bitmasks, so set algebra is bit
twiddling.  In the Scott topology of a finite poset the opens are
exactly the up-closed sets and the closure of a set is its down-closure;
every element is compact, so the way-below relation coincides with the
order.
"""

from __future__ import annotations

import functools
import random

from hierkit.jsonin import POSET_POINTS, fields, integer, list_of


def bits(mask):
    """Indices of set bits, ascending.  Sparse-friendly: cost scales
    with the number of set bits, not the mask width.  A negative mask
    has infinitely many set bits and is refused."""
    if mask < 0:
        raise ValueError("bit mask %d is negative" % mask)
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(xs):
    """The bitmask of the integers xs.  The bits are set in a byte
    buffer and converted once, so the cost is linear in the mask width;
    a negative element is refused."""
    xs = list(xs)
    if min(xs, default=0) < 0:
        raise ValueError("bit index %d is negative" % min(xs))
    buf = bytearray(max(xs, default=-1) // 8 + 1)
    for x in xs:
        buf[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(buf, "little")


class FinitePoset:
    """A finite poset given by its full order relation.

    up[i] is the bitmask of {j : i <= j}; down[i] the bitmask of
    {j : j <= i}.  Constructors validate reflexivity, antisymmetry and
    transitivity so downstream code can trust the masks.
    """

    def __init__(self, n, up):
        self.n = n
        self.up = tuple(up)
        if len(self.up) != n:
            raise ValueError("need one up-set per element")
        full = (1 << n) - 1
        for i in range(n):
            if self.up[i] & ~full:
                raise ValueError("up-set out of range")
            if not (self.up[i] >> i) & 1:
                raise ValueError("order not reflexive at %d" % i)
        # down is up transposed: i <= j puts i into down[j]
        down = [0] * n
        for i in range(n):
            for j in bits(self.up[i]):
                if i != j and (self.up[j] >> i) & 1:
                    raise ValueError("order not antisymmetric on (%d,%d)" % (i, j))
                if self.up[j] & ~self.up[i]:
                    raise ValueError("order not transitive at (%d,%d)" % (i, j))
                down[j] |= 1 << i
        self.down = tuple(down)
        self.carrier = full

    @staticmethod
    def from_cover(n, cover_pairs):
        """Build from a Hasse-style edge list [(lo, hi), ...] of points
        in 0..n-1 (any DAG edges work; the transitive closure is taken)."""
        up = [1 << i for i in range(n)]
        for lo, hi in cover_pairs:
            up[lo] |= 1 << hi
        # Warshall closure over the up masks, one pass over the rows per k.
        for k in range(n):
            bit, above = 1 << k, up[k]
            up = [u | above if u & bit else u for u in up]
        return FinitePoset(n, up)

    @staticmethod
    def chain(n):
        return FinitePoset.from_cover(n, [(i, i + 1) for i in range(n - 1)])

    @staticmethod
    def antichain(n):
        return FinitePoset.from_cover(n, [])

    def leq(self, i, j):
        return bool((self.up[i] >> j) & 1)

    def lt(self, i, j):
        return i != j and self.leq(i, j)

    # -- topology -------------------------------------------------------

    def is_open(self, mask):
        """Open = up-closed."""
        for i in bits(mask):
            if self.up[i] & ~mask:
                return False
        return True

    def closure(self, mask):
        m = 0
        for i in bits(mask):
            m |= self.down[i]
        return m

    def opens(self):
        """All open sets, `opens_between(0, carrier)` sorted by (size, mask)."""
        found = self.opens_between(0, self.carrier)
        found.sort()
        found.sort(key=int.bit_count)
        return found

    def opens_between(self, lo, hi):
        """The opens u with lo <= u <= hi, for an open lo, unsorted but
        for the largest, which comes last.  They grow from lo a point at
        a time, `tops_first`: a free point x, in hi - lo, whose up-set
        lies inside hi joins exactly the up-sets found so far that hold
        up[x] - {x}.  So each is built once, and the last found holds
        every point that joined.  Each point's masks are worked out once
        per poset (`_growth`), and a point outside hi - lo costs one AND."""
        out, free = ~hi, hi & ~lo
        found = [] if lo & out else [lo]
        for bit, up, above in self._growth:
            if bit & free and not up & out:
                found += [u | bit for u in found if u & above == above]
        return found

    def largest_open_between(self, lo, hi):
        """The largest of `opens_between(lo, hi)`, for an open lo inside
        hi: lo and the points of hi - lo whose up-set lies inside hi."""
        up, out = self.up, ~hi
        for x in bits(hi & ~lo):
            if not up[x] & out:
                lo |= 1 << x
        return lo

    @functools.cached_property
    def tops_first(self):
        """The points by ascending |up|, a reverse linear extension."""
        return sorted(range(self.n), key=[u.bit_count() for u in self.up].__getitem__)

    @functools.cached_property
    def _growth(self):
        """(bit, up-set, strict up-set) of each point, `tops_first`."""
        return [(1 << x, self.up[x], self.up[x] ^ 1 << x) for x in self.tops_first]

    def least_element(self):
        for i in range(self.n):
            if self.up[i] == self.carrier:
                return i
        return None

    def height(self):
        """Number of elements in a longest chain: the rounds that peel
        the maximal points off what is left, one layer each.  Cached."""
        try:
            return self._height
        except AttributeError:
            pass
        height, left = 0, self.carrier
        while left:
            height += 1
            below = 0
            for x in bits(left):
                below |= self.down[x] ^ (1 << x)
            left = below
        self._height = height
        return height

    # -- surgery ----------------------------------------------------------

    def adjoin_point_below(self, open_mask):
        """Add a fresh point strictly below exactly the open set given.

        The new point gets index n.  Requires open_mask to be up-closed;
        the result is again a poset (transitivity holds because the set
        is an up-set).  Returns the new poset.
        """
        if not self.is_open(open_mask):
            raise ValueError("can only adjoin a point below an open (up-closed) set")
        up = list(self.up) + [open_mask | (1 << self.n)]
        return FinitePoset(self.n + 1, up)

    # -- interchange -------------------------------------------------------

    def cover_pairs(self):
        """Hasse diagram edges (i covered-by j): j above i and no point
        strictly between, so up[i] & down[j] holds only i and j."""
        up, down = self.up, self.down
        return [(i, j) for i in range(self.n) for j in bits(up[i] & ~(1 << i))
                if not up[i] & down[j] & ~(1 << i | 1 << j)]

    def to_json(self):
        return {"n": self.n, "cover": [list(p) for p in self.cover_pairs()]}

    @staticmethod
    def from_json(data):
        """Decode {"n": ..., "cover": [[lo, hi], ...]}."""
        n, cover = fields(data, "poset", ("n", "cover"))
        n = integer(n, "poset size", *POSET_POINTS)
        endpoint = functools.partial(integer, what="cover pair endpoint", hi=n - 1)
        pairs = [list_of(p, "cover pair", endpoint, 2) for p in list_of(cover, "cover")]
        return FinitePoset.from_cover(n, pairs)

    # -- identity ------------------------------------------------------------

    def canon(self):
        """(key, poset relabeled) for the least labeling, the one whose
        strict relation vector, pairs (a, b) row-major with the first
        pair highest, is least as a number: key.  The relabeled poset
        is the same for every isomorphic input, so it is a complete
        invariant, and so is key among posets of one size.

        A least labeling is a reverse linear extension: were a the
        first label below a larger label b, swapping a and b would keep
        rows 0..a-1 (no earlier point lies below either) and make row a
        the strict up-set of b's point, which lacks b.  So labels 0, 1,
        ... go only to points whose strict up-set is labeled already;
        row a is then fixed when label a is given, the least row wins,
        and only the labelings that tie on every row so far are carried
        on.  The 7-point antichain ties throughout, 5,040 labelings; all
        2,045 classes of 7 points are generated in about 1 s."""
        n = self.n
        strict = [u ^ 1 << x for x, u in enumerate(self.up)]
        below = [d ^ 1 << x for x, d in enumerate(self.down)]
        # tied: (point order, its mask, each point's row so far)
        key, tied = 0, [((), 0, [0] * n)]
        for k in range(n):
            least, grown = None, []
            for order, placed, rows in tied:
                for x in range(n):
                    if placed >> x & 1 or strict[x] & ~placed:
                        continue
                    if least is None or rows[x] < least:
                        least, grown = rows[x], []
                    if rows[x] == least:
                        grown.append((order, placed, rows, x))
            key, tied, bit = key << n | least, [], 1 << n - 1 - k
            for order, placed, rows, x in grown:
                rows = rows.copy()
                for y in bits(below[x]):
                    rows[y] |= bit
                tied.append((order + (x,), placed | 1 << x, rows))
        label = {x: k for k, x in enumerate(tied[0][0])}
        pairs = [(label[x], label[y]) for x in range(n) for y in bits(strict[x])]
        return key, FinitePoset.from_cover(n, pairs)

    def __eq__(self, other):
        return isinstance(other, FinitePoset) and self.n == other.n and self.up == other.up

    def __hash__(self):
        return hash((self.n, self.up))

    def __repr__(self):
        return "FinitePoset(n=%d, cover=%r)" % (self.n, self.cover_pairs())


def random_poset(n, rng_or_seed, edge_prob=0.35):
    """Random poset: seeded random DAG on a shuffled labeling, then
    transitive closure."""
    rng = rng_or_seed if isinstance(rng_or_seed, random.Random) else random.Random(rng_or_seed)
    order = list(range(n))
    rng.shuffle(order)
    pairs = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < edge_prob:
                pairs.append((order[a], order[b]))
    return FinitePoset.from_cover(n, pairs)


def posets_by_size(n):
    """Yield `all_posets_upto_iso(k)` for k = 1, ..., n in turn, each
    grown from the one before, so a caller that walks every size grows
    each once.

    Every poset on k points is one on k-1 points with a fresh minimal
    point below one of its opens (Brinkmann & McKay, "Posets on up to
    16 points", Order 19 (2002)), so the classes grow from the empty
    poset a point at a time, deduplicated by canon()'s key.  All 2,045
    classes of 7 points take about 1 s.
    """
    level = [FinitePoset(0, [])]
    for _ in range(n):
        classes = {}
        for p in level:
            for u in p.opens():
                key, q = p.adjoin_point_below(u).canon()
                classes.setdefault(key, q)
        level = [classes[key] for key in sorted(classes)]
        yield level


def all_posets_upto_iso(n):
    """One poset per isomorphism class on n points ([] for n = 0), each
    in its least labeling (see canon) and sorted by its key.  A scan
    over every labeled poset with strict relation vectors in ascending
    order meets each class first in that labeling, and the classes in
    that order.  They are the last list `posets_by_size(n)` yields."""
    level = []
    for level in posets_by_size(n):
        pass
    return level
