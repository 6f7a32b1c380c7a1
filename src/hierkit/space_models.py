"""Symbolic presentations of infinite spaces.

Three families of models subclass ``SpaceModel``, the one surface that
callers use (basis by non-negative integer index, decidable point
membership and containment, an approximation relation ``ll``, JSON
forms of points; its docstring lists every member):

* ``PSpaceModel``: a subspace of P(N) with the Scott topology cut out
  by a clause system ``forall n (alpha_n <= X  =>  exists gamma in I_n,
  gamma <= X)``.  Basic opens are the cones O_beta = {X : beta <= X}
  restricted to the subspace, indexed by the bitmask of beta.  Every
  finite set of naturals on these models is such a bitmask: a cone's
  beta, a point's core and each alpha and gamma of a row, so a subset
  test is one integer operation.  A ``ClauseSystem`` with no explicit
  rows is P(N) itself, where ll is containment.  ``PinfSystem``
  answers the "every tail is inhabited" rows of P_inf(N) in closed
  form but examines only rows n < bound (a finite point with max >=
  bound - 1 passes ``check_point``); within the bound ll works out to
  A <= B and max(A) < max(B).  On either system the least
  ll-successor around a point is computed in closed form, with no
  search and no cap.

* ``FinitePosetModel``: a finite poset's Scott topology with the whole
  (finite) open lattice as basis and ll(U, V) = V nonempty and V <= U.

* ``CylinderModel``: infinite words over a finite alphabet; a basic
  open is a finite union of cylinders, indexed by a bitmask over word
  codes, and ll(U, V) = V nonempty and V <= U (sound by compactness);
  containment is decided by arithmetic on those codes alone.

Points carry only finite data plus a tail rule, which keeps membership
in any single basic open decidable; that is all the algorithms here
need.  "Least" searches use the integer index order as the well-order
on the basis, except that models with unbounded index spaces enumerate
a complete candidate cone (see the per-model ``least_containing``).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

from hierkit.diff_hierarchy import Budget, SearchBudgetExceeded
from hierkit.finite_space import FinitePoset, bits, mask_of
from hierkit.jsonin import (
    ALPHABET,
    BOUND,
    CLAUSE_ELEMENT,
    POINT_ELEMENT,
    POSET_POINTS,
    fields,
    integer,
    list_of,
    tagged,
)

INF = math.inf

NOT_A_CLAUSE = "not-a-clause"
UNSOLVED_CLAUSE = "unsolved"
SOLVED = "solved"


# -- the model surface ------------------------------------------------------


class SpaceModel:
    """An approximation space: a basis of opens indexed by non-negative
    integers and a relation ``ll`` from which Nonempty gets a stationary
    winning strategy in the Choquet game.  Every model has

    * ``kind``, its JSON tag, and ``finite``, True only on a finite
      carrier (where a bounded play has an exact verdict);
    * ``point_in_basic``, ``point_test``, ``point_in_union``,
      ``basic_subset``, ``union_subset``, ``basic_nonempty``, ``ll``,
      and ``lam``, the index of a finite union (ValueError where there
      is none);
    * ``some_point_in``, ``chain_limit``, ``least_containing``,
      ``least_ll_above`` and ``random_ll_successor``;
    * ``candidate_indices(limit)``, the first ``limit`` indices in the
      model's search order (all of them on a smaller basis),
      ``whole_index``, ``random_open`` (Empty's random opening) and
      ``check_index``;
    * ``point_to_json`` and ``point_from_json``.

    The methods below are shared; a model overrides those that differ.
    No model overrides ``chain_limit``.
    """

    finite = False

    def point_test(self, x, width):
        """A function of an index i, true exactly when x lies in O_i,
        for every i of bit length at most `width`.  It is made once per
        point, so a model can do there the work that all of x's queries
        share."""
        return functools.partial(self.point_in_basic, x)

    def point_in_union(self, x, indices):
        return any(self.point_in_basic(x, i) for i in indices)

    def union_subset(self, i, indices):
        return self.basic_subset(i, self.lam(indices))

    def ll(self, i, j):
        return self.basic_nonempty(j) and self.basic_subset(j, i)

    def least_ll_above(self, c, x):
        """Least basic b with ll(c, b) and x in O_b.  Where ll is "V
        nonempty and V inside U", that is the least open around x
        inside c; ValueError when there is none."""
        return self.least_containing(x, within=(c,))

    def chain_limit(self, chain):
        """A point of every member of a ll-increasing chain: any point
        of its last member.  ValueError when the chain is not
        ll-increasing."""
        for k in range(len(chain) - 1):
            if not self.ll(chain[k], chain[k + 1]):
                raise ValueError("chain is not ll-increasing at step %d" % k)
        x = self.some_point_in(chain[-1])
        if x is None:
            raise ValueError("chain ends in the empty open")
        for i in chain:  # pragma: no branch
            if not self.point_in_basic(x, i):  # pragma: no cover
                raise AssertionError("limit point escaped a chain member")
        return x

    def check_index(self, i):
        """The index itself if it names a basic open, else ValueError."""
        return integer(i, "basis index")

    def point_to_json(self, x):
        return x.to_json()


# -- symbolic points --------------------------------------------------------


@dataclass(frozen=True)
class SetPoint:
    """A subset of N: the elements of the bitmask ``core``, plus every
    n >= cofinite_from when that is not None (a cofinite tail)."""

    core: int
    cofinite_from: int | None = None

    def includes(self, mask):
        """Whether the finite set with bitmask `mask` lies inside the
        point.  The bits outside the core must all sit in the tail, so
        only the lowest of them is compared; the tail is never shifted
        out into a mask."""
        rest = mask & ~self.core
        if not rest:
            return True
        tail = self.cofinite_from
        return tail is not None and (rest & -rest).bit_length() - 1 >= tail

    def to_json(self):
        # one pass over the binary digits, lowest first: linear in the
        # core's width, where `bits` copies the mask once per element
        core = [d.start() for d in re.finditer("1", bin(self.core)[:1:-1])]
        return {"core": core, "cofinite_from": self.cofinite_from}

    @staticmethod
    def from_json(data):
        core, tail = fields(data, "point", ("core",), {"cofinite_from": None})
        element = functools.partial(integer, what="element", hi=POINT_ELEMENT[1])
        core = mask_of(list_of(core, "core", element))
        return SetPoint(core, None if tail is None else integer(tail, "cofinite_from"))


@dataclass(frozen=True)
class CylPoint:
    """An infinite word: explicit prefix, then a repeating cycle."""

    prefix: tuple
    cycle: tuple = (0,)

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "cycle", tuple(self.cycle))
        if not self.cycle:
            raise ValueError("tail cycle must be non-empty")

    def word(self, n):
        """The first n letters, as a tuple."""
        prefix = self.prefix
        if n <= len(prefix):
            return prefix[:n]
        q, r = divmod(n - len(prefix), len(self.cycle))
        return prefix + self.cycle * q + self.cycle[:r]

    def to_json(self):
        return {"prefix": list(self.prefix), "cycle": list(self.cycle)}

    @staticmethod
    def from_json(data, alphabet):
        """Decode {"prefix": [...], "cycle": [...]}, letters below `alphabet`."""
        prefix, cycle = fields(data, "point", ("prefix",), {"cycle": [0]})
        letter = functools.partial(integer, what="letter", hi=alphabet - 1)
        return CylPoint(list_of(prefix, "prefix", letter), list_of(cycle, "cycle", letter))


# -- clause systems ---------------------------------------------------------


class ClauseSystem:
    """Finitely many explicit rows (alpha_n, I_n), each denoting {X :
    alpha_n <= X => some gamma in I_n has gamma <= X}, intersected over
    n.  Every row is examined.  The constructor takes each row as
    element lists and stores it as bitmasks (alpha_mask, gamma_masks),
    the encoding of a query's index i: beta <= X is ``beta & ~i == 0``
    for the cone i."""

    def __init__(self, rows):
        self.rows = [(mask_of(a), tuple(mask_of(g) for g in gs)) for a, gs in rows]
        # statuses cost subset tests and n_u a pass over the rows
        self.clause_status = functools.cache(self.clause_status)
        self.n_u = functools.cache(self.n_u)

    def row(self, n):
        return self.rows[n] if n < len(self.rows) else None

    def clause_status(self, i, n):
        row = self.row(n)
        if row is None or row[0] & ~i:
            return NOT_A_CLAUSE
        return SOLVED if any(not g & ~i for g in row[1]) else UNSOLVED_CLAUSE

    def n_u(self, i):
        rows = range(len(self.rows))
        return next((n for n in rows if self.clause_status(i, n) == UNSOLVED_CLAUSE), INF)

    def check_point(self, x):
        for n, (alpha, gammas) in enumerate(self.rows):
            if x.includes(alpha) and not any(x.includes(g) for g in gammas):
                return n
        return None

    def extension(self, x, c, nu):
        """The numerically least ``T & ~c`` over the sets T that x
        includes and that would make ll(c, c | T) hold, or None: each
        witness of row nu = n_u(c), and alpha_m | gamma for each earlier
        row m whose premiss c does not force and each witness gamma."""
        sets = list(self.rows[nu][1])
        for alpha, gammas in self.rows[:nu]:
            if alpha & ~c:
                sets += [alpha | g for g in gammas]
        return min((t & ~c for t in sets if x.includes(t)), default=None)

    @staticmethod
    def from_json(rows):
        """Decode a clauses model's rows: [{"alpha": [...], "witnesses": [[...]]}]."""
        element = functools.partial(integer, what="clause element", hi=CLAUSE_ELEMENT[1])

        def row(data):
            alpha, witnesses = fields(data, "clause row", ("alpha", "witnesses"))
            gammas = [list_of(g, "witness", element) for g in list_of(witnesses, "witnesses")]
            return list_of(alpha, "alpha", element), gammas

        return ClauseSystem(list_of(rows, "rows", row))


class PinfSystem:
    """The clause presentation of P_inf(N), answered in closed form.

    Row n has alpha_n empty and I_n the singletons {j}, j >= n: X has
    an element >= n.  Cone i solves row n iff its top element,
    i.bit_length() - 1, is >= n.  Only rows n < ``bound`` are examined,
    so a cone whose top is >= bound - 1 has no unsolved clause, and a
    finite point whose max is >= bound - 1 passes ``check_point``.
    """

    def __init__(self, bound=64):
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
        n = x.core.bit_length()
        return n if n < self.bound else None

    def extension(self, x, c, nu):
        """{j} for the least j >= nu in x, or None.  Every premiss is
        empty, so no row below nu can help, and j >= nu lies above c's
        top element."""
        high = x.core >> nu << nu
        js = [(high & -high).bit_length() - 1] if high else []
        if x.cofinite_from is not None:
            js.append(max(nu, x.cofinite_from))
        return 1 << min(js) if js else None


class PSpaceModel(SpaceModel):
    """A clause-system subspace of P(N).  Basis index i denotes the cone
    O_beta (cut to the subspace) where beta is the set of bits of i, so
    x is in O_i iff ``x.includes(i)``.
    The system (explicit ``ClauseSystem`` rows, or ``PinfSystem`` rows in
    closed form up to its bound) answers the clause queries; ``ll`` is
    written over its clause statuses.  Cones are not closed under
    finite unions, so ``lam`` refuses."""

    def __init__(self, system, kind="clauses"):
        self.system = system
        self.kind = kind

    # membership

    def point_in_basic(self, x, i):
        return x.includes(i)

    def basic_subset(self, i, j):
        # O_beta(i) <= O_beta(j) iff beta(j) <= beta(i)
        return j & ~i == 0

    def union_subset(self, i, indices):
        # a cone lies inside a finite union of cones iff inside one of
        # them (witnessed by the point that is exactly beta, padded with
        # fresh elements when the subspace needs them)
        return any(self.basic_subset(i, j) for j in indices)

    def basic_nonempty(self, i):
        return self.some_point_in(i) is not None

    def lam(self, indices):
        raise ValueError(
            "%s cones are not closed under finite unions; "
            "use a cylinder or poset model" % self.kind
        )

    # clause bookkeeping

    def clause_status(self, i, n):
        return self.system.clause_status(i, n)

    def n_u(self, i):
        """Least index of an unsolved clause whose premiss the cone
        forces, or INF when none exists within the examination bound."""
        return self.system.n_u(i)

    def ll(self, i, j):
        if not self.basic_subset(j, i):
            return False
        nu = self.n_u(i)
        if nu == INF:
            return True
        if self.clause_status(j, nu) == SOLVED:
            return True
        for m in range(nu):
            if (
                self.clause_status(i, m) == NOT_A_CLAUSE
                and self.clause_status(j, m) == SOLVED
            ):
                return True
        return False

    # points

    def check_point(self, x):
        """Index of the first violated clause, or None if x satisfies
        every examined row."""
        return self.system.check_point(x)

    def some_point_in(self, i):
        """Some point of the subspace inside basic i, or None: beta
        itself, beta with a cofinite tail above its top element, or beta
        with the first witness of each violated row added in turn (each
        settles its row for good; a cofinite point passes every P_inf
        row, so only explicit rows get that far)."""
        for x in (SetPoint(i), SetPoint(i, cofinite_from=i.bit_length())):
            if self.check_point(x) is None:
                return x
        x = SetPoint(i)
        while (n := self.check_point(x)) is not None:
            gammas = self.system.row(n)[1]
            if not gammas:
                return None
            x = SetPoint(x.core | gammas[0])
        return x

    # least searches (the well-order is the integer index order)

    def least_containing(self, x, within):
        """Least basic index i with x in O_i and O_i inside the union
        ``within``.

        Exact without search: a cone inside the union must refine one
        of its members, whose index is then no larger, so the least
        candidate is the least member containing x."""
        best = min((j for j in within if self.point_in_basic(x, j)), default=None)
        if best is None:
            raise ValueError("point lies outside the union")
        return best

    def least_ll_above(self, c, x):
        """Least basic index b with ll(c, b) and x in O_b, in closed form.

        For b >= c, ll(c, b) holds once b includes a set T that solves
        row nu = n_u(c) or an earlier row whose premiss c does not force,
        and only then.  That is upward closed in b, so the least b is
        c | e, e the least ``T & ~c`` over the sets T inside x (the
        system's ``extension``); with nu = INF it is c itself."""
        if not self.point_in_basic(x, c):
            raise ValueError("point is not in the open to refine")
        nu = self.n_u(c)
        if nu == INF:
            return c
        e = self.system.extension(x, c, nu)
        if e is None:
            raise ValueError("point fails clause %d: not in the presented subspace" % nu)
        return c | e

    def random_ll_successor(self, i, rng):
        x = self.some_point_in(i)
        if x is None:
            raise ValueError("cannot extend an empty basic open")
        j = self.least_ll_above(i, x)
        if j == i or rng.randrange(2):
            # jitter with a fresh element; ll(i, .) is upward closed
            # above i, so the relation survives, but the cone can force
            # a row with no witness, so keep it only when it has a point
            jittered = j | 1 << (j.bit_length() + rng.randrange(3))
            if self.some_point_in(jittered) is not None:
                j = jittered
        return j

    def candidate_indices(self, limit):
        return range(limit)

    def whole_index(self):
        return 0

    def random_open(self, rng):
        return mask_of(rng.sample(range(6), rng.randrange(3)))

    def point_from_json(self, data):
        return SetPoint.from_json(data)


def pn_model():
    return PSpaceModel(ClauseSystem([]), kind="pn")


def pinf_model(bound=64):
    return PSpaceModel(PinfSystem(bound), kind="pinf")


# -- finite poset model -----------------------------------------------------


class FinitePosetModel(SpaceModel):
    """The open lattice of a finite poset as an indexed basis.  Opens
    are enumerated smallest-first (by size, then mask), so index 0 is
    the empty set and the last index the whole carrier.  Points are
    element ids."""

    finite = True

    def __init__(self, poset):
        self.poset = poset
        self.opens = poset.opens()
        self._index = {m: i for i, m in enumerate(self.opens)}
        self.kind = "poset"

    def index_of(self, mask):
        return self._index[mask]

    def points(self):
        return range(self.poset.n)

    def point_in_basic(self, x, i):
        return bool((self.opens[i] >> x) & 1)

    def basic_subset(self, i, j):
        return self.opens[i] & ~self.opens[j] == 0

    def basic_nonempty(self, i):
        return self.opens[i] != 0

    def lam(self, indices):
        u = 0
        for i in indices:
            u |= self.opens[i]
        return self._index[u]

    def some_point_in(self, i):
        m = self.opens[i]
        if not m:
            return None
        return next(bits(m))

    def least_containing(self, x, within):
        """up[x], with no search: every open around x holds up[x], and
        the opens run smallest first."""
        up = self.poset.up[x]
        if up & ~self.opens[self.lam(within)]:
            raise ValueError("no basic open contains the point")
        return self._index[up]

    def random_ll_successor(self, i, rng):
        m = self.opens[i]
        if not m:
            raise ValueError("cannot extend the empty open")
        pts = list(bits(m))
        sub = 0
        for p in rng.sample(pts, rng.randrange(1, len(pts) + 1)):
            sub |= self.poset.up[p]
        return self._index[sub]

    def candidate_indices(self, limit):
        return range(min(limit, len(self.opens)))

    def whole_index(self):
        return len(self.opens) - 1

    def random_open(self, rng):
        # index 0 is the only empty open
        return rng.choice(range(1, len(self.opens)))

    def check_index(self, i):
        return integer(i, "basis index", 0, len(self.opens) - 1)

    def point_to_json(self, x):
        return x

    def point_from_json(self, data):
        return integer(data, "point", 0, self.poset.n - 1)


# -- cylinder model ---------------------------------------------------------


# the deepest prefix of a point that the least searches try
_MAX_DEPTH = 36


class CylinderModel(SpaceModel):
    """Infinite words over {0..k-1}; basic opens are finite unions of
    cylinders [w], indexed by a bitmask over word codes.  A word's code
    is its shortlex rank (length first, then lexicographic), so the root
    has code 0, the parent of code c is (c - 1) // k and its children
    are c*k + 1 + a.  ll(U, V) = "V nonempty and V <= U" is an
    approximation relation by compactness of the product space.

    One kernel, `_covers(c, j)`, decides containment on the index bits:
    [c] lies in the union of j's cylinders when some prefix of c is a
    word of j, and otherwise when each child of c is covered in turn.  A
    child can be covered only if j has a word at or below it; the codes
    d letters below a word are k**d consecutive ones, so that test is
    one shift and mask per depth, down to j's bit length.  `basic_subset`
    asks the kernel for each word of i, `least_containing` for the
    children off x's path on its way back up.  A point's path is the
    codes of its prefixes (`_path`): x lies in i's union when one of
    them is a bit of i, which `point_in_basic` tests without decoding a
    word.  `point_test(x, width)` walks that path once, down to the codes
    below `width`, and ORs it into a path mask: an index of at most
    `width` bits holds x exactly when it shares a bit with the mask.
    Word-code arithmetic lives in `word_code`, `code_word`, the kernel
    and the path.

    The decoding `words(i)` is memoized per instance in a dict that is
    never evicted, as a tuple, shortest words first, so that no caller
    can change a cached value; point building reads it."""

    def __init__(self, alphabet=2):
        self.alphabet = alphabet
        self.kind = "cylinder"
        self._words_memo = {}

    def word_code(self, word):
        """The shortlex code: the number of shorter words plus the
        word's rank among the words of its length."""
        k, shorter, rank = self.alphabet, 0, 0
        for a in word:
            shorter = shorter * k + 1
            rank = rank * k + a
        return shorter + rank

    def code_word(self, c):
        k, length, block = self.alphabet, 0, 1
        while block <= c:
            c -= block
            block *= k
            length += 1
        word = []
        for _ in range(length):
            word.append(c % k)
            c //= k
        return tuple(reversed(word))

    def words(self, i):
        ws = self._words_memo.get(i)
        if ws is None:
            ws = self._words_memo[i] = tuple(self.code_word(c) for c in bits(i))
        return ws

    def singleton(self, word):
        return 1 << self.word_code(word)

    def _path(self, x, n):
        """The codes below n of x's prefixes, shortest first: 0 for the
        empty word, then c*k + 1 + a for the next letter a.  A prefix of
        d letters has a code of at least 2**d - 1, so n's bit length in
        letters takes the path past n."""
        k, c = self.alphabet, 0
        for a in x.word(n.bit_length()):
            if c >= n:
                return
            yield c
            c = c * k + 1 + a

    def point_in_basic(self, x, i):
        # x lies in [w] for a word w of i when w's code is on x's path
        for c in self._path(x, i.bit_length()):
            if i >> c & 1:
                return True
        return False

    def point_test(self, x, width):
        mask = 0
        for c in self._path(x, width):
            mask |= 1 << c
        return mask.__and__

    def _covers(self, c, j):
        """[c] inside the union of the cylinders of j's words."""
        k, p = self.alphabet, c
        while p and not j >> p & 1:
            p = (p - 1) // k
        if j >> p & 1:
            return True
        # no prefix of c is a word of j; asking every child for a word
        # at or below it before recursing fails fast down a narrow cover
        n, kids = j.bit_length(), range(c * k + 1, c * k + k + 1)
        for lo in kids:
            width = 1
            while lo < n and not (j >> lo) & ((1 << width) - 1):
                lo, width = lo * k + 1, width * k
            if lo >= n:
                return False
        return all(self._covers(kid, j) for kid in kids)

    def basic_subset(self, i, j):
        # `bits`, inlined: `ll` calls this too often to start a generator
        while i:
            low = i & -i
            if not self._covers(low.bit_length() - 1, j):
                return False
            i ^= low
        return True

    def basic_nonempty(self, i):
        return i != 0

    def lam(self, indices):
        u = 0
        for i in indices:
            u |= i
        return u

    def some_point_in(self, i):
        if i == 0:
            return None
        return CylPoint(self.words(i)[0], (0,))

    def least_containing(self, x, within):
        # among indices that fit, a singleton on a prefix of x is
        # always numerically least, and a prefix that extends a covered
        # one is covered; so the answer is the shortest covered prefix,
        # and the (exponentially sized) index mask is built only once
        k, j = self.alphabet, self.lam(within)
        # the codes of x's prefixes, down to j's longest word
        path = list(self._path(x, j.bit_length()))
        # descending, the first prefix that is a word of j is the
        # shortest cover word on x; with none, x is outside the union,
        # and so is every neighborhood of it.  Going back up, the prefix
        # of length d - 1 is covered iff its children off the path are,
        # the path's one being covered already
        d = next((d for d, c in enumerate(path) if j >> c & 1), None)
        while d and all(
            self._covers(c, j)
            for c in range(path[d - 1] * k + 1, path[d - 1] * k + k + 1)
            if c != path[d]
        ):
            d -= 1
        if d is None or d > _MAX_DEPTH:
            raise ValueError("point has no small enough neighborhood")
        return 1 << path[d]

    def random_ll_successor(self, i, rng):
        # one letter per step: word codes grow exponentially with
        # depth, so desk-scale plays must deepen gently
        if i == 0:
            raise ValueError("cannot extend the empty open")
        w = rng.choice(self.words(i))
        return self.singleton(w + (rng.randrange(self.alphabet),))

    def candidate_indices(self, limit):
        return (1 << c for c in range(limit))

    def whole_index(self):
        return self.singleton(())

    def random_open(self, rng):
        w = tuple(rng.randrange(self.alphabet) for _ in range(rng.randrange(3)))
        return self.singleton(w)

    def point_from_json(self, data):
        return CylPoint.from_json(data, self.alphabet)


_MODEL_FIELDS = {
    "pn": ((), {}),
    "pinf": ((), {"bound": 64}),
    "clauses": (("rows",), {}),
    "cylinder": ((), {"alphabet": 2}),
    "poset": (("poset",), {}),
}


def model_from_json(data):
    kind, values = tagged(data, "model", _MODEL_FIELDS)
    if kind == "pn":
        return pn_model()
    (value,) = values
    if kind == "pinf":
        return pinf_model(integer(value, "bound", *BOUND))
    if kind == "clauses":
        return PSpaceModel(ClauseSystem.from_json(value))
    if kind == "cylinder":
        return CylinderModel(integer(value, "alphabet", *ALPHABET))
    poset = FinitePoset.from_json(value)
    # a space with no points has no open for Empty to play or for a
    # point to lie in
    integer(poset.n, "poset model size", 1, POSET_POINTS[1])
    return FinitePosetModel(poset)


# -- staging ----------------------------------------------------------------


def index_visible(i, t):
    """Stage-t visibility of a basis index: its bit length fits in t.
    Monotone in t, so the staged relation (ll between indices both
    visible at stage t) only ever grows."""
    return i.bit_length() <= t


# -- relation auditing ------------------------------------------------------


@dataclass
class ApproxReport:
    cond1: list = field(default_factory=list)
    cond2: list = field(default_factory=list)
    cond3: list = field(default_factory=list)
    cond4: list = field(default_factory=list)

    def ok(self):
        return not (self.cond1 or self.cond2 or self.cond3 or self.cond4)


def check_approx_conditions(model, indices, rng=None, chains=0, chain_len=6):
    """Test the four approximation-relation conditions on the given
    index sample: (1) ll shrinks, (2) ll is stable under enlarging the
    left side, (3) every point of a basic open sits inside some
    ll-successor, (4) ll-chains have a common point (witnessed
    constructively via chain_limit)."""
    indices = list(indices)
    rep = ApproxReport()
    ll = {(i, j): model.ll(i, j) for i in indices for j in indices}
    sub = {(i, j): model.basic_subset(i, j) for i in indices for j in indices}
    for i in indices:
        for j in indices:
            if ll[i, j] and not sub[j, i]:
                rep.cond1.append((i, j))
    for u in indices:
        for t in indices:
            if not sub[u, t]:
                continue
            for v in indices:
                if ll[u, v] and not ll[t, v]:
                    rep.cond2.append((u, t, v))
    for i in indices:
        x = model.some_point_in(i)
        if x is None:
            continue
        try:
            w = model.least_ll_above(i, x)
        except ValueError:
            rep.cond3.append((i, x))
            continue
        if not model.point_in_basic(x, w):
            rep.cond3.append((i, x))  # pragma: no cover
    for _ in range(chains):
        start = rng.choice(indices)
        if not model.basic_nonempty(start):
            continue
        chain = [start]
        for _ in range(chain_len - 1):
            chain.append(model.random_ll_successor(chain[-1], rng))
        try:
            x = model.chain_limit(chain)
        except ValueError:
            rep.cond4.append(tuple(chain))
            continue
        if not all(model.point_in_basic(x, i) for i in chain):
            rep.cond4.append(tuple(chain))  # pragma: no cover
    return rep


# -- the Baire-style witness ------------------------------------------------


@dataclass
class BaireResult:
    outcome: str  # VERIFIED | DENSITY_VIOLATION | BUDGET_EXCEEDED
    chain: list
    point: object = None
    failed_index: int | None = None

    def to_json(self, model):
        data = {
            "outcome": self.outcome,
            "chain": list(self.chain),
            "failed_index": self.failed_index,
        }
        if self.point is not None:
            data["point"] = model.point_to_json(self.point)
        return data


def _least_ll_successor(model, i, budget, inside=None):
    """Least basic j with ll(i, j), optionally inside a union, in the
    model's candidate order, or None once the candidates run out.  Each
    candidate spends one unit of `budget`, which stops the search within
    budget.limit + 1 candidates."""
    for j in model.candidate_indices(budget.limit + 1):
        budget.spend()
        if model.ll(i, j) and (inside is None or model.union_subset(j, inside)):
            return j
    return None


def baire_witness(model, dense, o, budget=10_000):
    """Drive a ll-chain through a list of dense open-union-closed
    constraints and certify a point of the target basic open that
    meets every one.

    dense is a list of pairs (U, F): U a tuple of basis indices read as
    their union, F a tuple of indices read as the complement of their
    union.  The rounds are two round-robin cycles over the list.  Each
    round either steps into the open part (when it contains a
    ll-successor) or shows the current open still meets the closed
    part; an open that does neither is a density violation at that
    round.  The final point is re-verified against the target and
    every constraint.

    Every least-successor search spends from one budget of `budget`
    candidate steps.  Running out, or a chain open with no ll-successor,
    is BUDGET_EXCEEDED with the chain so far; a target with none is a
    DENSITY_VIOLATION with no failed index."""
    steps = Budget(budget, "chain search exhausted budget %d" % budget)
    chain = []
    try:
        o0 = _least_ll_successor(model, o, steps)
        if o0 is None:
            return BaireResult("DENSITY_VIOLATION", chain)
        chain.append(o0)
        for j, (u_part, f_part) in list(enumerate(dense)) * 2:
            w = _least_ll_successor(model, chain[-1], steps)
            if w is None:
                return BaireResult("BUDGET_EXCEEDED", chain)
            w_star = _least_ll_successor(model, w, steps, inside=u_part) if u_part else None
            # no way into the open part; the closed part must still
            # meet the current open, i.e. the open cannot sit inside
            # the closed part's complementary union
            if w_star is None and model.union_subset(w, f_part):
                return BaireResult("DENSITY_VIOLATION", chain, failed_index=j)
            chain.append(w if w_star is None else w_star)
    except SearchBudgetExceeded:
        return BaireResult("BUDGET_EXCEEDED", chain)
    x = model.chain_limit(chain)
    if not model.point_in_basic(x, o):  # pragma: no cover
        return BaireResult("DENSITY_VIOLATION", chain, x, failed_index=-1)
    for j, (u_part, f_part) in enumerate(dense):
        in_u = model.point_in_union(x, u_part)
        in_f = not model.point_in_union(x, f_part)
        if not (in_u or in_f):
            return BaireResult("DENSITY_VIOLATION", chain, x, failed_index=j)
    return BaireResult("VERIFIED", chain, x)
