"""Strong Choquet and Banach-Mazur game engines.

Plays run against any ``space_models.SpaceModel`` (point membership,
containment, ll, and the indices and JSON forms of its points).  Empty's
moves are pairs (point, open-as-tuple-of-basis-indices); Nonempty
answers with a single basis index.  The Banach-Mazur variant drops the
points: Nonempty sees only the open of Empty's move.

Verdicts are honest about finiteness: a bounded play on a model whose
``finite`` flag is set has an exact winner (legal opens only ever
shrink, and a finite lattice cannot shrink forever, so the final
intersection decides the whole infinite play).  On the other models the
engine certifies a Nonempty win only when the played opens form a
ll-increasing chain whose limit point it can actually construct and
verify; otherwise the transcript says UNDECIDED and keeps the partial
chain.

The two constructions tying relations to stationary strategies both
live here: a relation yields the two-nested-least-searches strategy,
and on a finite carrier a strategy yields the relation "some basic
D inside B and some x in D have x in C inside the response to (x, D)".
"""

from __future__ import annotations

from dataclasses import dataclass, field

NONEMPTY_WINS = "NONEMPTY_WINS"
EMPTY_WINS = "EMPTY_WINS"
UNDECIDED = "UNDECIDED"

CHOQUET = "choquet"
BANACH_MAZUR = "banach-mazur"


@dataclass
class Transcript:
    """Rounds are uniform triples (point or None, open as an index
    tuple, Nonempty's response index); the point slot stays None in the
    point-free game."""

    game: str
    rounds: list = field(default_factory=list)
    outcome: str = UNDECIDED
    witness: object = None
    reason: str = ""

    def opens_played(self):
        return [v for _, _, v in self.rounds]

    def to_json(self, model):
        def enc_point(x):
            return None if x is None else model.point_to_json(x)

        return {
            "game": self.game,
            "rounds": [
                {
                    "empty": {"point": enc_point(x), "open": list(u)},
                    "nonempty": v,
                }
                for x, u, v in self.rounds
            ],
            "outcome": self.outcome,
            "witness": enc_point(self.witness),
            "reason": self.reason,
        }


@dataclass
class StationaryStrategy:
    """Nonempty's memoryless play: respond(point, open) -> basis index,
    with x in respond(x, U) <= U whenever x in U."""

    respond: object


def stationary_from_relation(model):
    """The strategy built from the model's approximation relation: take
    the least basic C with x in C inside U, then the least basic B with
    C ll B still containing x.  A ValueError from either least search
    means condition (3) fails, i.e. the model itself is broken."""

    def respond(x, u):
        if not model.point_in_union(x, u):
            raise ValueError("stationary strategy asked about a point outside the open")
        c = model.least_containing(x, within=u)
        return model.least_ll_above(c, x)

    return StationaryStrategy(respond)


def identity_refinement(model):
    """Respond with the least basic open around the point inside U; a
    legal strategy with no approximation content."""

    def respond(x, u):
        if not model.point_in_union(x, u):
            raise ValueError("point outside the open")
        return model.least_containing(x, within=u)

    return StationaryStrategy(respond)


def relation_from_strategy(tau, model):
    """Read a relation off a stationary strategy on a finite carrier:
    B ll C iff some basic D <= B and some x in D have x in C and
    C <= tau(x, D).  Returns the set of index pairs."""
    if not model.finite:
        raise TypeError("strategy-to-relation reading needs a finite carrier")
    idx = model.candidate_indices(model.whole_index() + 1)
    rel = set()
    for b in idx:
        for c in idx:
            if _witnessed(tau, model, idx, b, c):
                rel.add((b, c))
    return frozenset(rel)


def _witnessed(tau, model, idx, b, c):
    for d in idx:
        if not model.basic_nonempty(d) or not model.basic_subset(d, b):
            continue
        for x in model.points():
            if not model.point_in_basic(x, d):
                continue
            if model.point_in_basic(x, c) and model.basic_subset(c, tau.respond(x, (d,))):
                return True
    return False


# -- Empty-side generators ---------------------------------------------------


class RandomEmpty:
    """Legal random mover: shrink to a random ll-successor of Nonempty's
    last open (or open randomly on the first move) and present one of
    its points."""

    def __init__(self, model, rng, first=None):
        self.model = model
        self.rng = rng
        self.first = first

    def _opening(self):
        if self.first is not None:
            return self.first
        return self.model.random_open(self.rng)

    def move(self, v_prev):
        u = self._opening() if v_prev is None else v_prev
        if v_prev is not None and self.rng.randrange(2):
            u = self.model.random_ll_successor(v_prev, self.rng)
        x = self.model.some_point_in(u)
        if x is None:
            u = self._opening()
            x = self.model.some_point_in(u)
        return x, (u,)


class DeepeningEmpty(RandomEmpty):
    """Adversarial descent: always move to a ll-successor, chasing the
    clause structure downward."""

    def move(self, v_prev):
        if v_prev is None:
            u = self._opening()
        else:
            u = self.model.random_ll_successor(v_prev, self.rng)
        return self.model.some_point_in(u), (u,)


class BMFromChoquet:
    """Wrap a Choquet strategy for the point-free game: pick any point
    of the offered open and answer as the Choquet player would.  The
    engine's point, None in this game, is ignored."""

    def __init__(self, strategy, model):
        self.strategy = strategy
        self.model = model

    def respond(self, _x, u):
        for i in u:
            y = self.model.some_point_in(i)
            if y is not None:
                return self.strategy.respond(y, u)
        raise ValueError("offered open is empty")


# -- the engine --------------------------------------------------------------


def _meets(model, x, i):
    """Basic i contains x or, in the point-free game (x is None), is
    nonempty."""
    return model.basic_nonempty(i) if x is None else model.point_in_basic(x, i)


def play(model, empty, nonempty, rounds, game=CHOQUET):
    """Run a bounded match and return its transcript.

    Both games run the same rounds.  The point-free game drops Empty's
    point, and where the Choquet game asks that an open contain the
    point it asks only that the open be nonempty.  Nonempty is asked
    through ``respond(x, u)`` in both.  Illegal moves end the match
    immediately as a forfeit by the offender; a Choquet move without a
    point is Empty's illegal move.  See the module docstring for
    verdict semantics."""
    t = Transcript(game=game)
    v_prev = None
    for _ in range(rounds):
        x, u = empty.move(v_prev)
        if game != CHOQUET:
            x = None
        if (
            (x is None and game == CHOQUET)
            or not any(_meets(model, x, i) for i in u)
            or (v_prev is not None and not all(model.basic_subset(i, v_prev) for i in u))
        ):
            t.outcome, t.reason = NONEMPTY_WINS, "empty forfeits: illegal move"
            return t
        try:
            v = nonempty.respond(x, u)
        except ValueError as e:
            t.outcome, t.reason = EMPTY_WINS, "nonempty forfeits: %s" % e
            return t
        t.rounds.append((x, u, v))
        if not (_meets(model, x, v) and model.union_subset(v, u)):
            t.outcome, t.reason = EMPTY_WINS, "nonempty forfeits: illegal response"
            return t
        v_prev = v
    return _decide(model, t)


def _decide(model, t):
    opens = t.opens_played()
    if not opens:
        t.outcome, t.reason = UNDECIDED, "no rounds played"
        return t
    if model.finite:
        # legal opens only shrink, so the bounded intersection equals
        # the last open, and on a finite lattice the infinite play
        # stabilizes there: the verdict is exact
        x = model.some_point_in(opens[-1])
        if x is None:  # pragma: no cover - legality forbids empty responses
            t.outcome, t.reason = EMPTY_WINS, "intersection died"
        else:
            t.outcome, t.witness, t.reason = NONEMPTY_WINS, x, "finite stabilization"
        return t
    try:
        # ValueError unless the opens are ll-increasing and the last is
        # nonempty; the point it returns lies in every open
        t.witness = model.chain_limit(opens)
    except ValueError:
        t.outcome, t.reason = UNDECIDED, "no certificate within round budget"
        return t
    t.outcome, t.reason = NONEMPTY_WINS, "limit point certified"
    return t


def audit_convergence(model, transcript, neighborhoods):
    """Check the played opens eventually refine each given basic
    neighborhood of the witness; returns the indices that were never
    refined."""
    missing = []
    opens = transcript.opens_played()
    for n in neighborhoods:
        if transcript.witness is None or not model.point_in_basic(transcript.witness, n):
            continue
        if not any(model.basic_subset(v, n) for v in opens):
            missing.append(n)
    return missing
