"""Seeded op lists for the three workloads.

An op is one `hier` invocation: an argv for `hierkit.cli.main` plus
what the oracle needs to check its report.  A workload's pass is the
same list, in the same seeded shuffled order, every time for a given
seed; the seed varies the random posets, subsets, points, play seeds
and the order, never the op mix, so every seed stresses the same
layers in the same proportions.

The sizes keep memory and run time bounded: classify stops at 16 points,
`audit --exhaustive` stops at 5, and transform budgets stop at 256.
Every op of a workload returns a report the oracle accepts; the plays
that reproduce the two known defects are a fixed probe of their own
(`DEFECT_PROBES`), which run.py runs once per run, outside the timed
loop.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

import oracle


@dataclass(frozen=True)
class Op:
    group: str
    argv: tuple
    expect: dict


def _json(obj):
    return json.dumps(obj, separators=(",", ":"))


def _random_pairs(n, density, rng):
    """Edges of a random DAG on a shuffled labelling; the order is
    their transitive closure."""
    order = list(range(n))
    rng.shuffle(order)
    return [
        [order[a], order[b]]
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < density
    ]


def _component_pairs(n, rng):
    """A poset made of one to three random components, so that it has
    clopen sets besides the empty set and the whole carrier."""
    cuts = sorted(rng.sample(range(1, n), rng.randrange(min(3, n))))
    pairs = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        pairs += [[lo + a, lo + b] for a, b in _random_pairs(hi - lo, 0.5, rng)]
    return pairs


# -- posets --------------------------------------------------------------------

# Posets per size.  Classify time about doubles with each point, so the
# op times form one cluster per size; these counts put the median in
# the middle of the 12-point cluster and the 90th percentile in the
# middle of the 16-point one, away from the steps between clusters.
# The brute-force level search has a heavy tail (one op in a few hundred
# takes 100 times the median), which grows with the size; sizes stop at
# 16 so that it does not decide the throughput.  Past 2M search nodes
# the CLI exits 2 with a budget error, an honest verdict the oracle
# accepts; 17- and 18-point posets reach it about once in 2000 ops.
CLASSIFY_COUNTS = {8: 60, 9: 60, 10: 60, 11: 60, 12: 120, 13: 40, 14: 40, 15: 40, 16: 120}


def posets_ops(seed):
    rng = random.Random("posets:%d" % seed)
    ops = []
    for n, count in CLASSIFY_COUNTS.items():
        for j in range(count):
            density = 0.2 + 0.3 * j / (count - 1)
            pairs = _random_pairs(n, density, rng)
            members = [v for v in range(n) if rng.random() < 0.5]
            argv = (
                "classify",
                "--poset", _json({"n": n, "cover": pairs}),
                "--set", ",".join(map(str, members)),
                "--method", "all",
            )
            ops.append(Op("classify", argv, {
                "check": "classify", "exit": (0, 2),
                "n": n, "pairs": pairs, "set": members,
            }))
    for k in (4, 5):
        ops.append(Op("audit", ("audit", "--exhaustive", str(k)), {
            "check": "audit", "exit": (0,), "exhaustive": k,
        }))
    return ops


# -- games ---------------------------------------------------------------------

EMPTIES = ("random", "deepening")
GAMES = ("choquet", "bm")
# (bound, rounds, repeats).  Each round raises the top element of the
# played cones by at most 5 (Empty's successor adds one element and a
# jitter of up to three more, Nonempty's least successor one), and
# Empty opens below 6, so after r rounds the top is at most 5 + 5r.
# That stays below bound - 1, so the descriptor alone never satisfies
# every examined row and the certified limit is the cofinite point.
PINF_PLAYS = ((64, 11, 18), (128, 24, 6))
# (alphabet, rounds, repeats).  Empty opens on a two-letter word and
# goes at most one letter deeper per round, so r rounds reach depth
# r + 1 at most: 12 letters on two, 8 on three.  Their word codes stay
# below 10,000, so no index has more than 10,000 bits and every report
# stays under the 4300-digit (about 14,280-bit) limit of int-to-str.
CYLINDER_PLAYS = ((2, 11, 15), (3, 7, 15))
POSET_PLAYS = 120
BAIRE_OPS = 96


def _play(group, model, rounds, empty, game, rng, expect=None, first=None):
    argv = (
        "play",
        "--model", _json(model),
        "--rounds", str(rounds),
        "--empty", empty,
        "--game", game,
        "--seed", str(rng.randrange(1 << 30)),
    )
    if first is not None:
        argv += ("--first", str(first))
    return Op(group, argv, dict(expect or {}, check="play", exit=(0,), model=model))


def _singleton(word, k):
    return 1 << oracle.word_code(word, k)


def _dense_constraint(k, rng):
    """A dense open-union/closed pair built the way acceptance criterion
    7 builds it: a full level of singletons, or a level punctured on
    the top letter's branch with the hole's complement as closed part."""
    level = rng.choice((1, 2))
    slots = [_singleton(w, k) for w in itertools.product(range(k), repeat=level)]
    if rng.randrange(2):
        return slots, []
    top = k - 1
    hole = _singleton((top,) if level == 1 else (top, rng.randrange(k)), k)
    rest = [m for m in slots if m != hole]
    return rest, rest


def _cylinder_play(k, rounds, empty, game, rng):
    # Empty opens on a two-letter word, so every seed reaches the same
    # depth and the same index sizes
    first = _singleton((rng.randrange(k), rng.randrange(k)), k)
    return _play("cylinder-play", {"kind": "cylinder", "alphabet": k}, rounds, empty, game,
                 rng, first=first)


def games_defect_ops():
    """Plays that reproduce the two known defects, the same for every
    seed.  On bound 16 every 20-round pinf play certifies a finite set
    (Nonempty adds an element above the top each round, so the
    descriptor meets all 16 rows); every deepening binary play of 16
    rounds reaches depth 17, whose word codes are above 2^17, so the
    report holds an integer over 4300 digits."""
    rng = random.Random("defects")
    ops = [_play("pinf-play", {"kind": "pinf", "bound": 16}, 20, empty, game, rng)
           for empty, game in itertools.product(EMPTIES, GAMES)]
    ops += [_cylinder_play(2, 16, "deepening", game, rng) for game in GAMES]
    return ops


def games_ops(seed):
    rng = random.Random("games:%d" % seed)
    ops = []
    for (bound, rounds, reps), empty, game in itertools.product(PINF_PLAYS, EMPTIES, GAMES):
        for _ in range(reps):
            model = {"kind": "pinf", "bound": bound}
            ops.append(_play("pinf-play", model, rounds, empty, game, rng))
    for (k, rounds, reps), empty, game in itertools.product(CYLINDER_PLAYS, EMPTIES, GAMES):
        for _ in range(reps):
            ops.append(_cylinder_play(k, rounds, empty, game, rng))
    for i in range(POSET_PLAYS):
        n = 3 + i % 6
        poset = {"n": n, "cover": _random_pairs(n, rng.uniform(0.2, 0.5), rng)}
        model = {"kind": "poset", "poset": poset}
        ops.append(_play(
            "poset-play", model, 12 + 4 * (i % 3), EMPTIES[i % 2], GAMES[i // 2 % 2],
            rng, {"opens": oracle.poset_opens(n, poset["cover"])},
        ))
    for i in range(BAIRE_OPS):
        k = 2 + i % 2
        dense = [_dense_constraint(k, rng) for _ in range(3)]
        word = tuple(rng.randrange(k - 1) for _ in range(rng.randrange(3)))
        target = _singleton(word, k)
        model = {"kind": "cylinder", "alphabet": k}
        argv = (
            "baire",
            "--model", _json(model),
            "--dense", _json([{"u": u, "f": f} for u, f in dense]),
            "--target", str(target),
            "--budget", "10000",
        )
        ops.append(Op("baire", argv, {
            "check": "baire", "exit": (0,), "model": model,
            "dense": dense, "target": target,
        }))
    return ops


# -- transform -----------------------------------------------------------------

# Budget 32 repeats so that the 90th percentile falls in the middle of
# its ops, not on the step to budget 16 or 64: with the 135 poset ops
# and 12 budget-16 ops below them, it is the 159th of 177 op times, the
# middle of the 24 at budget 32.  Three letters reach budget 256 only
# through the criterion-8 ladder below.
TRANSFORM_BUDGETS = {2: (16,) * 6 + (32,) * 12 + (64, 128, 256),
                     3: (16,) * 6 + (32,) * 12 + (64, 128)}
CYLINDER_POINTS = 16
POSET_TRANSFORMS = 135


def _transform(group, model, pres, budget, max_budget, points, extra=None):
    argv = [
        "transform",
        "--model", _json(model),
        "--presentation", _json(pres),
        "--budget", str(budget),
        "--max-budget", str(max_budget),
    ]
    if points is not None:
        argv += ["--points", _json(points)]
    expect = dict(extra or {}, check="transform", model=model, presentation=pres,
                  points=points)
    # exit 2 is an honest verdict when the budget runs out first; the
    # oracle then checks that the report lists exactly the wrong rows
    expect["exit"] = (0,) if points is None else (0, 2)
    return Op(group, tuple(argv), expect)


def transform_ops(seed):
    rng = random.Random("transform:%d" % seed)
    ops = []
    first_one = {"kind": "first-one"}
    for k, budgets in TRANSFORM_BUDGETS.items():
        model = {"kind": "cylinder", "alphabet": k}
        for budget in budgets:
            points = [
                {
                    "prefix": [rng.randrange(k) for _ in range(rng.randrange(6))],
                    "cycle": [rng.randrange(k) for _ in range(1 + rng.randrange(2))],
                }
                for _ in range(CYLINDER_POINTS)
            ]
            ops.append(_transform("cylinder-transform", model, first_one, budget, budget,
                                  points))
    # acceptance criterion 8: every 4-letter prefix with every constant tail
    points = [
        {"prefix": list(p), "cycle": [t]}
        for p in itertools.product(range(3), repeat=4)
        for t in range(3)
    ]
    ops.append(_transform("cylinder-transform", {"kind": "cylinder", "alphabet": 3},
                          first_one, 16, 256, points))
    for i in range(POSET_TRANSFORMS):
        n = 3 + i % 5
        pairs = _component_pairs(n, rng)
        opens = oracle.poset_opens(n, pairs)
        model = {"kind": "poset", "poset": {"n": n, "cover": pairs}}
        budget = (4, 8, 16)[i // 3 % 3]
        extra = {"opens": opens}
        kind = i % 3
        if kind == 0:
            inside = 0
            for c in oracle.components(n, pairs):
                if rng.randrange(2):
                    inside |= c
            outside = ((1 << n) - 1) & ~inside
            pres = {"kind": "clopen", "inside": opens.index(inside),
                    "outside": opens.index(outside)}
            ops.append(_transform("poset-transform", model, pres, budget, 64,
                                  list(range(n)), extra))
        elif kind == 1:
            ops.append(_transform("poset-transform", model, {"kind": "empty"}, budget, 64,
                                  list(range(n)), extra))
        else:
            def row():
                return sorted(rng.sample(range(len(opens)), min(len(opens), 2)))
            pres = {"kind": "rows", "rows1": [row() for _ in range(2)],
                    "rows0": [row() for _ in range(2)]}
            ops.append(_transform("poset-transform", model, pres, budget, budget, None,
                                  extra))
    return ops


def _shuffled(make):
    """The op list in a seeded order that scatters the long ops among
    the short ones, so each long op has reference timings taken just
    before and just after it (see run.scaled_ms)."""

    def ops(seed):
        out = make(seed)
        random.Random("order:%d" % seed).shuffle(out)
        return out

    return ops


# Fixed ops that fail at the commit the benchmark was written for, run
# apart from the workload (see run.probe_defects).
DEFECT_PROBES = {"games": games_defect_ops}

WORKLOADS = {
    "posets": _shuffled(posets_ops),
    "games": _shuffled(games_ops),
    "transform": _shuffled(transform_ops),
}
