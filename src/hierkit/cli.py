"""Command-line front end.

One binary, ``hier``, with a subcommand per task: classify finite sets,
decompose them into residue chains, grow alternating trees, run the
topological games, drive Baire-style density witnesses, evaluate codes
at points, run the staged transform end to end, audit the classifiers
against each other, and generate seeded random inputs.

Every successful run prints exactly one JSON report to stdout (and, with
--json-out, the same bytes to a file): one line of canonical JSON, with
sorted keys, no whitespace and ASCII escapes, the form the input digests
hash.  A transform's result comes as text already in that form, which
`_canon` copies into the report as it is.  Reports are deterministic:
identical inputs, seed and budget produce byte-identical output, so
wall-clock timing goes to stderr only.
Failures also emit JSON, to stdout: validation problems exit 1,
exhausted search budgets exit 2.

Structured arguments (--poset, --model, --presentation, ...) take inline
JSON or ``@path`` to a JSON file, parsed once here and decoded with
``hierkit.jsonin``.  --set takes a comma-separated list of element ids.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import re
import sys
import time

from hierkit import jsonin
from hierkit.alt_trees import AltChains, ambiguity_audit
from hierkit.diff_hierarchy import DiffCode, SearchBudgetExceeded, eval_diff, sigma_pi_levels
from hierkit.effective_codes import (
    PI,
    SIGMA,
    BorelCode,
    HausdorffCode,
    build_alt_tree,
    eval_borel,
    eval_hausdorff_code,
    presentation_from_json,
    verify_transform,
)
from hierkit.finite_space import FinitePoset, bits, posets_by_size, random_poset
from hierkit.games import (
    BANACH_MAZUR,
    CHOQUET,
    BMFromChoquet,
    DeepeningEmpty,
    RandomEmpty,
    play,
    stationary_from_relation,
)
from hierkit.residues import hausdorff_decompose, residue_levels
from hierkit.space_models import baire_witness, model_from_json

VALIDATION = 1
BUDGET = 2

_DEFAULT_MODEL = '{"kind": "cylinder", "alphabet": 2}'


class CliError(Exception):
    """A reportable failure: `code` picks the exit status, `extra` is
    merged into the error JSON (partial results, tables)."""

    def __init__(self, code, message, **extra):
        super().__init__(message)
        self.code = code
        self.extra = extra


# -- argument decoding -------------------------------------------------------


def _arg_json(text, what, decode):
    """(decode(parsed JSON), parsed JSON) of an inline-JSON or @file
    argument; a value that decode refuses is a `bad <what>:` error."""
    if text.startswith("@"):
        try:
            with open(text[1:]) as fh:
                text = fh.read()
        except OSError as e:
            raise CliError(VALIDATION, "cannot read %s file: %s" % (what, e))
    try:
        data = json.loads(text)
    except ValueError as e:
        raise CliError(VALIDATION, "bad %s JSON: %s" % (what, e))
    try:
        return decode(data), data
    except ValueError as e:
        raise CliError(VALIDATION, "bad %s: %s" % (what, e))


def _decimal(text):
    """An argparse type: an optional sign and ASCII digits, not int()'s "1_0" or Unicode digits."""
    if not re.fullmatch("[+-]?[0-9]{1,4300}", text):  # 4300: int()'s digit limit
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    return int(text)


def _int_in(limits):
    """An argparse type: a decimal integer within the (lo, hi) limits."""

    def parse(text):
        try:
            return jsonin.integer(_decimal(text), "value", *limits)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e))

    return parse


class _Encoded:
    """Text already in canonical JSON form, such as a transform's
    result, for `_canon` to copy into the text of the object holding it."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


# What json writes in place of an `_Encoded` value, and the same string
# as json quotes it: lone surrogates, so every character is an escape
_MARK = "\udc80text\udc80"
_QUOTED_MARK = '"\\udc80text\\udc80"'


def _canon(obj):
    """The canonical JSON text of obj, the one form this module writes:
    sorted keys, no whitespace, ASCII escapes.  Reports and the digests
    of their inputs both use it.

    `_Encoded` text in obj goes in as it is, never parsed: json writes
    the quoted `_MARK` in its place, and the text is split at those
    marks and joined once with the kept texts in between.  Quotes inside
    a string are escaped, so a quoted mark can appear elsewhere only at
    the end of a string whose own escaped text ends in the mark's; obj
    would then split into more pieces than it has texts, and is refused."""
    texts = []

    def embed(value):
        if not isinstance(value, _Encoded):
            raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)
        texts.append(value.text)
        return _MARK

    out = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=embed)
    if not texts:
        return out
    pieces = out.split(_QUOTED_MARK)
    if len(pieces) != len(texts) + 1:
        raise ValueError("a string in the report ends in the text of the embedding mark")
    parts = [pieces[0]]
    for text, piece in zip(texts, pieces[1:]):
        parts += (text, piece)
    return "".join(parts)


def _digest(obj):
    return hashlib.sha256(_canon(obj).encode()).hexdigest()


def _set_arg(text, poset):
    mask = 0
    for part in filter(None, (p.strip() for p in text.split(","))):
        try:
            i = _decimal(part)
        except argparse.ArgumentTypeError:
            raise CliError(VALIDATION, "set elements must be integers, got %r" % part)
        if not 0 <= i < poset.n:
            raise CliError(VALIDATION, "element %d outside 0..%d" % (i, poset.n - 1))
        mask |= 1 << i
    return mask


def _poset_set(args):
    """(poset, set mask, report inputs) of --poset and --set."""
    poset, pdata = _arg_json(args.poset, "poset", FinitePoset.from_json)
    mask = _set_arg(args.set, poset)
    return poset, mask, {"poset": _digest(pdata), "set": sorted(bits(mask))}


def _code_arg(model, kind, text):
    """The decoded --borel/--hausdorff/--diff code and its JSON; every
    basis index the code reads must pass `model.check_index`."""

    def decode(data):
        if kind == "diff":
            alpha, entries, polarity = jsonin.fields(
                data, "diff code", ("alpha", "entries"), {"polarity": "D"}
            )
            entries = [jsonin.list_of(e, "entry", size=2) for e in jsonin.list_of(entries, "entries")]
            return DiffCode(
                jsonin.integer(alpha, "alpha"),
                polarity,
                tuple((jsonin.integer(r, "rank"), model.check_index(h)) for r, h in entries),
            )
        code = (BorelCode if kind == "borel" else HausdorffCode).from_json(data)
        for tree in [code] if kind == "borel" else code.trees:
            for i in tree.basis_indices():
                model.check_index(i)
        return code

    return _arg_json(text, kind + " code", decode)


# -- JSON renderings ---------------------------------------------------------


def _code_json(code):
    return {
        "alpha": str(code.alpha),
        "polarity": code.polarity,
        "entries": [[str(rank), handle] for rank, handle in code.entries],
    }


def _tree_json(chain):
    """A witness chain (v0, ..., vk) as its rank-k tree of prefixes:
    the node (v1, ..., vj) is labeled vj, and the root () v0."""
    if chain is None:
        return None
    return {
        "rank": len(chain) - 1,
        "nodes": [{"node": list(chain[1 : j + 1]), "label": v} for j, v in enumerate(chain)],
    }


# -- subcommands -------------------------------------------------------------


def _cmd_classify(args):
    poset, mask, inputs = _poset_set(args)
    # one chain DP gives the tree levels and both witness chains
    chains = AltChains(poset, mask)
    methods = {}
    if args.method in ("residues", "all"):
        s, p = residue_levels(poset, mask)
        methods["residues"] = {"sigma": s, "pi": p}
    if args.method in ("trees", "all"):
        s, p = chains.levels()
        methods["trees"] = {"sigma": s, "pi": p}
    if args.method in ("brute", "all"):
        s, p = sigma_pi_levels(poset, mask)
        methods["brute"] = {"sigma": s, "pi": p}
    pairs = {(m["sigma"], m["pi"]) for m in methods.values()}
    if len(pairs) != 1:
        raise CliError(VALIDATION, "classifiers disagree: %s" % _canon(methods))
    sigma, pi = pairs.pop()
    inputs["method"] = args.method
    outputs = {
        "sigma": sigma,
        "pi": pi,
        "agree": True,
        "methods": methods,
        "witnesses": {
            "sigma_tree": _tree_json(chains.witness(1)),
            "pi_tree": _tree_json(chains.witness(0)),
        },
    }
    return inputs, outputs


def _cmd_residues(args):
    poset, mask, inputs = _poset_set(args)
    d = hausdorff_decompose(poset, mask)
    sigma, pi = residue_levels(poset, mask)
    outputs = {
        "chain": list(d.F),
        "theta": d.theta,
        "code": _code_json(d.code),
        "trimmed_code": _code_json(d.trimmed_code),
        "trimmed_level": d.trimmed_level,
        "co_level": d.co_level,
        "sigma": sigma,
        "pi": pi,
    }
    return inputs, outputs


def _cmd_alt(args):
    poset, mask, inputs = _poset_set(args)
    chains = AltChains(poset, mask)
    sigma, pi = chains.levels()
    # the largest tree rank on a side is its level minus one
    outputs = {
        "rank_eps1": sigma - 1 if sigma else None,
        "rank_eps0": pi - 1 if pi else None,
        "sigma": sigma,
        "pi": pi,
        "witness_eps1": _tree_json(chains.witness(1)),
        "witness_eps0": _tree_json(chains.witness(0)),
        "code": _code_json(chains.code(sigma)),
    }
    return inputs, outputs


def _cmd_play(args):
    model, mdata = _arg_json(args.model, "model", model_from_json)
    rng = random.Random(args.seed)
    mover = {"random": RandomEmpty, "deepening": DeepeningEmpty}[args.empty]
    first = None if args.first is None else model.check_index(args.first)
    empty = mover(model, rng, first=first)
    tau = stationary_from_relation(model)
    game = CHOQUET if args.game == "choquet" else BANACH_MAZUR
    nonempty = tau if game == CHOQUET else BMFromChoquet(tau, model)
    transcript = play(model, empty, nonempty, args.rounds, game=game)
    inputs = {
        "model": _digest(mdata),
        "rounds": args.rounds,
        "game": args.game,
        "empty": args.empty,
        "first": args.first,
    }
    return inputs, {"transcript": transcript.to_json(model)}


def _dense_from_json(model, data):
    """A non-empty list of constraints, each {"u": [...], "f": [...]}
    or a [u, f] pair of basis index lists."""

    def constraint(entry):
        if isinstance(entry, list):
            parts = jsonin.list_of(entry, "dense constraint", size=2)
        else:
            parts = jsonin.fields(entry, "dense constraint", (), {"u": [], "f": []})
        return tuple(tuple(jsonin.list_of(p, "u or f", model.check_index)) for p in parts)

    dense = jsonin.list_of(data, "dense constraints", constraint)
    if not dense:
        raise ValueError("need at least one dense constraint")
    return dense


def _cmd_baire(args):
    model, mdata = _arg_json(args.model, "model", model_from_json)
    dense, _ = _arg_json(args.dense, "dense", lambda data: _dense_from_json(model, data))
    target = model.whole_index() if args.target is None else model.check_index(args.target)
    result = baire_witness(model, dense, target, budget=args.budget)
    inputs = {
        "model": _digest(mdata),
        "dense": _digest([[list(u), list(f)] for u, f in dense]),
        "target": target,
        "budget": args.budget,
    }
    if result.outcome == "BUDGET_EXCEEDED":
        raise CliError(
            BUDGET, "chain search exhausted budget %d" % args.budget,
            result=result.to_json(model),
        )
    if result.outcome == "DENSITY_VIOLATION":
        if result.failed_index is None:
            message = "target %d has no ll-successor to start the chain" % target
        else:
            message = "constraint %s is not dense along the chain" % result.failed_index
        raise CliError(VALIDATION, message, result=result.to_json(model))
    return inputs, result.to_json(model)


def _cmd_eval_code(args):
    given = [k for k in ("borel", "hausdorff", "diff") if getattr(args, k) is not None]
    if len(given) != 1:
        raise CliError(VALIDATION, "need exactly one of --borel/--hausdorff/--diff")
    model, mdata = _arg_json(args.model, "model", model_from_json)
    x, _ = _arg_json(args.point, "point", model.point_from_json)
    kind = given[0]
    code, data = _code_arg(model, kind, getattr(args, kind))
    if kind == "borel":
        value = eval_borel(code, model, SIGMA if args.side == "sigma" else PI, x)
    elif kind == "hausdorff":
        value = eval_hausdorff_code(code, model, x)
    else:
        value = eval_diff(code, x, lambda h, y: model.point_in_basic(y, h))
    inputs = {
        "model": _digest(mdata),
        "code": _digest(data),
        "kind": kind,
        "point": _digest(model.point_to_json(x)),
        "side": args.side if kind == "borel" else None,
    }
    return inputs, {"value": value}


def _cmd_transform(args):
    if args.max_budget is not None and args.max_budget < args.budget:
        raise CliError(
            VALIDATION, "--max-budget %d is below --budget %d" % (args.max_budget, args.budget)
        )
    model, mdata = _arg_json(args.model, "model", model_from_json)
    pres, pdata = _arg_json(
        args.presentation, "presentation", lambda data: presentation_from_json(model, data)
    )
    inputs = {
        "model": _digest(mdata),
        "presentation": _digest(pdata),
        "budget": args.budget,
        "points": None,
        "max_budget": None,
    }
    if args.points is None:
        tree = build_alt_tree(pres, args.budget)
        return inputs, {"result": _Encoded(tree.report_text()), "verification": None}

    points, _ = _arg_json(
        args.points, "points", lambda data: jsonin.list_of(data, "points", model.point_from_json)
    )
    inputs["points"] = _digest([model.point_to_json(x) for x in points])
    # the doubling stays inside the declared budget range
    max_budget = args.max_budget or min(8 * args.budget, jsonin.STAGE_BUDGET[1])
    inputs["max_budget"] = max_budget
    report = verify_transform(pres, points, args.budget, max_budget=max_budget)
    table = [
        {"point": model.point_to_json(x), "transform": got, "oracle": want, "match": got == want}
        for x, got, want in zip(points, report.answers, report.truth)
    ]
    outputs = {
        "result": _Encoded(report.result.report_text()),
        "verification": {
            "status": report.status,
            "budgets": list(report.budgets),
            "first_change": report.first_change,
            "mismatches": [model.point_to_json(x) for x in report.mismatches],
            "table": table,
        },
    }
    if report.status != "COMPLETE":
        raise CliError(
            BUDGET,
            "verification did not stabilize within budget %d" % report.budgets[-1],
            report=outputs,
        )
    return inputs, outputs


def _cmd_audit(args):
    """Every subset of every poset class of 1 to --exhaustive points,
    classified three ways, and the ambiguity identities up to --nmax.

    The classes of each size are grown once, from the size before.  A
    set's (sigma, pi) is by definition its complement's reversed, so the
    residues and the brute force classify each complementary pair once,
    at its lower mask, and the upper mask takes that pair reversed.  The
    trees classify every subset on their own, in `ambiguity_audit`."""
    depth = args.nmax
    disagreements = []
    ambiguity_violations = []
    no_least_inequalities = []
    posets = sets = 0
    for level in posets_by_size(args.exhaustive):
        for poset in level:
            posets += 1
            cover = poset.cover_pairs()
            has_least = poset.least_element() is not None
            report = ambiguity_audit(poset, depth)
            half = 1 << poset.n - 1
            found = [(residue_levels(poset, m), sigma_pi_levels(poset, m)) for m in range(half)]
            # mask half + i is the complement of mask half - 1 - i
            found += [(b[::-1], c[::-1]) for b, c in reversed(found)]
            for mask, (b, c) in enumerate(found):
                sets += 1
                a = report.levels[mask]
                if not (a == b == c):
                    disagreements.append(
                        {
                            "poset": {"n": poset.n, "cover": cover},
                            "set": mask,
                            "trees": list(a),
                            "residues": list(b),
                            "brute": list(c),
                        }
                    )
            for m in range(1, depth + 1):
                if report.violations[m]:
                    entry = {
                        "poset": {"n": poset.n, "cover": cover},
                        "n": m,
                        "masks": report.violations[m],
                    }
                    # The intersection-equals-union-below identity is a
                    # theorem only above a least element; elsewhere its
                    # failures are recorded but are not defects.
                    (ambiguity_violations if has_least else no_least_inequalities).append(entry)
    inputs = {"exhaustive": args.exhaustive, "nmax": depth}
    outputs = {
        "posets": posets,
        "sets_checked": sets,
        "classifier_disagreements": disagreements,
        "ambiguity_violations": ambiguity_violations,
        "no_least_element_inequalities": no_least_inequalities,
        "violations": len(disagreements) + len(ambiguity_violations),
    }
    if outputs["violations"]:
        raise CliError(
            VALIDATION, "audit found %d violations" % outputs["violations"],
            report=outputs,
        )
    return inputs, outputs


def _cmd_gen(args):
    if args.kind == "model":
        # a poset model has at least 2 points
        jsonin.integer(args.n, "--n with --kind model", 2, jsonin.POSET_POINTS[1])
    rng = random.Random(args.seed)
    items = []
    if args.kind == "poset":
        for _ in range(args.count):
            items.append(random_poset(args.n, rng).to_json())
    else:
        for _ in range(args.count):
            pick = rng.randrange(3)
            if pick == 0:
                items.append({"kind": "cylinder", "alphabet": 2 + rng.randrange(3)})
            elif pick == 1:
                items.append({"kind": "pinf", "bound": 16 << rng.randrange(3)})
            else:
                p = random_poset(2 + rng.randrange(args.n - 1), rng)
                items.append({"kind": "poset", "poset": p.to_json()})
    inputs = {"kind": args.kind, "n": args.n, "count": args.count}
    return inputs, {"items": items}


# -- wiring ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are validation errors, so
    they end as JSON with exit 1 like every other refused input; exit 2
    stays the budget verdict.  Subparsers inherit the class."""

    def error(self, message):
        raise CliError(VALIDATION, "%s: %s" % (self.prog, message))


@functools.cache
def _build_parser():
    # built once per process: parse_args leaves the parser unchanged and
    # returns a fresh namespace on every call
    top = _Parser(
        prog="hier",
        description="difference-hierarchy levels, games, and staged transforms",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json-out", metavar="FILE", help="also write the report to FILE")
        p.add_argument("--seed", type=_decimal, default=0, help="RNG seed, echoed in the report")
        return p

    p = command("classify", _cmd_classify, "sigma/pi levels of a subset of a finite poset")
    p.add_argument("--poset", required=True, help='{"n": ..., "cover": [[lo, hi], ...]} or @file')
    p.add_argument("--set", required=True, help="comma-separated element ids")
    p.add_argument("--method", choices=["residues", "trees", "brute", "all"], default="all")

    p = command("residues", _cmd_residues, "residue chain and difference codes of a subset")
    p.add_argument("--poset", required=True)
    p.add_argument("--set", required=True)

    p = command("alt", _cmd_alt, "alternating-tree ranks, witness trees, synthesized code")
    p.add_argument("--poset", required=True)
    p.add_argument("--set", required=True)

    p = command("play", _cmd_play, "run a bounded Choquet or Banach-Mazur match")
    p.add_argument("--model", default=_DEFAULT_MODEL, help="model JSON or @file")
    p.add_argument("--rounds", type=_int_in(jsonin.ROUNDS), default=12)
    p.add_argument("--game", choices=["choquet", "bm"], default="choquet")
    p.add_argument("--empty", choices=["random", "deepening"], default="random")
    p.add_argument("--first", type=_decimal, default=None, help="Empty's opening basis index")

    p = command("baire", _cmd_baire, "certify a point meeting dense open-closed constraints")
    p.add_argument("--model", default=_DEFAULT_MODEL)
    p.add_argument("--dense", required=True, help='[{"u": [...], "f": [...]}, ...] or @file')
    p.add_argument("--target", type=_decimal, default=None, help="target basic open (default: whole space)")
    p.add_argument("--budget", type=_int_in(jsonin.BAIRE_BUDGET), default=10_000)

    p = command("eval-code", _cmd_eval_code, "evaluate a Borel, Hausdorff or difference code at a point")
    p.add_argument("--model", default=_DEFAULT_MODEL)
    p.add_argument("--point", required=True, help="point JSON (model-specific) or @file")
    p.add_argument("--borel", help='{"nodes": [[...], ...]}')
    p.add_argument("--hausdorff", help='{"order": ..., "parity_set": ..., "trees": ...}')
    p.add_argument("--diff", help='{"alpha": n, "entries": [[rank, index], ...]}')
    p.add_argument("--side", choices=["sigma", "pi"], default="sigma")

    p = command("transform", _cmd_transform, "staged alternating-tree transform, optionally verified")
    p.add_argument("--model", default=_DEFAULT_MODEL)
    p.add_argument("--presentation", required=True, help="presentation JSON or @file")
    p.add_argument("--budget", type=_int_in(jsonin.STAGE_BUDGET), default=16,
                   help="stage budget for the tree")
    p.add_argument("--max-budget", type=_int_in(jsonin.STAGE_BUDGET), default=None,
                   help="cap for verification doubling")
    p.add_argument("--points", default=None, help="JSON list of points to verify against the oracle")

    p = command("audit", _cmd_audit, "cross-check all classifiers and the ambiguity identities")
    p.add_argument("--exhaustive", type=_int_in(jsonin.AUDIT_POINTS), default=3, metavar="N",
                   help="check every poset with up to N elements (up to isomorphism), "
                   "N from 1 to %d" % jsonin.AUDIT_POINTS[1])
    p.add_argument("--nmax", type=_int_in(jsonin.AUDIT_DEPTH), default=2,
                   help="ambiguity depth to check")

    p = command("gen", _cmd_gen, "emit seeded random posets or models")
    p.add_argument("--kind", choices=["poset", "model"], default="poset")
    p.add_argument("--n", type=_int_in(jsonin.POSET_POINTS), default=5,
                   help="poset size (or size bound, at least 2, for models)")
    p.add_argument("--count", type=_int_in(jsonin.GEN_COUNT), default=10)

    top.commands = sub.choices
    return top


def _parse_args(argv):
    """The namespace `_build_parser().parse_args(argv)` gives.

    An argv that starts with a command name goes to that command's own
    parser, since the top-level parser would only scan the strings
    before handing the same ones over; strings it leaves over are
    refused in the top-level parser's words.  Every other argv (empty,
    --help, an unknown name) goes through the top-level parser, for its
    usage and messages."""
    top = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    parser = top.commands.get(argv[0]) if argv else None
    if parser is None:
        return top.parse_args(argv)
    args, extra = parser.parse_known_args(argv[1:])
    if extra:
        top.error("unrecognized arguments: %s" % " ".join(extra))
    args.command = argv[0]
    return args


def main(argv=None):
    started = time.monotonic()
    try:
        args = _parse_args(argv)
        try:
            inputs, outputs = args.handler(args)
        except SearchBudgetExceeded as e:
            raise CliError(BUDGET, str(e))
        except CliError:
            raise
        except (KeyError, ValueError) as e:
            raise CliError(VALIDATION, str(e))
        text = _canon({
            "command": args.command,
            "seed": args.seed,
            "inputs": inputs,
            "outputs": outputs,
        })
        # the text holds a copy of any result text: let the result go
        # before the text is written and copied once more
        del outputs
        if args.json_out:
            # the file is written first, so a path that cannot be
            # written gives an error report instead of the success report
            try:
                with open(args.json_out, "w") as fh:
                    fh.writelines((text, "\n"))
            except OSError as e:
                raise CliError(VALIDATION, "cannot write report file: %s" % e)
    except CliError as e:
        payload = {
            "error": {
                "kind": "budget" if e.code == BUDGET else "validation",
                "message": str(e),
            }
        }
        payload.update(e.extra)
        sys.stdout.writelines((_canon(payload), "\n"))
        return e.code
    # the newline goes out on its own, so a report is never copied to add it
    sys.stdout.writelines((text, "\n"))
    sys.stderr.write("hier %s: %.3fs\n" % (args.command, time.monotonic() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())
