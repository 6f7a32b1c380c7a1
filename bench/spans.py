"""Span tracing of hierkit from the benchmark's side.

`Tracer.install()` replaces each hierkit module's public functions, and
every name other modules (cli included) imported them under, with a
wrapper that records one span per call: name, start, end, parent span
and op id.  A few methods that the per-layer metrics name are wrapped on
their classes, and `cli.main` is wrapped as the root span of each op.
`uninstall()` puts the originals back.

Spans stay in memory, in flat integer arrays, until `write()` saves
them at the end of the run; `read_spans()` loads them back.  Self time
is a span's duration minus the durations of its direct children, so
within one op the self times of all spans add up to the root span
exactly (integer nanoseconds).

Some wrappers also count work where it happens (opens found, words
decoded, tree nodes, ...); see `HOOKS` and `per_layer_metrics()`.
"""

from __future__ import annotations

import array
import gzip
import importlib
import inspect
import json
import time

MODULES = (
    "ordinals",
    "finite_space",
    "diff_hierarchy",
    "residues",
    "alt_trees",
    "space_models",
    "games",
    "effective_codes",
    "cli",
)

# Public helpers called per bit or per comparison, whose spans would
# cost more than the work they time; their time counts to the caller.
UNWRAPPED = {
    "finite_space.bits",
    "finite_space.mask_of",
    "finite_space.popcount",
    "alt_trees.kb_less",
    "space_models.index_visible",
    "space_models.staged_ll",
}

# (module, class, method) -> span name
METHODS = {
    ("finite_space", "FinitePoset", "opens"): "finite_space.opens",
    ("finite_space", "FinitePoset", "canon"): "finite_space.canon",
    ("space_models", "ClauseSystem", "row"): "space_models.ClauseSystem.row",
    ("space_models", "PSpaceModel", "check_point"): "space_models.PSpaceModel.check_point",
    ("space_models", "PSpaceModel", "ll"): "space_models.PSpaceModel.ll",
    ("space_models", "PSpaceModel", "clause_status"): "space_models.PSpaceModel.clause_status",
    ("space_models", "CylinderModel", "words"): "space_models.CylinderModel.words",
    ("space_models", "CylinderModel", "basic_subset"): "space_models.CylinderModel.basic_subset",
    ("effective_codes", "StagedPresentation", "row"): "effective_codes.StagedPresentation.row",
    ("ordinals", "Ordinal", "__init__"): "ordinals.Ordinal.construct",
    ("ordinals", "Ordinal", "__lt__"): "ordinals.Ordinal.compare",
    ("ordinals", "Ordinal", "__eq__"): "ordinals.Ordinal.compare",
    ("ordinals", "Ordinal", "__add__"): "ordinals.Ordinal.add",
    ("cli", None, "main"): "cli.main",
}

OUTCOMES = ("NONEMPTY_WINS", "EMPTY_WINS", "UNDECIDED")

# Per-layer metrics, in report order, with their units.  "<span>.calls"
# and "<span>.self_s" come from the spans; the rest are counted by HOOKS.
PER_LAYER = [
    ("cli.main.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("finite_space.opens.calls", "count"),
    ("finite_space.opens.self_s", "s"),
    ("finite_space.opens.found", "count"),
    ("finite_space.all_posets.calls", "count"),
    ("finite_space.all_posets.self_s", "s"),
    ("finite_space.all_posets.returned", "count"),
    ("finite_space.canon.calls", "count"),
    ("finite_space.canon.self_s", "s"),
    ("diff_hierarchy.level_bruteforce.calls", "count"),
    ("diff_hierarchy.level_bruteforce.self_s", "s"),
    ("residues.residue_levels.calls", "count"),
    ("residues.residue_levels.self_s", "s"),
    ("residues.hausdorff_decompose.calls", "count"),
    ("residues.hausdorff_decompose.self_s", "s"),
    ("alt_trees.classify_by_trees.calls", "count"),
    ("alt_trees.classify_by_trees.self_s", "s"),
    ("alt_trees.witness_tree.calls", "count"),
    ("alt_trees.witness_tree.self_s", "s"),
    ("alt_trees.witness_tree.nodes", "count"),
    ("alt_trees.ambiguity_audit.calls", "count"),
    ("alt_trees.ambiguity_audit.self_s", "s"),
    ("alt_trees.kb_sorted.calls", "count"),
    ("alt_trees.kb_sorted.self_s", "s"),
    ("alt_trees.kb_sorted.items", "count"),
    ("space_models.ClauseSystem.row.calls", "count"),
    ("space_models.ClauseSystem.row.self_s", "s"),
    ("space_models.PSpaceModel.check_point.calls", "count"),
    ("space_models.PSpaceModel.check_point.self_s", "s"),
    ("space_models.PSpaceModel.ll.calls", "count"),
    ("space_models.PSpaceModel.ll.self_s", "s"),
    ("space_models.PSpaceModel.clause_status.calls", "count"),
    ("space_models.PSpaceModel.clause_status.self_s", "s"),
    ("space_models.PSpaceModel.clause_status.hit_ratio", "ratio"),
    ("space_models.CylinderModel.words.calls", "count"),
    ("space_models.CylinderModel.words.self_s", "s"),
    ("space_models.CylinderModel.words.decoded", "count"),
    ("space_models.CylinderModel.basic_subset.calls", "count"),
    ("space_models.CylinderModel.basic_subset.self_s", "s"),
    ("space_models.CylinderModel.index_bits_max", "bits"),
    ("space_models.baire_witness.calls", "count"),
    ("space_models.baire_witness.self_s", "s"),
    ("games.play.calls", "count"),
    ("games.play.self_s", "s"),
    ("games.play.rounds", "count"),
    ("games.respond.calls", "count"),
    ("games.respond.self_s", "s"),
] + [("games.outcome." + o, "count") for o in OUTCOMES] + [
    ("effective_codes.compute_F.calls", "count"),
    ("effective_codes.compute_F.self_s", "s"),
    ("effective_codes.StagedPresentation.row.calls", "count"),
    ("effective_codes.StagedPresentation.row.self_s", "s"),
    ("effective_codes.build_alt_tree.calls", "count"),
    ("effective_codes.build_alt_tree.self_s", "s"),
    ("effective_codes.build_alt_tree.nodes", "count"),
    ("effective_codes.build_alt_tree.pool", "count"),
    ("effective_codes.verify_transform.calls", "count"),
    ("effective_codes.verify_transform.self_s", "s"),
    ("effective_codes.verify_transform.builds", "count"),
    ("effective_codes.verify_transform.rebuild_ratio", "ratio"),
    ("ordinals.Ordinal.calls", "count"),
    ("ordinals.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array.array("H")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack = []
        self.op_id = -1
        self.counts = {}
        self._clause_keys = set()
        self._patched = []

    # -- recording -------------------------------------------------------------

    def begin_op(self, op_id):
        self.op_id = op_id
        self._clause_keys.clear()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, hook=None):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter_ns
        name_id, parent, op, start, end = (
            self.name_id, self.parent, self.op, self.start, self.end
        )

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    # -- installing ------------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module("hierkit." + m) for m in MODULES}
        for short, mod in mods.items():
            if short == "cli":
                continue
            for attr, fn in list(vars(mod).items()):
                name = "%s.%s" % (short, attr)
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or name in UNWRAPPED
                ):
                    continue
                wrapper = self.wrap(name, fn, HOOKS.get(name))
                # rebind every module-level reference, including the
                # names cli and the other modules imported
                for other in mods.values():
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            self._patch(other, key, wrapper)
        for (short, cls, attr), name in METHODS.items():
            owner = mods[short] if cls is None else getattr(mods[short], cls)
            self._patch(owner, attr, self.wrap(name, vars(owner)[attr], HOOKS.get(name)))

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- reading -----------------------------------------------------------------

    def self_times(self):
        """Per-span self time in ns, and per-op root duration in ns."""
        own = array.array("q", (e - b for b, e in zip(self.start, self.end)))
        roots = {}
        for i, p in enumerate(self.parent):
            if p < 0:
                roots[self.op[i]] = roots.get(self.op[i], 0) + own[i]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own, roots

    def check_spans(self):
        """Problems with the span tree: every op has one root, each span
        sits inside its parent, and the self times of an op's spans add
        up to the root's duration."""
        own, roots = self.self_times()
        problems = []
        per_op = {}
        root_count = {}
        for i in range(len(own)):
            per_op[self.op[i]] = per_op.get(self.op[i], 0) + own[i]
            p = self.parent[i]
            if p < 0:
                root_count[self.op[i]] = root_count.get(self.op[i], 0) + 1
            elif not (
                self.start[p] <= self.start[i] <= self.end[i] <= self.end[p]
                and self.op[p] == self.op[i]
            ):
                problems.append("span %d escapes its parent" % i)
        for op_id, total in per_op.items():
            if root_count.get(op_id) != 1:
                problems.append("op %d has %s root spans" % (op_id, root_count.get(op_id)))
            elif total != roots[op_id]:
                problems.append("op %d: self times %d ns != wall %d ns"
                                % (op_id, total, roots[op_id]))
        return problems

    def per_layer_metrics(self, report_bytes, overhead_s):
        own, _ = self.self_times()
        calls, self_ns = {}, {}
        for i, ns in enumerate(own):
            name = self.names[self.name_id[i]]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + ns
        values = dict(self.counts)
        for name in calls:
            values[name + ".calls"] = calls[name]
            values[name + ".self_s"] = self_ns[name] / 1e9
        ordinal = [n for n in calls if n.startswith("ordinals.Ordinal.")]
        values["ordinals.Ordinal.calls"] = sum(calls[n] for n in ordinal)
        values["ordinals.self_s"] = sum(
            self_ns[n] for n in calls if n.startswith("ordinals.")
        ) / 1e9
        values["cli.self_s"] = values.get("cli.main.self_s", 0.0)
        values["cli.report_bytes"] = report_bytes
        status = "space_models.PSpaceModel.clause_status"
        values[status + ".hit_ratio"] = _ratio(
            self.counts.get(status + ".repeats", 0), calls.get(status, 0)
        )
        verify = "effective_codes.verify_transform"
        values[verify + ".rebuild_ratio"] = _ratio(
            self.counts.get(verify + ".builds", 0), calls.get(verify, 0)
        )
        values["trace.spans"] = len(own)
        values["trace.overhead_s"] = overhead_s
        return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}

    def write(self, path, ops):
        """Save the spans, gzipped: one JSON header line (span names, op
        argv, array layout), then the raw arrays in FIELDS order."""
        header = {"names": self.names, "ops": ops, "count": len(self.start),
                  "fields": [[f, getattr(self, f).typecode] for f in FIELDS]}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in FIELDS:
                fh.write(getattr(self, f).tobytes())


FIELDS = ("name_id", "op", "parent", "start", "end")


def read_spans(path):
    """Inverse of Tracer.write: (header, {field: array})."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for field, code in header["fields"]:
            col = array.array(code)
            col.frombytes(fh.read(header["count"] * col.itemsize))
            columns[field] = col
    return header, columns


def _ratio(a, b):
    return a / b if b else 0.0


# -- counting hooks -------------------------------------------------------------


def _opens(tr, args, result):
    tr.count("finite_space.opens.found", len(result))


def _all_posets(tr, args, result):
    tr.count("finite_space.all_posets.returned", len(result))


def _witness_tree(tr, args, result):
    tr.count("alt_trees.witness_tree.nodes", 0 if result is None else len(result.tree.nodes))


def _kb_sorted(tr, args, result):
    tr.count("alt_trees.kb_sorted.items", len(result))


def _clause_status(tr, args, result):
    # the wrapper keeps its own key set, cleared per op, rather than
    # reading the model's memo
    key = (id(args[0]), args[1], args[2])
    if key in tr._clause_keys:
        tr.count("space_models.PSpaceModel.clause_status.repeats")
    else:
        tr._clause_keys.add(key)


def _words(tr, args, result):
    tr.count("space_models.CylinderModel.words.decoded", len(result))
    name = "space_models.CylinderModel.index_bits_max"
    tr.counts[name] = max(tr.counts.get(name, 0), args[1].bit_length())


def _play(tr, args, result):
    tr.count("games.play.rounds", len(result.rounds))
    tr.count("games.outcome." + result.outcome)


def _stationary(tr, args, result):
    result.respond = tr.wrap("games.respond", result.respond)


def _build_alt_tree(tr, args, result):
    tr.count("effective_codes.build_alt_tree.nodes", len(result.nodes))
    tr.count("effective_codes.build_alt_tree.pool", len(result.pool))


def _verify(tr, args, result):
    tr.count("effective_codes.verify_transform.builds", len(result.budgets))


HOOKS = {
    "finite_space.opens": _opens,
    "finite_space.all_posets": _all_posets,
    "alt_trees.witness_tree": _witness_tree,
    "alt_trees.kb_sorted": _kb_sorted,
    "space_models.PSpaceModel.clause_status": _clause_status,
    "space_models.CylinderModel.words": _words,
    "games.play": _play,
    "games.stationary_from_relation": _stationary,
    "effective_codes.build_alt_tree": _build_alt_tree,
    "effective_codes.verify_transform": _verify,
}
