"""Independent checks of `hier` reports.

Nothing here imports hierkit.  Every verdict is re-derived from the
op's own inputs with code written for the benchmark: the poset's order
is the benchmark's transitive closure of the given pairs, open-set
indices of a poset model are decoded from the benchmark's enumeration
of up-sets, cylinder indices are decoded from word codes, and the
first-one and clopen memberships are computed directly.

`check(op, rc, text)` returns None when the report is accepted, or
the failure class of the first check that rejected it: exit:<code>
for an exit code the op does not allow, oracle:<check> otherwise.  A
report that is not JSON fails "report-json", one without the expected
fields "report-shape".
"""

from __future__ import annotations

import json

# Unlabeled posets on k = 1..5 points (OEIS A000112).
POSETS_UP_TO_ISO = (1, 2, 5, 16, 63)


# -- finite posets -----------------------------------------------------------


def strict_above(n, pairs):
    """above[v] = set of elements strictly above v, by depth-first
    reachability over the given (lo, hi) pairs."""
    succ = [[] for _ in range(n)]
    for lo, hi in pairs:
        succ[lo].append(hi)
    above = []
    for v in range(n):
        seen, todo = set(), list(succ[v])
        while todo:
            w = todo.pop()
            if w not in seen:
                seen.add(w)
                todo.extend(succ[w])
        above.append(seen)
    return above


def poset_opens(n, pairs):
    """Up-closed subsets as bitmasks, sorted by (size, mask)."""
    above = strict_above(n, pairs)
    up_masks = [sum(1 << w for w in above[v]) for v in range(n)]
    opens = [
        m
        for m in range(1 << n)
        if all(not (m >> v) & 1 or up_masks[v] & ~m == 0 for v in range(n))
    ]
    opens.sort(key=lambda m: (bin(m).count("1"), m))
    return opens


def components(n, pairs):
    """Connected components of the comparability graph, as bitmasks."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for lo, hi in pairs:
        parent[find(lo)] = find(hi)
    out = {}
    for v in range(n):
        out[find(v)] = out.get(find(v), 0) | (1 << v)
    return sorted(out.values())


def alternating_levels(n, pairs, members):
    """(sigma, pi) from the longest strictly increasing membership-
    alternating chains: sigma counts the nodes of the longest chain that
    starts inside the set, pi of the longest that starts outside."""
    above = strict_above(n, pairs)
    memo = {}

    def longest(v):
        if v not in memo:
            memo[v] = 1 + max(
                (longest(w) for w in above[v] if (w in members) != (v in members)),
                default=0,
            )
        return memo[v]

    sigma = max((longest(v) for v in range(n) if v in members), default=0)
    pi = max((longest(v) for v in range(n) if v not in members), default=0)
    return sigma, pi


# -- cylinders ---------------------------------------------------------------


def word_code(word, k):
    """Shortlex position of a word over {0..k-1}: all shorter words
    first, then lexicographic."""
    shorter = sum(k**j for j in range(len(word)))
    value = 0
    for a in word:
        value = value * k + a
    return shorter + value


def code_word(code, k):
    length, block = 0, 1
    while code >= block:
        code -= block
        block *= k
        length += 1
    letters = []
    for _ in range(length):
        code, a = divmod(code, k)
        letters.append(a)
    return tuple(reversed(letters))


def set_bits(mask):
    """Positions of the set bits, lowest first; cost follows the number
    of set bits, so huge sparse indices are cheap."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def cylinder_words(index, k):
    """The words whose cylinders make up a basic open."""
    return [code_word(c, k) for c in set_bits(index)]


def letter(point, i):
    prefix, cycle = point["prefix"], point["cycle"]
    if i < len(prefix):
        return prefix[i]
    return cycle[(i - len(prefix)) % len(cycle)]


def in_cylinder_open(point, index, k):
    return any(
        all(letter(point, i) == a for i, a in enumerate(w))
        for w in cylinder_words(index, k)
    )


def first_one(point):
    """The first letter other than 0 is a 1 (all-zero words are out)."""
    for i in range(len(point["prefix"]) + len(point["cycle"])):
        if letter(point, i):
            return letter(point, i) == 1
    return False


# -- report checks -----------------------------------------------------------


def check(op, rc, text):
    if rc not in op.expect["exit"]:
        return "exit:%s" % rc
    try:
        report = json.loads(text)
    except ValueError:
        return "oracle:report-json"
    try:
        bad = _CHECKS[op.expect["check"]](op.expect, rc, report)
    except (KeyError, IndexError, TypeError, ValueError):
        bad = "report-shape"
    return None if bad is None else "oracle:" + bad


# level_bruteforce gives up past this many search nodes; the CLI then
# exits 2 with a budget error, which is the verdict it documents
BRUTE_FORCE_NODES = 2_000_000


def _classify(exp, rc, report):
    if rc == 2:
        err = report["error"]
        if err["kind"] != "budget" or int(err["message"]) <= BRUTE_FORCE_NODES:
            return "classify-budget"
        return None
    out = report["outputs"]
    if not out["agree"] or len({(m["sigma"], m["pi"]) for m in out["methods"].values()}) != 1:
        return "classify-disagree"
    n, pairs, members = exp["n"], exp["pairs"], set(exp["set"])
    sigma, pi = alternating_levels(n, pairs, members)
    if (out["sigma"], out["pi"]) != (sigma, pi):
        return "classify-levels"
    above = strict_above(n, pairs)
    for key, inside, level in (("sigma_tree", True, sigma), ("pi_tree", False, pi)):
        tree = out["witnesses"][key]
        if (tree is None) != (level == 0):
            return "classify-witness"
        if tree is None:
            continue
        labels = {tuple(node["node"]): node["label"] for node in tree["nodes"]}
        if (labels[()] in members) != inside:
            return "classify-witness"
        for node, v in labels.items():
            if node and not (
                v in above[labels[node[:-1]]]
                and (v in members) != (labels[node[:-1]] in members)
            ):
                return "classify-witness"
        if max(len(node) for node in labels) != level - 1 or tree["rank"] != level - 1:
            return "classify-witness"
    return None


def _audit(exp, rc, report):
    out = report["outputs"]
    k = exp["exhaustive"]
    counts = POSETS_UP_TO_ISO[:k]
    if out["posets"] != sum(counts):
        return "audit-posets"
    if out["sets_checked"] != sum(c << (i + 1) for i, c in enumerate(counts)):
        return "audit-sets"
    if out["violations"] or out["classifier_disagreements"] or out["ambiguity_violations"]:
        return "audit-violations"
    return None


def _in_open(exp, point, index):
    model = exp["model"]
    if model["kind"] == "cylinder":
        return in_cylinder_open(point, index, model["alphabet"])
    if model["kind"] == "poset":
        return (exp["opens"][index] >> point) & 1 == 1
    # a P(N) cone: every element of the index's set is in the point
    core, tail = set(point["core"]), point["cofinite_from"]
    return all(j in core or (tail is not None and j >= tail) for j in set_bits(index))


def _in_space(exp, point):
    model = exp["model"]
    if model["kind"] == "pinf":
        return point["cofinite_from"] is not None
    if model["kind"] == "cylinder":
        k = model["alphabet"]
        return bool(point["cycle"]) and all(
            0 <= a < k for a in point["prefix"] + point["cycle"]
        )
    return 0 <= point < model["poset"]["n"]


def _play(exp, rc, report):
    t = report["outputs"]["transcript"]
    if t["outcome"] == "EMPTY_WINS" or (
        t["outcome"] == "UNDECIDED" and exp["model"]["kind"] == "poset"
    ):
        return "play-outcome"
    if t["outcome"] != "NONEMPTY_WINS":
        return None
    x = t["witness"]
    if not _in_space(exp, x):
        return "pinf-witness-finite" if exp["model"]["kind"] == "pinf" else "witness-outside-space"
    for r in t["rounds"]:
        if not _in_open(exp, x, r["nonempty"]) or not any(
            _in_open(exp, x, u) for u in r["empty"]["open"]
        ):
            return "witness-outside-open"
    return None


def _baire(exp, rc, report):
    report = report["outputs"]
    if report["outcome"] != "VERIFIED":
        return "baire-outcome"
    x = report["point"]
    if not _in_open(exp, x, exp["target"]):
        return "baire-target"
    if not all(_in_open(exp, x, c) for c in report["chain"]):
        return "baire-chain"
    for u, f in exp["dense"]:
        if not (any(_in_open(exp, x, i) for i in u) or not any(_in_open(exp, x, i) for i in f)):
            return "baire-constraint"
    return None


def _membership(exp, point):
    pres = exp["presentation"]
    if pres["kind"] == "first-one":
        return first_one(point)
    if pres["kind"] == "clopen":
        return (exp["opens"][pres["inside"]] >> point) & 1 == 1
    return False  # the empty presentation


def _ordinal(text):
    """Cantor normal form text ("w*2 + 3") as a comparable term list."""
    terms = []
    for part in text.split(" + "):
        if part.isdigit():
            terms.append((0, int(part)))
            continue
        head, _, coeff = part.partition("*")
        exp = int(head[2:]) if head.startswith("w^") else 1
        terms.append((exp, int(coeff or 1)))
    return [t for t in terms if t != (0, 0)]


def _slots_consistent(result, n_opens):
    slots = result["slots"]
    ranks = [_ordinal(s["rank"]) for s in slots]
    if any(a >= b for a, b in zip(ranks, ranks[1:])):
        return False
    for s, rank in zip(slots, ranks):
        finite = rank[-1][1] if rank and rank[-1][0] == 0 else 0
        if finite % 2 != s["type"] or not 0 <= s["open"] < n_opens:
            return False
    h = result["hausdorff"]
    return (
        h["order"] == list(range(len(slots)))
        and h["parity_set"] == [i for i, s in enumerate(slots) if s["type"] == 1]
        and [t["nodes"] for t in h["trees"]] == [[[], [s["open"]]] for s in slots]
    )


def _transform(exp, rc, report):
    if rc == 2:
        if report["error"]["kind"] != "budget":
            return "transform-error"
        report = report["report"]
    else:
        report = report["outputs"]
    n_opens = len(exp["opens"]) if "opens" in exp else float("inf")
    if not _slots_consistent(report["result"], n_opens):
        return "transform-slots"
    ver = report["verification"]
    if exp["points"] is None:
        return None if ver is None else "transform-verification"
    table = ver["table"]
    if [row["point"] for row in table] != exp["points"]:
        return "transform-points"
    wrong = []
    for row in table:
        truth = _membership(exp, row["point"])
        if row["oracle"] != truth or row["match"] != (row["transform"] == truth):
            return "transform-row"
        if row["transform"] != truth:
            wrong.append(row["point"])
    if ver["mismatches"] != wrong:
        return "transform-mismatches"
    if (ver["status"] == "COMPLETE") != (not wrong) or (rc == 0) != (not wrong):
        return "transform-status"
    return None


_CHECKS = {
    "classify": _classify,
    "audit": _audit,
    "play": _play,
    "baire": _baire,
    "transform": _transform,
}
