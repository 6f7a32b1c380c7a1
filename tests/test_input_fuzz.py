"""A seeded in-process fuzzer holding every subcommand to the error
contract.

Each integer inside a JSON argument, and each integer option, of a set
of valid command lines is replaced in turn by a float, a bool, a
string, a list, null, a negative number and 2**80.  Every run must end
with exit 0, 1 or 2 and one JSON document on stdout, within a time limit
the test enforces itself and under an address-space cap, and a wrongly
typed value must never end with exit 0.
"""

import contextlib
import copy
import io
import json
import random
import re
import resource
import signal
import time

import pytest

from hierkit.cli import main

SEED = 12
RUN_SECONDS = 10
# address space a run may add to the test process
RUN_ADDRESS_SPACE = 1 << 30

CHAIN3 = '{"n": 3, "cover": [[0, 1], [1, 2]]}'
DIAMOND = '{"kind": "poset", "poset": {"n": 4, "cover": [[0, 1], [0, 2], [1, 3], [2, 3]]}}'
TWO_CHAINS = '{"kind": "poset", "poset": {"n": 4, "cover": [[0, 1], [2, 3]]}}'
CLAUSES = json.dumps({"kind": "clauses", "rows": [
    {"alpha": [0], "witnesses": [[1], [2, 3]]},
    {"alpha": [1], "witnesses": [[4]]},
]})

# Valid command lines covering every subcommand and every model kind.
# None is a deep cylinder play: past about 15 rounds its indices outgrow
# json's 4,300-digit integer limit, a known defect of the cylinder index.
VALID_ARGV = [
    ("classify", "--poset", CHAIN3, "--set", "1"),
    ("residues", "--poset", '{"n": 4, "cover": [[0, 1], [2, 3]]}', "--set", "1,2"),
    ("alt", "--poset", '{"n": 4, "cover": [[0, 1], [0, 2], [1, 3], [2, 3]]}', "--set", "1"),
    ("play", "--rounds", "6", "--first", "4", "--seed", "3"),
    ("play", "--model", '{"kind": "pn"}', "--rounds", "6", "--empty", "deepening"),
    ("play", "--model", '{"kind": "pinf", "bound": 16}', "--rounds", "6", "--game", "bm"),
    ("play", "--model", CLAUSES, "--rounds", "5"),
    ("play", "--model", DIAMOND, "--rounds", "8", "--first", "3"),
    ("baire", "--dense", '[{"u": [2], "f": []}]', "--target", "1", "--budget", "500"),
    ("baire", "--model", '{"kind": "pn"}', "--dense", '[{"u": [2], "f": []}]', "--budget", "200"),
    ("baire", "--model", DIAMOND, "--dense", "[[[2], []]]"),
    ("eval-code", "--diff", '{"alpha": 3, "entries": [[0, 2], [1, 4], [2, 8]]}',
     "--point", '{"prefix": [1, 0], "cycle": [1]}'),
    ("eval-code", "--model", '{"kind": "pn"}', "--point", '{"core": [1, 3], "cofinite_from": 9}',
     "--borel", '{"nodes": [[], [0], [0, 10], [1], [1, 4]]}'),
    ("eval-code", "--model", DIAMOND, "--point", "3", "--hausdorff",
     '{"order": [0, 1], "parity_set": [0], "trees": [{"nodes": [[], [1]]}, {"nodes": [[], [5]]}]}'),
    ("eval-code", "--model", '{"kind": "pinf", "bound": 16}', "--point", '{"core": [2, 5]}',
     "--borel", '{"nodes": [[], [4]]}', "--side", "pi"),
    ("transform", "--model", TWO_CHAINS, "--presentation",
     '{"kind": "clopen", "inside": 3, "outside": 5}', "--budget", "4", "--max-budget", "16",
     "--points", "[0, 1, 2, 3]"),
    ("transform", "--model", TWO_CHAINS, "--presentation",
     '{"kind": "rows", "rows1": [[1, 2], [4]], "rows0": [[3], [5, 6]]}', "--budget", "4"),
    ("transform", "--model", '{"kind": "cylinder", "alphabet": 3}', "--presentation",
     '{"kind": "first-one"}', "--budget", "4", "--max-budget", "8",
     "--points", '[{"prefix": [0, 1], "cycle": [2]}]'),
    ("audit", "--exhaustive", "2", "--nmax", "2"),
    ("gen", "--n", "5", "--count", "3"),
    ("gen", "--kind", "model", "--n", "4", "--count", "4"),
]

WRONG_TYPES = ("float", "bool", "string", "list", "null")
# fields where null is a legal value
NULLABLE = {"cofinite_from"}


def _replacements(rng):
    return [
        ("float", rng.choice([0.5, 1.5, 2.0, 3.7])),
        ("bool", rng.choice([True, False])),
        ("string", str(rng.randrange(4))),
        ("list", [rng.randrange(4)]),
        ("null", None),
        ("negative", -rng.randrange(1, 10)),
        ("huge", 2**80),
    ]


def _int_paths(data, path=()):
    if type(data) is int:
        yield path
    elif isinstance(data, list):
        for i, value in enumerate(data):
            yield from _int_paths(value, path + (i,))
    elif isinstance(data, dict):
        for key, value in data.items():
            yield from _int_paths(value, path + (key,))


def _replaced(data, path, value):
    data = copy.deepcopy(data)
    node = data
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return data


def mutants(rng):
    """(argv, kind, field) for every integer site of every valid argv."""
    for argv in VALID_ARGV:
        for k in range(2, len(argv)):
            token = argv[k]
            if not argv[k - 1].startswith("--"):
                continue
            if re.fullmatch(r"-?\d+", token):
                sites = [(None, ())]
            else:
                try:
                    data = json.loads(token)
                except ValueError:
                    continue
                sites = [(data, path) for path in _int_paths(data)]
            for data, path in sites:
                for kind, value in _replacements(rng):
                    text = json.dumps(value if data is None else _replaced(data, path, value))
                    field = path[-1] if path else argv[k - 1]
                    yield argv[:k] + (text,) + argv[k + 1:], kind, field


class _RunTimeout(BaseException):
    """Raised by the alarm; not an Exception, so no handler in the
    program under test can swallow it."""


def _alarm(signum, frame):
    raise _RunTimeout()


def run(argv):
    """One command line under a RUN_SECONDS alarm.  An alarm already
    armed, such as the per-test limit of conftest.py, stays in force:
    the run's alarm fires no later than it, and what is left of it is
    re-armed when the run ends (at once, if nothing is left)."""
    out = io.StringIO()
    outer = signal.getitimer(signal.ITIMER_REAL)[0]
    started = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, min(RUN_SECONDS, outer or RUN_SECONDS))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        left = outer - (time.monotonic() - started)
        signal.setitimer(signal.ITIMER_REAL, max(left, 1e-3) if outer else 0)
    return code, out.getvalue()


@contextlib.contextmanager
def _limits():
    """The alarm handler, and an address-space cap on this process
    (its current size plus RUN_ADDRESS_SPACE) where Linux reports it."""
    old_handler = signal.signal(signal.SIGALRM, _alarm)
    old_as = resource.getrlimit(resource.RLIMIT_AS)
    try:
        with open("/proc/self/statm") as fh:
            size = int(fh.read().split()[0]) * resource.getpagesize()
    except OSError:
        size = None
    if size is not None:
        cap = size + RUN_ADDRESS_SPACE
        if old_as[1] != resource.RLIM_INFINITY:
            cap = min(cap, old_as[1])
        resource.setrlimit(resource.RLIMIT_AS, (cap, old_as[1]))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, old_as)
        signal.signal(signal.SIGALRM, old_handler)


def test_valid_argvs_cover_every_subcommand_and_pass():
    commands = {argv[0] for argv in VALID_ARGV}
    assert commands == {
        "classify", "residues", "alt", "play", "baire", "eval-code", "transform", "audit", "gen",
    }
    kinds = {json.loads(argv[argv.index("--model") + 1])["kind"]
             for argv in VALID_ARGV if "--model" in argv}
    assert kinds == {"pn", "pinf", "clauses", "cylinder", "poset"}
    for kind in WRONG_TYPES:
        reached = {argv[0] for argv, k, _ in mutants(random.Random(SEED)) if k == kind}
        assert reached == commands, kind
    with _limits():
        for argv in VALID_ARGV:
            assert run(argv)[0] == 0, argv


def test_mutated_inputs_keep_the_error_contract():
    rng = random.Random(SEED)
    problems = []
    runs = 0
    with _limits():
        for argv, kind, field in mutants(rng):
            runs += 1
            try:
                code, out = run(argv)
            except _RunTimeout:
                problems.append(("timeout", argv))
                continue
            except Exception as e:  # a traceback breaks the contract
                problems.append(("%s: %s" % (type(e).__name__, e), argv))
                continue
            try:
                json.loads(out)
            except ValueError:
                problems.append(("stdout is not JSON", argv))
            if code not in (0, 1, 2):
                problems.append(("exit %r" % code, argv))
            elif code == 0 and kind in WRONG_TYPES and not (kind == "null" and field in NULLABLE):
                problems.append(("accepted a %s %s" % (kind, field), argv))
    assert runs > 500
    assert problems == []


def test_a_run_leaves_the_per_test_limit_armed():
    before = signal.getitimer(signal.ITIMER_REAL)[0]
    assert before > 0  # the per-test limit of conftest.py
    handler = signal.getsignal(signal.SIGALRM)
    with _limits():
        assert run(VALID_ARGV[0])[0] == 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= before


def test_a_run_is_cut_at_an_earlier_outer_alarm(monkeypatch):
    fired = []

    def alarm(signum, frame):
        fired.append(time.monotonic())
        if len(fired) == 1:
            raise _RunTimeout()

    monkeypatch.setitem(globals(), "main", lambda argv: time.sleep(RUN_SECONDS))
    old = signal.signal(signal.SIGALRM, alarm)
    try:
        started = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, 0.2)  # an outer alarm, shorter than a run's
        with pytest.raises(_RunTimeout):
            run(("sleep",))
        # the run was cut at the outer deadline, and the spent outer
        # alarm, re-armed, fires once more at once
        time.sleep(0.1)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert len(fired) == 2
    assert fired[0] - started < RUN_SECONDS / 2
