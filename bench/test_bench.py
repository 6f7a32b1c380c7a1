"""The benchmark's own tests.

    python3 -m pytest bench/test_bench.py -q

They check that the oracle rejects wrong reports, that the defect
probe reproduces exactly the known defects, that the recorded
workload choices match the generators, that traced counts repeat
exactly for one seed, that span self times add up to each op's wall
time, and that the benchmark refuses to run without the sources.
The traced runs take a few minutes.
"""

import itertools
import json
import shutil
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _report(op):
    cli = run.load_cli()
    signal.signal(signal.SIGALRM, run._alarm)
    ns, fail, text = run.run_op(cli, op, float("inf"))
    return fail, json.loads(text)


def _first(ops, group, pred=lambda op: True):
    return next(op for op in ops if op.group == group and pred(op))


def _rejects(op, rc, report):
    return oracle.check(op, rc, json.dumps(report))


# -- the oracle ----------------------------------------------------------------


def test_generators_are_seeded():
    for make in workloads.WORKLOADS.values():
        assert make(3) == make(3)
        assert make(3) != make(4)


def test_oracle_checks_classify_levels_and_witnesses():
    op = _first(workloads.posets_ops(1), "classify", lambda op: op.expect["n"] == 10)
    fail, report = _report(op)
    assert fail is None
    report["outputs"]["sigma"] += 1
    for m in report["outputs"]["methods"].values():
        m["sigma"] += 1
    assert _rejects(op, 0, report) == "oracle:classify-levels"
    fail, report = _report(op)
    report["outputs"]["witnesses"]["pi_tree"]["rank"] += 1
    assert _rejects(op, 0, report) == "oracle:classify-witness"
    assert _rejects(op, 1, report) == "exit:1"


def test_oracle_checks_audit_counts():
    op = _first(workloads.posets_ops(1), "audit", lambda op: op.expect["exhaustive"] == 4)
    fail, report = _report(op)
    assert fail is None
    assert report["outputs"]["posets"] == 24 and report["outputs"]["sets_checked"] == 306
    assert report["outputs"]["no_least_element_inequalities"]
    report["outputs"]["sets_checked"] -= 1
    assert _rejects(op, 0, report) == "oracle:audit-sets"


def test_oracle_decodes_play_witnesses():
    ops = workloads.games_ops(1)
    op = _first(ops, "cylinder-play", lambda op: "random" in op.argv)
    fail, report = _report(op)
    assert fail is None
    t = report["outputs"]["transcript"]
    assert t["outcome"] == "NONEMPTY_WINS"
    t["witness"]["prefix"][0] = 1 - t["witness"]["prefix"][0]
    assert _rejects(op, 0, report) == "oracle:witness-outside-open"

    op = _first(ops, "poset-play")
    fail, report = _report(op)
    assert fail is None
    outside = [v for v in range(op.expect["model"]["poset"]["n"])
               if not (op.expect["opens"][report["outputs"]["transcript"]["rounds"][-1]["nonempty"]] >> v) & 1]
    if outside:
        report["outputs"]["transcript"]["witness"] = outside[0]
        assert _rejects(op, 0, report) == "oracle:witness-outside-open"


def test_oracle_flags_finite_pinf_witness():
    op = _first(workloads.games_defect_ops(), "pinf-play")
    fail, report = _report(op)
    assert fail == "oracle:pinf-witness-finite"
    assert report["outputs"]["transcript"]["witness"]["cofinite_from"] is None


def test_defect_probe_reproduces_only_known_defects():
    cli = run.load_cli()
    signal.signal(signal.SIGALRM, run._alarm)
    results = run.run_pass(cli, workloads.games_defect_ops(), float("inf"), {})
    assert set(run.failure_classes(results)) == set(run.KNOWN_FAILURES)
    assert all(r.fail is not None for r in results)


def test_oracle_accepts_only_real_classify_budget_verdicts():
    op = _first(workloads.posets_ops(1), "classify")
    exhausted = {"error": {"kind": "budget", "message": "2000001"}}
    assert _rejects(op, 2, exhausted) is None
    exhausted["error"]["message"] = "1500"
    assert _rejects(op, 2, exhausted) == "oracle:classify-budget"
    exhausted["error"]["kind"] = "validation"
    assert _rejects(op, 2, exhausted) == "oracle:classify-budget"
    assert _rejects(op, 1, exhausted) == "exit:1"


def test_oracle_checks_transform_rows():
    ops = workloads.transform_ops(1)
    op = _first(ops, "poset-transform", lambda op: op.expect["presentation"]["kind"] == "clopen")
    fail, report = _report(op)
    assert fail is None
    row = report["outputs"]["verification"]["table"][0]
    row["transform"] = not row["transform"]
    row["oracle"] = not row["oracle"]
    assert _rejects(op, 0, report) == "oracle:transform-row"

    op = _first(ops, "cylinder-transform")
    fail, report = _report(op)
    assert fail is None
    ver = (report.get("outputs") or report["report"])["verification"]
    ver["mismatches"] = ver["mismatches"][1:] if ver["mismatches"] else [ver["table"][0]["point"]]
    assert _rejects(op, 2 if "error" in report else 0, report) == "oracle:transform-mismatches"


def test_word_codes_are_shortlex():
    words = [w for n in range(4) for w in itertools.product(range(3), repeat=n)]
    assert [oracle.word_code(w, 3) for w in words] == list(range(len(words)))
    assert all(oracle.code_word(c, 3) == w for c, w in enumerate(words))


# -- the records ---------------------------------------------------------------


def test_records_match_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _ in spans.PER_LAYER]
    assert [m["unit"] for m in bench["per_layer"]] == [u for _, u in spans.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    record = json.loads((BENCH / "workloads.json").read_text())
    for name, make in workloads.WORKLOADS.items():
        assert record["workloads"][name]["op_mix"] == dict(Counter(op.group for op in make(1)))
        assert len(make(1)) >= 100


# -- traced runs -----------------------------------------------------------------


def _traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_counts_repeat_and_self_times_add_up(workload):
    first, second = _traced(workload, 5), _traced(workload, 5)
    assert first["correct"] and second["correct"]
    timed = [n for n, u in spans.PER_LAYER if u == "s"]
    for name, _ in spans.PER_LAYER:
        if name not in timed:
            assert first["metrics"][name] == second["metrics"][name], name
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])

    header, cols = spans.read_spans(BENCH / "out" / ("spans-%s-seed5.spans.gz" % workload))
    assert header["count"] == first["metrics"]["trace.spans"]["value"]
    dur = [e - b for b, e in zip(cols["start"], cols["end"])]
    own, root = list(dur), {}
    for i, (op, parent) in enumerate(zip(cols["op"], cols["parent"])):
        if parent < 0:
            root[op] = dur[i]
        else:
            own[parent] -= dur[i]
    total = Counter()
    for op, ns in zip(cols["op"], own):
        total[op] += ns
    assert dict(total) == root
    assert len(root) == len(header["ops"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "games", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
