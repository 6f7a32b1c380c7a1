"""End-to-end checks of the command surface: exit codes, report shapes,
byte-level determinism, and the error JSON contract."""

import ast
import functools
import gc
import hashlib
import importlib
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hierkit.alt_trees
import hierkit.cli
import hierkit.diff_hierarchy
import hierkit.effective_codes
from hierkit.cli import main
from hierkit.finite_space import FinitePoset, random_poset
from hierkit.space_models import model_from_json

CHAIN3 = '{"n": 3, "cover": [[0, 1], [1, 2]]}'
FORK = '{"kind": "poset", "poset": {"n": 3, "cover": [[0, 1]]}}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


# -- classify ----------------------------------------------------------------


def test_classify_chain_agrees_across_methods(capsys):
    code, rep = run_cli(capsys, "classify", "--poset", CHAIN3, "--set", "1")
    assert code == 0
    out = rep["outputs"]
    assert (out["sigma"], out["pi"]) == (2, 3)
    assert out["agree"]
    assert set(out["methods"]) == {"residues", "trees", "brute"}
    assert all((m["sigma"], m["pi"]) == (2, 3) for m in out["methods"].values())
    assert out["witnesses"]["pi_tree"]["rank"] == 2


def test_classify_single_method(capsys):
    code, rep = run_cli(
        capsys, "classify", "--poset", CHAIN3, "--set", "1", "--method", "trees"
    )
    assert code == 0
    assert set(rep["outputs"]["methods"]) == {"trees"}


def test_classify_extreme_sets(capsys):
    _, rep = run_cli(capsys, "classify", "--poset", CHAIN3, "--set", "")
    assert (rep["outputs"]["sigma"], rep["outputs"]["pi"]) == (0, 1)
    assert rep["outputs"]["witnesses"]["sigma_tree"] is None
    _, rep = run_cli(capsys, "classify", "--poset", CHAIN3, "--set", "0,1,2")
    assert (rep["outputs"]["sigma"], rep["outputs"]["pi"]) == (1, 0)


def test_classify_rejects_malformed_poset(capsys):
    code, rep = run_cli(capsys, "classify", "--poset", '{"n": 3', "--set", "1")
    assert code == 1
    assert rep["error"]["kind"] == "validation"


def test_classify_rejects_out_of_range_element(capsys):
    code, rep = run_cli(capsys, "classify", "--poset", CHAIN3, "--set", "5")
    assert code == 1
    assert "outside" in rep["error"]["message"]


def test_at_file_arguments(tmp_path, capsys):
    path = tmp_path / "poset.json"
    path.write_text(CHAIN3)
    code, rep = run_cli(capsys, "classify", "--poset", "@" + str(path), "--set", "1")
    assert code == 0
    assert rep["outputs"]["sigma"] == 2
    code, rep = run_cli(
        capsys, "classify", "--poset", "@" + str(tmp_path / "missing.json"), "--set", "1"
    )
    assert code == 1
    assert "cannot read" in rep["error"]["message"]


# -- residues and alt --------------------------------------------------------


def test_residue_report_shape(capsys):
    code, rep = run_cli(capsys, "residues", "--poset", CHAIN3, "--set", "1")
    assert code == 0
    out = rep["outputs"]
    assert out["chain"][0] == 7 and out["chain"][-1] == 0
    assert out["theta"] == len(out["chain"]) - 1
    assert out["trimmed_code"]["alpha"] == "2"
    assert (out["sigma"], out["pi"]) == (2, 3)


def test_alt_report_has_witnesses_and_code(capsys):
    code, rep = run_cli(capsys, "alt", "--poset", CHAIN3, "--set", "1")
    assert code == 0
    out = rep["outputs"]
    assert (out["rank_eps1"], out["rank_eps0"]) == (1, 2)
    assert out["code"]["alpha"] == "2"
    assert [n["label"] for n in out["witness_eps0"]["nodes"]] == [0, 1, 2]


def test_classify_and_alt_run_the_chain_dp_once(capsys, monkeypatch):
    calls = []
    chain_dp = hierkit.alt_trees._chain_dp

    def counted(poset, mask):
        calls.append(mask)
        return chain_dp(poset, mask)

    monkeypatch.setattr(hierkit.alt_trees, "_chain_dp", counted)
    poset = '{"n": 5, "cover": [[0, 1], [1, 2], [0, 3], [3, 4]]}'
    for argv in (("classify", "--method", "all"), ("alt",)):
        del calls[:]
        code, rep = run_cli(capsys, *argv, "--poset", poset, "--set", "1,3")
        assert code == 0 and rep["outputs"]["sigma"] == 2
        assert calls == [0b1010], argv[0]
    del calls[:]
    hierkit.alt_trees.ambiguity_audit(FinitePoset.from_json(json.loads(poset)), 2)
    assert calls == list(range(1 << 5))


# -- games and density witnesses ---------------------------------------------


def test_play_choquet_deterministic_and_never_loses(capsys):
    argv = ("play", "--model", FORK, "--rounds", "8", "--seed", "5")
    code, rep = run_cli(capsys, *argv)
    assert code == 0
    outcome = rep["outputs"]["transcript"]["outcome"]
    assert outcome in ("NONEMPTY_WINS", "UNDECIDED")
    _, again = run_cli(capsys, *argv)
    assert again == rep


def test_play_point_free_game(capsys):
    code, rep = run_cli(capsys, "play", "--game", "bm", "--rounds", "5", "--seed", "9")
    assert code == 0
    t = rep["outputs"]["transcript"]
    assert t["game"] == "banach-mazur"
    assert all(r["empty"]["point"] is None for r in t["rounds"])
    assert t["outcome"] in ("NONEMPTY_WINS", "UNDECIDED")


def test_play_finds_a_point_that_needs_a_row_witness(capsys):
    # cone 4 = {2}: neither {2} nor {2} with a cofinite tail above it
    # includes 0, which every point must; {0, 2} does
    model = '{"kind": "clauses", "rows": [{"alpha": [], "witnesses": [[0]]}]}'
    argv = ("play", "--model", model, "--game", "bm", "--first", "4", "--rounds", "3")
    code, rep = run_cli(capsys, *argv)
    assert code == 0
    t = rep["outputs"]["transcript"]
    assert (t["outcome"], t["reason"]) == ("NONEMPTY_WINS", "limit point certified")
    assert t["rounds"][0]["empty"]["open"] == [4]
    assert 0 in t["witness"]["core"]


def test_play_keeps_empty_moves_legal_on_a_witnessless_row(capsys):
    # Empty's random move may not jitter into a cone that forces the
    # last row, which has no witness: that move would be illegal
    model = json.dumps({"kind": "clauses", "rows": [
        {"alpha": [0], "witnesses": [[1], [2, 3]]},
        {"alpha": [1], "witnesses": [[4]]},
        {"alpha": [], "witnesses": [[5], [7, 9]]},
        {"alpha": [2, 6], "witnesses": []},
    ]})
    argv = ("play", "--model", model, "--empty", "deepening", "--first", "6",
            "--rounds", "8", "--seed", "15")
    code, rep = run_cli(capsys, *argv)
    assert code == 0
    t = rep["outputs"]["transcript"]
    assert (t["outcome"], t["reason"]) == ("NONEMPTY_WINS", "limit point certified")


ANTICHAIN2 = '{"kind": "poset", "poset": {"n": 2, "cover": []}}'
NO_POINTS = '{"kind": "clauses", "rows": [{"alpha": [], "witnesses": []}]}'


@pytest.mark.parametrize("game", ["choquet", "bm"])
@pytest.mark.parametrize(
    "argv",
    [
        ("--model", ANTICHAIN2, "--first", "0", "--empty", "random"),
        ("--model", ANTICHAIN2, "--first", "0", "--empty", "deepening"),
        ("--model", NO_POINTS),
    ],
    ids=["empty-open-random", "empty-open-deepening", "no-points"],
)
def test_a_move_without_a_point_is_empty_forfeit_in_both_games(capsys, argv, game):
    # Empty opens on the empty open, or the model has no point at all, so
    # Empty's first move carries no point
    code, rep = run_cli(capsys, "play", *argv, "--game", game)
    assert code == 0
    t = rep["outputs"]["transcript"]
    assert (t["outcome"], t["reason"]) == ("NONEMPTY_WINS", "empty forfeits: illegal move")
    assert t["rounds"] == [] and t["witness"] is None


PLAY_MODELS = {
    "pinf16": '{"kind": "pinf", "bound": 16}',
    "pinf64": '{"kind": "pinf", "bound": 64}',
    "pinf128": '{"kind": "pinf", "bound": 128}',
    "pn": '{"kind": "pn"}',
    "clauses": json.dumps({"kind": "clauses", "rows": [
        {"alpha": [0], "witnesses": [[1], [2, 3]]},
        {"alpha": [1], "witnesses": [[4]]},
    ]}),
}

# SHA-256 of the stdout of `hier play --model M --rounds R --empty E
# --game G --seed 7`, recorded while every P_inf row was still generated
# as a list of singletons.  pinf16 at 20 rounds and pinf64 at 40 certify
# a finite witness (the truncation at `bound`); they are pinned here
# until membership is checked exactly, and then change on purpose.
PLAY_DIGESTS = {
    ("pinf16", 20, "random", "choquet"): "d8157e0c90612610113a83bec61ef9e5119d7116073b112b28d84249a999ec1c",
    ("pinf16", 20, "random", "bm"): "76d666a5cf7fd49ccc5c8bf389322ceeef9931cae97cf96f0ae29e7942a1a703",
    ("pinf16", 20, "deepening", "choquet"): "8bf300139b441a0a662f70d927f0ca5e089dafb4d9e0bb1156abe7755e39226b",
    ("pinf16", 20, "deepening", "bm"): "89952c65e26a9c9299b157e37e61c3f3fceb8e7cda2cf45abfb7e4b6893e5562",
    ("pinf64", 11, "random", "choquet"): "0ce5da0c801bec8825102d16b521f57e79e74b68238980843f94e5de85afe58b",
    ("pinf64", 11, "random", "bm"): "cc4503cabbe3e42999a43ab90688fca4d26ed0c27356ea5bbfe5805319e904ab",
    ("pinf64", 11, "deepening", "choquet"): "cfacb9207e283bca74de8c408eb662280f1e36b4448a56f3b18886c497cd2702",
    ("pinf64", 11, "deepening", "bm"): "261fb1b06ad91bc5cd30816dcac8d082588155068425778258299f2574139858",
    ("pinf64", 40, "random", "choquet"): "c19811b5f60f30d9150e8ca61dc180b4f5e2594fc913d65a2a974b98b36c1e47",
    ("pinf64", 40, "random", "bm"): "7e7e77e0825e1565b30108dcd69922279011e644d983e5c8b5bdb21bf7ccfeb1",
    ("pinf64", 40, "deepening", "choquet"): "3c03907fb7ee2dd4954fcf65874b0768ddc50ee0781bda0f4e7c2ff262bb7b91",
    ("pinf64", 40, "deepening", "bm"): "6a44f5ef4d302be52900f2fa36350376e4d6ebef6c97862d7d219090fb1325aa",
    ("pinf128", 24, "random", "choquet"): "b586559bba6371a60b1d6c017d9e6beb36baed7e8b5532bcee45306f721a98b1",
    ("pinf128", 24, "random", "bm"): "7a2448afba061eee5e9e98e868ff163bc4a8cc77ca675ad56e5837ef10771c4a",
    ("pinf128", 24, "deepening", "choquet"): "6bc1484ba74b27bb8bdaa136911811ce976f71a3e3775e27da6f01ba28a333f6",
    ("pinf128", 24, "deepening", "bm"): "e569b93f0c2dd04b8cb7f7ef2651d91c0b27292543ab23ec62e48b5d9865492b",
    ("pn", 12, "random", "choquet"): "91813538ca13902623e11a532b805005d54226a4152078c22743e85c80055f91",
    ("pn", 12, "random", "bm"): "05d8b81199065d04c6024e10f23a91e6948a3db438c4cbd55458bf15a9bf910f",
    ("pn", 12, "deepening", "choquet"): "d632a06d48ce6644314fb8d5278c7565b3852a4da03e95694c1e860ea1c967b0",
    ("pn", 12, "deepening", "bm"): "7937255049e61a4e620d324f7cef610c3b8ec39ce099d8496c262ed8b3bea83f",
    ("clauses", 12, "random", "choquet"): "482d0e02e9e1f0fa164ccbcb0ec0e90c90c6befe8a677dbaa462273558c6d737",
    ("clauses", 12, "random", "bm"): "439a90c85fae0f71378703e3ac3e47a3a1dd8b659d43130c87e97c5aa65f590b",
    ("clauses", 12, "deepening", "choquet"): "f1a00728c2547565649cd1ef4d8361f56020f9f0bb513aba9ddc7b48a01da095",
    ("clauses", 12, "deepening", "bm"): "15ca69fe9c4e7e25a3d177146e50f5816a9e9ce96e96c6ee8d63ca15cf4e8197",
}


@pytest.mark.parametrize("model, rounds, empty, game", sorted(PLAY_DIGESTS))
def test_play_reports_match_golden_digests(capsys, model, rounds, empty, game):
    argv = ["play", "--model", PLAY_MODELS[model], "--rounds", str(rounds), "--empty", empty,
            "--game", game, "--seed", "7"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PLAY_DIGESTS[model, rounds, empty, game]


def test_baire_verified_density_and_budget_exits(capsys):
    code, rep = run_cli(
        capsys, "baire", "--dense", '[{"u": [2], "f": []}]', "--budget", "500"
    )
    assert code == 0
    assert rep["outputs"]["outcome"] == "VERIFIED"
    assert rep["outputs"]["point"] is not None

    # F is the complement of the whole space: nothing can meet it.
    code, rep = run_cli(capsys, "baire", "--dense", '[{"u": [], "f": [1]}]')
    assert code == 1
    assert rep["error"]["kind"] == "validation"
    assert rep["result"]["outcome"] == "DENSITY_VIOLATION"

    code, rep = run_cli(
        capsys, "baire", "--dense", '[{"u": [2], "f": []}]', "--budget", "1"
    )
    assert code == 2
    assert rep["error"]["kind"] == "budget"
    assert rep["result"]["outcome"] == "BUDGET_EXCEEDED"


def test_baire_names_a_target_without_ll_successor(capsys):
    # index 0 of a poset model is the empty open: the chain cannot start
    code, rep = run_cli(
        capsys, "baire", "--model", ANTICHAIN2, "--target", "0", "--dense", '[{"u": [1], "f": []}]'
    )
    assert code == 1
    assert rep["error"] == {
        "kind": "validation",
        "message": "target 0 has no ll-successor to start the chain",
    }
    assert rep["result"] == {"outcome": "DENSITY_VIOLATION", "chain": [], "failed_index": None}


# -- code evaluation ----------------------------------------------------------


def test_eval_code_bare_root_is_false(capsys):
    code, rep = run_cli(
        capsys,
        "eval-code", "--borel", '{"nodes": [[]]}',
        "--point", '{"prefix": [], "cycle": [0]}',
    )
    assert code == 0
    assert rep["outputs"]["value"] is False


def test_eval_code_sides_and_kinds(capsys):
    leaf = '{"nodes": [[], [4]]}'  # the basic open [1] on the binary cylinder
    in_one = '{"prefix": [1], "cycle": [0]}'
    in_zero = '{"prefix": [0], "cycle": [0]}'
    _, rep = run_cli(capsys, "eval-code", "--borel", leaf, "--point", in_one)
    assert rep["outputs"]["value"] is True
    _, rep = run_cli(
        capsys, "eval-code", "--borel", leaf, "--point", in_one, "--side", "pi"
    )
    assert rep["outputs"]["value"] is False
    haus = '{"order": [0], "parity_set": [0], "trees": [{"nodes": [[], [4]]}]}'
    _, rep = run_cli(capsys, "eval-code", "--hausdorff", haus, "--point", in_one)
    assert rep["outputs"]["value"] is True
    diff = '{"alpha": 2, "entries": [[0, 2], [1, 4]]}'
    _, rep = run_cli(capsys, "eval-code", "--diff", diff, "--point", in_one)
    assert rep["outputs"]["value"] is True
    _, rep = run_cli(capsys, "eval-code", "--diff", diff, "--point", in_zero)
    assert rep["outputs"]["value"] is False


def test_eval_code_requires_exactly_one_code(capsys):
    code, rep = run_cli(capsys, "eval-code", "--point", "1")
    assert code == 1
    assert "exactly one" in rep["error"]["message"]
    code, _ = run_cli(
        capsys,
        "eval-code", "--borel", '{"nodes": [[]]}',
        "--diff", '{"alpha": 0, "entries": []}',
        "--point", "1",
    )
    assert code == 1


def test_eval_code_rejects_unpaired_children(capsys):
    code, rep = run_cli(
        capsys,
        "eval-code", "--borel", '{"nodes": [[], [0], [0, 2]]}',
        "--point", '{"prefix": [], "cycle": [0]}',
    )
    assert code == 1
    assert rep["error"]["kind"] == "validation"


# -- transform ----------------------------------------------------------------


def test_transform_verified_clopen(capsys):
    code, rep = run_cli(
        capsys,
        "transform", "--model", FORK,
        "--presentation", '{"kind": "clopen", "inside": 2, "outside": 3}',
        "--budget", "8", "--points", "[0, 1, 2]",
    )
    assert code == 0
    v = rep["outputs"]["verification"]
    assert v["status"] == "COMPLETE"
    assert all(row["match"] for row in v["table"])
    assert [row["oracle"] for row in v["table"]] == [False, False, True]


def test_transform_without_points_skips_verification(capsys):
    code, rep = run_cli(
        capsys,
        "transform", "--model", FORK, "--presentation", '{"kind": "empty"}',
        "--budget", "4",
    )
    assert code == 0
    assert rep["outputs"]["verification"] is None
    assert rep["outputs"]["result"]["nodes"] >= 1


def test_transform_budget_exit_carries_partial_report(capsys):
    # The witness word 0001 only becomes visible around stage 17, far
    # beyond the capped budget, so the doubling must give up honestly.
    code, rep = run_cli(
        capsys,
        "transform", "--presentation", '{"kind": "first-one"}',
        "--budget", "2", "--max-budget", "4",
        "--points", '[{"prefix": [0, 0, 0, 1], "cycle": [0]}]',
    )
    assert code == 2
    assert rep["error"]["kind"] == "budget"
    assert rep["report"]["verification"]["status"] == "INCOMPLETE"
    assert rep["report"]["verification"]["mismatches"]


def test_brute_force_budget_error_is_the_bare_state_count(capsys, monkeypatch):
    # the benchmark's oracle reads this message back with int()
    limit = 4
    monkeypatch.setattr(
        hierkit.diff_hierarchy, "level_bruteforce",
        functools.partial(hierkit.diff_hierarchy.level_bruteforce, max_nodes=limit),
    )
    code, rep = run_cli(capsys, "classify", "--poset", CHAIN3, "--set", "1", "--method", "brute")
    assert code == 2
    assert rep == {"error": {"kind": "budget", "message": str(limit + 1)}}


def test_tree_node_budget_error_names_the_cap(capsys, monkeypatch):
    monkeypatch.setattr(
        hierkit.effective_codes, "build_alt_tree",
        functools.partial(hierkit.effective_codes.build_alt_tree, node_cap=3),
    )
    code, rep = run_cli(
        capsys, "transform", "--presentation", '{"kind": "first-one"}', "--budget", "16"
    )
    assert code == 2
    assert rep == {"error": {"kind": "budget", "message": "alternating tree exceeded 3 nodes"}}


def _cylinder_points(k, length):
    """Every word of the given length with every constant tail."""
    return json.dumps([
        {"prefix": list(p), "cycle": [t]}
        for p in itertools.product(range(k), repeat=length)
        for t in range(k)
    ])


FIRST_ONE = '{"kind": "first-one"}'
TWO_CHAINS = '{"kind": "poset", "poset": {"n": 4, "cover": [[0, 1], [2, 3]]}}'
TRANSFORM_ARGV = {
    **{
        "first-one-2-%d" % b: (
            "--model", '{"kind": "cylinder", "alphabet": 2}', "--presentation", FIRST_ONE,
            "--budget", str(b), "--max-budget", str(b), "--points", _cylinder_points(2, 3),
        )
        for b in (16, 64, 256)
    },
    # the criterion-8 ladder: 243 points, budgets 16 up to 256
    "first-one-3-ladder": (
        "--model", '{"kind": "cylinder", "alphabet": 3}', "--presentation", FIRST_ONE,
        "--budget", "16", "--max-budget", "256", "--points", _cylinder_points(3, 4),
    ),
    # opens 3 and 5 are the two components {0, 1} and {2, 3}
    "poset-clopen": (
        "--model", TWO_CHAINS, "--presentation", '{"kind": "clopen", "inside": 3, "outside": 5}',
        "--budget", "8", "--max-budget", "64", "--points", "[0, 1, 2, 3]",
    ),
    "poset-rows": (
        "--model", TWO_CHAINS,
        "--presentation", '{"kind": "rows", "rows1": [[1, 2], [4]], "rows0": [[3], [5, 6]]}',
        "--budget", "16",
    ),
}

# (exit code, SHA-256 of stdout) of `hier transform` on TRANSFORM_ARGV,
# recorded while every covering test and word decoding was recomputed
# on each call, and recorded again, except first-one-2-16, when
# `inputs` gained `max_budget`: no other byte changed.  At budget 16 the
# binary word 0001 is not yet visible, so that report is an honest
# budget exit, which carries no `inputs`.
TRANSFORM_DIGESTS = {
    "first-one-2-16": (2, "f9dab883b3462e1418603941f7b64af7e76cf19af6bd0ac19fedbd935e94a0ca"),
    "first-one-2-64": (0, "be68cb5d8b2a14a770fa26eb872140bc450584188c8db6769493f60ab26a019a"),
    "first-one-2-256": (0, "d797a79159c2c88754a1d96ecc40a87c8d7dec9eef489cd5c6537cad519491e5"),
    "first-one-3-ladder": (0, "589c1029ad928b58be135d9524bfb3726cbb0dcaee8cda281c3d094988fe1545"),
    "poset-clopen": (0, "fd05a8f4f213ea4e6283a240d4b21e7b60dd0d209ad3ec18fc02cff91a18b5a0"),
    "poset-rows": (0, "e93b62065b2868209f7628df4dcd33a2ca828c3393969b5513304b1350f621dd"),
}


@pytest.mark.parametrize("case", sorted(TRANSFORM_DIGESTS))
def test_transform_reports_match_golden_digests(capsys, case):
    code = main(["transform", *TRANSFORM_ARGV[case]])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == TRANSFORM_DIGESTS[case]


def test_transform_inputs_name_the_verification_cap(capsys):
    argv = ("transform", "--model", TWO_CHAINS, "--presentation",
            '{"kind": "clopen", "inside": 3, "outside": 5}', "--budget", "8", "--points", "[0, 3]")
    reports = [run_cli(capsys, *argv, *cap)[1] for cap in ((), ("--max-budget", "16"))]
    # without the flag the cap is 8 times the start budget
    assert [rep["inputs"]["max_budget"] for rep in reports] == [64, 16]
    assert reports[0]["inputs"] != reports[1]["inputs"]


def test_the_bench_oracle_accepts_every_transform_op(capsys, monkeypatch):
    # the benchmark's transform workload for one seed, judged by its own
    # oracle (bench/oracle.py imports no hierkit): a refactor that breaks
    # a report the oracle checks fails here, not only in a benchmark run
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    oracle = importlib.import_module("oracle")
    ops = workloads.transform_ops(201)
    failed, cyclic = [], []
    # the same ops guard memory: with the cyclic collector off, each op
    # must leave nothing that only the collector could free.  The cached
    # parser is built first, because argparse leaves cycles behind.
    hierkit.cli._build_parser()
    gc.collect()
    gc.disable()
    try:
        for op in ops:
            code = main(list(op.argv))
            fail = oracle.check(op, code, capsys.readouterr().out)
            if fail is not None:
                failed.append((op.argv, fail))
            garbage = gc.collect()
            if garbage:
                cyclic.append((op.argv, garbage))
    finally:
        gc.enable()
    assert ops and failed == []
    assert cyclic == []


def test_the_bench_oracle_accepts_every_posets_op(capsys, monkeypatch):
    # the same guard for the posets workload: a classify witness that the
    # oracle's classify-witness check refuses fails here
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    oracle = importlib.import_module("oracle")
    ops = workloads.posets_ops(201)
    failed = []
    for op in ops:
        code = main(list(op.argv))
        fail = oracle.check(op, code, capsys.readouterr().out)
        if fail is not None:
            failed.append((op.argv, fail))
    assert len(ops) == 602 and failed == []


# -- reports across the three model families ------------------------------------

CYL2 = '{"kind": "cylinder", "alphabet": 2}'
CYL3 = '{"kind": "cylinder", "alphabet": 3}'
DIAMOND = '{"kind": "poset", "poset": {"n": 4, "cover": [[0, 1], [0, 2], [1, 3], [2, 3]]}}'
PN = '{"kind": "pn"}'
SURFACE_ARGV = {
    **{
        "play-%s-%s-%s" % (name, empty, game): (
            "play", "--model", model, "--rounds", "8", "--empty", empty, "--game", game,
            "--seed", "7",
        )
        for name, model in (("cyl2", CYL2), ("cyl3", CYL3), ("diamond", DIAMOND))
        for empty in ("random", "deepening")
        for game in ("choquet", "bm")
    },
    "play-cyl2-first": ("play", "--model", CYL2, "--rounds", "8", "--first", "4", "--seed", "7"),
    "play-cyl3-first-bm": (
        "play", "--model", CYL3, "--rounds", "6", "--first", "2", "--game", "bm",
        "--empty", "deepening", "--seed", "7",
    ),
    "play-diamond-first": (
        "play", "--model", DIAMOND, "--rounds", "8", "--first", "3", "--seed", "7",
    ),
    "baire-cyl2": ("baire", "--dense", '[{"u": [2], "f": []}, {"u": [24], "f": [1]}]'),
    "baire-cyl2-violation": ("baire", "--dense", '[{"u": [], "f": [1]}]'),
    "baire-pn": ("baire", "--model", PN, "--dense", '[{"u": [2], "f": []}, {"u": [4, 8], "f": []}]'),
    "baire-pinf": (
        "baire", "--model", '{"kind": "pinf", "bound": 16}', "--dense", '[{"u": [4], "f": []}]',
    ),
    "baire-diamond": (
        "baire", "--model", DIAMOND, "--dense", '[{"u": [2], "f": []}, {"u": [1], "f": [3]}]',
    ),
    **{
        "eval-%s-%s" % (name, kind): (
            "eval-code", "--model", model, "--point", point, "--" + kind, code,
        )
        for name, model, point, codes in (
            ("cyl2", CYL2, '{"prefix": [1, 0], "cycle": [1]}', {
                "borel": '{"nodes": [[], [0], [0, 4], [0, 8], [1], [1, 2]]}',
                "hausdorff": '{"order": [1, 0], "parity_set": [1], "trees": '
                             '[{"nodes": [[], [4]]}, {"nodes": [[], [2]]}]}',
                "diff": '{"alpha": 3, "entries": [[0, 2], [1, 4], [2, 8]]}',
            }),
            ("pn", PN, '{"core": [1, 3], "cofinite_from": 9}', {
                "borel": '{"nodes": [[], [0], [0, 10], [1], [1, 4]]}',
                "hausdorff": '{"order": [0, 1], "parity_set": [1], "trees": '
                             '[{"nodes": [[], [4]]}, {"nodes": [[], [1024]]}]}',
                "diff": '{"alpha": 2, "entries": [[0, 2], [1, 4096]]}',
            }),
            ("diamond", DIAMOND, "3", {
                "borel": '{"nodes": [[], [0], [0, 4], [0, 2], [1], [1, 0]]}',
                "hausdorff": '{"order": [0, 1], "parity_set": [0], "trees": '
                             '[{"nodes": [[], [1]]}, {"nodes": [[], [5]]}]}',
                "diff": '{"alpha": 2, "entries": [[0, 4], [1, 2]]}',
            }),
        )
        for kind, code in codes.items()
    },
    "gen-model": ("gen", "--kind", "model", "--count", "12", "--seed", "3"),
    "gen-model-large": ("gen", "--kind", "model", "--n", "7", "--count", "8", "--seed", "11"),
}

# (exit code, SHA-256 of stdout) of `hier` on SURFACE_ARGV, recorded
# while games, the Baire witness and the CLI told the three model
# families apart by type checks.
SURFACE_DIGESTS = {
    "baire-cyl2": (0, "e8f2c23e3316d53cd6bc98371d36c623a239a69f42b68867db9537e09b35947f"),
    "baire-cyl2-violation": (1, "edea55dde04a81e8c9cd6d0f5c0506e2ec5a89b8edd95343eea7a2fd922392d8"),
    "baire-diamond": (0, "ccd1db5a26a4775aad69136d5f024e771c37da031455fca96039c44aeb792b65"),
    "baire-pinf": (0, "2f420403feaf2353ac2561a786608d75f592312c9edbb81bc94e5f243ac8bddf"),
    "baire-pn": (0, "56c451f8db93c526c6fa57eabfa8c1d0575c54eb8a0ea6e8f63360ab7db60c4f"),
    "eval-cyl2-borel": (0, "16348b6ac0ebcc9e552b88927c23a3537473cfac8e10eb8d055b35954976405e"),
    "eval-cyl2-diff": (0, "c9f78f01f6b7047c14c68b5c7fa36a6e9206d860c42a0f521ae4aba40d60d364"),
    "eval-cyl2-hausdorff": (0, "01fe37960fea789bd309b07af6d645389fe5cb3e94cfccc3bb8fa3a4e04f2b65"),
    "eval-diamond-borel": (0, "0386591377cca921974e80591b2bef3e8bae5b5b319bff36924ce7064131386e"),
    "eval-diamond-diff": (0, "1b92c0be1a96121f8a535533e82f7f9e1cbc9955309166a3182ab60c3bf160c9"),
    "eval-diamond-hausdorff": (0, "bb860109f26303deb1a4611484223611ecfa2258e7b5b3579d5492482b5e73d4"),
    "eval-pn-borel": (0, "647b2c5bb9328d754308f934651b1d0e97b183b02559b5ec908d7df4fe360b05"),
    "eval-pn-diff": (0, "b4276b3097eff1703b9dc090b8a3a621b41874043ca24b20f3eb228bdc88fa95"),
    "eval-pn-hausdorff": (0, "5fb79d7cfae80320eb6e64ff7acd2eae16d89f564280666c663c2ecf79bc3244"),
    "gen-model": (0, "0398a43f3af53ce58834a608dcd719367f439461ebcabdef2b35654e7b618e8e"),
    "gen-model-large": (0, "21b34fe912c3f3b7b2444c374b8bff0c14d476d638e6e7926d5d9d20368a1631"),
    "play-cyl2-deepening-bm": (0, "e3f58c7277de0cf1342b167aa686c51f285dd6a533174357b422cac30afb00b5"),
    "play-cyl2-deepening-choquet": (0, "0165f46a27c411d290d1338f5b99b8edbbecc203c2e21c13963c0474fecbad1e"),
    "play-cyl2-first": (0, "350b854b81d00b4544defd6a6e183821eb983a193083d4ea20c6d919bffe092e"),
    "play-cyl2-random-bm": (0, "41c30089e0823230bdf7e60b72be56bebb77196add8fe2cffacb32fb7bca5107"),
    "play-cyl2-random-choquet": (0, "c4bb198649cea0b4743b193ff1d871319e1f8dcad950abd4ff9fef353c0fe309"),
    "play-cyl3-deepening-bm": (0, "091c8a20062f38335368760fa1b6efd4385ff9a5078c50f3dfc87a38b98da3d1"),
    "play-cyl3-deepening-choquet": (0, "18c9e19dc8755a9656488cd39cbd6b0ca8f41877462f1208d6e76539c2084977"),
    "play-cyl3-first-bm": (0, "df243574524336fbb633d7179d34c13b18bb9628e98cf76fedd178dad70fed61"),
    "play-cyl3-random-bm": (0, "d496b93de0678a1b991c4d3ca9ee11bcc491ae9d39aa1445b2de4f431a16e460"),
    "play-cyl3-random-choquet": (0, "0675e6a10a692890d49d812d4193a57f075427b4a37ecf38d5ea167bc18f9c79"),
    "play-diamond-deepening-bm": (0, "358f0d67189976c22ad672812e1cba3ecab402cb6c46da70c5c8e4a253969c32"),
    "play-diamond-deepening-choquet": (0, "1e2fd8594897633e949444db294edc85050353bf2bcb4e0b5e3f6aa3a4f89078"),
    "play-diamond-first": (0, "c1b9484bb9a472fd7806c28374772c59cc86600c107e42c1464cff3fe31be42b"),
    "play-diamond-random-bm": (0, "89bccfab740dd09a7af3b14be55686a607c0c215704d26fbf6a083a7c26f2211"),
    "play-diamond-random-choquet": (0, "ead0d5bc5f0cb15cfc072ae77b5860c814e7790593a62b0a3a4652acac1b3dfe"),
}


@pytest.mark.parametrize("case", sorted(SURFACE_DIGESTS))
def test_model_surface_reports_match_golden_digests(capsys, case):
    code = main(list(SURFACE_ARGV[case]))
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == SURFACE_DIGESTS[case]


# -- audit and gen -------------------------------------------------------------


def test_audit_is_clean_and_counts(capsys):
    code, rep = run_cli(capsys, "audit", "--exhaustive", "3")
    assert code == 0
    out = rep["outputs"]
    assert out["violations"] == 0
    assert (out["posets"], out["sets_checked"]) == (8, 50)
    assert not out["classifier_disagreements"]
    assert not out["ambiguity_violations"]
    # Clopen pieces of disconnected posets break the identity below a
    # missing least element; recorded, but not defects.
    assert out["no_least_element_inequalities"]


@pytest.mark.parametrize("size", ["0", "7"])
def test_audit_rejects_sizes_outside_the_limit(capsys, monkeypatch, size):
    def refuse(k):
        raise AssertionError("enumerated posets on %d points" % k)

    monkeypatch.setattr(hierkit.cli, "all_posets_upto_iso", refuse)
    code, rep = run_cli(capsys, "audit", "--exhaustive", size)
    assert code == 1
    assert rep["error"]["kind"] == "validation"
    assert "between 1 and 6" in rep["error"]["message"]


# SHA-256 of the stdout of `hier audit --exhaustive N` and of `hier
# classify --method all` on seeded random posets.  The 4, 5 and classify
# digests were recorded while opens and canon still scanned every mask
# and permutation; the 6 digest while the audit still found its classes
# by scanning every labeled poset, which met each class first in its
# least labeling.  The (12, 1) and (16, 2) classify digests were
# re-recorded when each witness became one longest alternating chain in
# place of every chain below its root; the other classify witnesses
# were chains already.  The classify cases are (n, seed, edge_prob): the
# poset is random_poset(n, rng, edge_prob) and the set takes each point
# with probability 1/2, both from random.Random(seed).
AUDIT_DIGESTS = {
    4: "632b7fb1ceaf28ad3a7331c070dce960d9c354f5d718bd1bd97b39cd21e1b06f",
    5: "fb820574c29debbf8b0c0cdd4b0e852a7ee17ec6534d6cc9b1fe7c4d94d11ec0",
    6: "6aae9a11b0f9a634c9eaabbaf1e7b1deafe1136b1d8fda1e182d2f418306c671",
}
CLASSIFY_DIGESTS = {
    (8, 0, 0.35): "1d2093f6db3c6e66c7ddf8e9f7c8e627bf5f30316a327fcbc1e5326b8908a1ee",
    (12, 1, 0.35): "1b10b543cbbdf59465d0bf08dd07bf0b1c7c7015208b492ba74c2707ee3b43dd",
    (16, 2, 0.35): "17c80cdf9673e4e43d6476900a4b09f7f1b76f95570ef00b8e6db97a572ce55f",
    (12, 3, 0.1): "e849d339ed2ccde4dd38e19692692ac49a9d83313e6e02b77e667e606d1723b1",
    (16, 4, 0.1): "d61e0edffc46cc97290f25fcbd16592a51cfe3460220b3a2386bf8ecc0683037",
    (16, 5, 0.1): "55bc05b1bb4b8c30f849f67fb7bcc497b05b9924cfba9da5632dbd290e1009ea",
}


@pytest.mark.parametrize("n", sorted(AUDIT_DIGESTS))
def test_audit_reports_match_golden_digests(capsys, n):
    assert main(["audit", "--exhaustive", str(n)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == AUDIT_DIGESTS[n]


@pytest.mark.parametrize("n, seed, edge_prob", sorted(CLASSIFY_DIGESTS))
def test_classify_reports_match_golden_digests(capsys, n, seed, edge_prob):
    assert main(_classify_argv(n, seed, edge_prob)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_DIGESTS[n, seed, edge_prob]


def _classify_argv(n, seed, edge_prob):
    rng = random.Random(seed)
    poset = random_poset(n, rng, edge_prob)
    members = ",".join(str(v) for v in range(n) if rng.random() < 0.5)
    return ["classify", "--poset", json.dumps(poset.to_json()), "--set", members, "--method", "all"]


def test_cached_parser_survives_a_usage_error(capsys):
    hierkit.cli._build_parser.cache_clear()
    code, rep = run_cli(capsys, "classify", "--poset", CHAIN3)  # --set is missing
    assert code == 1
    assert rep["error"] == {
        "kind": "validation",
        "message": "hier classify: the following arguments are required: --set",
    }
    golden = [
        (_classify_argv(16, 2, 0.35), (0, CLASSIFY_DIGESTS[16, 2, 0.35])),
        (
            ["play", "--model", PLAY_MODELS["pinf64"], "--rounds", "11", "--empty", "deepening",
             "--game", "bm", "--seed", "7"],
            (0, PLAY_DIGESTS["pinf64", 11, "deepening", "bm"]),
        ),
        (["transform", *TRANSFORM_ARGV["poset-rows"]], TRANSFORM_DIGESTS["poset-rows"]),
        (["transform", *TRANSFORM_ARGV["first-one-2-16"]], TRANSFORM_DIGESTS["first-one-2-16"]),
    ]
    for argv, want in golden:
        code = main(argv)
        out = capsys.readouterr().out
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == want, argv[0]
    info = hierkit.cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(golden))


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["play", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hier play")


def test_gen_posets_are_valid_and_seed_sensitive(capsys):
    code, rep = run_cli(capsys, "gen", "--n", "6", "--count", "5", "--seed", "1")
    assert code == 0
    items = rep["outputs"]["items"]
    assert len(items) == 5
    for item in items:
        FinitePoset.from_cover(item["n"], [tuple(e) for e in item["cover"]])
    _, other = run_cli(capsys, "gen", "--n", "6", "--count", "5", "--seed", "2")
    assert other["outputs"]["items"] != items


def test_gen_models_parse(capsys):
    code, rep = run_cli(capsys, "gen", "--kind", "model", "--count", "6", "--seed", "3")
    assert code == 0
    for item in rep["outputs"]["items"]:
        model_from_json(item)


# -- report plumbing -----------------------------------------------------------


def test_reports_are_byte_identical_across_runs_and_sinks(tmp_path, capsys):
    argv = ["gen", "--kind", "poset", "--n", "5", "--count", "4", "--seed", "42"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    path = tmp_path / "report.json"
    assert main(argv + ["--json-out", str(path)]) == 0
    second = capsys.readouterr().out
    assert first == second == path.read_text()


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F))
    | st.text(st.characters(min_codepoint=0x80))
)


def _json_dicts(values):
    # one key type per dict coerces as json does; mixed key types make
    # both encoders fail in the sort
    return (
        st.dictionaries(st.text(), values)
        | st.dictionaries(st.integers(), values)
        | st.dictionaries(st.floats(allow_nan=True, allow_infinity=True), values)
        | st.dictionaries(st.booleans(), values)
        | st.dictionaries(st.none(), values)
        | st.dictionaries(st.one_of(st.text(), st.integers(), st.none()), values)
    )


_json_nests = st.recursive(
    _json_scalars,
    lambda values: st.lists(values) | st.lists(values).map(tuple) | _json_dicts(values),
    max_leaves=40,
)


def _outcome(encode, obj):
    try:
        return encode(obj)
    except (TypeError, ValueError) as e:
        return type(e), str(e)


@settings(max_examples=400, deadline=None)
@given(_json_nests)
def test_report_text_is_json_dumps_byte_for_byte(obj):
    want = _outcome(lambda o: json.dumps(o, sort_keys=True, indent=2), obj)
    assert _outcome(hierkit.cli._report_text, obj) == want


def test_report_text_keeps_the_integer_digit_limit():
    # an index past 4,300 digits still fails the way json fails; the
    # deepest cylinder plays depend on it (see ROADMAP)
    for obj in (10**4400, {"index": [1, -(10**4400)]}):
        with pytest.raises(ValueError, match="4300"):
            json.dumps(obj, sort_keys=True, indent=2)
        with pytest.raises(ValueError, match="4300"):
            hierkit.cli._report_text(obj)


def test_no_indented_json_dumps_in_the_sources():
    # indent= sends json to its pure-Python encoder; reports go through
    # cli._report_text instead
    found = []
    for path in sorted(pathlib.Path(hierkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("dump", "dumps")
                and any(k.arg == "indent" for k in node.keywords)
            ):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_input_decoding_stays_in_the_decoder():
    # jsonin alone decides integer types, cli._arg_json alone parses JSON
    # text, and no handler turns an unchecked shape's TypeError into a
    # validation error
    found = []
    for path in sorted(pathlib.Path(hierkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        parser = [f for f in ast.walk(tree) if getattr(f, "name", None) == "_arg_json"]
        allowed = set(ast.walk(parser[0])) if path.name == "cli.py" and parser else set()
        for node in ast.walk(tree):
            where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
            if (
                path.name != "jsonin.py"
                and isinstance(node, ast.Compare)
                and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                and isinstance(node.left, ast.Call)
                and getattr(node.left.func, "id", None) == "type"
                and getattr(node.comparators[0], "id", None) == "int"
            ):
                found.append(where + " type(...) is int")
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "loads"
                and node not in allowed
            ):
                found.append(where + " json.loads")
            if isinstance(node, ast.ExceptHandler) and node.type is not None and any(
                getattr(n, "id", None) == "TypeError" for n in ast.walk(node.type)
            ):
                found.append(where + " except TypeError")
    assert found == []


def test_methods_the_bench_tracer_wraps_exist():
    # bench/spans.py wraps these by name for `bench/run.py --trace 1`,
    # whose own tests take minutes; a rename would break it silently
    spans = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    methods = next(
        ast.literal_eval(node.value)
        for node in ast.parse(spans.read_text()).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "METHODS"
    )
    missing = []
    for module, cls, method in methods:
        owner = importlib.import_module("hierkit." + module)
        if cls is not None:
            owner = vars(owner).get(cls)
        if owner is None or method not in vars(owner):
            missing.append((module, cls, method))
    assert methods and missing == []


def test_console_entry_point_separates_report_from_timing():
    # the child finds hierkit where this process found it, also when only
    # pytest's pythonpath setting put it there
    src = str(pathlib.Path(hierkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "hierkit.cli", "classify", "--poset", CHAIN3, "--set", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["outputs"]["sigma"] == 2
    assert "hier classify" in proc.stderr


# -- inputs outside the model ----------------------------------------------------

CHAIN2 = '{"kind": "poset", "poset": {"n": 2, "cover": [[0, 1]]}}'
REFUSED_ARGV = {
    # a negative index has infinitely many bits: these ran forever
    "cylinder-first-negative": ("play", "--first", "-1"),
    "pinf-first-negative": ("play", "--model", '{"kind": "pinf"}', "--first", "-1"),
    "cylinder-dense-negative": ("baire", "--dense", '[{"u": [-2]}]'),
    "cylinder-borel-leaf-negative": (
        "eval-code", "--borel", '{"nodes": [[], [-1]]}', "--point", '{"prefix": [0]}',
    ),
    # a 2-chain has 2 points and 3 opens
    "poset-point-outside": ("eval-code", "--model", CHAIN2, "--point", "7", "--borel", '{"nodes": [[]]}'),
    "poset-point-bool": ("eval-code", "--model", CHAIN2, "--point", "true", "--borel", '{"nodes": [[]]}'),
    "poset-first-negative": ("play", "--model", CHAIN2, "--first", "-1"),
    "poset-first-outside": ("play", "--model", CHAIN2, "--first", "99"),
    "poset-dense-outside": ("baire", "--model", CHAIN2, "--dense", '[{"u": [5]}]'),
    "poset-target-outside": ("baire", "--model", CHAIN2, "--dense", '[{"u": [1]}]', "--target", "3"),
    "poset-diff-handle-outside": (
        "eval-code", "--model", CHAIN2, "--point", "1", "--diff", '{"alpha": 2, "entries": [[0, 3]]}',
    ),
    # transform needs a basis closed under finite unions
    **{
        "transform-on-%s" % name: ("transform", "--model", model, "--presentation", '{"kind": "empty"}')
        for name, model in (
            ("pn", PN),
            ("pinf", '{"kind": "pinf", "bound": 16}'),
            ("clauses", PLAY_MODELS["clauses"]),
        )
    },
    "first-one-on-poset": ("transform", "--model", CHAIN2, "--presentation", FIRST_ONE),
    # basis indices inside codes and presentations: 7 and 9 raised
    # IndexError, and -1 read the whole carrier and exited 0
    "poset-borel-leaf-outside": (
        "eval-code", "--model", CHAIN2, "--point", "1", "--borel", '{"nodes": [[], [7]]}',
    ),
    "poset-hausdorff-leaf-negative": (
        "eval-code", "--model", CHAIN2, "--point", "1", "--hausdorff",
        '{"order": [0], "parity_set": [0], "trees": [{"nodes": [[], [-1]]}]}',
    ),
    "poset-clopen-inside-outside": (
        "transform", "--model", CHAIN2, "--presentation", '{"kind": "clopen", "inside": 9, "outside": 0}',
    ),
    "poset-rows-entry-negative": (
        "transform", "--model", CHAIN2,
        "--presentation", '{"kind": "rows", "rows1": [[-1]], "rows0": [[1]]}',
    ),
    # malformed --points ended in a TypeError traceback
    "transform-point-not-an-object": (
        "transform", "--presentation", FIRST_ONE, "--budget", "4", "--points", "[1]",
    ),
    "transform-point-prefix-not-a-list": (
        "transform", "--presentation", FIRST_ONE, "--budget", "4",
        "--points", '[{"prefix": 1, "cycle": [0]}]',
    ),
    # letters outside the alphabet were evaluated as if in the space
    "cylinder-point-letter-outside": (
        "eval-code", "--point", '{"prefix": [5]}', "--borel", '{"nodes": [[], [2]]}',
    ),
    "cylinder-point-letter-bool": (
        "eval-code", "--point", '{"prefix": [true]}', "--borel", '{"nodes": [[], [2]]}',
    ),
    "cylinder-point-cycle-letter-string": (
        "eval-code", "--point", '{"prefix": [0], "cycle": ["1"]}', "--borel", '{"nodes": [[], [2]]}',
    ),
    "transform-point-letter-outside": (
        "transform", "--presentation", FIRST_ONE, "--budget", "4", "--points", '[{"prefix": [5]}]',
    ),
    # a cap below the start budget was ignored: budget 16 was run anyway
    "transform-max-budget-below-budget": (
        "transform", "--presentation", FIRST_ONE, "--budget", "16", "--max-budget", "4",
        "--points", '[{"prefix": [1]}]',
    ),
    # wrongly typed codes and presentations ended in a TypeError traceback
    "borel-nodes-not-a-list": (
        "eval-code", "--point", '{"prefix": [0]}', "--borel", '{"nodes": 5}',
    ),
    "borel-leaf-string": (
        "eval-code", "--point", '{"prefix": [0]}', "--borel", '{"nodes": [[], ["a"]]}',
    ),
    "hausdorff-order-mixed-types": (
        "eval-code", "--point", '{"prefix": [0]}', "--hausdorff",
        '{"order": ["a", 0], "parity_set": [], "trees": [{"nodes": [[]]}, {"nodes": [[]]}]}',
    ),
    "rows-entry-string": (
        "transform", "--model", CHAIN2,
        "--presentation", '{"kind": "rows", "rows1": [["a"]], "rows0": [[1]]}',
    ),
    "rows-row-string": (
        "transform", "--model", CHAIN2,
        "--presentation", '{"kind": "rows", "rows1": ["a"], "rows0": [[1]]}',
    ),
    "presentation-not-an-object": ("transform", "--presentation", "[1]"),
    # int() turned a float or a bool into another index or rank and exited 0
    "diff-handle-float": (
        "eval-code", "--point", '{"prefix": [1]}', "--diff", '{"alpha": 1, "entries": [[0, 4.9]]}',
    ),
    "diff-handle-bool": (
        "eval-code", "--point", '{"prefix": [1]}', "--diff", '{"alpha": 1, "entries": [[0, true]]}',
    ),
    "dense-index-float": ("baire", "--dense", '[{"u": [2.9], "f": []}]'),
    "diff-rank-float": (
        "eval-code", "--point", '{"prefix": [1]}', "--diff", '{"alpha": 2, "entries": [[1.0, 4]]}',
    ),
    "diff-rank-bool": (
        "eval-code", "--point", '{"prefix": [1]}', "--diff", '{"alpha": 2, "entries": [[true, 4]]}',
    ),
    "diff-alpha-float": (
        "eval-code", "--point", '{"prefix": [1]}', "--diff", '{"alpha": 2.5, "entries": [[1, 4]]}',
    ),
    # iterating a non-list ended in a TypeError traceback
    "dense-not-a-list": ("baire", "--dense", "5"),
    "dense-u-not-a-list": ("baire", "--dense", '[{"u": 5}]'),
    # int() and tuple unpacking read a float size or a bool endpoint as a
    # poset and exited 0
    "poset-size-float": ("classify", "--poset", '{"n": 3.7, "cover": [[0, 1]]}', "--set", "1"),
    "poset-edge-bool": ("classify", "--poset", '{"n": 3, "cover": [[true, 2]]}', "--set", "1"),
    "poset-model-edge-bool": (
        "play", "--model", '{"kind": "poset", "poset": {"n": 2, "cover": [[true, 0]]}}',
    ),
    # argparse usage errors printed usage and exited 2, the budget status
    "usage-first-float": ("play", "--first", "4.9"),
    # size-like options have declared ranges: a negative budget ended in a
    # density verdict, negative rounds and counts exited 0, and the huge
    # values ran for hours or raised OverflowError
    "baire-budget-negative": ("baire", "--dense", '[{"u": [2]}]', "--budget", "-5"),
    "play-rounds-negative": ("play", "--rounds", "-1"),
    "gen-count-negative": ("gen", "--count", "-3"),
    "play-rounds-huge": ("play", "--rounds", "100000000"),
    "transform-budget-huge": ("transform", "--presentation", FIRST_ONE, "--budget", str(2**80)),
    "gen-n-huge": ("gen", "--n", str(2**80)),
    # so do size-like fields: this poset size raised MemoryError
    "poset-size-huge": ("classify", "--poset", '{"n": %d, "cover": []}' % 2**80, "--set", "1"),
    # a poset model has at least 2 points: 0 raised "empty range for
    # randrange()" and 1 emitted 2-point posets
    "gen-model-n-0": ("gen", "--kind", "model", "--n", "0"),
    "gen-model-n-1": ("gen", "--kind", "model", "--n", "1"),
    # wrongly typed fields were read as other values (exit 0) or raised TypeError
    **{
        "pinf-bound-%s" % name: ("play", "--model", '{"kind": "pinf", "bound": %s}' % bound)
        for name, bound in (("float", "16.5"), ("bool", "true"), ("string", '"16"'), ("null", "null"))
    },
    "clauses-alpha-string": (
        "play", "--model", '{"kind": "clauses", "rows": [{"alpha": ["0"], "witnesses": [[1]]}]}',
    ),
    **{
        "pn-point-%s" % name: (
            "eval-code", "--model", PN, "--point", point, "--borel", '{"nodes": [[], [2]]}',
        )
        for name, point in (
            ("core-float", '{"core": [1.5]}'),
            ("core-bool", '{"core": [true]}'),
            ("cofinite-float", '{"core": [1], "cofinite_from": 2.5}'),
            # a core is a bitmask now: 2**80 was accepted and held as a set
            ("core-huge", '{"core": [%d]}' % 2**80),
            ("core-above-limit", '{"core": [65536]}'),
        )
    },
    "hausdorff-order-float": (
        "eval-code", "--point", '{"prefix": [0]}', "--hausdorff",
        '{"order": [0.0], "parity_set": [0], "trees": [{"nodes": [[]]}]}',
    ),
    # JSON text is parsed once: a JSON string holding JSON was parsed again
    "poset-point-json-string": (
        "eval-code", "--model", CHAIN2, "--point", '"1"', "--borel", '{"nodes": [[]]}',
    ),
    "model-json-string": ("play", "--model", json.dumps(PN)),
    # an undeclared field (here a pinf bound on a pn model) was ignored
    "model-undeclared-field": ("play", "--model", '{"kind": "pn", "bound": 16}'),
}


# what each refusal's message must say: the refused field or option and,
# where one message serves many fields, the value.  An internal error
# that leaks out as a ValueError ("empty range for randrange()" on
# gen-model-n-0) is a validation error too, but says none of this.
REFUSED_MESSAGES = {
    "baire-budget-negative": "argument --budget: value must be between 1 and 20000, got -5",
    "borel-leaf-string": "bad borel code: node label must be an integer, got 'a'",
    "borel-nodes-not-a-list": "bad borel code: nodes must be a list",
    "clauses-alpha-string": "bad model: clause element must be an integer, got '0'",
    "cylinder-borel-leaf-negative": "bad borel code: node label must be at least 0, got -1",
    "cylinder-dense-negative": "bad dense: basis index must be at least 0, got -2",
    "cylinder-first-negative": "basis index must be at least 0, got -1",
    "cylinder-point-cycle-letter-string": "bad point: letter must be an integer, got '1'",
    "cylinder-point-letter-bool": "bad point: letter must be an integer, got True",
    "cylinder-point-letter-outside": "bad point: letter must be between 0 and 1, got 5",
    "dense-index-float": "bad dense: basis index must be an integer, got 2.9",
    "dense-not-a-list": "bad dense: dense constraints must be a list",
    "dense-u-not-a-list": "bad dense: u or f must be a list",
    "diff-alpha-float": "bad diff code: alpha must be an integer, got 2.5",
    "diff-handle-bool": "bad diff code: basis index must be an integer, got True",
    "diff-handle-float": "bad diff code: basis index must be an integer, got 4.9",
    "diff-rank-bool": "bad diff code: rank must be an integer, got True",
    "diff-rank-float": "bad diff code: rank must be an integer, got 1.0",
    "first-one-on-poset": "bad presentation: the first-one presentation lives on a cylinder model",
    "gen-count-negative": "argument --count: value must be between 0 and 1000, got -3",
    "gen-model-n-0": "--n with --kind model must be between 2 and 20, got 0",
    "gen-model-n-1": "--n with --kind model must be between 2 and 20, got 1",
    "gen-n-huge": "argument --n: value must be between 0 and 20",
    "hausdorff-order-float": "bad hausdorff code: order element must be an integer, got 0.0",
    "hausdorff-order-mixed-types": "bad hausdorff code: order element must be an integer, got 'a'",
    "model-json-string": "bad model: unknown model kind",
    "model-undeclared-field": "bad model: pn model has no field 'bound'",
    "pinf-bound-bool": "bad model: bound must be an integer, got True",
    "pinf-bound-float": "bad model: bound must be an integer, got 16.5",
    "pinf-bound-null": "bad model: bound must be an integer, got None",
    "pinf-bound-string": "bad model: bound must be an integer, got '16'",
    "pinf-first-negative": "basis index must be at least 0, got -1",
    "play-rounds-huge": "argument --rounds: value must be between 0 and 1000, got 100000000",
    "play-rounds-negative": "argument --rounds: value must be between 0 and 1000, got -1",
    "pn-point-cofinite-float": "bad point: cofinite_from must be an integer, got 2.5",
    "pn-point-core-above-limit": "bad point: element must be between 0 and 65535, got 65536",
    "pn-point-core-bool": "bad point: element must be an integer, got True",
    "pn-point-core-float": "bad point: element must be an integer, got 1.5",
    "pn-point-core-huge": "bad point: element must be between 0 and 65535, got %d" % 2**80,
    "poset-borel-leaf-outside": "bad borel code: basis index must be between 0 and 2, got 7",
    "poset-clopen-inside-outside": "bad presentation: basis index must be between 0 and 2, got 9",
    "poset-dense-outside": "bad dense: basis index must be between 0 and 2, got 5",
    "poset-diff-handle-outside": "bad diff code: basis index must be between 0 and 2, got 3",
    "poset-edge-bool": "bad poset: cover pair endpoint must be an integer, got True",
    "poset-first-negative": "basis index must be between 0 and 2, got -1",
    "poset-first-outside": "basis index must be between 0 and 2, got 99",
    "poset-hausdorff-leaf-negative": "bad hausdorff code: node label must be at least 0, got -1",
    "poset-model-edge-bool": "bad model: cover pair endpoint must be an integer, got True",
    "poset-point-bool": "bad point: point must be an integer, got True",
    "poset-point-json-string": "bad point: point must be an integer, got '1'",
    "poset-point-outside": "bad point: point must be between 0 and 1, got 7",
    "poset-rows-entry-negative": "bad presentation: basis index must be between 0 and 2, got -1",
    "poset-size-float": "bad poset: poset size must be an integer, got 3.7",
    "poset-size-huge": "bad poset: poset size must be between 0 and 20, got %d" % 2**80,
    "poset-target-outside": "basis index must be between 0 and 2, got 3",
    "presentation-not-an-object": "bad presentation: unknown presentation kind in [1]",
    "rows-entry-string": "bad presentation: basis index must be an integer, got 'a'",
    "rows-row-string": "bad presentation: row must be a list, got 'a'",
    "transform-budget-huge": "argument --budget: value must be between 1 and 1024",
    "transform-max-budget-below-budget": "--max-budget 4 is below --budget 16",
    "transform-on-clauses": "clauses cones are not closed under finite unions",
    "transform-on-pinf": "pinf cones are not closed under finite unions",
    "transform-on-pn": "pn cones are not closed under finite unions",
    "transform-point-letter-outside": "bad points: letter must be between 0 and 1, got 5",
    "transform-point-not-an-object": "bad points: point must be an object, got 1",
    "transform-point-prefix-not-a-list": "bad points: prefix must be a list, got 1",
    "usage-first-float": "argument --first: invalid int value: '4.9'",
}


def test_every_refusal_names_its_message():
    assert REFUSED_MESSAGES.keys() == REFUSED_ARGV.keys()


@pytest.mark.parametrize("case", sorted(REFUSED_ARGV))
def test_inputs_outside_the_model_are_validation_errors(capsys, case):
    code, rep = run_cli(capsys, *REFUSED_ARGV[case])
    assert code == 1
    # a refusal, not a verdict reached with the refused value
    assert list(rep) == ["error"]
    assert rep["error"]["kind"] == "validation"
    assert REFUSED_MESSAGES[case] in rep["error"]["message"]
