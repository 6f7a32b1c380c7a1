"""Game-engine tests.

The documented single-move oracles come first (hand-run least
searches), then the strategy/relation round-trips on finite carriers,
then bounded plays across every shipped model with the no-loss
contract.
"""

import random

import pytest

from hierkit.finite_space import FinitePoset, all_posets_upto_iso, bits, mask_of
from hierkit.games import (
    BANACH_MAZUR,
    CHOQUET,
    EMPTY_WINS,
    NONEMPTY_WINS,
    UNDECIDED,
    BMFromChoquet,
    DeepeningEmpty,
    RandomEmpty,
    StationaryStrategy,
    Transcript,
    audit_convergence,
    identity_refinement,
    play,
    relation_from_strategy,
    stationary_from_relation,
)
from hierkit.space_models import (
    CylinderModel,
    FinitePosetModel,
    SetPoint,
    pinf_model,
    pn_model,
)


def chain3_model():
    return FinitePosetModel(FinitePoset.from_cover(3, [(0, 1), (1, 2)]))


# -- single-move oracles -----------------------------------------------------


def test_three_chain_respond_picks_principal_upset():
    fm = chain3_model()
    s = stationary_from_relation(fm)
    v = s.respond(1, (fm.index_of(0b111),))
    assert fm.opens[v] == 0b110


def test_pinf_respond_grows_the_max():
    m = pinf_model()
    s = stationary_from_relation(m)
    x = SetPoint(mask_of({0}), cofinite_from=1)
    b = s.respond(x, (mask_of({0}),))
    d = set(bits(b))
    assert 0 in d and max(d) > 0 and m.point_in_basic(x, b)


def test_respond_outside_the_open_is_an_error():
    fm = chain3_model()
    s = stationary_from_relation(fm)
    with pytest.raises(ValueError):
        s.respond(0, (fm.index_of(0b100),))


# -- strategy <-> relation ---------------------------------------------------


def _conditions_exhaustive(model, rel):
    """Def-style conditions for an explicit pair set on a finite
    carrier.  Condition (4) reduces to nonempty right-hand sides there:
    a decreasing chain of nonempty opens in a finite lattice
    stabilizes."""
    idx = list(model.candidate_indices(model.whole_index() + 1))
    pairs = set(rel)
    for b, c in pairs:
        assert model.basic_subset(c, b), "condition (1)"
        assert model.basic_nonempty(c), "condition (4) via nonempty"
    for b, c in pairs:
        for t in idx:
            if model.basic_subset(b, t):
                assert (t, c) in pairs, "condition (2)"
    for i in idx:
        if not model.basic_nonempty(i):
            continue
        for x in model.points():
            if not model.point_in_basic(x, i):
                continue
            assert any(
                (i, w) in pairs and model.point_in_basic(x, w) for w in idx
            ), "condition (3)"


def test_identity_strategy_reads_back_as_approx_relation():
    fm = chain3_model()
    rel = relation_from_strategy(identity_refinement(fm), fm)
    _conditions_exhaustive(fm, rel)


def test_echo_strategy_reads_back_as_approx_relation():
    fm = chain3_model()
    echo = StationaryStrategy(lambda x, u: u[0])
    rel = relation_from_strategy(echo, fm)
    _conditions_exhaustive(fm, rel)


def test_one_point_poset_relates_to_itself():
    fm = FinitePosetModel(FinitePoset.from_cover(1, []))
    rel = relation_from_strategy(identity_refinement(fm), fm)
    whole = fm.index_of(0b1)
    assert (whole, whole) in rel


def test_roundtrip_relation_satisfies_conditions():
    for p in all_posets_upto_iso(3):
        fm = FinitePosetModel(p)
        rel = relation_from_strategy(stationary_from_relation(fm), fm)
        _conditions_exhaustive(fm, rel)


def test_three_chain_roundtrip_reads_back_ll_with_the_whole_space():
    # the reading runs over every index up to the whole space's; a
    # shorter candidate list drops (whole, whole)
    fm = chain3_model()
    rel = relation_from_strategy(stationary_from_relation(fm), fm)
    whole = fm.whole_index()
    assert (whole, whole) in rel
    assert sorted((fm.opens[b], fm.opens[c]) for b, c in rel) == [
        (0b100, 0b100), (0b110, 0b100), (0b110, 0b110),
        (0b111, 0b100), (0b111, 0b110), (0b111, 0b111),
    ]


def test_relation_reading_requires_finite_carrier():
    with pytest.raises(TypeError):
        relation_from_strategy(identity_refinement(pn_model()), pn_model())


# -- bounded plays -----------------------------------------------------------


def test_finite_play_wins_with_witness():
    fm = chain3_model()
    s = stationary_from_relation(fm)
    t = play(fm, RandomEmpty(fm, random.Random(3)), s, rounds=10)
    assert t.outcome == NONEMPTY_WINS
    assert all(fm.point_in_basic(t.witness, v) for v in t.opens_played())


def test_pinf_deepening_play_certifies_union_point():
    m = pinf_model()
    s = stationary_from_relation(m)
    t = play(m, DeepeningEmpty(m, random.Random(5)), s, rounds=10)
    assert t.outcome == NONEMPTY_WINS
    last = t.opens_played()[-1]
    assert t.witness.includes(last)


def test_cylinder_play_certifies_limit_word():
    m = CylinderModel(2)
    s = stationary_from_relation(m)
    t = play(m, DeepeningEmpty(m, random.Random(9)), s, rounds=12)
    assert t.outcome == NONEMPTY_WINS
    assert all(m.point_in_basic(t.witness, v) for v in t.opens_played())


def test_never_loses_on_shipped_models():
    models = [
        chain3_model(),
        FinitePosetModel(FinitePoset.from_cover(4, [(0, 1), (1, 2), (1, 3)])),
        pinf_model(),
        pn_model(),
        CylinderModel(2),
    ]
    for m in models:
        s = stationary_from_relation(m)
        for seed in range(8):
            for empty_cls in (RandomEmpty, DeepeningEmpty):
                t = play(m, empty_cls(m, random.Random(seed)), s, rounds=10)
                assert t.outcome != EMPTY_WINS, (m.kind, seed, t.reason)
                assert t.outcome == NONEMPTY_WINS


def test_nonempty_forfeits_on_illegal_response():
    fm = chain3_model()
    cheat = StationaryStrategy(lambda x, u: fm.index_of(0b111))
    t = play(
        fm,
        DeepeningEmpty(fm, random.Random(4), first=fm.index_of(0b100)),
        cheat,
        rounds=4,
    )
    assert t.outcome == EMPTY_WINS and "forfeit" in t.reason


def test_empty_forfeits_on_escaping_move():
    fm = chain3_model()

    class Escaper:
        def __init__(self):
            self.n = 0

        def move(self, v_prev):
            self.n += 1
            if self.n == 1:
                return 2, (fm.index_of(0b100),)
            return 0, (fm.index_of(0b111),)  # not inside Nonempty's last open

    t = play(fm, Escaper(), stationary_from_relation(fm), rounds=4)
    assert t.outcome == NONEMPTY_WINS and "forfeit" in t.reason


def test_choquet_move_without_a_point_is_empty_forfeit():
    fm = chain3_model()

    class Pointless:
        def move(self, v_prev):
            return None, (fm.index_of(0b111),)

    t = play(fm, Pointless(), stationary_from_relation(fm), rounds=4)
    assert (t.outcome, t.reason, t.rounds) == (NONEMPTY_WINS, "empty forfeits: illegal move", [])
    bm = BMFromChoquet(stationary_from_relation(fm), fm)
    t = play(fm, Pointless(), bm, rounds=4, game=BANACH_MAZUR)
    assert t.outcome == NONEMPTY_WINS and t.reason == "finite stabilization"


def test_undecided_without_certificate():
    m = pinf_model()

    class Stubborn:
        def move(self, v_prev):
            u = mask_of({0}) if v_prev is None else v_prev
            return m.some_point_in(u), (u,)

    t = play(m, Stubborn(), identity_refinement(m), rounds=5)
    assert t.outcome == UNDECIDED
    assert t.witness is None


def test_zero_round_play_is_undecided():
    fm = chain3_model()
    t = play(fm, RandomEmpty(fm, random.Random(0)), stationary_from_relation(fm), rounds=0)
    assert t.outcome == UNDECIDED


# -- the point-free variant --------------------------------------------------


def test_bm_adapter_never_loses_on_finite_carriers():
    for p in all_posets_upto_iso(3):
        if p.n == 0:
            continue
        fm = FinitePosetModel(p)
        bm = BMFromChoquet(stationary_from_relation(fm), fm)
        for seed in range(4):
            t = play(
                fm, RandomEmpty(fm, random.Random(seed)), bm, rounds=8, game=BANACH_MAZUR
            )
            assert t.outcome == NONEMPTY_WINS
            assert all(x is None for x, _, _ in t.rounds)


def test_bm_adapter_on_cylinder():
    m = CylinderModel(2)
    bm = BMFromChoquet(stationary_from_relation(m), m)
    t = play(m, DeepeningEmpty(m, random.Random(1)), bm, rounds=8, game=BANACH_MAZUR)
    assert t.outcome == NONEMPTY_WINS


# -- bookkeeping -------------------------------------------------------------


def test_transcript_serialization():
    m = CylinderModel(2)
    s = stationary_from_relation(m)
    t = play(m, DeepeningEmpty(m, random.Random(2)), s, rounds=4)
    data = t.to_json(m)
    assert data["game"] == CHOQUET
    assert data["outcome"] == NONEMPTY_WINS
    assert len(data["rounds"]) == 4
    assert data["rounds"][0]["empty"]["point"]["prefix"] is not None
    assert data["witness"]["cycle"] == [0]


def test_convergence_audit_on_deepening_play():
    m = CylinderModel(2)
    s = stationary_from_relation(m)
    t = play(m, DeepeningEmpty(m, random.Random(7)), s, rounds=10)
    assert t.outcome == NONEMPTY_WINS
    nbhds = [m.singleton(t.witness.word(d)) for d in range(4)]
    assert audit_convergence(m, t, nbhds) == []


def test_convergence_audit_reports_missing():
    fm = chain3_model()
    t = Transcript(game=CHOQUET, rounds=[(2, (fm.index_of(0b111),), fm.index_of(0b111))])
    t.outcome, t.witness = NONEMPTY_WINS, 2
    assert audit_convergence(fm, t, [fm.index_of(0b100)]) == [fm.index_of(0b100)]


def test_convergence_audit_skips_neighborhoods_off_the_witness():
    m = CylinderModel(2)
    s = stationary_from_relation(m)
    t = play(m, DeepeningEmpty(m, random.Random(7)), s, rounds=10)
    assert t.outcome == NONEMPTY_WINS
    # a cylinder that misses the witness: no played open, each holding
    # the witness, lies inside it, yet it is not the witness's to refine
    a, b = t.witness.word(2)
    off = m.singleton((a, 1 - b))
    assert not m.point_in_basic(t.witness, off)
    assert not any(m.basic_subset(v, off) for v in t.opens_played())
    on = m.singleton(t.witness.word(4))
    assert audit_convergence(m, t, [off, on]) == []
    # a transcript without a witness has nothing to audit
    fm = chain3_model()
    bare = Transcript(game=CHOQUET, rounds=[(2, (fm.index_of(0b111),), fm.index_of(0b111))])
    assert bare.witness is None
    assert audit_convergence(fm, bare, [fm.index_of(0b100), fm.index_of(0b110)]) == []
