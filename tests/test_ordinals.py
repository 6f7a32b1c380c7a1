import pytest
from hypothesis import given, strategies as st

from hierkit.ordinals import OMEGA, ZERO, Ordinal, parse_ordinal


def ordinals(max_exp=3, max_coeff=5):
    def build(pairs):
        pairs = sorted({e: c for e, c in pairs}.items(), reverse=True)
        return Ordinal(pairs)

    return st.lists(
        st.tuples(st.integers(0, max_exp), st.integers(1, max_coeff)), max_size=4
    ).map(build)


def test_basic_order():
    assert ZERO < Ordinal.from_int(1) < OMEGA < OMEGA + 1 < Ordinal.omega(1, 2)
    assert Ordinal.omega(2) > Ordinal.omega(1, 99) + 7


def test_parity():
    # limits and zero are even; parity of lambda + n is parity of n
    assert ZERO.parity() == 0
    assert Ordinal.from_int(7).parity() == 1
    assert OMEGA.parity() == 0
    assert (OMEGA + 1).parity() == 1
    assert (Ordinal.omega(2) + OMEGA + 4).parity() == 0


def test_addition_absorbs():
    # finite + omega = omega
    assert Ordinal.from_int(5) + OMEGA == OMEGA
    assert OMEGA + Ordinal.from_int(5) != OMEGA
    assert (OMEGA + 5).finite_part() == 5
    assert Ordinal.omega(1, 2) + Ordinal.omega(1, 3) == Ordinal.omega(1, 5)


def test_format_examples():
    assert str(Ordinal.omega(1, 2) + 3) == "w*2 + 3"
    assert str(Ordinal.omega(2) + OMEGA + 4) == "w^2 + w + 4"
    assert str(ZERO) == "0"
    assert parse_ordinal("w^2*3 + w + 1") == Ordinal([(2, 3), (1, 1), (0, 1)])


def test_bad_terms_rejected():
    with pytest.raises(ValueError):
        Ordinal([(1, 0)])
    with pytest.raises(ValueError):
        Ordinal([(1, 1), (1, 1)])
    with pytest.raises(ValueError):
        parse_ordinal("w^^2")


@given(ordinals())
def test_parse_roundtrip(a):
    assert parse_ordinal(str(a)) == a


@given(ordinals(), ordinals())
def test_addition_monotone_right(a, b):
    assert a + b >= a
    if not b.is_zero():
        assert a + b > a


@given(ordinals(), ordinals(), ordinals())
def test_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(ordinals(), ordinals())
def test_total_order(a, b):
    assert (a < b) + (b < a) + (a == b) == 1


def limit_part(a):
    """a without its finite part: the trailing omega^0 term dropped."""
    return Ordinal(a.terms[:-1]) if a.terms and a.terms[-1][0] == 0 else a


@given(ordinals())
def test_limit_plus_finite_decomposition(a):
    lam = limit_part(a)
    assert lam + a.finite_part() == a
    assert lam.is_zero() or lam.terms[-1][0] != 0  # a limit
