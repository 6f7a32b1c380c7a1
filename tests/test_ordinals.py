import pytest
from hypothesis import given, strategies as st

from hierkit.ordinals import OMEGA, ONE, ZERO, Ordinal, text

naturals = st.integers(0, 50)
ordinals = st.builds(Ordinal, naturals, naturals)


def test_basic_order():
    assert ZERO < ONE < Ordinal.from_int(2) < OMEGA < OMEGA + 1 < Ordinal(2, 0)
    assert Ordinal(2, 0) > Ordinal(1, 0) + 99


def test_parity():
    # limits and zero are even; parity of lambda + n is parity of n
    assert ZERO.parity() == 0
    assert Ordinal.from_int(7).parity() == 1
    assert OMEGA.parity() == 0
    assert (OMEGA + 1).parity() == 1
    assert (Ordinal(3, 0) + 4).parity() == 0


def test_addition_absorbs():
    # finite + omega = omega
    assert Ordinal.from_int(5) + OMEGA == OMEGA
    assert OMEGA + Ordinal.from_int(5) != OMEGA
    assert Ordinal(2, 0) + Ordinal(3, 0) == Ordinal(5, 0)


def test_pinned_text():
    # byte for byte what bench/oracle.py parses out of transform reports
    assert str(ZERO) == "0"
    assert str(Ordinal.from_int(5)) == "5"
    assert str(OMEGA) == "w"
    assert str(Ordinal(2, 0) + 3) == "w*2 + 3"


def test_finite_ordinals_are_their_ints():
    assert Ordinal.from_int(5) == 5 and hash(Ordinal.from_int(5)) == hash(5)
    assert ZERO == 0 and hash(ZERO) == hash(0)
    assert len({Ordinal.from_int(5), 5, ZERO, 0}) == 2
    assert Ordinal.from_int(5).as_int() == 5 and Ordinal.from_int(5).is_finite()
    assert not OMEGA.is_finite() and OMEGA != 0
    with pytest.raises(ValueError):
        OMEGA.as_int()


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        Ordinal(-1, 0)
    with pytest.raises(ValueError):
        Ordinal(0, -1)
    with pytest.raises(ValueError):
        Ordinal.from_int(-1)
    with pytest.raises(ValueError):
        OMEGA + -1


@given(ordinals, ordinals)
def test_order_is_lexicographic_and_total(x, y):
    assert (x < y) == ((x.a, x.b) < (y.a, y.b))
    assert (x == y) == ((x.a, x.b) == (y.a, y.b))
    assert (x < y) + (y < x) + (x == y) == 1


@given(ordinals, ordinals, ordinals)
def test_addition_associative(x, y, z):
    assert (x + y) + z == x + (y + z)


@given(ordinals, ordinals)
def test_addition_monotone_right(x, y):
    assert x + y >= x
    if y != ZERO:
        assert x + y > x


@given(ordinals)
def test_limit_plus_finite_decomposition(x):
    assert Ordinal(x.a) + x.b == x


@given(naturals, st.builds(Ordinal, st.integers(1, 50), naturals))
def test_finite_left_summand_is_absorbed(n, x):
    assert Ordinal.from_int(n) + x == x
    assert x + n == Ordinal(x.a, x.b + n)


@given(ordinals)
def test_parity_is_that_of_the_finite_part(x):
    assert x.parity() == x.b % 2


@given(ordinals)
def test_text_is_the_printed_form(x):
    assert str(x) == text(x.a, x.b)


@given(ordinals)
def test_equal_ordinals_hash_alike(x):
    assert hash(x) == hash(Ordinal(x.a, x.b))
    if x.is_finite():
        assert hash(x) == hash(x.b)
