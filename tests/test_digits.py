import pytest
from hypothesis import given, strategies as st

from asymauto import INT_LIMIT, RangeError, Word, concat, expand, expand_padded, value


def test_expand_examples():
    assert expand(0, 2).digits == ()
    assert str(expand(0, 2)) == "ε"
    assert str(expand(123, 2)) == "1111011"
    assert str(expand(11, 2)) == "1011"


def test_expand_rejects_bad_base():
    with pytest.raises(ValueError):
        expand(5, 1)
    with pytest.raises(ValueError):
        expand(-1, 2)
    with pytest.raises(RangeError):
        expand(INT_LIMIT, 2)


def test_expand_padded_examples():
    assert str(expand_padded(11, 2, 4)) == "1011"
    assert str(expand_padded(11, 2, 3)) == "011"
    assert str(expand_padded(0, 2, 3)) == "000"
    with pytest.raises(ValueError):
        expand_padded(1, 1, 3)


def test_value_examples():
    assert value(Word(2, (1, 0, 1, 1))) == 11
    assert value(Word(2, ())) == 0
    assert value(Word(2, (0, 1, 1))) == 3


def test_value_overflow_rejected():
    with pytest.raises(RangeError):
        value(Word(2, (1,) * 64))


def test_concat_examples():
    assert concat(Word(2, (1, 0)), Word(2, (1, 1))) == Word(2, (1, 0, 1, 1))
    assert concat(Word(2, ()), Word(2, (0, 1, 1))) == Word(2, (0, 1, 1))
    assert concat(Word(2, (1,)), Word(2, ())) == Word(2, (1,))
    with pytest.raises(ValueError):
        concat(Word(2, (1,)), Word(3, (1,)))


def test_word_validation_and_printing():
    with pytest.raises(ValueError):
        Word(2, (2,))
    assert Word(16, (12, 0, 3)).text() == "12,0,3"
    assert Word(16, ()).text(empty="") == ""
    assert len(Word(2, (1, 0))) == 2


@given(st.integers(0, 2**40 - 1), st.integers(2, 10))
def test_round_trip(n, k):
    assert value(expand(n, k)) == n


@given(st.integers(0, 2**40 - 1), st.integers(2, 10), st.integers(0, 30))
def test_padding_congruence(n, k, alpha):
    w = expand_padded(n, k, alpha)
    assert len(w) == alpha
    assert value(w) == n % k**alpha


def _naive_digits(n, k):
    digits = []
    while n:
        n, d = divmod(n, k)
        digits.append(d)
    return tuple(reversed(digits))


@given(
    st.one_of(
        st.integers(0, INT_LIMIT - 1),
        st.integers(1, 62).map(lambda e: 2**e),
        st.integers(2, 65).flatmap(lambda k: st.integers(1, 20).map(lambda e: k**e - 1)),
    ).filter(lambda n: n < INT_LIMIT),
    st.one_of(st.integers(2, 70), st.integers(2, 10**12)),
)
def test_expand_and_value_match_naive_arithmetic(n, k):
    """Chunked expansion and int() parsing agree with one divmod per digit."""
    w = expand(n, k)
    assert w.digits == _naive_digits(n, k)
    assert value(w) == sum(d * k**i for i, d in enumerate(reversed(w.digits)))
    assert expand_padded(n, k, len(w) + 3).digits == (0, 0, 0) + w.digits


def test_value_of_long_padded_words():
    assert value(expand_padded(5, 3, 5000)) == 5
    assert value(expand_padded(2**62, 10, 700)) == 2**62
    with pytest.raises(RangeError):
        value(Word(3, (1,) * 700))


def test_padded_keeps_values_beyond_the_integer_range():
    w = expand_padded(INT_LIMIT + 5, 2, 70)
    assert w.digits == (0,) * 6 + _naive_digits(INT_LIMIT + 5, 2)
    with pytest.raises(RangeError):
        value(w)


@given(
    st.integers(2, 10),
    st.lists(st.integers(0, 9), max_size=9),
    st.lists(st.integers(0, 9), max_size=9),
)
def test_concat_homomorphism(k, du, dv):
    u = Word(k, [d % k for d in du])
    v = Word(k, [d % k for d in dv])
    assert value(concat(u, v)) == value(u) * k ** len(v) + value(v)
