import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import asymauto
from asymauto import INT_LIMIT, RangeError, Word, concat, expand, expand_padded, value
from asymauto import digits


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


def _naive_value(digits, k):
    return sum(d * k**i for i, d in enumerate(reversed(digits)))


def _naive_text(digits, k):
    return ("" if k <= 10 else ",").join(map(str, digits))


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
    assert value(w) == _naive_value(w.digits, k)
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


# each pair straddles a boundary: int() parsing vs the multiply-add loop (36/37),
# chunk tables vs one divmod per digit (64/65), bytes vs tuple digits (256/257)
BOUNDARY_BASES = [2, 10, 36, 37, 64, 65, 256, 257, 10**12]


def _boundary_values(k):
    ns = {0, 1, k - 1, k, k + 1, 2**62, INT_LIMIT - 1, 123456789012345678 % INT_LIMIT}
    e = 1
    while k**e < INT_LIMIT:
        ns |= {k**e - 1, k**e}
        e += 1
    return sorted(n for n in ns if n < INT_LIMIT)


@pytest.mark.parametrize("k", BOUNDARY_BASES)
def test_expand_value_and_padding_match_naive_at_the_boundary_bases(k):
    for n in _boundary_values(k):
        naive = _naive_digits(n, k)
        w = expand(n, k)
        assert type(w.digits) is tuple and w.digits == naive, (n, k)
        assert len(w) == len(naive)
        assert value(w) == _naive_value(naive, k) == n
        p = expand_padded(n, k, len(naive) + 3)
        assert p.digits == (0, 0, 0) + naive and value(p) == n
        assert expand_padded(n, k, 0).digits == ()
        if naive:
            low = expand_padded(n, k, len(naive) - 1)
            assert low.digits == naive[1:] and value(low) == n % k ** (len(naive) - 1)


@pytest.mark.parametrize("k", BOUNDARY_BASES)
def test_constructed_words_equal_expansions(k):
    for n in _boundary_values(k):
        naive = _naive_digits(n, k)
        for ds in (naive, list(naive), iter(naive)):
            w = Word(k, ds)
            assert w == expand(n, k) and hash(w) == hash(expand(n, k))
            assert type(w.digits) is tuple and w.digits == naive
        assert value(Word(k, naive)) == n
        assert Word(k, (0,) + naive) != expand(n, k)
    assert Word(k, ()) == expand(0, k) and len(Word(k, ())) == 0


@pytest.mark.parametrize("k", BOUNDARY_BASES)
def test_text_matches_a_naive_render(k):
    for n in _boundary_values(k):
        naive = _naive_digits(n, k)
        assert expand(n, k).text() == (_naive_text(naive, k) if naive else "ε")
        assert expand_padded(n, k, len(naive) + 2).text() == _naive_text((0, 0) + naive, k)
    assert Word(k, ()).text(empty="") == ""
    assert repr(Word(k, (k - 1, 0))) == f"Word(base={k}, '{_naive_text((k - 1, 0), k)}')"


@pytest.mark.parametrize("k", BOUNDARY_BASES)
def test_concat_matches_naive_digits(k):
    ns = _boundary_values(k)
    for a, b in zip(ns, reversed(ns)):
        u, v = expand(a, k), expand_padded(b, k, len(_naive_digits(b, k)) + 1)
        uv = concat(u, v)
        assert uv.digits == _naive_digits(a, k) + (0,) + _naive_digits(b, k)
        assert uv == Word(k, uv.digits) and hash(uv) == hash(Word(k, uv.digits))
        full = _naive_value(uv.digits, k)
        if full < INT_LIMIT:
            assert value(uv) == full == a * k ** len(v) + b
        else:
            with pytest.raises(RangeError):
                value(uv)


@pytest.mark.parametrize("k", [2, 10, 36, 37, 257])
@pytest.mark.parametrize("alpha", [digits._PARSE_MAX, digits._PARSE_MAX + 1])  # 640, 641
def test_padded_words_at_the_parse_length_limit(k, alpha):
    for n in (0, 1, k - 1, 2**62, INT_LIMIT - 1):
        naive = _naive_digits(n, k)
        w = expand_padded(n, k, alpha)
        assert len(w) == alpha and w.digits == (0,) * (alpha - len(naive)) + naive
        assert value(w) == _naive_value(w.digits, k) == n
    top = Word(k, (1,) + (0,) * (alpha - 1))
    with pytest.raises(RangeError):
        value(top)


def test_word_validation_messages_at_the_container_boundary():
    with pytest.raises(ValueError, match=r"^base must be >= 2, got 1$"):
        Word(1, ())
    for k in (256, 257, 10**12):
        with pytest.raises(ValueError, match=rf"^digit {k} out of range for base {k}$"):
            Word(k, (0, k))
        with pytest.raises(ValueError, match=rf"^digit -1 out of range for base {k}$"):
            Word(k, (-1,))
    with pytest.raises(ValueError, match=r"^base mismatch: 256 vs 257$"):
        concat(Word(256, (1,)), Word(257, (1,)))


def test_non_integer_digits_refused_in_every_base():
    # a base-300 word once took the digit 1.5, and its value was the float 1.5
    for k in (10, 256, 300):
        for digits in ((1.5,), (1, 0.0)):
            with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
                Word(k, digits)


def test_chunk_tables_are_built_on_first_use_not_at_import():
    # a fresh import must not pay for any table: the benchmark times it as set-up
    env = dict(os.environ, PYTHONPATH=str(Path(asymauto.__file__).parents[1]))
    probe = (
        "import asymauto\n"
        "from asymauto import digits\n"
        "print(digits._chunk_table.cache_info().currsize)\n"
        "digits.expand(5, 3)\n"
        "print(digits._chunk_table.cache_info().currsize)\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["0", "1"]
