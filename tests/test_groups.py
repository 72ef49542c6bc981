from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import parse

from expaction import groups
from expaction.groups import (
    Alphabet,
    AlphabetMismatchError,
    Word,
    boundary_prefix,
    inverse,
    multiply,
    to_str,
    word_length,
    word_metric,
)

RNG = np.random.default_rng(7)

F2 = Alphabet.free(2)
Z2 = Alphabet.free_abelian(2)
CY = Alphabet.cyclic()


def w(text):
    return parse(F2, text)


def test_free_cancellation():
    assert multiply(w("a"), w("A")) == F2.identity()
    assert to_str(multiply(w("ab"), w("Ba"))) == "aa"


def test_abelian_multiply():
    u = Word(Z2, (2, -1))
    v = Word(Z2, (-2, 3))
    assert multiply(u, v).data == (0, 2)


def test_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        multiply(w("a"), Word(Z2, (1, 0)))


def _random_word(alphabet, max_len=6):
    n = int(RNG.integers(0, max_len + 1))
    out = alphabet.identity()
    for _ in range(n):
        i = int(RNG.integers(0, alphabet.rank))
        s = 1 if RNG.integers(0, 2) else -1
        out = multiply(out, alphabet.generator(i, s))
    return out


@pytest.mark.parametrize("alphabet", [F2, Z2, CY], ids=["free", "abelian", "cyclic"])
def test_reduction_idempotent_and_associative(alphabet):
    words = [_random_word(alphabet) for _ in range(40)]
    idx = RNG.integers(0, len(words), size=(10_000, 3))
    for i, j, k in idx[:10_000]:
        u, v, t = words[i], words[j], words[k]
        assert multiply(multiply(u, v), t) == multiply(u, multiply(v, t))
    for u in words:
        assert multiply(u, alphabet.identity()) == u
        assert multiply(u, inverse(u)) == alphabet.identity()


def _bfs_distance(alphabet, target, radius):
    # independent oracle: breadth-first search on the Cayley graph
    if target.is_identity():
        return 0
    gens = alphabet.symmetric_generators()
    seen = {alphabet.identity()}
    frontier = deque([(alphabet.identity(), 0)])
    while frontier:
        g, d = frontier.popleft()
        if d >= radius:
            continue
        for s in gens:
            h = multiply(g, s)
            if h in seen:
                continue
            if h == target:
                return d + 1
            seen.add(h)
            frontier.append((h, d + 1))
    return None


def test_word_metric_examples():
    assert word_metric(w("ab"), w("ab")) == 0
    u, v = w("ab"), w("abba")
    oracle = _bfs_distance(F2, multiply(inverse(u), v), 4)
    assert oracle == 2
    assert word_metric(u, v) == 2
    assert word_metric(Word(Z2, (0, 0)), Word(Z2, (3, -2))) == 5


@pytest.mark.parametrize("alphabet", [F2, Z2, CY], ids=["free", "abelian", "cyclic"])
def test_word_metric_is_a_metric(alphabet):
    words = [_random_word(alphabet, 4) for _ in range(12)]
    for _ in range(1000):
        i, j, k = RNG.integers(0, len(words), size=3)
        u, v, t = words[i], words[j], words[k]
        duv = word_metric(u, v)
        assert duv == word_metric(v, u)
        assert duv >= 0 and (duv == 0) == (u == v)
        assert word_metric(u, t) <= duv + word_metric(v, t)


def test_word_metric_matches_bfs_on_random_free_words():
    for _ in range(50):
        u, v = _random_word(F2, 3), _random_word(F2, 3)
        m = word_metric(u, v)
        assert m == _bfs_distance(F2, multiply(inverse(u), v), 8)


def test_generic_kind_bfs_and_unknown():
    gen = Alphabet(groups.GENERIC, ("x", "y"))
    a, b = gen.generator(0, 1), gen.generator(1, 1)
    far = multiply(multiply(a, b), multiply(a, b))  # length 4
    assert word_metric(gen.identity(), far, cap=6) == 4
    assert word_metric(gen.identity(), far, cap=3) is None


def test_boundary_prefix_power_ray():
    ray = []
    word = F2.identity()
    for _ in range(12):
        word = multiply(word, w("a"))
        ray.append(word)
    bw = boundary_prefix(ray, 6)
    assert to_str(bw.prefix) == "aaaaaa"
    assert bw.stabilized


def test_boundary_prefix_with_initial_letter():
    ray = [w("b")]
    for _ in range(12):
        ray.append(multiply(ray[-1], w("a")))
    bw = boundary_prefix(ray, 5)
    assert to_str(bw.prefix) == "baaaa"


def test_boundary_prefix_cyclic():
    ray = [Word(CY, -(i + 1)) for i in range(10)]
    bw = boundary_prefix(ray, 7)
    assert bw.prefix.data == -7
    assert word_length(bw.prefix) == 7


def test_boundary_prefix_rejects_abelian():
    ray = [Word(Z2, (i, 0)) for i in range(5)]
    with pytest.raises(ValueError):
        boundary_prefix(ray, 3)


def test_product_swap_canonical_forms():
    P = Alphabet.product(F2, F2, with_swap=True)
    swap = P.generator(P.rank - 1, 1)
    assert multiply(swap, swap) == P.identity()
    ga = P.generator(0, 1)  # (a, e)
    gb = P.generator(2, 1)  # (e, a)
    # the swap conjugates one factor to the other
    conj = multiply(multiply(swap, ga), swap)
    assert conj == gb
    assert word_length(multiply(ga, swap)) == 2
    assert word_length(multiply(ga, gb)) == 2


def test_parse_round_trip():
    for text in ("a", "ab", "aBab", "e"):
        assert to_str(parse(F2, text)) == text
    assert parse(CY, "g^-3").data == -3


@pytest.mark.parametrize("with_swap", [False, True])
def test_signed_letters_spell_the_symmetric_generators(with_swap):
    P = Alphabet.product(F2, Z2, with_swap)
    letters = P.signed_letters()
    assert [P.generator(i, s) for i, s in letters] == P.symmetric_generators()
    expected = [(i, s) for i in range(4) for s in (1, -1)] + [(4, 1)] * with_swap
    assert letters == expected
    assert F2.signed_letters() == [(0, 1), (0, -1), (1, 1), (1, -1)]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    parts=st.sampled_from([(F2, Z2, False), (F2, F2, False), (F2, F2, True), (Z2, Z2, True)]),
    picks=st.lists(st.integers(0, 20), max_size=12),
)
def test_product_letters_multiply_back_to_the_word(parts, picks):
    P = Alphabet.product(*parts)  # a swap needs equal components
    letters = P.signed_letters()
    u = P.identity()
    for k in picks:
        u = multiply(u, P.generator(*letters[k % len(letters)]))
    v = P.identity()
    for i, s in groups.letters_of(u):
        v = multiply(v, P.generator(i, s))
    assert v == u


# letter tuples that are mostly short and over few generators, so that long
# runs cancel across the seam
_LETTERS = st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1, -1])), max_size=14)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    alphabet=st.sampled_from([Alphabet.free(3), Alphabet(groups.GENERIC, ("x", "y", "z"))]),
    raw_u=_LETTERS,
    raw_v=_LETTERS,
    echo=st.integers(0, 14),
)
def test_multiply_and_inverse_equal_the_full_reduction(alphabet, raw_u, raw_v, echo):
    u = Word(alphabet, tuple(raw_u))
    # a right factor that starts with the inverse of u's tail cancels deep
    v = Word(alphabet, inverse(u).data[:echo] + tuple(raw_v))
    product = multiply(u, v)
    assert type(product) is Word
    assert product.data == groups._reduce_letters(u.data + v.data)
    assert product == Word(alphabet, u.data + v.data)
    assert inverse(u).data == groups._reduce_letters((i, -s) for i, s in reversed(u.data))
    assert multiply(u, inverse(u)) == alphabet.identity()
