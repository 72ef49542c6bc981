"""Closed-form word metrics against the composite-word reference.

`groups.word_metric` and `groups.distance_table` compute |u^-1 v| straight
from the canonical data of u and v.  The reference builds the word u^-1 v
and measures it; both must agree on every exact kind, and whole
certificates must not change when the reference fills the distance tables.
"""
import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expaction import coding, expansion, groups
from expaction.groups import Alphabet, Word, inverse, multiply, word_length, word_metric

F2 = Alphabet.free(2)
Z3 = Alphabet.free_abelian(3)
CY = Alphabet.cyclic()
F2_SWAP = Alphabet.product(F2, F2, with_swap=True)
F2_Z3 = Alphabet.product(F2, Z3, with_swap=False)
NESTED = Alphabet.product(F2_SWAP, F2_SWAP, with_swap=True)
NESTED_MIXED = Alphabet.product(F2_Z3, Alphabet.product(CY, Z3, with_swap=False), with_swap=False)


def composite_metric(u: Word, v: Word, cap: int = 12) -> int:
    """Reference: the length of the reduced word u^-1 v (exact kinds only)."""
    return word_length(multiply(inverse(u), v))


def words(alphabet: Alphabet, max_letters: int = 8):
    """Strategy for canonical words; product words draw their swap bit."""
    if alphabet.kind == groups.PRODUCT_SWAP:
        first, second = alphabet.parts
        swap = st.integers(0, 1) if alphabet.has_swap else st.just(0)
        return st.builds(
            lambda a, b, s: Word(alphabet, (a, b, s)),
            words(first, max_letters),
            words(second, max_letters),
            swap,
        )
    letters = st.lists(
        st.tuples(st.integers(0, alphabet.rank - 1), st.sampled_from([1, -1])),
        max_size=max_letters,
    )
    return letters.map(
        lambda ls: functools.reduce(
            multiply, (alphabet.generator(i, s) for i, s in ls), alphabet.identity()
        )
    )


@pytest.mark.parametrize(
    "alphabet",
    [F2, Z3, CY, F2_Z3, NESTED, NESTED_MIXED],
    ids=["free", "abelian", "cyclic", "free-x-abelian", "nested-swap", "nested-mixed"],
)
@settings(max_examples=100, derandomize=True)
@given(data=st.data())
def test_closed_form_equals_composite_word(alphabet, data):
    u, v = data.draw(words(alphabet)), data.draw(words(alphabet))
    assert word_metric(u, v) == composite_metric(u, v)


@pytest.mark.parametrize("b, c", [(0, 0), (0, 1), (1, 0), (1, 1)])
@settings(max_examples=100, derandomize=True)
@given(u1=words(F2), u2=words(F2), v1=words(F2), v2=words(F2))
def test_closed_form_equals_composite_word_on_swap_products(b, c, u1, u2, v1, v2):
    # a swap on u must not cross the component pairing of u^-1 v
    u, v = Word(F2_SWAP, (u1, u2, b)), Word(F2_SWAP, (v1, v2, c))
    assert word_metric(u, v) == composite_metric(u, v)


GENERIC2 = Alphabet(groups.GENERIC, F2.names)


@settings(max_examples=100, derandomize=True)
@given(u=words(F2, 3), v=words(F2, 3))
def test_free_closed_form_equals_breadth_first_metric(u, v):
    bfs = word_metric(Word(GENERIC2, u.data), Word(GENERIC2, v.data), cap=6)
    assert bfs is not None
    assert word_metric(u, v) == bfs


# ---------------------------------------------------------------------------
# slow oracle: whole certificates with the composite-word metric


def _certificates_agree(monkeypatch, system, datum, **kwargs):
    fast = coding.shyp_certificate(system, datum, **kwargs)
    calls = []

    def reference(us, vs, cap=12):
        calls.append(1)
        table = [[composite_metric(u, v, cap) for v in vs] for u in us]
        return np.array(table, np.int32).reshape(len(us), len(vs))

    monkeypatch.setattr(groups, "distance_table", reference)
    slow = coding.shyp_certificate(system, datum, **kwargs)
    assert calls, "the certificate never reached the reference metric"
    for name in coding.Certificate._fields:
        assert getattr(slow, name) == getattr(fast, name), name
    return fast


def test_free_certificate_matches_slow_oracle(monkeypatch, fb_system, fb_datum):
    cert = _certificates_agree(
        monkeypatch, fb_system, fb_datum, net=fb_system.limit_net(2), depth=8, cap=40, n_max=8
    )
    assert cert.fellow_constant == 1


def test_zn_chain_certificate_matches_slow_oracle(monkeypatch, zn_system, zn_datum):
    cert = _certificates_agree(monkeypatch, zn_system, zn_datum, depth=12, cap=50, n_max=1)
    assert not cert.fellow_ok and cert.chain_constant == 1


def test_product_swap_certificate_matches_slow_oracle(monkeypatch, product_system):
    datum = expansion.build_expansion_datum(product_system, 2.0, net_depth=2)
    cert = _certificates_agree(monkeypatch, product_system, datum, depth=6, n_max=8)
    assert cert.fellow_ok


# ---------------------------------------------------------------------------
# distance tables: every entry equals the word metric


@pytest.mark.parametrize(
    "alphabet",
    [F2, Z3, CY, F2_Z3, NESTED, NESTED_MIXED],
    ids=["free", "abelian", "cyclic", "free-x-abelian", "nested-swap", "nested-mixed"],
)
@settings(max_examples=60, derandomize=True)
@given(data=st.data())
def test_distance_table_equals_word_metric(alphabet, data):
    # a small pool makes repeated words, which the table fills once
    pool = data.draw(st.lists(words(alphabet), min_size=1, max_size=4))
    us = data.draw(st.lists(st.sampled_from(pool), max_size=6))
    vs = data.draw(st.lists(st.sampled_from(pool), max_size=6))
    table = groups.distance_table(us, vs)
    assert table.shape == (len(us), len(vs)) and table.dtype == np.int32
    assert table.tolist() == [[word_metric(u, v) for v in vs] for u in us]
    assert table.tolist() == [[composite_metric(u, v) for v in vs] for u in us]


@settings(max_examples=60, derandomize=True)
@given(
    us=st.lists(words(F2, 4), min_size=1, max_size=4),
    vs=st.lists(words(F2, 4), min_size=1, max_size=4),
    cap=st.integers(0, 4),
)
def test_distance_table_masks_generic_words_beyond_the_cap(us, vs, cap):
    us = [Word(GENERIC2, u.data) for u in us]
    vs = [Word(GENERIC2, v.data) for v in vs]
    expected = [
        [groups.UNKNOWN if m is None else m for m in (word_metric(u, v, cap) for v in vs)]
        for u in us
    ]
    assert groups.distance_table(us, vs, cap).tolist() == expected


def random_word(alphabet: Alphabet, rng: random.Random, max_letters: int) -> Word:
    letters = [
        alphabet.generator(*rng.choice(alphabet.signed_letters()))
        for _ in range(rng.randrange(max_letters + 1))
    ]
    return functools.reduce(multiply, letters, alphabet.identity())


@pytest.mark.parametrize("alphabet", [F2, NESTED_MIXED], ids=["free", "nested-mixed"])
def test_distance_table_fills_in_row_blocks(monkeypatch, alphabet):
    # rows of unequal letter widths meet in each block
    rng = random.Random(5)
    us = [random_word(alphabet, rng, 12) for _ in range(25)]
    whole = groups.distance_table(us, us[:7])
    monkeypatch.setattr(groups, "_BLOCK_CELLS", 200)  # 2 to 5 rows a block
    assert groups.distance_table(us, us[:7]).tolist() == whole.tolist()
    assert whole.tolist() == [[composite_metric(u, v) for v in us[:7]] for u in us]


def test_a_block_of_deep_free_rays_stays_inside_the_cell_budget(monkeypatch, fb_system, fb_datum):
    # the free fill compares every (row, column) pair letter by letter, so a
    # block bounded by pairs grew with the depth of the rays
    blocks = []

    def fill(alphabet, us, vs):
        (row_codes, _), (col_codes, _) = us, vs
        blocks.append(len(row_codes) * len(col_codes) * min(row_codes.shape[1], col_codes.shape[1]))
        return original(alphabet, us, vs)

    original = groups._fill
    monkeypatch.setattr(groups, "_fill", fill)
    x = fb_datum.net[0]
    codes, _ = coding.enumerate_codes(fb_datum, fb_system, fb_datum.delta, x, 40, 200)
    table = coding.RayTable([coding.code_ray(fb_datum, c) for c in codes])
    assert table.window.shape[1] == len(codes) > 1 and len(blocks) > 1
    assert max(blocks) <= groups._BLOCK_CELLS, blocks


def test_distance_table_checks_its_arguments():
    with pytest.raises(groups.AlphabetMismatchError):
        groups.distance_table([F2.identity()], [Z3.identity()])
    with pytest.raises(ValueError):
        groups.distance_table([F2.identity()], [F2.identity()], cap=-1)
    assert groups.distance_table([], [F2.identity()]).shape == (0, 1)
