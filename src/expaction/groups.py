"""Words over symmetric generating sets, word metrics, boundary prefixes.

Supported presentation kinds, each with its word metric ``d(u, v) =
|u^-1 v|``:

* ``free``: reduced letter sequences; ``d(u, v) = |u| + |v| - 2*cpl(u, v)``,
  where ``cpl`` is the length of the common prefix of the two sequences;
* ``free_abelian``: exponent vectors; ``d(u, v) = sum_i |u_i - v_i|``;
* ``cyclic``: a single exponent; ``d(u, v) = |v - u|``;
* ``product_swap``: pairs of component words with an optional swap bit
  (the swap conjugates by exchanging the factors); for ``u = (u1, u2, b)``
  and ``v = (v1, v2, c)``, ``d(u, v) = d(u1, v1) + d(u2, v2) + [b != c]``
  whatever ``b`` is;
* ``generic``: free reduction for storage, breadth-first word metric up to a
  cap (Unknown beyond it).

The closed forms are exact for words in canonical form (reduced letter
sequences), which every ``Word`` is.

Letters serialize as strings: "a" is a generator, "A" its inverse.
"""
from __future__ import annotations

import math
from collections import deque
from typing import Any, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .geometry import Value, common_prefix_len

FREE = "free"
FREE_ABELIAN = "free_abelian"
CYCLIC = "cyclic"
PRODUCT_SWAP = "product_swap"
GENERIC = "generic"

_EXACT_KINDS = {FREE, FREE_ABELIAN, CYCLIC, PRODUCT_SWAP}


class AlphabetMismatchError(ValueError):
    """Raised when combining words over different alphabets."""


class Alphabet(Value):
    """Symmetric generating set: each named generator comes with its inverse."""

    _fields = ("kind", "names", "parts", "has_swap")
    __slots__ = _fields + ("_hash",)

    def __init__(self, kind: str, names: tuple, parts: tuple = None, has_swap: bool = False):
        # parts: (Alphabet, Alphabet) for product kinds
        self.kind, self.names, self.parts, self.has_swap = kind, names, parts, has_swap
        self._hash = hash(self._key())  # a part of every word's hash

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def free(rank: int, names: Sequence[str] | None = None) -> "Alphabet":
        names = tuple(names) if names else tuple("abcdefghijklmnopqrstuvwxyz"[:rank])
        return Alphabet(FREE, names)

    @staticmethod
    def free_abelian(rank: int, names: Sequence[str] | None = None) -> "Alphabet":
        names = tuple(names) if names else tuple(f"g{i + 1}" for i in range(rank))
        return Alphabet(FREE_ABELIAN, names)

    @staticmethod
    def cyclic(name: str = "g") -> "Alphabet":
        return Alphabet(CYCLIC, (name,))

    @staticmethod
    def product(first: "Alphabet", second: "Alphabet", with_swap: bool) -> "Alphabet":
        names = tuple(f"L.{n}" for n in first.names) + tuple(f"R.{n}" for n in second.names)
        if with_swap:
            names = names + ("swap",)
        return Alphabet(PRODUCT_SWAP, names, parts=(first, second), has_swap=with_swap)

    @property
    def rank(self) -> int:
        return len(self.names)

    def identity(self) -> "Word":
        if self.kind in (FREE, GENERIC):
            return Word(self, ())
        if self.kind == FREE_ABELIAN:
            return Word(self, (0,) * self.rank)
        if self.kind == CYCLIC:
            return Word(self, 0)
        if self.kind == PRODUCT_SWAP:
            return Word(self, (self.parts[0].identity(), self.parts[1].identity(), 0))
        raise ValueError(self.kind)

    def generator(self, index: int, sign: int = 1) -> "Word":
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.kind in (FREE, GENERIC):
            return Word(self, ((index, sign),))
        if self.kind == FREE_ABELIAN:
            vec = [0] * self.rank
            vec[index] = sign
            return Word(self, tuple(vec))
        if self.kind == CYCLIC:
            if index != 0:
                raise ValueError("cyclic groups have a single generator")
            return Word(self, sign)
        if self.kind == PRODUCT_SWAP:
            n1 = self.parts[0].rank
            if self.has_swap and index == self.rank - 1:
                return Word(self, (self.parts[0].identity(), self.parts[1].identity(), 1))
            if index < n1:
                return Word(self, (self.parts[0].generator(index, sign), self.parts[1].identity(), 0))
            return Word(self, (self.parts[0].identity(), self.parts[1].generator(index - n1, sign), 0))
        raise ValueError(self.kind)

    def signed_letters(self) -> list:
        """(index, sign) of every generator and inverse, in generator order;
        the swap is its own inverse."""
        out = []
        for i in range(self.rank):
            out.append((i, 1))
            if not (self.has_swap and i == self.rank - 1):
                out.append((i, -1))
        return out

    def symmetric_generators(self) -> list:
        """All generators and inverses (the swap is its own inverse)."""
        return [self.generator(i, s) for i, s in self.signed_letters()]


def _reduce_letters(letters: Iterable[tuple]) -> tuple:
    out = []
    for idx, sign in letters:
        if out and out[-1][0] == idx and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((idx, sign))
    return tuple(out)


class Word(Value):
    """Group element in canonical form for its presentation kind."""

    __slots__ = _fields = ("alphabet", "data")

    def __init__(self, alphabet: Alphabet, data: Any):
        self.alphabet = alphabet
        self.data = _reduce_letters(data) if alphabet.kind in (FREE, GENERIC) else data

    # product words hash and compare their component words: spelled out,
    # not through the generic `_key`
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alphabet, self.data) == (other.alphabet, other.data)

    def __hash__(self) -> int:
        return hash((self.alphabet, self.data))

    def is_identity(self) -> bool:
        return self == self.alphabet.identity()

    def __str__(self) -> str:
        return to_str(self)


def _reduced_word(alphabet: Alphabet, letters: tuple) -> Word:
    """The free or generic word of letters that are already reduced, without
    the reduction pass that `Word()` runs."""
    word = object.__new__(Word)
    word.alphabet, word.data = alphabet, letters
    return word


def _check_same_alphabet(u: Word, v: Word) -> None:
    if u.alphabet is not v.alphabet and u.alphabet != v.alphabet:
        raise AlphabetMismatchError("words over different alphabets")


def multiply(u: Word, v: Word) -> Word:
    """Canonical form of the product u*v."""
    _check_same_alphabet(u, v)
    kind = u.alphabet.kind
    if kind in (FREE, GENERIC):
        # both factors are reduced, so letters cancel only across the seam
        a, b = u.data, v.data
        k, most = 0, min(len(a), len(b))
        while k < most and a[-1 - k][0] == b[k][0] and a[-1 - k][1] == -b[k][1]:
            k += 1
        return _reduced_word(u.alphabet, a[: len(a) - k] + b[k:])
    if kind == FREE_ABELIAN:
        return Word(u.alphabet, tuple(a + b for a, b in zip(u.data, v.data)))
    if kind == CYCLIC:
        return Word(u.alphabet, u.data + v.data)
    if kind == PRODUCT_SWAP:
        u1, u2, b = u.data
        v1, v2, c = v.data
        if b == 0:
            return Word(u.alphabet, (multiply(u1, v1), multiply(u2, v2), c))
        # a trailing swap conjugates the right factor pair
        return Word(u.alphabet, (multiply(u1, v2), multiply(u2, v1), 1 - c))
    raise ValueError(kind)


def inverse(u: Word) -> Word:
    kind = u.alphabet.kind
    if kind in (FREE, GENERIC):
        return _reduced_word(u.alphabet, tuple((i, -s) for i, s in reversed(u.data)))
    if kind == FREE_ABELIAN:
        return Word(u.alphabet, tuple(-a for a in u.data))
    if kind == CYCLIC:
        return Word(u.alphabet, -u.data)
    if kind == PRODUCT_SWAP:
        u1, u2, b = u.data
        if b == 0:
            return Word(u.alphabet, (inverse(u1), inverse(u2), 0))
        return Word(u.alphabet, (inverse(u2), inverse(u1), 1))
    raise ValueError(kind)


def word_length(u: Word) -> int:
    kind = u.alphabet.kind
    if kind in (FREE, GENERIC):
        return len(u.data)
    if kind == FREE_ABELIAN:
        return sum(abs(a) for a in u.data)
    if kind == CYCLIC:
        return abs(u.data)
    if kind == PRODUCT_SWAP:
        u1, u2, b = u.data
        return word_length(u1) + word_length(u2) + b
    raise ValueError(kind)


# a table entry of a generic word metric beyond its cap; it exceeds every
# distance, so a minimum over a pool is UNKNOWN only when every entry is
UNKNOWN = int(np.iinfo(np.int32).max)
_BLOCK_PAIRS = 1 << 12  # (row, column) pairs filled per block of rows


def _encode(alphabet: Alphabet, datas: list) -> tuple:
    """Canonical data of a list of words as arrays, for `_fill`.

    Free letters become codes 1, 2, ... with 0 padding each row to the
    longest word.  A generic component of a product is encoded as free: free
    reduction stands in for its metric, as it does in ``word_length``.
    """
    kind = alphabet.kind
    if kind in (FREE, GENERIC):
        lens = np.fromiter(map(len, datas), np.int64, len(datas))
        codes = np.zeros((len(datas), int(lens.max(initial=0))), np.int32)
        codes[np.arange(codes.shape[1]) < lens[:, None]] = [
            2 * i + (s < 0) + 1 for d in datas for i, s in d
        ]
        return codes, lens
    if kind == FREE_ABELIAN:
        return (np.array(datas, np.int64).reshape(len(datas), alphabet.rank),)
    if kind == CYCLIC:
        return (np.array(datas, np.int64),)
    if kind == PRODUCT_SWAP:
        first, second = alphabet.parts
        return (
            _encode(first, [d[0].data for d in datas]),
            _encode(second, [d[1].data for d in datas]),
            np.array([d[2] for d in datas], np.int64),
        )
    raise ValueError(kind)


def _fill(alphabet: Alphabet, us: tuple, vs: tuple) -> np.ndarray:
    """The closed forms, from two `_encode` results: ``|u_i^-1 v_j|``."""
    kind = alphabet.kind
    if kind in (FREE, GENERIC):
        (cu, lu), (cv, lv) = us, vs
        width = min(cu.shape[1], cv.shape[1])
        same = cu[:, None, :width] == cv[None, :, :width]
        np.logical_and.accumulate(same, axis=2, out=same)
        # equal words also match on their padding: cap the prefix at the length
        cpl = np.minimum(same.sum(axis=2), lu[:, None])
        return lu[:, None] + lv[None, :] - 2 * cpl
    if kind == FREE_ABELIAN:
        return np.abs(us[0][:, None, :] - vs[0][None, :, :]).sum(axis=2)
    if kind == CYCLIC:
        return np.abs(vs[0][None, :] - us[0][:, None])
    if kind == PRODUCT_SWAP:
        # u^-1 v pairs u1 with v1 and u2 with v2 whether or not u swaps
        first, second = alphabet.parts
        return (
            _fill(first, us[0], vs[0])
            + _fill(second, us[1], vs[1])
            + (us[2][:, None] != vs[2][None, :])
        )
    raise ValueError(kind)


def _distinct(words: Sequence[Word]) -> tuple:
    """(distinct canonical data in first-seen order, position of each word)."""
    index = {}
    positions = [index.setdefault(w.data, len(index)) for w in words]
    return list(index), positions


def distance_table(us: Sequence[Word], vs: Sequence[Word], cap: int = 12) -> np.ndarray:
    """Word metric of every pair, ``table[i, j] = d(us[i], vs[j])``, as int32.

    Exact kinds use the closed forms of the module docstring, filled with
    numpy over the distinct words, a block of rows at a time so that the
    per-letter temporaries stay small.  Generic words go through
    `word_metric` once per distinct pair; entries beyond `cap` hold
    `UNKNOWN`.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if not us or not vs:
        return np.zeros((len(us), len(vs)), np.int32)
    alphabet = us[0].alphabet
    if any(w.alphabet is not alphabet and w.alphabet != alphabet for w in (*us, *vs)):
        raise AlphabetMismatchError("words over different alphabets")
    row_data, rows = _distinct(us)
    col_data, cols = (row_data, rows) if vs is us else _distinct(vs)
    table = np.empty((len(row_data), len(col_data)), np.int32)
    if alphabet.kind == GENERIC:
        for i, a in enumerate(row_data):
            for j, b in enumerate(col_data):
                m = word_metric(Word(alphabet, a), Word(alphabet, b), cap)
                table[i, j] = UNKNOWN if m is None else m
    else:
        encoded = _encode(alphabet, col_data)
        step = max(1, _BLOCK_PAIRS // len(col_data))
        for start in range(0, len(row_data), step):
            block = _encode(alphabet, row_data[start : start + step])
            table[start : start + step] = _fill(alphabet, block, encoded)
    return table[np.ix_(rows, cols)]


def word_metric(u: Word, v: Word, cap: int = 12) -> Optional[int]:
    """Word metric d(u, v) = |u^-1 v|.

    Exact kinds are the one-entry case of `distance_table`, whose closed
    forms are exact for reduced canonical data: ``|u| + |v| - 2*cpl(u, v)``
    (free), ``sum |u_i - v_i|`` (free abelian), ``|v - u|`` (cyclic), and the
    sum over the paired components plus ``[b != c]`` (product with swap).
    Generic words use a breadth-first search up to `cap` and return None
    (Unknown) when the cap is exceeded.
    """
    _check_same_alphabet(u, v)
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if u.alphabet.kind in _EXACT_KINDS:
        return int(distance_table([u], [v], cap)[0, 0])
    w = multiply(inverse(u), v)
    if w.is_identity():
        return 0
    gens = u.alphabet.symmetric_generators()
    seen = {u.alphabet.identity()}
    frontier = deque([(u.alphabet.identity(), 0)])
    while frontier:
        g, d = frontier.popleft()
        if d >= cap:
            continue
        for s in gens:
            h = multiply(g, s)
            if h in seen:
                continue
            if h == w:
                return d + 1
            seen.add(h)
            frontier.append((h, d + 1))
    return None


def letters_of(u: Word) -> tuple:
    """A letter sequence multiplying to u, as (generator index, sign) pairs."""
    kind = u.alphabet.kind
    if kind in (FREE, GENERIC):
        return u.data
    if kind == FREE_ABELIAN:
        out = []
        for i, e in enumerate(u.data):
            out.extend([(i, 1 if e > 0 else -1)] * abs(e))
        return tuple(out)
    if kind == CYCLIC:
        return tuple([(0, 1 if u.data > 0 else -1)] * abs(u.data))
    if kind == PRODUCT_SWAP:
        # (u1, u2, b) is u1 on the first copy times u2 on the second, after
        # the swap when b is set
        u1, u2, b = u.data
        n1 = u.alphabet.parts[0].rank
        second = tuple((n1 + i, s) for i, s in letters_of(u2))
        return letters_of(u1) + second + ((u.alphabet.rank - 1, 1),) * b
    raise ValueError(f"letter sequences not defined for kind {kind}")


def to_str(u: Word) -> str:
    kind = u.alphabet.kind
    if kind in (FREE, GENERIC):
        if not u.data:
            return "e"
        return "".join(
            u.alphabet.names[i] if s > 0 else u.alphabet.names[i].upper()
            for i, s in u.data
        )
    if kind == FREE_ABELIAN:
        return "(" + ",".join(str(a) for a in u.data) + ")"
    if kind == CYCLIC:
        return f"{u.alphabet.names[0]}^{u.data}"
    if kind == PRODUCT_SWAP:
        u1, u2, b = u.data
        return f"({to_str(u1)}|{to_str(u2)}|{'s' if b else '.'})"
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# boundary prefixes


class BoundaryWord(NamedTuple):
    """Finite approximation of a boundary point: a reduced prefix."""

    prefix: Word
    stabilized: bool = True


def _common_prefix_words(u: Word, v: Word) -> Word:
    return Word(u.alphabet, u.data[: common_prefix_len(u.data, v.data)])


def boundary_prefix(ray: Sequence[Word], depth: int) -> BoundaryWord:
    """Stabilized prefix of a quasigeodesic ray, truncated to `depth`.

    Agreement is taken over the tail window (the last quarter of the ray, at
    least two words).  The result is flagged unstabilized when the agreed
    prefix stops short of `depth` although the final word is long enough.
    """
    if not ray:
        raise ValueError("empty ray")
    alphabet = ray[0].alphabet
    if alphabet.kind == FREE or alphabet.kind == GENERIC:
        window = max(2, math.ceil(len(ray) / 4))
        tail = list(ray[-window:])
        agreed = tail[0]
        for w in tail[1:]:
            agreed = _common_prefix_words(agreed, w)
        prefix = Word(alphabet, agreed.data[:depth])
        stab = word_length(prefix) >= depth or word_length(ray[-1]) < depth
        return BoundaryWord(prefix, stab)
    if alphabet.kind == CYCLIC:
        window = max(2, math.ceil(len(ray) / 4))
        exps = [w.data for w in ray[-window:]]
        drift = exps[-1] - exps[0]
        if drift == 0:
            return BoundaryWord(alphabet.identity(), False)
        sign = 1 if drift > 0 else -1
        return BoundaryWord(Word(alphabet, sign * depth), True)
    raise ValueError(
        f"boundary prefixes are defined for free and cyclic kinds, not {alphabet.kind}"
    )

