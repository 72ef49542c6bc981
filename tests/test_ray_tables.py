"""Ray distance tables against the pairwise scans they replaced.

`coding.RayTable` computes the word distances between the path vertices of
a point's rays once and keeps nearest-partner minima; fellow traveling and
tail closeness read them, the chain search is one reachability matrix over
the tail-close intervals, and `groups.distance_table` feeds the
quasigeodesic oracle of `oracles.py` the same way.  The scans
they replaced are kept below, on a reference metric built independently of
`groups.distance_table` (the composite word ``u^-1 v`` for exact kinds, the
breadth-first search for generic words), and every verdict must agree,
including on rays of unequal length and generic words beyond the cap; the
matrix must agree with the breadth-first chain search of `oracles.py` pair
for pair.
"""
import functools
import itertools
import math
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    QuasigeodesicReport,
    all_points_certificate,
    chain_search,
    quasigeodesic_check,
    ray_of_words,
    tail_close,
)

from expaction import coding, expansion, groups, zoo
from expaction.coding import Ray, RayTable
from expaction.groups import Alphabet, inverse, multiply, word_length


def reference_metric(u, v, cap):
    if u.alphabet.kind == groups.GENERIC:
        return groups.word_metric(u, v, cap)
    return word_length(multiply(inverse(u), v))


# ---------------------------------------------------------------------------
# the replaced scans


def old_directed_ok(required: list, pool: list, n: int, cap: int) -> Optional[bool]:
    for a in required:
        best = None
        for b in pool:
            m = reference_metric(a, b, cap)
            if m is not None and (best is None or m < best):
                best = m
                if best <= n:
                    break
        if best is None:
            return None
        if best > n:
            return False
    return True


def old_fellow_travel_distance(rayA: Ray, rayB: Ray, cap: int = 64) -> Optional[int]:
    A, B = coding._path_vertices(rayA), coding._path_vertices(rayB)
    len_a = [word_length(w) for w in A]
    len_b = [word_length(w) for w in B]
    horizon = min(max(len_a), max(len_b))
    for n in range(horizon + 2):
        ok = True
        for S, lens, T in ((A, len_a, B), (B, len_b, A)):
            req = [w for w, k in zip(S, lens) if k <= horizon - n]
            verdict = old_directed_ok(req, T, n, cap)
            if verdict is None:
                return None
            if not verdict:
                ok = False
                break
        if ok:
            return n
    return None


def old_tail_close(rayA: Ray, rayB: Ray, n: int, cap: int = 64) -> bool:
    A = list(rayA.words[len(rayA.words) // 2 :])
    B = list(rayB.words[len(rayB.words) // 2 :])
    len_a = [word_length(w) for w in A]
    len_b = [word_length(w) for w in B]
    lo = max(min(len_a), min(len_b))
    hi = min(max(len_a), max(len_b))
    req_a = [w for w, k in zip(A, len_a) if lo + n <= k <= hi - n]
    req_b = [w for w, k in zip(B, len_b) if lo + n <= k <= hi - n]
    if not req_a or not req_b:
        return False
    return bool(old_directed_ok(req_a, B, n, cap)) and bool(old_directed_ok(req_b, A, n, cap))


def old_n_equivalence(rayA, rayB, pool, n, max_chain=3, cap=64) -> tuple:
    pool = list(pool)
    if not any(r.words == rayA.words for r in pool) or not any(
        r.words == rayB.words for r in pool
    ):
        raise ValueError("pool must contain both rays")
    if rayA.words == rayB.words:
        return True, (rayA,)
    frontier = [(rayA, (rayA,))]
    seen = {rayA.words}
    for _ in range(max_chain):
        nxt = []
        for current, chain in frontier:
            for cand in pool:
                if cand.words in seen:
                    continue
                if old_tail_close(current, cand, n, cap):
                    new_chain = chain + (cand,)
                    if cand.words == rayB.words:
                        return True, new_chain
                    seen.add(cand.words)
                    nxt.append((cand, new_chain))
        frontier = nxt
        if not frontier:
            break
    return False, None


def old_quasigeodesic_check(datum, ray: Ray, cap: int = 64):
    slope = math.log(datum.lam) / math.log(datum.lip)
    worst_lower, worst_upper, unknown = math.inf, math.inf, 0
    for j in range(len(ray.words)):
        for i in range(j + 1, len(ray.words)):
            m = reference_metric(ray.words[i], ray.words[j], cap)
            if m is None:
                unknown += 1
                continue
            worst_lower = min(worst_lower, m - slope * (i - j))
            worst_upper = min(worst_upper, (i - j) - m)
    ok = worst_lower >= -1e-9 and worst_upper >= 0
    return QuasigeodesicReport(slope, ok, worst_lower, worst_upper, unknown)


# ---------------------------------------------------------------------------
# rays: their symbols are random generators, so a step may cancel and word
# lengths need not grow

F2 = Alphabet.free(2)
Z2 = Alphabet.free_abelian(2)
CY = Alphabet.cyclic()
F2_SWAP = Alphabet.product(F2, F2, with_swap=True)
NESTED = Alphabet.product(F2_SWAP, F2_SWAP, with_swap=True)
MIXED = Alphabet.product(F2_SWAP, Alphabet.product(CY, Z2, with_swap=False), with_swap=False)
GENERIC2 = Alphabet(groups.GENERIC, ("x", "y"))
KINDS = {"free": F2, "abelian": Z2, "cyclic": CY, "swap": F2_SWAP, "nested": NESTED, "mixed": MIXED}


def rays(alphabet: Alphabet, max_steps: int = 8):
    steps = st.lists(st.sampled_from(alphabet.symmetric_generators()), min_size=1, max_size=max_steps)
    return steps.map(Ray)


def ray_family(alphabet: Alphabet, max_steps: int):
    """The three rays whose words are those of one base ray times e, g and
    g^2 for one generator g: random rays are seldom tail-close, these often
    are, and the rays times e and g^2 chain through the one times g."""
    gens = alphabet.symmetric_generators()
    # positive letters only, so the base ray does not backtrack
    positive = [alphabet.generator(i, s) for i, s in alphabet.signed_letters() if s > 0]

    def family(base_and_g):
        base, g = base_and_g
        words = list(itertools.accumulate(base, multiply))
        return [ray_of_words([multiply(w, o) for w in words]) for o in (alphabet.identity(), g, multiply(g, g))]

    base = st.lists(st.sampled_from(positive), min_size=2, max_size=max_steps)
    return st.tuples(base, st.sampled_from(gens)).map(family)


def exact_and_generic(draw, max_steps=8):
    """(alphabet, cap, ray strategy): generic rays stay short and their cap
    small, so the breadth-first reference stays cheap and often exceeds it."""
    name = draw(st.sampled_from([*KINDS, "generic"]))
    if name == "generic":
        return GENERIC2, draw(st.integers(0, 3)), rays(GENERIC2, 4)
    return KINDS[name], 64, rays(KINDS[name], max_steps)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_fellow_travel_distance_matches_the_old_scan(data):
    _, cap, ray = exact_and_generic(data.draw)
    a, b, other = data.draw(ray), data.draw(ray), data.draw(ray)
    expected = old_fellow_travel_distance(a, b, cap)
    assert coding.fellow_travel_distance(RayTable((a, b), cap), 0, 1) == expected
    # a shared table of more rays answers the same
    assert coding.fellow_travel_distance(RayTable([other, b, a], cap), 2, 1) == expected


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data(), n=st.integers(0, 4))
def test_tail_close_matches_the_old_scan(data, n):
    _, cap, ray = exact_and_generic(data.draw)
    a, b = data.draw(ray), data.draw(ray)
    assert tail_close(RayTable((a, b), cap), 0, 1, n) == old_tail_close(a, b, n, cap)


def test_tail_partners_come_from_the_tail_half():
    # a's tail holds g^-1, which b passes only in its first half
    a = ray_of_words([groups.Word(CY, e) for e in (1, 2, 1, 0, -1, 0)])
    b = ray_of_words([groups.Word(CY, e) for e in (-1, 0, 1, 0, 1)])
    assert old_tail_close(a, b, 0) is False
    assert tail_close(RayTable((a, b)), 0, 1, 0) is False
    assert tail_close(RayTable((a, b)), 0, 1, 1) == old_tail_close(a, b, 1)


def as_rays(pool: list, searched: tuple) -> tuple:
    """A chain search over rows, with the chain as the pool's rays."""
    found, chain = searched
    return found, chain and tuple(pool[r] for r in chain)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data(), n=st.integers(0, 3), max_chain=st.integers(1, 3))
def test_n_equivalence_matches_the_old_search(data, n, max_chain):
    alphabet, cap, ray = exact_and_generic(data.draw, max_steps=6)
    steps = 4 if alphabet.kind == groups.GENERIC else 8
    distinct = data.draw(st.lists(ray, min_size=2, max_size=4) | ray_family(alphabet, steps))
    # repeated rays, also as equal copies, are one ray class
    repeats = data.draw(st.lists(st.sampled_from(distinct), max_size=3))
    pool = data.draw(st.permutations(distinct + repeats))
    pool.append(ray_of_words(pool[0].words))
    table = RayTable(pool, cap)
    classes = sorted(set(table.first))
    k = len(classes)
    # the matrix, pair for pair, against the breadth-first search, also at
    # chain bounds far past the number of classes
    long_chain = data.draw(st.integers(4, 10**9))
    for m, chain in itertools.product(range(4), (1, 2, 3, long_chain)):
        reach = coding._chain_reach(table, m, chain)
        for p, a in enumerate(classes):
            for q, b in enumerate(classes):
                assert reach[p, q] == chain_search(table, a, b, m, chain)[0], (a, b, m, chain)
        joined = np.count_nonzero(np.triu(reach, 1))
        assert coding.n_equivalence(table, m, chain) == (joined, k * (k - 1) // 2)
    # and the breadth-first search over the table against the old scans
    i, j = data.draw(st.integers(0, len(pool) - 1)), data.draw(st.integers(0, len(pool) - 1))
    expected = old_n_equivalence(pool[i], pool[j], pool, n, max_chain, cap)
    assert as_rays(pool, chain_search(table, i, j, n, max_chain)) == expected


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_quasigeodesic_check_matches_the_old_scan(data, fb_datum):
    _, cap, ray = exact_and_generic(data.draw)
    r = data.draw(ray)
    assert quasigeodesic_check(fb_datum, r, cap) == old_quasigeodesic_check(fb_datum, r, cap)


def test_equal_copies_are_one_ray_in_the_chain_search():
    x, y = F2.generator(0), F2.generator(1)
    a, b = Ray((x, x)), Ray((y, y))
    pool = [a, b, ray_of_words(a.words), ray_of_words(b.words)]
    table = RayTable(pool)
    assert table.first == [0, 1, 0, 1]
    for n in range(3):
        # one pair of classes, not six pairs of rows
        assert coding.n_equivalence(table, n)[1] == 1
        for i, start in enumerate(pool):
            for j, goal in enumerate(pool):
                expected = old_n_equivalence(start, goal, pool, n)
                assert as_rays(pool, chain_search(table, i, j, n)) == expected
    assert chain_search(table, 0, 2, 0) == (True, (0,))


# ---------------------------------------------------------------------------
# whole certificates: the old scans in place of the table readers


def old_scan_certificate(system, datum, net, depth=20, cap=200, n_max=8, max_chain=3, metric_cap=64):
    """The certificate from the replaced scans: the rays of every point, the
    old fellow scan and the old chain search on each same-point ray pair."""
    points, truncated = [], False
    for x in net:
        codes, trunc = coding.enumerate_codes(datum, system, datum.delta, x, depth, cap)
        truncated = truncated or trunc
        points.append((x, [coding.code_ray(datum, c) for c in codes]))
    pairs = [(x, rays, i, j) for x, rays in points for i in range(len(rays)) for j in range(i + 1, len(rays))]
    fellow, worst_pair, fellow_known = 0, None, True
    for x, rays, i, j in pairs:
        d = old_fellow_travel_distance(rays[i], rays[j], metric_cap)
        if d is None:
            fellow_known = False
        elif d > fellow:
            fellow, worst_pair = d, (x, i, j, d)
    top = fellow if fellow_known and fellow <= n_max else n_max
    chain_constant = next(
        (
            n
            for n in range(top + 1)
            if all(
                old_n_equivalence(rays[i], rays[j], rays, n, max_chain, metric_cap)[0]
                for _, rays, i, j in pairs
            )
        ),
        None,
    )
    return coding.Certificate(
        fellow_constant=fellow if fellow_known else None,
        chain_constant=chain_constant,
        chain_steps=max_chain,
        n_max=n_max,
        truncated=truncated,
        points_checked=len(net),
        rays_per_point=tuple(len(rays) for _, rays in points),
        worst_pair=worst_pair,
    )


CERTIFICATES = {
    "free": ("fb_system", "fb_datum", dict(depth=8, cap=40, n_max=8), 2),
    "free-tight": ("fb_system", "fb_datum", dict(depth=10, cap=40, n_max=0), 2),
    "zn": ("zn_system", "zn_datum", dict(depth=12, cap=50, n_max=1), None),
    "cyclic": ("cyclic_system", "cyclic_datum", dict(depth=10, cap=20, n_max=8), None),
    "schottky": ("schottky_system", "schottky_datum", dict(depth=8, cap=40, n_max=8), 2),
    "product-swap": ("product_system", None, dict(depth=6, n_max=8), 2),
}


@pytest.mark.parametrize("case", list(CERTIFICATES))
def test_certificates_equal_the_old_scans_field_by_field(request, case):
    system_name, datum_name, kwargs, net_depth = CERTIFICATES[case]
    system = request.getfixturevalue(system_name)
    if datum_name is None:
        datum = expansion.build_expansion_datum(system, 2.0, net_depth=2)
    else:
        datum = request.getfixturevalue(datum_name)
    net = datum.net if net_depth is None else system.limit_net(net_depth)
    fast = coding.shyp_certificate(system, datum, net=net, **kwargs)
    slow = old_scan_certificate(system, datum, net, **kwargs)
    for name in coding.Certificate._fields:
        assert getattr(fast, name) == getattr(slow, name), name
    assert sum(fast.rays_per_point) > len(net)  # some point has a pair


# the certificate one point at a time against the one over all points at once


@functools.cache
def certificate_system(kind: str) -> tuple:
    fb = zoo.make_free_boundary(2, 2.0)
    swap = zoo.make_product(fb, fb, with_swap=True)
    system, lam, net_depth = {
        "free": (fb, 2.0, 2),
        "cyclic": (zoo.make_cyclic_hyperbolic(2.0), 1.5, 4),
        "schottky": (zoo.make_schottky(), 1.4, 2),
        "zn": (zoo.make_zn_projective([[9.0, 1.0, 3.0], [9.0, 3.0, 1.0]]), 2.0, 4),
        "product-swap": (swap, 2.0, 2),
        "nested-product": (zoo.make_product(swap, swap, with_swap=True), 2.0, 2),
    }[kind]
    return system, expansion.build_expansion_datum(system, lam, net_depth=net_depth)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(["free", "cyclic", "schottky", "zn", "product-swap", "nested-product"]),
    points=st.integers(1, 3),
    depth=st.integers(1, 12),
    cap=st.sampled_from([1, 2, 3, 5, 200]),
    n_max=st.integers(0, 4),
    max_chain=st.integers(1, 3),
)
def test_the_streamed_certificate_equals_the_all_points_one(kind, points, depth, cap, n_max, max_chain):
    system, datum = certificate_system(kind)
    net = datum.net[:: max(1, len(datum.net) // points)][:points]
    kwargs = dict(net=net, depth=depth, cap=cap, n_max=n_max, max_chain=max_chain)
    streamed = coding.shyp_certificate(system, datum, **kwargs)
    whole = all_points_certificate(system, datum, **kwargs)
    for name in coding.Certificate._fields:
        assert getattr(streamed, name) == getattr(whole, name), name
