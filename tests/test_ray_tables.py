"""Ray distance tables against the pairwise scans they replaced.

`coding.RayTable` computes the word distances between the path vertices of
a point's rays once and keeps nearest-partner minima; fellow traveling, tail
closeness and chain search read them, and `groups.distance_table` feeds the
quasigeodesic oracle of `oracles.py` the same way.  The scans
they replaced are kept below, on a reference metric built independently of
`groups.distance_table` (the composite word ``u^-1 v`` for exact kinds, the
breadth-first search for generic words), and every verdict must agree,
including on rays of unequal length and generic words beyond the cap.
"""
import functools
import math
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st
from oracles import QuasigeodesicReport, quasigeodesic_check

from expaction import coding, expansion, groups
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
# rays: running products of generators, as code_ray builds them (a step may
# cancel, so word lengths need not grow)

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
    return steps.map(
        lambda gens: Ray(tuple(functools.reduce(lambda acc, g: acc + [multiply(acc[-1], g)],
                                                gens[1:], [gens[0]])))
    )


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
    assert coding.fellow_travel_distance(a, b, cap) == expected
    # a shared table of more rays answers the same
    table = RayTable([other, b, a], cap)
    assert coding.fellow_travel_distance(a, b, cap, table) == expected


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data(), n=st.integers(0, 4))
def test_tail_close_matches_the_old_scan(data, n):
    _, cap, ray = exact_and_generic(data.draw)
    a, b = data.draw(ray), data.draw(ray)
    assert RayTable((a, b), cap).tail_close(0, 1, n) == old_tail_close(a, b, n, cap)


def test_tail_partners_come_from_the_tail_half():
    # a's tail holds g^-1, which b passes only in its first half
    a = Ray(tuple(groups.Word(CY, e) for e in (1, 2, 1, 0, -1, 0)))
    b = Ray(tuple(groups.Word(CY, e) for e in (-1, 0, 1, 0, 1)))
    assert old_tail_close(a, b, 0) is False
    assert RayTable((a, b)).tail_close(0, 1, 0) is False
    assert RayTable((a, b)).tail_close(0, 1, 1) == old_tail_close(a, b, 1)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data(), n=st.integers(0, 3), max_chain=st.integers(1, 3))
def test_n_equivalence_matches_the_old_search(data, n, max_chain):
    _, cap, ray = exact_and_generic(data.draw, max_steps=6)
    distinct = data.draw(st.lists(ray, min_size=2, max_size=4))
    # repeated rays, also as equal copies, must be skipped as the old search did
    pool = data.draw(st.lists(st.sampled_from(distinct), min_size=2, max_size=6))
    pool.append(Ray(tuple(pool[0].words)))
    i, j = data.draw(st.integers(0, len(pool) - 1)), data.draw(st.integers(0, len(pool) - 1))
    expected = old_n_equivalence(pool[i], pool[j], pool, n, max_chain, cap)
    assert coding.n_equivalence(pool[i], pool[j], pool, n, max_chain, cap) == expected
    table = RayTable(pool, cap)
    assert coding.n_equivalence(pool[i], pool[j], pool, n, max_chain, cap, table) == expected


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_quasigeodesic_check_matches_the_old_scan(data, fb_datum):
    _, cap, ray = exact_and_generic(data.draw)
    r = data.draw(ray)
    assert quasigeodesic_check(fb_datum, r, cap) == old_quasigeodesic_check(fb_datum, r, cap)


def test_equal_copies_are_one_ray_in_the_chain_search():
    x, y = F2.generator(0), F2.generator(1)
    a, b = Ray((x, multiply(x, x))), Ray((y, multiply(y, y)))
    pool = [a, b, Ray(a.words), Ray(b.words)]
    assert RayTable(pool).first == [0, 1, 0, 1]
    for start in pool:
        for goal in pool:
            for n in range(3):
                expected = old_n_equivalence(start, goal, pool, n)
                assert coding.n_equivalence(start, goal, pool, n) == expected
    assert coding.n_equivalence(a, pool[2], pool, 0) == (True, (a,))


def test_n_equivalence_needs_both_rays_in_the_pool():
    a, b = Ray((F2.generator(0, 1),)), Ray((F2.generator(1, 1),))
    with pytest.raises(ValueError, match="pool must contain both rays"):
        coding.n_equivalence(a, b, [a], 0)
    with pytest.raises(ValueError, match="pool must contain both rays"):
        coding.fellow_travel_distance(a, b, table=RayTable([a]))
    with pytest.raises(ValueError, match="table must hold exactly the pool"):
        coding.n_equivalence(a, b, [a, b], 0, table=RayTable([a, b, a]))


# ---------------------------------------------------------------------------
# whole certificates: the old scans in place of the table readers


CERTIFICATES = {
    "free": ("fb_system", "fb_datum", dict(depth=8, cap=40, n_max=8), 2),
    "free-tight": ("fb_system", "fb_datum", dict(depth=10, cap=40, n_max=0), 2),
    "zn": ("zn_system", "zn_datum", dict(depth=12, cap=50, n_max=1), None),
    "cyclic": ("cyclic_system", "cyclic_datum", dict(depth=10, cap=20, n_max=8), None),
    "schottky": ("schottky_system", "schottky_datum", dict(depth=8, cap=40, n_max=8), 2),
    "product-swap": ("product_system", None, dict(depth=6, n_max=8), 2),
}


@pytest.mark.parametrize("case", list(CERTIFICATES))
def test_certificates_equal_the_old_scans_field_by_field(monkeypatch, request, case):
    system_name, datum_name, kwargs, net_depth = CERTIFICATES[case]
    system = request.getfixturevalue(system_name)
    if datum_name is None:
        datum = expansion.build_expansion_datum(system, 2.0, net_depth=2)
    else:
        datum = request.getfixturevalue(datum_name)
    if net_depth is not None:
        kwargs = dict(kwargs, net=system.limit_net(net_depth))
    calls = {"fellow": 0, "chain": 0}

    def count(name, fn):
        def wrapped(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapped

    monkeypatch.setattr(coding, "fellow_travel_distance", count("fellow", coding.fellow_travel_distance))
    monkeypatch.setattr(coding, "n_equivalence", count("chain", coding.n_equivalence))
    fast, fast_calls = coding.shyp_certificate(system, datum, **kwargs), dict(calls)
    calls.update(fellow=0, chain=0)
    monkeypatch.setattr(coding, "fellow_travel_distance", count(
        "fellow", lambda a, b, cap=64, table=None: old_fellow_travel_distance(a, b, cap)))
    monkeypatch.setattr(coding, "n_equivalence", count(
        "chain", lambda a, b, pool, n, max_chain=3, cap=64, table=None:
        old_n_equivalence(a, b, pool, n, max_chain, cap)))
    slow = coding.shyp_certificate(system, datum, **kwargs)
    for name in coding.Certificate._fields:
        assert getattr(fast, name) == getattr(slow, name), name
    assert fast_calls == calls and calls["fellow"] > 0
