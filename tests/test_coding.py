import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    ExpansivityWitness,
    expansivity_witness,
    nested_steps,
    quasigeodesic_check,
    recurrence_witness,
)

from expaction import groups
from expaction.coding import (
    CodingError,
    Ray,
    RayTable,
    code_ray,
    coding_map,
    enumerate_codes,
    fellow_travel_distance,
    make_code,
    n_equivalence,
    shyp_certificate,
)
from expaction.expansion import ExpansionDatum
from expaction.geometry import circle_dist

RNG = np.random.default_rng(12)


# ---------------------------------------------------------------------------
# codes


def test_fixed_point_code_is_constant(cyclic_system, cyclic_datum):
    d = cyclic_datum
    x = cyclic_system.space.point(0.0)
    code = make_code(d, cyclic_system, d.delta, x, 8)
    assert all(p.value == 0.0 for p in code.points)
    ray = code_ray(d, code)
    assert [w.data for w in ray.words] == [-(i + 1) for i in range(8)]


def test_free_boundary_shift_coding(fb_system, fb_datum):
    d = fb_datum
    x = fb_system.space.point("abab" + "b" * 30)
    code = make_code(d, fb_system, d.delta, x, 6)
    ray = code_ray(d, code)
    # the ray reads off the letters of x
    assert groups.to_str(ray.words[5]) == x.value[:6]
    for i, p in enumerate(code.points):
        assert p.value == x.value[i : i + fb_system.space.depth]


def _cutting_sequence(schottky_system, x, depth):
    # oracle: which expanding arc contains the point at each backward step
    arcs = {letter: m.isometric_arc() for letter, m in schottky_system.letter_maps.items()}
    seq, point = [], x
    for _ in range(depth):
        letter = next(
            l for l, (c, h) in arcs.items() if circle_dist(point.value, c) < h
        )
        # x in the arc where rho(letter) expands means the ray letter is its
        # inverse, and the code applies rho(letter)
        seq.append((letter[0], -letter[1]))
        point = schottky_system.apply(
            schottky_system.alphabet.generator(letter[0], letter[1]), point
        )
    return seq


def test_schottky_code_matches_cutting_sequence(schottky_system, schottky_datum):
    d = schottky_datum
    for x in schottky_system.limit_net(4)[::17]:
        code = make_code(d, schottky_system, d.delta, x, 8)
        ray = code_ray(d, code)
        assert ray.words[7].data == tuple(_cutting_sequence(schottky_system, x, 8))


def test_make_code_rejects_large_eta(fb_system, fb_datum):
    x = fb_system.space.point("ab")
    with pytest.raises(CodingError):
        make_code(fb_datum, fb_system, 2.0 * fb_datum.delta, x, 4)


def test_enumerate_cyclic_initial_variants(cyclic_system, cyclic_datum):
    d = cyclic_datum
    x = cyclic_system.space.point(0.0)
    codes, truncated = enumerate_codes(d, cyclic_system, d.delta, x, 10, 200)
    assert not truncated
    assert len(codes) == 2  # |Sigma| initial-letter variants
    tails = {tuple(w.data for w in code_ray(d, c).words[1:]) for c in codes}
    assert len(tails) == 2


def test_enumerate_zn_ray_classification(zn_system, zn_datum):
    d = zn_datum
    e1 = zn_system.space.point((0.0, 1.0, 0.0))
    codes, _ = enumerate_codes(d, zn_system, d.delta, e1, 5, 200)
    rays = [code_ray(d, c) for c in codes]
    assert len(rays) == 4
    # every ray has the form s * g1^{-k}
    for ray in rays:
        first = ray.words[0].data
        for k, w in enumerate(ray.words):
            assert w.data == (first[0] - k, first[1])
    initials = sorted(r.words[0].data for r in rays)
    assert initials == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_enumerate_cap_truncates(fb_system, fb_datum):
    x = fb_system.space.point("a" * 30)
    codes, truncated = enumerate_codes(fb_datum, fb_system, fb_datum.delta, x, 6, 1)
    assert truncated and len(codes) == 1


def test_eta_monotonicity_by_revalidation(fb_system, fb_datum):
    # every delta-code is an eta-code for smaller eta: from step 1 on, the
    # eta-ball at each point fits in the region of its entry
    d = fb_datum
    entry = {e.index: e for e in d.entries}
    x = fb_system.space.point("baba" + "a" * 30)
    code = make_code(d, fb_system, d.delta, x, 8)
    steps = list(zip(code.alphas, code.points))[1:]
    for eta in (d.delta / 2, d.delta / 4, d.delta / 8):
        assert all(entry[a].region.margin(p) >= eta for a, p in steps)


def test_ray_tails_are_reduced(schottky_system, schottky_datum):
    # letters from index 1 on never cancel (the free initial letter may)
    d = schottky_datum
    symbol = {e.index: e.symbol for e in d.entries}
    for x in schottky_system.limit_net(3)[::5]:
        codes, _ = enumerate_codes(d, schottky_system, d.delta, x, 10, 50)
        for c in codes:
            tail = functools.reduce(groups.multiply, [symbol[a] for a in c.alphas[1:]])
            assert groups.word_length(tail) == len(c.alphas) - 1
            # special codes have fully reduced rays
            if c.special:
                ray = code_ray(d, c)
                assert all(
                    groups.word_length(w) == i + 1 for i, w in enumerate(ray.words)
                )


# ---------------------------------------------------------------------------
# nested images


def test_nested_bound_arithmetic(cyclic_system, cyclic_datum):
    # with L = 4, lam = 1.5, eta = 0.05 the step-10 bound is 2*4*0.05/1.5^10
    d = ExpansionDatum(cyclic_datum.entries, cyclic_datum.delta, 1.5, 4.0, cyclic_datum.net)
    x = cyclic_system.space.point(0.0)
    code = make_code(d, cyclic_system, 0.05, x, 12)
    steps = nested_steps(cyclic_system, d, code, 0.05)
    expected = 2.0 * 4.0 * 0.05 / 1.5**10
    assert expected == pytest.approx(6.937e-3, rel=1e-3)
    assert steps[10].bound == pytest.approx(expected)
    assert steps[10].diameter <= steps[10].bound
    assert all(s.contains_x_error <= 1e-12 for s in steps)


def test_nested_schottky_deep_collapse(schottky_system, schottky_datum):
    d = schottky_datum
    x = schottky_system.limit_net(4)[23]
    code = make_code(d, schottky_system, d.delta, x, 20)
    steps = nested_steps(schottky_system, d, code, d.delta)
    assert all(s.nesting_slack <= 1e-9 for s in steps)
    assert all(s.diameter <= s.bound + 1e-9 for s in steps)
    assert steps[-1].diameter < 1e-6  # the intersection collapses onto x
    assert steps[-1].contains_x_error < 1e-6


# ---------------------------------------------------------------------------
# expansivity


def test_expansivity_already_separated(cyclic_system, cyclic_datum):
    x = cyclic_system.space.point(0.0)
    y = cyclic_system.space.point(math.pi)
    w = expansivity_witness(cyclic_datum, cyclic_system, x, y)
    assert isinstance(w, ExpansivityWitness)
    assert w.n == 0 and w.separation == pytest.approx(math.pi)


def test_expansivity_shift_arithmetic(fb_system, fb_datum):
    # oracle: after n shifts the distance is a^(n - cpl); the first n meeting
    # the threshold is cpl - floor(log_a(1/threshold))
    d = fb_datum
    x = fb_system.space.point("ababa" + "a" * 30)
    y = fb_system.space.point("ababb" + "b" * 30)  # differs at letter 5, cpl 4
    threshold = d.delta * (1 - 1e-6)
    cpl = 4
    expected_n = cpl - math.floor(math.log(1 / threshold, 2.0))
    w = expansivity_witness(d, fb_system, x, y)
    assert isinstance(w, ExpansivityWitness)
    assert w.separation >= threshold
    assert w.n == expected_n == 2


def test_expansivity_close_schottky_pair(schottky_system, schottky_datum):
    d = schottky_datum
    net = schottky_system.limit_net(6)
    vals = sorted(net, key=lambda p: p.value)
    # nearest adjacent pair gives a genuinely close distinct pair
    best = min(
        zip(vals, vals[1:]),
        key=lambda ab: circle_dist(ab[0].value, ab[1].value),
    )
    d0 = circle_dist(best[0].value, best[1].value)
    assert d0 < 1e-3
    w = expansivity_witness(d, schottky_system, best[0], best[1])
    assert isinstance(w, ExpansivityWitness)
    assert w.separation >= d.delta * (1 - 1e-6)
    bound = math.log(d.delta / d0) / math.log(d.lam) * 1.2 + 2
    assert w.n <= bound


def test_expansivity_rejects_equal_points(cyclic_system, cyclic_datum):
    x = cyclic_system.space.point(0.0)
    with pytest.raises(ValueError):
        expansivity_witness(cyclic_datum, cyclic_system, x, x)


# ---------------------------------------------------------------------------
# recurrence


def test_recurrence_at_fixed_point(cyclic_system, cyclic_datum):
    x = cyclic_system.space.point(0.0)
    rep = recurrence_witness(cyclic_system, cyclic_datum, x, cyclic_datum.delta, 30)
    assert rep.residuals and all(r <= 1e-12 for r in rep.residuals)


def test_recurrence_schottky_decay(schottky_system, schottky_datum):
    x = schottky_system.limit_net(4)[37]
    rep = recurrence_witness(
        schottky_system, schottky_datum, x, schottky_datum.delta, 60
    )
    assert rep.residuals
    assert rep.residuals[-1] < 1e-3


def test_recurrence_rejects_large_eta(schottky_system, schottky_datum):
    x = schottky_system.limit_net(4)[0]
    with pytest.raises(ValueError):
        recurrence_witness(
            schottky_system, schottky_datum, x, 2 * schottky_datum.delta, 30
        )


# ---------------------------------------------------------------------------
# quasigeodesics and fellow traveling


def test_qg_slope_arithmetic():
    assert math.log(1.5) / math.log(4.0) == pytest.approx(0.29248, abs=1e-5)


def test_qg_constant_ray_tight(cyclic_system, cyclic_datum):
    d = cyclic_datum
    code = make_code(d, cyclic_system, d.delta, cyclic_system.space.point(0.0), 10)
    ray = code_ray(d, code)
    rep = quasigeodesic_check(d, ray)
    assert rep.ok
    # the constant ray realizes d(c_i, c_j) = i - j exactly
    assert rep.worst_upper_slack == 0


def test_qg_all_enumerated_schottky(schottky_system, schottky_datum):
    d = schottky_datum
    for x in schottky_system.limit_net(3)[::7]:
        codes, _ = enumerate_codes(d, schottky_system, d.delta, x, 12, 100)
        for c in codes:
            rep = quasigeodesic_check(d, code_ray(d, c))
            assert rep.ok and rep.unknown_pairs == 0


def test_fellow_travel_identical(cyclic_system, cyclic_datum):
    d = cyclic_datum
    code = make_code(d, cyclic_system, d.delta, cyclic_system.space.point(0.0), 10)
    ray = code_ray(d, code)
    assert fellow_travel_distance(ray, ray) == 0


def test_fellow_travel_cyclic_initial_variants(cyclic_system, cyclic_datum):
    d = cyclic_datum
    codes, _ = enumerate_codes(
        d, cyclic_system, d.delta, cyclic_system.space.point(0.0), 12, 10
    )
    rays = [code_ray(d, c) for c in codes]
    ft = fellow_travel_distance(rays[0], rays[1])
    assert ft is not None and ft <= 2


def test_n_equivalence_direct_and_interpolated(zn_system, zn_datum):
    d = zn_datum
    e1 = zn_system.space.point((0.0, 1.0, 0.0))
    codes, _ = enumerate_codes(d, zn_system, d.delta, e1, 12, 50)
    rays = [code_ray(d, c) for c in codes]
    by_first = {r.words[0].data: r for r in rays}
    up, down = by_first[(0, 1)], by_first[(0, -1)]
    middle = by_first[(-1, 0)]
    # fellow-traveling rays chain directly
    found, chain = n_equivalence(middle, by_first[(1, 0)], rays, 1)
    assert found and len(chain) == 2
    # the opposite-side rays need one interpolating ray at N = 1
    found, chain = n_equivalence(up, down, rays, 1)
    assert found and len(chain) == 3
    assert chain[1].words[0].data in ((1, 0), (-1, 0))
    # and are not directly tail-close at N = 1
    found, chain = n_equivalence(up, down, [up, down], 1)
    assert not found and chain is None


# ---------------------------------------------------------------------------
# certificates


def test_certificate_free_boundary(fb_system, fb_datum):
    cert = shyp_certificate(
        fb_system, fb_datum, net=fb_system.limit_net(3), depth=12, cap=50, n_max=8
    )
    assert cert.fellow_constant == 1
    assert not cert.truncated


def test_certificate_covered(covered_system, covered_datum):
    cert = shyp_certificate(covered_system, covered_datum, depth=12, cap=50, n_max=8)
    assert cert.fellow_constant is not None
    assert cert.fellow_constant <= 4


def test_certificate_zn_distinguishes_mechanisms(zn_system, zn_datum):
    cert = shyp_certificate(zn_system, zn_datum, depth=12, cap=50, n_max=8)
    assert cert.fellow_constant == 2
    assert cert.chain_constant == 1  # one interpolating ray at N = 1
    tight = shyp_certificate(zn_system, zn_datum, depth=12, cap=50, n_max=1)
    assert not tight.fellow_ok and tight.chain_ok


# The traced heap's peak during a warm certificate on free_boundary(2, 2.0):
# tracing starts before the datum is built, a first certificate warms up,
# and the peak of a second one is read, counting what is live as it starts
# (the datum, and what the first left in Python's free lists).  Each config
# runs in a fresh interpreter, so earlier tests leave nothing behind.
MEMORY_PROBE = """
import sys, tracemalloc
from expaction import coding, expansion, zoo
net_depth, depth = map(int, sys.argv[1:])
system = zoo.make_free_boundary(2, 2.0)
tracemalloc.start()
datum = expansion.build_expansion_datum(system, 2.0, net_depth)
coding.shyp_certificate(system, datum, depth=depth, cap=200, n_max=8)
tracemalloc.reset_peak()
coding.shyp_certificate(system, datum, depth=depth, cap=200, n_max=8)
print(tracemalloc.get_traced_memory()[1])
"""


def test_certificate_memory_is_flat_in_net_size_and_depth():
    # a certificate keeps per point only its rays (code symbols, no prefix
    # words) and two ints per ray pair; every table is built and reduced one
    # point at a time.  Under Python 3.11 the peaks read 0.76 MB at net
    # depth 4 (108 points) and codes depth 20, 1.12 MB at net depth 5 and
    # 0.75 MB at codes depth 40; keeping every point's rays, prefix words and
    # tables to the end read 2.37, 6.38 and 5.43 MB.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               PYTHONHASHSEED="0")
    configs = {"base": (4, 20), "three times the points": (5, 20), "twice the depth": (4, 40)}
    procs = {
        name: subprocess.Popen([sys.executable, "-c", MEMORY_PROBE, *map(str, config)], env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name, config in configs.items()
    }
    peaks = {}
    for name, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        peaks[name] = int(out)
    assert peaks["three times the points"] <= 1.6 * peaks["base"], peaks
    assert peaks["twice the depth"] <= 1.25 * peaks["base"], peaks


def test_fellow_travel_unknown_beyond_cap():
    gen = groups.Alphabet(groups.GENERIC, ("x", "y"))
    x, y = gen.generator(0, 1), gen.generator(1, 1)
    a = Ray((groups.multiply(x, y),))
    b = Ray((groups.multiply(y, y),))
    # the needed word metrics exceed the breadth-first cap, so the verdict
    # is unknown rather than a guessed constant
    assert fellow_travel_distance(a, b, cap=1) is None
    # with a workable cap the endpoints fall inside the truncation margin
    assert fellow_travel_distance(a, b, cap=4) == 1


def test_certificate_records_truncation(fb_system, fb_datum):
    cert = shyp_certificate(
        fb_system, fb_datum, net=fb_system.limit_net(2)[:4], depth=8, cap=2, n_max=8
    )
    assert cert.truncated
    assert all(n <= 2 for n in cert.rays_per_point)


def test_certificate_product_stays_bounded(product_system, product_datum, fb_system, fb_datum):
    comp = shyp_certificate(
        fb_system, fb_datum, net=fb_system.limit_net(2), depth=8, cap=40, n_max=8
    )
    prod = shyp_certificate(
        product_system,
        product_datum,
        net=product_system.limit_net(2),
        depth=8,
        cap=40,
        n_max=8,
    )
    assert comp.fellow_constant == 1
    # an arbitrary initial letter from the opposite factor never cancels, so
    # the product constant exceeds the component constant by exactly one
    assert prod.fellow_constant == comp.fellow_constant + 1
    assert prod.fellow_ok


def test_certificate_product_of_schottky_pairs(schottky_system, schottky_datum):
    from expaction import expansion, zoo

    prod = zoo.make_product(schottky_system, schottky_system, with_swap=True)
    datum = expansion.build_expansion_datum(prod, 1.4, net_depth=2)
    comp = shyp_certificate(
        schottky_system,
        schottky_datum,
        net=schottky_system.limit_net(2),
        depth=8,
        cap=40,
        n_max=8,
    )
    cert = shyp_certificate(
        prod, datum, net=prod.limit_net(2), depth=8, cap=40, n_max=8
    )
    assert comp.fellow_constant == 1
    assert cert.fellow_constant == comp.fellow_constant + 1
    assert cert.fellow_ok and not cert.truncated


# ---------------------------------------------------------------------------
# the coding map


def test_coding_map_schottky_injective(schottky_system, schottky_datum):
    net = schottky_system.limit_net(3)
    prefixes = {
        groups.to_str(coding_map(schottky_system, schottky_datum, x, 12).prefix)
        for x in net
    }
    assert len(prefixes) == len(net)


def test_coding_map_covered_k_to_one(covered_system, covered_datum):
    fibers = {}
    for x in covered_system.limit_net():
        bw = coding_map(covered_system, covered_datum, x, 10)
        fibers.setdefault(bw.prefix.data, []).append(x)
    assert sorted(fibers) == [-10, 10]
    assert all(len(v) == 3 for v in fibers.values())


def test_coding_map_equivariance(schottky_system, schottky_datum):
    d = schottky_datum
    depth = 12
    for x in schottky_system.limit_net(3)[::6]:
        px = coding_map(schottky_system, d, x, depth).prefix
        for s in schottky_system.generators():
            y = schottky_system.apply(s, x)
            py = coding_map(schottky_system, d, y, depth).prefix
            expected = groups.multiply(s, px)
            m = min(depth - 2, groups.word_length(expected), groups.word_length(py))
            assert py.data[:m] == expected.data[:m]


def test_coding_map_determinism_under_tie_reversal(fb_system, fb_datum):
    x = fb_system.space.point("abAb" + "b" * 30)
    bw = coding_map(fb_system, fb_datum, x, 10)
    assert bw.stabilized  # reversed-tie greedy agrees


def test_coding_map_rejects_abelian(zn_system, zn_datum):
    with pytest.raises(ValueError):
        coding_map(zn_system, zn_datum, zn_system.space.point((1.0, 0, 0)), 5)


def test_nested_product_certificate_has_a_null_chain_constant():
    """Product with swap of product with swap of the free boundary, net depth
    2, codes depth 8: the rays fellow-travel at 2 but no chain constant is
    found within n_max 8.  Two causes, both pinned here:

    * the chain search tries only n <= fellow_constant (0, 1, 2);
    * at depth 8 a tail half holds four vertices spanning three word
      lengths, so from n = 2 on the window [lo + n, hi - n] is empty and
      `RayTable.tail_close` returns False, even for a ray against itself.

    The null is therefore an artefact of the truncation depth, not evidence
    against hyperbolicity; this test keeps it from changing silently.
    """
    from expaction import expansion, zoo

    fb = zoo.make_free_boundary(2, 2.0)
    inner = zoo.make_product(fb, fb, with_swap=True)
    system = zoo.make_product(inner, inner, with_swap=True)
    datum = expansion.build_expansion_datum(system, 2.0, net_depth=2)
    cert = shyp_certificate(system, datum, depth=8, n_max=8)
    assert (cert.fellow_constant, cert.chain_constant) == (2, None)
    assert cert.fellow_ok and not cert.truncated
    assert cert.points_checked == 48 and cert.rays_per_point == (19,) * 48
    assert cert.worst_pair == (datum.net[0], 4, 5, 2)

    codes, _ = enumerate_codes(datum, system, datum.delta, datum.net[0], 8, 200)
    rays = [code_ray(datum, c) for c in codes]
    # below the fellow constant some pair does not chain ...
    assert not n_equivalence(rays[0], rays[1], rays, 1)[0]
    # ... and from n = 2 on every tail window is empty
    for n in range(2, cert.n_max + 1):
        assert not any(RayTable((r, r)).tail_close(0, 1, n) for r in rays)
