"""Acceptance suite: one test per criterion, each printing a verdict line.

All tolerances are pinned here; nothing is deferred to later calibration.
"""
import math

import numpy as np
from oracles import (
    ExpansivityWitness,
    chain_search,
    expansivity_witness,
    nested_steps,
    quasigeodesic_check,
)

from expaction import expansion, groups, stability, zoo
from expaction.coding import (
    RayTable,
    code_ray,
    coding_map,
    enumerate_codes,
    make_code,
    n_equivalence,
    shyp_certificate,
)
from expaction.geometry import circle_dist


def _report(n, name):
    print(f"criterion {n} ({name}): PASS")


def test_criterion_1_nested_shrinking(schottky_system, schottky_datum):
    """Rank-2 Schottky, 100 net points, greedy delta-codes to depth 30:
    nesting slack <= 1e-9 and diameter(i) <= 2*L*delta/lam^i at every step."""
    d = schottky_datum
    net = schottky_system.limit_net(4)[:100]
    assert len(net) == 100
    for x in net:
        code = make_code(d, schottky_system, d.delta, x, 30)
        steps = nested_steps(schottky_system, d, code, d.delta)
        assert len(steps) == 30
        for s in steps:
            assert s.nesting_slack <= 1e-9
            assert s.diameter <= s.bound + 1e-9
    _report(1, "nested shrinking")


def test_criterion_2_expansivity(schottky_system, schottky_datum, fb_system, fb_datum):
    """50 random distinct limit-set pairs per system produce a witness with
    separation >= delta*(1 - 1e-6)."""
    rng = np.random.default_rng(17)
    for system, datum in ((schottky_system, schottky_datum), (fb_system, fb_datum)):
        net = system.limit_net(4)
        pairs = 0
        while pairs < 50:
            i, j = rng.integers(0, len(net), size=2)
            if i == j:
                continue
            w = expansivity_witness(datum, system, net[i], net[j])
            assert isinstance(w, ExpansivityWitness)
            assert w.separation >= datum.delta * (1.0 - 1e-6)
            pairs += 1
    _report(2, "expansivity witnesses")


def test_criterion_3_quasigeodesics(
    schottky_system,
    schottky_datum,
    fb_system,
    fb_datum,
    covered_system,
    covered_datum,
    zn_system,
    zn_datum,
):
    """Every enumerated ray (depth 20, cap 200) satisfies
    (log lam / log L)(i-j) <= d(c_i, c_j) <= i-j exactly."""
    cases = [
        (schottky_system, schottky_datum, schottky_system.limit_net(3)[::3]),
        (fb_system, fb_datum, fb_system.limit_net(3)[::3]),
        (covered_system, covered_datum, covered_system.limit_net()),
        (zn_system, zn_datum, zn_system.limit_net()),
    ]
    rays_checked = 0
    for system, datum, net in cases:
        for x in net:
            codes, truncated = enumerate_codes(datum, system, datum.delta, x, 20, 200)
            assert not truncated
            for c in codes:
                rep = quasigeodesic_check(datum, code_ray(datum, c))
                assert rep.unknown_pairs == 0
                assert rep.worst_lower_slack >= -1e-9
                assert rep.worst_upper_slack >= 0
                rays_checked += 1
    assert rays_checked > 100
    _report(3, f"quasigeodesic sandwich on {rays_checked} rays")


def test_criterion_4_hyperbolicity_certificates(
    fb_system, fb_datum, covered_system, covered_datum, zn_system, zn_datum
):
    """FreeBoundary certifies at N = 1; covered-cyclic at a finite N <= 4
    (enumeration confirms N = 1); the projective Z^2 action needs the chain
    mechanism: plain fellow-travel fails at N = 1 but one interpolating ray
    suffices (chain of two steps)."""
    cert_fb = shyp_certificate(
        fb_system, fb_datum, net=fb_system.limit_net(3), depth=20, cap=200, n_max=8
    )
    assert cert_fb.fellow_constant == 1

    cert_cov = shyp_certificate(covered_system, covered_datum, depth=20, cap=200, n_max=8)
    assert cert_cov.fellow_constant is not None
    assert cert_cov.fellow_constant <= 4
    assert cert_cov.fellow_constant == 1  # confirmed by enumeration

    cert_zn = shyp_certificate(zn_system, zn_datum, depth=20, cap=200, n_max=1)
    assert not cert_zn.fellow_ok  # plain fellow-travel fails at N = 1
    assert cert_zn.chain_constant == 1  # the chain mechanism certifies
    # the worst pair needs exactly one interpolating ray (a 2-step chain)
    e1 = zn_system.space.point((0.0, 1.0, 0.0))
    codes, _ = enumerate_codes(zn_datum, zn_system, zn_datum.delta, e1, 20, 200)
    rays = [code_ray(zn_datum, c) for c in codes]
    table = RayTable(rays)
    # tail-close steps alone leave a pair unjoined; one interpolating ray joins all
    joined, pairs = n_equivalence(table, 1, 1)
    assert joined < pairs
    assert n_equivalence(table, 1, 2) == (pairs, pairs)
    row = {r.words[0].data: i for i, r in enumerate(rays)}
    found, chain = chain_search(table, row[(0, 1)], row[(0, -1)], 1)
    assert found and len(chain) == 3
    _report(4, "certificates: FB N=1, cover N=1<=4, Z^2 chains at N=1")


def test_criterion_5_stability_suite(schottky_system, schottky_datum):
    """Schottky jitter within eps/10: phi on a 200-point net with stopping
    diameter < 1e-9, equivariance < 1e-6, displacement < eps and < delta/5,
    injectivity, and a verified perturbed datum; the identity perturbation
    reproduces phi = id to 1e-12; a bump (non-group) perturbation passes the
    same checks."""
    d = schottky_datum
    net = schottky_system.limit_net(5)[:200]
    assert len(net) == 200

    def run_checks(maps, label):
        ps = stability.make_perturbed(expansion.ActionView(schottky_system, maps), d, 1)
        assert max(ps.realized.values()) < ps.epsilon / 10.0, label
        table = stability.conjugacy_map(ps, net=net, tol=1e-9)
        assert not table.failures, label
        assert all(e.stop_diameter < 1e-9 for e in table.entries), label
        residual = max(table.residuals.values())
        assert residual < 1e-6, label
        disp = stability.check_displacement(table, ps)
        assert disp.below_eps and disp.below_delta_fifth, label
        assert stability.check_injectivity(table, ps), label
        dp = stability.perturbed_datum(d, ps, d.delta / 5.0, table)
        assert expansion.verify_expansion(ps.view, dp).passed, label
        return table

    run_checks(zoo.perturb(schottky_system, zoo.MatrixJitter(3e-6, seed=7)), "jitter")

    bump_table = run_checks(
        zoo.perturb(schottky_system, zoo.BumpCompose(center=1.0, width=0.6, height=5e-6)),
        "bump",
    )
    assert bump_table.displacement > 1e-9  # the image net genuinely moved

    pm0 = zoo.perturb(schottky_system, zoo.MatrixJitter(0.0, seed=1))
    ps0 = stability.make_perturbed(expansion.ActionView(schottky_system, pm0), d, 1)
    t0 = stability.conjugacy_map(ps0, net=net[:60], tol=1e-12)
    assert t0.displacement <= 1e-12
    _report(5, "stability suite (jitter, bump, identity)")


def test_criterion_6_continuity_in_the_perturbation(cyclic_system, cyclic_datum):
    """Displacement under jitter magnitudes 1e-4, 1e-5, 1e-6 decreases by at
    least a factor 2 per step, with tolerance factor 1.5."""
    disps = []
    for mag in (1e-4, 1e-5, 1e-6):
        pm = zoo.perturb(cyclic_system, zoo.MatrixJitter(mag, seed=11))
        ps = stability.make_perturbed(expansion.ActionView(cyclic_system, pm), cyclic_datum, 1)
        ps.require_admissible()
        table = stability.conjugacy_map(ps, with_images=False)
        disps.append(table.displacement)
    for a, b in zip(disps, disps[1:]):
        assert b <= (a / 2.0) * 1.5
    _report(6, f"displacement decay {['%.1e' % x for x in disps]}")


def test_criterion_7_coding_map(
    schottky_system, schottky_datum, covered_system, covered_datum
):
    """Schottky coding map injective on the net at prefix depth 20; the
    covered-cyclic coding map is exactly k-to-1 onto the two boundary points;
    generator equivariance holds up to prefix truncation."""
    net = schottky_system.limit_net(4)
    prefixes = {}
    for x, bw in zip(net, coding_map(schottky_system, schottky_datum, net, 20)):
        prefixes[groups.to_str(bw.prefix)] = x
    assert len(prefixes) == len(net)

    fibers = {}
    covered_net = covered_system.limit_net()
    for x, bw in zip(covered_net, coding_map(covered_system, covered_datum, covered_net, 20)):
        fibers.setdefault(bw.prefix.data, []).append(x)
    assert sorted(fibers) == [-20, 20]
    assert all(len(v) == covered_system.space.degree for v in fibers.values())

    depth = 20
    for x in net[::12]:
        (px,) = (bw.prefix for bw in coding_map(schottky_system, schottky_datum, [x], depth))
        ys = [schottky_system.apply(s, x) for s in schottky_system.generators()]
        for s, bw in zip(schottky_system.generators(), coding_map(schottky_system, schottky_datum, ys, depth)):
            py = bw.prefix
            expected = groups.multiply(s, px)
            m = min(depth - 2, groups.word_length(expected), groups.word_length(py))
            assert py.data[:m] == expected.data[:m]
    _report(7, "coding map: injective / 3-to-1 / equivariant")


def test_criterion_8_closed_form_oracle(cyclic_system, cyclic_datum):
    """Translation-conjugated cyclic system: phi(0) agrees with the analytic
    fixed point (chart coordinate t) to 1e-9 for t in {1e-3, 1e-4}."""
    for t in (1e-3, 1e-4):
        pm = zoo.translation_conjugate(cyclic_system, t)
        ps = stability.make_perturbed(expansion.ActionView(cyclic_system, pm), cyclic_datum, 1)
        ps.require_admissible()
        phi0, diag = stability.conjugacy_point(ps, cyclic_system.space.point(0.0), tol=1e-9)
        analytic = cyclic_system.space.point(2.0 * math.atan(t))
        assert circle_dist(phi0.value, analytic.value) <= 1e-9
        assert diag.stop_bound < 1e-9
    _report(8, "phi(0) matches the conjugated fixed point to 1e-9")
