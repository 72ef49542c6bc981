import math

import numpy as np
import pytest

from expaction import groups, zoo
from expaction.expansion import (
    ActionView,
    ExpansionDatum,
    UncoverableError,
    build_expansion_datum,
    verify_expansion,
)
from expaction.geometry import CylinderRegion, EmptyRegion

RNG = np.random.default_rng(5)


def test_cyclic_datum_shape(cyclic_system, cyclic_datum):
    d = cyclic_datum
    assert d.lam >= 1.5
    assert d.lip <= 4.05
    nonempty = d.nonempty_entries()
    assert len(nonempty) == 2
    centers = sorted(e.region.center for e in nonempty)
    assert centers[0] == pytest.approx(0.0, abs=1e-3)
    assert centers[1] == pytest.approx(math.pi, abs=1e-3)
    # the arc around the repelling point 0 is labeled by the inverse
    at_zero = min(nonempty, key=lambda e: e.region.center)
    assert groups.to_str(at_zero.symbol) == "g^-1"


def test_free_boundary_exact_datum(fb_system, fb_datum):
    d = fb_datum
    assert d.lam == 2.0 and d.lip == 2.0
    assert d.delta == pytest.approx(0.9 * 2.0**-2)
    cylinders = [e for e in d.entries if isinstance(e.region, CylinderRegion)]
    assert len(cylinders) == 4
    assert sorted(e.region.prefix for e in cylinders) == ["A", "B", "a", "b"]
    # cylinder [s] is labeled s; the expanding map is s^-1
    for e in cylinders:
        assert groups.to_str(e.symbol) == e.region.prefix


def test_cyclic_arc_endpoints_match_sublevel_solution(cyclic_datum):
    # oracle: the circle-chart derivative of gamma is (1+x^2)/(1/4 + 4x^2);
    # solving > 1.5 gives |x| < sqrt(1/8), an arc of half-width 2*atan(x*)
    analytic_hw = 2.0 * math.atan(math.sqrt(0.125))
    arc = min(cyclic_datum.nonempty_entries(), key=lambda e: e.region.center)
    assert analytic_hw == pytest.approx(0.67967, abs=1e-5)
    assert analytic_hw - 1e-3 < arc.region.half_width <= analytic_hw


def test_uncoverable_reports_witness(cyclic_system):
    with pytest.raises(UncoverableError) as err:
        build_expansion_datum(cyclic_system, 100.0)
    assert err.value.best_factor < 100.0
    assert err.value.witness is not None


@pytest.mark.parametrize(
    "system_name, rate, witness, reason",
    [
        # every net point has a generator expanding by 3.34435 or more, but
        # the depth-9 probe net reaches outside the arcs of rate 3.3
        ("schottky_system", 3.3, (1.2721120533456087,),
         "Lebesgue number -0.00431704 <= 0 over the probe net"),
        # the net's best factor is 3, but the ring of the smallest ball tried
        # about (1, 0, 0) expands by less than 2.99999
        ("zn_system", 2.99999, ((1.0, 0.0, 0.0),),
         "least expansion factor 2.99994 <= target 2.99999 within radius 0.000706858 of this fixed point"),
    ],
)
def test_an_uncoverable_rate_below_every_best_factor_names_the_test_that_failed(
    request, system_name, rate, witness, reason
):
    system = request.getfixturevalue(system_name)
    with pytest.raises(UncoverableError) as err:
        build_expansion_datum(system, rate)
    assert (err.value.witness.value,) == witness
    assert str(err.value) == f"no cover member for {err.value.witness}: {reason}"
    assert err.value.best_factor is None  # no expansion factor is at fault


def test_verify_passes_all(cyclic_system, cyclic_datum):
    rep = verify_expansion(ActionView(cyclic_system), cyclic_datum)
    assert rep.passed
    exp = [c for c in rep.checks if c.name == "expansion"][0]
    assert exp.worst_slack >= -1e-9


def test_verify_catches_oversized_delta(cyclic_system, cyclic_datum):
    d = cyclic_datum
    bad = ExpansionDatum(d.entries, d.delta * 2.5, d.lam, d.lip, d.net)
    rep = verify_expansion(ActionView(cyclic_system), bad)
    leb = [c for c in rep.checks if c.name == "lebesgue"][0]
    assert not leb.passed
    assert leb.witness  # the ball that fits in no cover member


def test_free_boundary_ball_condition_checked(fb_system, fb_datum):
    rep = verify_expansion(ActionView(fb_system), fb_datum)
    assert rep.passed
    ball = [c for c in rep.checks if c.name == "ball-condition"][0]
    assert ball.samples > 0  # non-geodesic space: really tested
    assert ball.worst_slack >= -1e-9


def test_geodesic_ball_condition_cited(cyclic_datum, cyclic_system):
    rep = verify_expansion(ActionView(cyclic_system), cyclic_datum)
    ball = [c for c in rep.checks if c.name == "ball-condition"][0]
    assert "geodesic" in ball.note


def test_expansion_pairs_inside_regions(schottky_system, schottky_datum):
    # d(fx, fy) >= lam*d(x,y) on sampled pairs inside each cover member
    d = schottky_datum
    space = schottky_system.space
    for e in d.nonempty_entries():
        inv = groups.inverse(e.symbol)
        pts = [p for p in d.net if e.region.margin(p) > 0][:12]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d0 = space.raw_distance(pts[i].value, pts[j].value)
                fx = schottky_system.apply(inv, pts[i])
                fy = schottky_system.apply(inv, pts[j])
                assert space.raw_distance(fx.value, fy.value) >= d.lam * d0 - 1e-9


def test_lipschitz_chain_bound(cyclic_system, cyclic_datum):
    # words of length k are L^k-Lipschitz on the shrunk neighborhood
    d = cyclic_datum
    space = cyclic_system.space
    for k in range(1, 6):
        radius = d.delta / d.lip ** (k - 1)
        pts = [space.point(f * radius) for f in (-0.9, -0.4, 0.0, 0.4, 0.9)]
        pts += [space.point(math.pi + f * radius) for f in (-0.9, 0.0, 0.9)]
        g = groups.Word(cyclic_system.alphabet, k)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d0 = space.raw_distance(pts[i].value, pts[j].value)
                gx = cyclic_system.apply(g, pts[i])
                gy = cyclic_system.apply(g, pts[j])
                assert (
                    space.raw_distance(gx.value, gy.value) <= d.lip**k * d0 + 1e-9
                )


def test_build_is_deterministic(covered_system):
    d1 = build_expansion_datum(covered_system, 1.5)
    d2 = build_expansion_datum(covered_system, 1.5)
    assert d1 == d2


def test_covered_cover_has_component_per_lift(covered_datum):
    # the label map is not injective: k arcs share each generator symbol
    by_symbol = {}
    for e in covered_datum.nonempty_entries():
        by_symbol.setdefault(str(e.symbol), []).append(e)
    assert set(by_symbol) == {"g^1", "g^-1"}
    assert all(len(v) == 3 for v in by_symbol.values())


def test_zn_datum_empty_region_is_first_class(zn_datum):
    empties = [e for e in zn_datum.entries if isinstance(e.region, EmptyRegion)]
    assert len(empties) == 1
    assert str(empties[0].symbol) == "(0,1)"
    syms = zn_datum.symbols()
    assert all(groups.inverse(s) in syms for s in syms)


def test_product_datum_builds_and_verifies(product_system, product_datum):
    rep = verify_expansion(ActionView(product_system), product_datum)
    assert rep.passed
    swap_entries = [e for e in product_datum.entries if e.index.endswith("swap")]
    assert len(swap_entries) == 1 and swap_entries[0].region.is_empty()
    assert product_datum.delta <= min(0.9 * product_system.space.separation, 0.225)


def test_perturbed_view_verifies(schottky_system, schottky_datum):
    pm = zoo.perturb(schottky_system, zoo.MatrixJitter(1e-6, seed=2))
    rep = verify_expansion(ActionView(schottky_system, pm), schottky_datum, tol=1e-5)
    # tiny perturbations still satisfy the datum inequalities at loose slack
    assert rep.passed


def test_a_view_refuses_a_word_over_another_alphabet(schottky_system):
    # the cyclic generator's one letter is also a Schottky letter: only the
    # alphabet tells the two apart, with the system's own maps or perturbed ones
    g = zoo.make_cyclic_hyperbolic(2.0).alphabet.generator(0, 1)
    x = schottky_system.space.point(1.0)
    for maps in (None, zoo.perturb(schottky_system, zoo.MatrixJitter(1e-6, seed=2))):
        with pytest.raises(groups.AlphabetMismatchError):
            ActionView(schottky_system, maps).apply_word(g, x)
