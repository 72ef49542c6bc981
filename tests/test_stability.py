import math

import numpy as np
import pytest
from oracles import (
    ExpansivityWitness,
    check_code_independence,
    check_continuity_modulus,
    expansivity_witness,
)

from expaction import zoo
from expaction.expansion import (
    ActionView,
    ExpansionDatum,
    UncoverableError,
    build_expansion_datum,
    verify_expansion,
)
from expaction.geometry import Circle, circle_dist
from expaction.stability import (
    AdmissibilityError,
    ConjugacyTable,
    PerturbedSystem,
    TableEntry,
    check_displacement,
    check_injectivity,
    conjugacy_map,
    conjugacy_point,
    lipschitz_distance,
    make_perturbed,
    net_pairs,
    perturbation_epsilon,
    perturbed_datum,
)

RNG = np.random.default_rng(2024)


def _datum(lam, lip, delta):
    from expaction.expansion import CoverEntry
    from expaction.geometry import ArcRegion

    c = Circle()
    entry = CoverEntry(
        "00:u", zoo.make_cyclic_hyperbolic(2.0).alphabet.generator(0, 1),
        ArcRegion(space=c, center=0.0, half_width=2 * delta, label="u"),
    )
    return ExpansionDatum((entry,), delta, lam, lip, (c.point(0.0),))


def test_perturbation_epsilon_formula():
    d = _datum(1.5, 4.0, 0.1)
    assert perturbation_epsilon(d, 2) == pytest.approx(0.25 * (0.1 / 48))
    assert perturbation_epsilon(d, 2) == pytest.approx(1 / 1920)


def test_perturbation_epsilon_vanishes_as_lam_to_one():
    d = _datum(1.0 + 1e-9, 4.0, 0.1)
    assert perturbation_epsilon(d, 2) < 1e-9


def test_perturbation_epsilon_min_branch():
    # once delta exceeds (N+1)*L^N the min clamps and eps = (lam-1)/2
    big = _datum(3.0, 3.0, 7.0)
    assert 7.0 / (2 * 3.0) > 1.0
    assert perturbation_epsilon(big, 1) == pytest.approx(1.0)


def test_perturbation_epsilon_requires_positive_n(cyclic_datum):
    with pytest.raises(ValueError):
        perturbation_epsilon(cyclic_datum, 0)


def test_lipschitz_distance_identical_and_rotation():
    c = Circle()
    pairs = net_pairs(c, [c.point(t) for t in np.linspace(0, 2 * math.pi, 32, endpoint=False)])
    ident = zoo.MoebiusMap(((1.0, 0.0), (0.0, 1.0)))
    assert lipschitz_distance(c, ident, ident, pairs) == 0.0
    t = 0.037
    # the rotation of the disk chart by t, in the chart of the half-plane
    rot = zoo.MoebiusMap(((math.cos(t / 2), math.sin(t / 2)), (-math.sin(t / 2), math.cos(t / 2))))
    # two isometries have identical stretch quotients, so the distance is
    # exactly the displacement
    assert lipschitz_distance(c, ident, rot, pairs) == pytest.approx(t, abs=1e-12)


def test_lipschitz_distance_conjugated_cyclic(cyclic_system, cyclic_datum):
    # realized distance scales linearly in t and stays admissible
    realized = {}
    for t in (1e-3, 1e-4):
        pm = zoo.translation_conjugate(cyclic_system, t)
        ps = make_perturbed(ActionView(cyclic_system, pm), cyclic_datum, 1)
        realized[t] = max(ps.realized.values())
        assert realized[t] < ps.epsilon
    assert realized[1e-4] == pytest.approx(realized[1e-3] / 10.0, rel=0.1)


def test_jitter_realized_distance_scales_linearly(schottky_system, schottky_datum):
    realized = {}
    for mag in (1e-4, 1e-5):
        pm = zoo.perturb(schottky_system, zoo.MatrixJitter(mag, seed=7))
        ps = make_perturbed(ActionView(schottky_system, pm), schottky_datum, 1)
        realized[mag] = max(ps.realized.values())
    assert realized[1e-5] < 1e-3
    assert realized[1e-4] == pytest.approx(10 * realized[1e-5], rel=0.2)


def test_lipschitz_distance_rejects_singleton():
    c = Circle()
    with pytest.raises(ValueError, match="at least two net points"):
        net_pairs(c, [c.point(0.0)])


# ---------------------------------------------------------------------------
# the conjugacy


def test_identity_perturbation_gives_identity(cyclic_system, cyclic_datum):
    pm = zoo.perturb(cyclic_system, zoo.MatrixJitter(0.0, seed=1))
    ps = make_perturbed(ActionView(cyclic_system, pm), cyclic_datum, 1)
    assert not ps.violations() and max(ps.realized.values()) == 0.0
    table = conjugacy_map(ps, tol=1e-12)
    assert table.displacement <= 1e-12
    assert max(table.residuals.values()) <= 1e-12


def test_conjugacy_matches_closed_form_fixed_point(cyclic_system, cyclic_datum):
    for t in (1e-3, 1e-4):
        pm = zoo.translation_conjugate(cyclic_system, t)
        ps = make_perturbed(ActionView(cyclic_system, pm), cyclic_datum, 1)
        ps.require_admissible()
        phi0, diag = conjugacy_point(ps, cyclic_system.space.point(0.0))
        expected = cyclic_system.space.point(2.0 * math.atan(t))
        assert circle_dist(phi0.value, expected.value) <= 1e-9
        assert diag.stop_bound < 1e-9


def test_diagonal_jitter_preserves_cyclic_fixed_points(cyclic_system, cyclic_datum):
    pm = zoo.perturb(cyclic_system, zoo.MatrixJitter(1e-5, seed=4, diagonal_only=True))
    ps = make_perturbed(ActionView(cyclic_system, pm), cyclic_datum, 1)
    table = conjugacy_map(ps)
    assert table.displacement <= 1e-10  # fixed points unmoved, phi = id on them


def test_admissibility_gate_names_generator(schottky_system, schottky_datum):
    pm = zoo.perturb(schottky_system, zoo.MatrixJitter(0.05, seed=1))
    ps = make_perturbed(ActionView(schottky_system, pm), schottky_datum, 1)
    with pytest.raises(AdmissibilityError) as err:
        conjugacy_point(ps, schottky_datum.net[0])
    assert any(name in str(err.value) for name in ("a", "b", "A", "B"))


def test_a_nan_distance_is_a_violation(schottky_system, schottky_datum):
    # maps that are not finite have no Lipschitz distance to the action
    realized = {"a": float("nan"), "A": 0.0}
    view = ActionView(schottky_system, dict(schottky_system.letter_maps))
    ps = PerturbedSystem(schottky_system, schottky_datum, view, realized, 1e-3)
    assert ps.violations() == ["a"]
    with pytest.raises(AdmissibilityError, match="perturbation of a reaches"):
        ps.require_admissible()


def test_schottky_jitter_full_table(schottky_system, schottky_datum):
    net = schottky_system.limit_net(4)[:40]
    pm = zoo.perturb(schottky_system, zoo.MatrixJitter(3e-6, seed=7))
    ps = make_perturbed(ActionView(schottky_system, pm), schottky_datum, 1)
    assert max(ps.realized.values()) < ps.epsilon / 10
    table = conjugacy_map(ps, net=net)
    assert not table.failures
    assert all(e.stop_diameter < 1e-9 for e in table.entries)
    assert max(table.residuals.values()) < 1e-6
    disp = check_displacement(table, ps)
    assert disp.below_eps and disp.below_delta_fifth
    assert check_injectivity(table, ps)


def test_conjugacy_is_bit_stable(schottky_system, schottky_datum):
    net = schottky_system.limit_net(3)[:10]
    pm = zoo.perturb(schottky_system, zoo.MatrixJitter(3e-6, seed=7))
    ps = make_perturbed(ActionView(schottky_system, pm), schottky_datum, 1)
    t1 = conjugacy_map(ps, net=net, with_images=False)
    t2 = conjugacy_map(ps, net=net, with_images=False)
    assert [e.phi.value for e in t1.entries] == [e.phi.value for e in t2.entries]


def test_convergence_rate_bound(schottky_system, schottky_datum):
    pm = zoo.perturb(schottky_system, zoo.MatrixJitter(3e-6, seed=7))
    ps = make_perturbed(ActionView(schottky_system, pm), schottky_datum, 1)
    _, diag = conjugacy_point(ps, schottky_datum.net[5], tol=1e-9)
    lam_p = schottky_datum.lam - ps.epsilon
    lip_p = schottky_datum.lip + ps.epsilon
    worst_case = math.log(2 * schottky_datum.delta * lip_p / 1e-9) / math.log(lam_p)
    assert diag.iterations <= worst_case + 1


def test_code_independence(schottky_system, schottky_datum):
    pm = zoo.perturb(schottky_system, zoo.MatrixJitter(3e-6, seed=7))
    ps = make_perturbed(ActionView(schottky_system, pm), schottky_datum, 1)
    for x in schottky_datum.net[::40]:
        assert check_code_independence(ps, x, tol=1e-9) <= 2e-9


def test_injectivity_flags_collapsed_table(schottky_system, schottky_datum):
    pm = zoo.perturb(schottky_system, zoo.MatrixJitter(0.0, seed=1))
    ps = make_perturbed(ActionView(schottky_system, pm), schottky_datum, 1)
    net = schottky_datum.net
    phi = net[0]
    table = ConjugacyTable(
        entries=[TableEntry(net[0], phi, 1, 0.0), TableEntry(net[1], phi, 1, 0.0)],
        extra={},
        displacement=0.0,
    )
    assert not check_injectivity(table, ps)
    # a word delta-separates the collapsed points, contradicting a
    # displacement below delta/2
    witness = expansivity_witness(ps.datum, ps.base, net[0], net[1])
    assert isinstance(witness, ExpansivityWitness)
    assert witness.separation >= schottky_datum.delta * (1.0 - 1e-6)


def test_phi_of_repeated_point_keeps_first_entry(schottky_datum):
    x, y, z = schottky_datum.net[:3]
    table = ConjugacyTable(
        entries=[TableEntry(x, y, 1, 0.0), TableEntry(x, z, 1, 0.0)],
        extra={x: z, y: x},
        displacement=0.0,
    )
    assert table.phi_of(x) == y  # net entries win, the first of a repeat wins
    assert table.phi_of(y) == x
    assert table.phi_of(z) is None


def test_continuity_modulus_rows(schottky_system, schottky_datum):
    pm = zoo.perturb(schottky_system, zoo.MatrixJitter(3e-6, seed=7))
    ps = make_perturbed(ActionView(schottky_system, pm), schottky_datum, 1)
    table = conjugacy_map(ps, net=schottky_system.limit_net(3), with_images=False)
    rows = check_continuity_modulus(table, ps, ks=(5, 10))
    assert [r["k"] for r in rows] == [5, 10]
    assert all(r["ok"] for r in rows)


# ---------------------------------------------------------------------------
# the perturbed datum


def test_perturbed_datum_degenerate(schottky_system, schottky_datum):
    pm = zoo.perturb(schottky_system, zoo.MatrixJitter(0.0, seed=1))
    ps = make_perturbed(ActionView(schottky_system, pm), schottky_datum, 1)
    d = schottky_datum
    identity = ConjugacyTable([TableEntry(x, x, 1, 0.0) for x in d.net], {}, 0.0)
    dp = perturbed_datum(d, ps, d.delta / 5.0, identity)
    assert dp.lam == pytest.approx(d.lam) and dp.lip == pytest.approx(d.lip)
    assert dp.delta < 0.8 * d.delta
    # strictly shrunk regions
    for e_old, e_new in zip(d.nonempty_entries(), dp.nonempty_entries()):
        for p in d.net[:20]:
            assert e_new.region.margin(p) <= e_old.region.margin(p) - d.delta / 5 + 1e-12
    assert verify_expansion(ps.view, dp).passed


def test_perturbed_datum_jitter_verifies(schottky_system, schottky_datum):
    net = schottky_system.limit_net(4)[:40]
    pm = zoo.perturb(schottky_system, zoo.MatrixJitter(3e-6, seed=7))
    ps = make_perturbed(ActionView(schottky_system, pm), schottky_datum, 1)
    table = conjugacy_map(ps, net=net, with_images=False)
    dp = perturbed_datum(schottky_datum, ps, schottky_datum.delta / 5.0, table)
    realized = max(ps.realized.values())
    assert dp.lam == pytest.approx(schottky_datum.lam - realized)
    assert dp.lip == pytest.approx(schottky_datum.lip + realized)
    assert verify_expansion(ps.view, dp).passed


def test_an_uncovered_perturbed_net_reports_no_expansion_factor(schottky_system):
    # zero jitter at net depth 3, with the first phi moved to 0.509 from the
    # net (delta 0.205): the shrunk cover misses it, and the Lebesgue
    # number, a margin, is no expansion factor
    d = build_expansion_datum(schottky_system, 1.4, 3)
    pm = zoo.perturb(schottky_system, zoo.MatrixJitter(0.0, seed=1))
    ps = make_perturbed(ActionView(schottky_system, pm), d, 1)
    table = conjugacy_map(ps, with_images=False)
    moved = schottky_system.space.point(0.7853927)
    table.entries[0] = table.entries[0]._replace(phi=moved)
    with pytest.raises(UncoverableError) as err:
        perturbed_datum(d, ps, d.delta / 5.0, table)
    assert err.value.witness == moved and err.value.best_factor is None
    assert str(err.value).endswith(": Lebesgue number -0.345331 <= 0 over the perturbed net")


def test_perturbed_datum_rejects_large_r(schottky_system, schottky_datum):
    pm = zoo.perturb(schottky_system, zoo.MatrixJitter(0.0, seed=1))
    ps = make_perturbed(ActionView(schottky_system, pm), schottky_datum, 1)
    with pytest.raises(ValueError):
        perturbed_datum(schottky_datum, ps, 0.9 * schottky_datum.delta, ConjugacyTable([], {}, 0.0))
