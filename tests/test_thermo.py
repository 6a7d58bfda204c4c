"""Constitutive closures: frozen oracles, consistency checks, certification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from nsflab import thermo
from nsflab.errors import DomainError, ModelViolationError
from test_step_oracle import _ref_member_temperatures, _ref_temperature_from_energy

# ---------------------------------------------------------------------------
# pressure


def test_pressure_ideal_unit_point(ideal):
    assert thermo.pressure(ideal, 0.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_pressure_vacuum_is_radiation_only(ideal):
    # P(0)=0, so only (a/3) theta^4 survives
    assert thermo.pressure(ideal, 0.3, 0.0, 1.0) == pytest.approx(0.1, abs=1e-15)


def test_pressure_generic_frozen_value(law_a):
    # Z=2, P(2) = 2 + 4/3 = 10/3; theta^(5/2) = 1  (hand calculation)
    assert thermo.pressure(law_a, 0.0, 2.0, 1.0) == pytest.approx(10.0 / 3.0, abs=1e-14)


def test_pressure_parts_sum(ideal):
    pm, pr = thermo.pressure_parts(ideal, 0.5, 2.0, 3.0)
    assert pm == pytest.approx(6.0, rel=1e-14)
    assert pr == pytest.approx(0.5 / 3.0 * 81.0, rel=1e-14)
    assert thermo.pressure(ideal, 0.5, 2.0, 3.0) == pytest.approx(pm + pr, rel=1e-15)


@pytest.mark.parametrize("rho,theta", [(1.0, 0.0), (1.0, -2.0), (np.nan, 1.0), (1.0, np.inf)])
def test_pressure_domain_errors(ideal, rho, theta):
    with pytest.raises(DomainError):
        thermo.pressure(ideal, 0.0, rho, theta)


# ---------------------------------------------------------------------------
# internal energy


def test_internal_energy_ideal(ideal):
    assert thermo.internal_energy(ideal, 0.0, 1.0, 2.0) == pytest.approx(3.0, abs=1e-14)


def test_internal_energy_with_radiation(ideal):
    # (3/2)*1 + 1*1/2 = 2
    assert thermo.internal_energy(ideal, 1.0, 2.0, 1.0) == pytest.approx(2.0, abs=1e-14)


def test_internal_energy_rejects_vacuum(ideal):
    with pytest.raises(DomainError):
        thermo.internal_energy(ideal, 0.0, 0.0, 1.0)


def test_internal_energy_checks_its_state_once(ideal, count_calls):
    calls = count_calls(thermo, "_check_state")
    thermo.internal_energy(ideal, 0.0, np.full(4, 2.0), np.full(4, 0.5))
    assert len(calls) == 1


def test_internal_energy_density_at_vacuum(ideal):
    assert thermo.internal_energy_density(ideal, 2.0, 0.0, 1.5) == pytest.approx(
        2.0 * 1.5 ** 4, rel=1e-14
    )


def test_energy_density_increasing_in_theta(law_a):
    # positivity oracle for c_v: centered differences, h = 1e-6
    rng = np.random.default_rng(7)
    rho = rng.uniform(0.1, 5.0, 100)
    theta = rng.uniform(0.2, 4.0, 100)
    h = 1e-6
    up = thermo.internal_energy_density(law_a, 0.0, rho, theta + h)
    dn = thermo.internal_energy_density(law_a, 0.0, rho, theta - h)
    assert np.all((up - dn) / (2 * h) > 0.0)


# ---------------------------------------------------------------------------
# entropy


def test_entropy_ideal_reference_point(ideal):
    assert thermo.entropy(ideal, 0.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_entropy_ideal_log_point(ideal):
    # s = (3/2) log theta - log rho = 1 at theta = e^(2/3)
    assert thermo.entropy(ideal, 0.0, 1.0, math.exp(2.0 / 3.0)) == pytest.approx(1.0, abs=1e-13)


def test_entropy_generic_frozen_values(law_a):
    # Hand-integrated: S(Z) = -log Z - log((1+Z)/2) - (3/2)/(1+Z) + 3/4
    #   S(2)   = -log 3 + 1/4
    #   S(0.5) =  log(8/3) - 1/4
    #   S(10)  = -log 55 - 3/22 + 3/4
    got = thermo.entropy_S(law_a, np.array([2.0, 0.5, 10.0]))
    want = np.array(
        [-math.log(3.0) + 0.25, math.log(8.0 / 3.0) - 0.25, -math.log(55.0) - 3.0 / 22.0 + 0.75]
    )
    assert np.allclose(got, want, atol=1e-9)


def test_entropy_quadrature_matches_closed_form_ideal():
    # same law as the ideal gas but forced through the quadrature path
    gas_q = thermo.gas_from_expression("ideal-q", "Z", S0=0.0, P_inf=0.0)
    z = np.logspace(-2, 2, 17)
    assert np.allclose(thermo.entropy_S(gas_q, z), -np.log(z), atol=1e-9)


def test_entropy_strictly_decreasing_in_Z(law_a):
    z = np.logspace(-3, 3, 41)
    s = thermo.entropy_S(law_a, z)
    assert np.all(np.diff(s) < 0.0)


def test_entropy_density_vacuum_limit(ideal):
    out = thermo.entropy_density(ideal, 0.9, 0.0, 2.0)
    assert out == pytest.approx(0.9 * 4.0 / 3.0 * 8.0, rel=1e-14)


def test_entropy_radiation_term(ideal):
    s = thermo.entropy(ideal, 1.5, 2.0, 1.0)
    assert s == pytest.approx(0.0 - math.log(2.0) + 1.5 * 4.0 / 3.0 / 2.0, rel=1e-13)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_entropy_monotonicity_signs(rho, theta):
    gas = thermo.ideal_gas()
    h = 1e-6
    drho = thermo.entropy(gas, 0.2, rho + h, theta) - thermo.entropy(gas, 0.2, rho - h, theta)
    dtheta = thermo.entropy(gas, 0.2, rho, theta + h) - thermo.entropy(gas, 0.2, rho, theta - h)
    assert drho < 0.0
    assert dtheta > 0.0


# ---------------------------------------------------------------------------
# Gibbs relation


def test_gibbs_ideal_point(ideal):
    r1, r2 = thermo.gibbs_residual(ideal, 0.0, 1.0, 1.0)
    assert abs(r1) < 1e-8 and abs(r2) < 1e-8


def test_gibbs_radiation_point(ideal):
    r1, r2 = thermo.gibbs_residual(ideal, 0.5, 2.0, 3.0)
    assert abs(r1) < 1e-7 and abs(r2) < 1e-7


def test_gibbs_grid_all_laws(ideal, law_a):
    # finite-difference noise grows with the theta^4 radiation scale, so the
    # residual is measured relative to the local energy derivative magnitude
    rho, theta = np.meshgrid(np.logspace(-1, 1, 12), np.logspace(-1, 1, 12))
    for gas in (ideal, law_a):
        for a in (0.0, 0.5):
            r1, r2 = thermo.gibbs_residual(gas, a, rho, theta)
            scale = 1.0 + thermo.cv_total(gas, a, rho, theta)
            assert np.max(np.abs(r1) / scale) < 1e-7
            assert np.max(np.abs(r2) / scale) < 1e-7


def test_gibbs_mutation_detected(ideal):
    # corrupting e by 1% must push the first residual past 1e-3
    r1, _ = thermo.gibbs_residual_from(
        lambda r, t: thermo.pressure(ideal, 0.0, r, t),
        lambda r, t: 1.01 * thermo.internal_energy(ideal, 0.0, r, t),
        lambda r, t: thermo.entropy(ideal, 0.0, r, t),
        np.asarray(1.0), np.asarray(1.0),
    )
    assert abs(r1) > 1e-3


# ---------------------------------------------------------------------------
# heat capacity and sound speed


def test_cv_ideal_constant(ideal):
    assert thermo.heat_capacity_cv(ideal, 0.3, 7.0) == pytest.approx(1.5, abs=1e-14)


def test_cv_generic_frozen_and_fd(law_a):
    # Z=1: P=3/2, P'=7/4; cv = (3/2)(5/2*3/2 - 3/2*7/4) = 27/16
    cv = thermo.heat_capacity_cv(law_a, 1.0, 1.0)
    assert cv == pytest.approx(27.0 / 16.0, abs=1e-13)
    h = 1e-6
    fd = (
        thermo.internal_energy(law_a, 0.0, 1.0, 1.0 + h)
        - thermo.internal_energy(law_a, 0.0, 1.0, 1.0 - h)
    ) / (2 * h)
    assert cv == pytest.approx(fd, abs=1e-6)


def test_cv_positive_at_cold_dilute(law_a):
    assert thermo.heat_capacity_cv(law_a, 0.1, 10.0) > 0.0


def test_cv_violation_raises():
    bad = thermo.GasModel(
        name="bad",
        P=lambda z: np.asarray(z, float) ** 3,
        dP=lambda z: 3.0 * np.asarray(z, float) ** 2,
    )
    with pytest.raises(ModelViolationError):
        thermo.heat_capacity_cv(bad, 1.0, 1.0)


@pytest.mark.parametrize("fn", [thermo.sound_speed_sq, thermo.cv_total])
def test_sound_speed_and_cv_total_reject_bad_states(ideal, fn):
    for rho, theta in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                       (np.nan, 1.0), (1.0, np.inf)):
        with pytest.raises(DomainError):
            fn(ideal, 0.1, rho, theta)
    bad = thermo.GasModel(
        name="bad",
        P=lambda z: np.asarray(z, float) ** 3,
        dP=lambda z: 3.0 * np.asarray(z, float) ** 2,
    )
    with pytest.raises(ModelViolationError):
        fn(bad, 0.1, 1.0, 1.0)


def _closures_from_energy(gas, a, rho, e_density):
    """(theta, p, c_s^2) at density rho and internal energy density e_density,
    with every check of the step oracle's frozen inversion and of the
    closures: the checked form of a stage's face recovery
    (`thermo.admissible_temperature`, then `thermo._closures_at`), kept as
    its bitwise oracle.

    DomainError for non-finite input, rho <= 0, e_density <= 0 or a
    recovered theta that is not positive and finite, ModelViolationError
    for c_v <= 0.  a may hold one value per batch member, inverted member
    by member.
    """
    theta = _ref_member_temperatures(gas, a, rho, e_density)
    rho = np.asarray(rho, dtype=float)
    if (rho <= 0.0).any():  # vacuum has a temperature when a > 0, but no sound speed
        raise DomainError("density must be positive")
    if not np.all((theta > 0.0) & (theta < math.inf)):
        raise DomainError("recovered temperature must be positive and finite")
    return (theta, *thermo._closures_at(gas, a, rho, theta))


@pytest.mark.parametrize("gas_name,a", [("ideal", 0.0), ("ideal", 0.3),
                                        ("law_a", 0.0), ("law_a", 0.3)])
def test_closures_from_energy_match_the_separate_closures_bitwise(request, gas_name, a):
    gas = request.getfixturevalue(gas_name)
    rng = np.random.default_rng(7)
    # left and right face states of 49 faces, stacked as the solver does
    rho = rng.uniform(0.1, 4.0, (2, 49))
    e = thermo.internal_energy_density(gas, a, rho, rng.uniform(0.2, 3.0, (2, 49)))
    theta = _ref_temperature_from_energy(gas, a, rho, e)
    want = (theta, thermo.pressure(gas, a, rho, theta),
            thermo.sound_speed_sq(gas, a, rho, theta))
    got = _closures_from_energy(gas, a, rho, e)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_sound_speed_evaluates_the_law_once(ideal, law_a):
    # one Z, one P(Z) and one P'(Z) per call, in the expression order of
    # the separate closure derivatives, so the bits stay theirs
    rng = np.random.default_rng(5)
    rho = rng.uniform(0.1, 4.0, (2, 49))
    theta = rng.uniform(0.2, 3.0, (2, 49))
    for law in (ideal, law_a):
        calls = []

        def count(name, fn):
            return lambda z: calls.append(name) or fn(z)

        gas = thermo.GasModel(name=law.name, P=count("P", law.P), dP=count("dP", law.dP),
                              law_text=law.law_text)
        got = thermo.sound_speed_sq(gas, 0.3, rho, theta)
        assert sorted(calls) == ["P", "dP"]
        z = rho * theta ** -1.5
        stab = 2.5 * law.P(z) - 1.5 * z * law.dP(z)
        num = theta ** 1.5 * stab + (4.0 * 0.3 / 3.0) * theta ** 3
        cv = 1.5 * stab / z + 4.0 * 0.3 * theta ** 3 / rho
        want = np.maximum(theta * law.dP(z) + theta * num ** 2 / (rho ** 2 * cv), thermo._EPS)
        assert got.tobytes() == want.tobytes()


def test_stage_closures_evaluate_the_law_once(ideal, law_a):
    # after the inversion, one P(Z) and one P'(Z) per call serve both p and
    # c_s^2; the inversion itself runs on the uncounted law
    rng = np.random.default_rng(5)
    rho = rng.uniform(0.1, 4.0, (2, 49))
    theta = rng.uniform(0.2, 3.0, (2, 49))
    for law in (ideal, law_a):
        calls = []

        def count(name, fn):
            return lambda z: calls.append(name) or fn(z)

        gas = thermo.GasModel(name=law.name, P=count("P", law.P), dP=count("dP", law.dP),
                              law_text=law.law_text)
        e = thermo.internal_energy_density(law, 0.3, rho, theta)
        th = thermo.admissible_temperature(law, 0.3, rho, e)
        got = thermo._closures_at(gas, 0.3, rho, th)
        assert sorted(calls) == ["P", "dP"]
        want = thermo._closures_at(law, 0.3, rho, th)
        for g, w in zip(got, want, strict=True):
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("gas_name", ["ideal", "law_a"])
def test_stage_closures_match_closures_from_energy_bitwise(request, gas_name):
    # one a (zero and positive) on stacked (side, face) arrays, and members
    # with their own a on (side, member, face) arrays
    gas = request.getfixturevalue(gas_name)
    rng = np.random.default_rng(17)
    a_m = np.array([1e-6, 0.3, 30.0]).reshape((3, 1))
    for a, shape in ((0.0, (2, 49)), (0.3, (2, 49)), (a_m, (2, 3, 49))):
        rho = rng.uniform(0.1, 4.0, shape)
        e = thermo.internal_energy_density(gas, a, rho, rng.uniform(0.2, 3.0, shape))
        theta = thermo.admissible_temperature(gas, a, rho, e)  # a stage's face recovery
        got = (theta, *thermo._closures_at(gas, a, rho, theta))
        want = _closures_from_energy(gas, a, rho, e)
        for g, w in zip(got, want, strict=True):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


def _reference_ideal_newton(a, rho, e, rtol, max_iter):
    """The expression form of `_invert_ideal`'s Newton loop (one a), kept
    as the oracle of its buffered form."""
    c = 1.5 * rho
    th = np.minimum(e / c, (e / a) ** 0.25)
    for _ in range(max_iter):
        at3 = a * th * th * th
        new = th - (th * (c + at3) - e) / (c + 4.0 * at3)
        if (np.abs(new - th) <= rtol * new).all():
            return new
        th = new
    raise AssertionError("no convergence")


def test_ideal_newton_matches_the_expression_loop_bitwise(ideal):
    # one a, and members with their own a that converge after different
    # numbers of steps, on a state field (M, n) and a face field (2, M, n)
    rng = np.random.default_rng(13)
    rho = rng.uniform(1e-3, 4.0, (2, 3, 40))
    theta = rng.uniform(0.05, 30.0, (2, 3, 40))
    a = np.array([1e-6, 0.3, 30.0])
    for k in range(3):
        e = thermo.internal_energy_density(ideal, a[k], rho[:, k], theta[:, k])
        want = _reference_ideal_newton(a[k], rho[:, k], e, 1e-12, 160)
        got = thermo._invert_ideal(a[k], rho[:, k], e, 1e-12, 160)
        assert got.tobytes() == want.tobytes()
    a_m = a.reshape((3, 1))
    for r, t, axis in ((rho[0], theta[0], 0), (rho, theta, 1)):
        e = thermo.internal_energy_density(ideal, a_m, r, t)
        got = thermo.admissible_temperature(ideal, a_m, r, e)
        for k in range(3):
            want = _reference_ideal_newton(a[k], r.take(k, axis), e.take(k, axis), 1e-12, 160)
            assert got.take(k, axis).tobytes() == want.tobytes()


@pytest.mark.parametrize("gas_name", ["ideal", "law_a"])
def test_admissible_temperature_matches_each_member_alone(request, gas_name):
    # members with their own a, on the member axis of a state field (M, n)
    # and of a stacked face field (2, M, n): every member's theta is bitwise
    # the one inverted alone, whichever member converges last
    gas = request.getfixturevalue(gas_name)
    rng = np.random.default_rng(11)
    a = np.array([1e-6, 0.3, 30.0])
    for shape, axis in (((3, 40), 0), ((2, 3, 40), 1)):
        rho = rng.uniform(0.1, 4.0, shape)
        theta = rng.uniform(0.2, 3.0, shape)
        a_m = a.reshape((3, 1))
        e = thermo.internal_energy_density(gas, a_m, rho, theta)
        got = thermo.admissible_temperature(gas, a_m, rho, e)
        for k in range(3):
            alone = _ref_temperature_from_energy(gas, a[k], rho.take(k, axis), e.take(k, axis))
            assert got.take(k, axis).tobytes() == alone.tobytes()
    # one shared a gives the frozen single-a inversion's bits
    rho = rng.uniform(0.1, 4.0, 12)
    e = thermo.internal_energy_density(gas, 0.3, rho, np.ones(12))
    assert (thermo.admissible_temperature(gas, 0.3, rho, e).tobytes()
            == _ref_temperature_from_energy(gas, 0.3, rho, e).tobytes())
    # positivity is the caller's to prove; finiteness is still checked
    with pytest.raises(DomainError, match="non-finite inputs to temperature inversion"):
        thermo.admissible_temperature(gas, np.array([[0.1], [0.2]]), np.ones((2, 4)),
                                      np.array([[1.0] * 4, [1.0, np.nan, 1.0, 1.0]]))


def _newton_steps(a, rho, e):
    """The number of steps the ideal law's Newton iteration takes on rho, e alone."""
    for steps in range(1, 40):
        try:
            thermo._invert_ideal(a, rho, e, 1e-12, steps)
            return steps
        except DomainError:
            pass
    raise AssertionError("no convergence")


def _parts(gas, a, shapes, rng):
    """rho and e of parts of the given shapes: a part dominated by 1.5 rho
    theta, one dominated by radiation and one where both terms weigh alike."""
    regimes = ((50.0, 200.0, 0.02, 0.1), (1e-3, 1e-2, 5.0, 20.0), (0.5, 2.0, 1.0, 3.0))
    rhos, es = [], []
    for shape, (r0, r1, t0, t1) in zip(shapes, regimes):
        rho = rng.uniform(r0, r1, shape)
        rhos.append(rho)
        es.append(thermo.internal_energy_density(gas, a, rho, rng.uniform(t0, t1, shape)))
    return tuple(rhos), tuple(es)


@pytest.mark.parametrize("shapes", [((40,), (2, 41), (5, 8)), ((3000,), (2, 3001))])
def test_segmented_inversion_matches_separate_calls_bitwise(ideal, law_a, shapes):
    # one call on several parts gives each part the bits of its own call,
    # also where the parts' Newton iterations stop at different steps, and
    # where the parts are too large to join (thermo._JOIN_LIMIT)
    rng = np.random.default_rng(17)
    assert (sum(math.prod(shape) for shape in shapes) > thermo._JOIN_LIMIT) == (len(shapes) == 2)
    for gas in (ideal, law_a):
        rhos, es = _parts(gas, 0.3, shapes, rng)
        if gas is ideal:
            assert len({_newton_steps(0.3, r, e) for r, e in zip(rhos, es)}) > 1
        got = thermo.admissible_temperature(gas, 0.3, rhos, es)
        assert [g.shape for g in got] == list(shapes)
        for g, r, e in zip(got, rhos, es):
            assert g.tobytes() == thermo.admissible_temperature(gas, 0.3, r, e).tobytes()
            assert g.tobytes() == _ref_temperature_from_energy(gas, 0.3, r, e).tobytes()


@pytest.mark.parametrize("gas_name", ["ideal", "law_a"])
def test_segmented_batch_inversion_matches_each_member_alone(request, gas_name):
    # a batch of members with their own a: a state part (M, n) and a face
    # part (2, M, n + 1) in one call; every member's part is bitwise its own
    # inversion with its float a, whichever segment converges last
    gas = request.getfixturevalue(gas_name)
    rng = np.random.default_rng(19)
    a = np.array([1e-6, 0.3, 30.0])
    a_m = a.reshape((3, 1))
    rho = (rng.uniform(0.1, 4.0, (3, 40)), rng.uniform(1e-3, 2.0, (2, 3, 41)))
    theta = (rng.uniform(0.2, 3.0, (3, 40)), rng.uniform(0.5, 9.0, (2, 3, 41)))
    e = tuple(thermo.internal_energy_density(gas, a_m, r, t) for r, t in zip(rho, theta))
    if gas_name == "ideal":
        steps = {_newton_steps(a[k], part.take(k, axis), ev.take(k, axis))
                 for k in range(3) for part, ev, axis in zip(rho, e, (0, 1))}
        assert len(steps) > 1
    got = thermo.admissible_temperature(gas, a_m, rho, e)
    for g, r, ev, axis in zip(got, rho, e, (0, 1)):
        assert g.shape == r.shape
        for k in range(3):
            alone = thermo.admissible_temperature(gas, a[k], r.take(k, axis), ev.take(k, axis))
            assert g.take(k, axis).tobytes() == alone.tobytes()
    # the member axis of a 2-D face part, and a lone array of a batch
    r2, t2 = rng.uniform(0.1, 4.0, (2, 3, 5, 6)), rng.uniform(0.2, 3.0, (2, 3, 5, 6))
    a3 = a.reshape((3, 1, 1))
    e2 = thermo.internal_energy_density(gas, a3, r2, t2)
    got2, = thermo.admissible_temperature(gas, a3, (r2,), (e2,))
    assert got2.tobytes() == thermo.admissible_temperature(gas, a3, r2, e2).tobytes()
    for k in range(3):
        alone = thermo.admissible_temperature(gas, a[k], r2[:, k], e2[:, k])
        assert got2[:, k].tobytes() == alone.tobytes()
    # a batch whose a mixes 0 and > 0, and one whose a is 0 throughout, as
    # one array and as parts: each member still its own inversion
    rho0, theta0 = rng.uniform(0.1, 4.0, (2, 200)), rng.uniform(0.2, 3.0, (2, 200))
    parts0 = (rho0[:, :80], rng.uniform(0.1, 4.0, (2, 2, 81)))
    for a0 in (np.array([0.0, 0.3]), np.zeros(2)):
        a_m = a0.reshape((2, 1))
        e0 = thermo.internal_energy_density(gas, a_m, rho0, theta0)
        eparts = (e0[:, :80], thermo.internal_energy_density(gas, a_m, parts0[1],
                                                             rng.uniform(0.2, 3.0, (2, 2, 81))))
        got0 = thermo.admissible_temperature(gas, a_m, rho0, e0)
        gotp = thermo.admissible_temperature(gas, a_m, parts0, eparts)
        for k in range(2):
            alone = thermo.admissible_temperature(gas, a0[k], rho0[k], e0[k])
            assert got0[k].tobytes() == alone.tobytes()
            for g, r, ev, axis in zip(gotp, parts0, eparts, (0, 1)):
                alone = thermo.admissible_temperature(gas, a0[k], r.take(k, axis), ev.take(k, axis))
                assert g.take(k, axis).tobytes() == alone.tobytes()


def test_segmented_inversion_at_zero_radiation(ideal):
    # a = 0: e / (1.5 rho) exactly, for parts of a lone call and of a batch
    rng = np.random.default_rng(23)
    rhos, es = _parts(ideal, 0.0, ((40,), (2, 41)), rng)
    for got, r, e in zip(thermo.admissible_temperature(ideal, 0.0, rhos, es), rhos, es):
        assert got.tobytes() == (e / (1.5 * r)).tobytes()
    zeros = np.zeros((2, 1))
    rho = (rng.uniform(0.1, 4.0, (2, 40)), rng.uniform(0.1, 4.0, (2, 2, 41)))
    e = tuple(rng.uniform(0.1, 4.0, r.shape) for r in rho)
    for got, r, ev in zip(thermo.admissible_temperature(ideal, zeros, rho, e), rho, e):
        assert got.tobytes() == (ev / (1.5 * r)).tobytes()


def test_segmented_inversion_checks_every_part(ideal):
    rng = np.random.default_rng(29)
    rhos, es = _parts(ideal, 0.3, ((40,), (2, 41)), rng)
    bad = es[1].copy()
    bad[1, 7] = np.inf
    with pytest.raises(DomainError, match="non-finite inputs to temperature inversion"):
        thermo.admissible_temperature(ideal, 0.3, rhos, (es[0], bad))


def test_closures_from_energy_reject_bad_states(ideal):
    # the checked oracle of a stage's face recovery keeps every positivity check
    for a in (0.0, 0.5):
        for rho, e in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                       (math.nan, 1.0), (1.0, math.inf), ([1.0, 0.0], [1.0, 1.0]),
                       (1e300, 1e-300)):  # the last recovers theta = 0
            with pytest.raises(DomainError):
                _closures_from_energy(ideal, a, rho, e)
    bad = thermo.GasModel(
        name="bad",
        P=lambda z: np.asarray(z, float) ** 3,
        dP=lambda z: 3.0 * np.asarray(z, float) ** 2,
    )
    # e = 10 has a root where the radiation term grows, but c_v < 0 there
    with pytest.raises(ModelViolationError):
        _closures_from_energy(bad, 0.1, 1.0, 10.0)


def test_sound_speed_checks_its_state_once(ideal, count_calls):
    calls = count_calls(thermo, "_check_state")
    thermo.sound_speed_sq(ideal, 0.2, np.array([1.0, 2.0]), np.array([0.5, 3.0]))
    assert len(calls) == 1


def test_sound_speed_ideal(ideal):
    assert thermo.sound_speed_sq(ideal, 0.0, 2.0, 3.0) == pytest.approx(5.0, rel=1e-13)


def test_sound_speed_matches_isentropic_derivative(ideal):
    # oracle: dp/drho along the curve s(rho, theta) = const, radiation included
    a, rho0, theta0 = 0.5, 1.3, 0.9
    s0 = thermo.entropy(ideal, a, rho0, theta0)

    def theta_of_rho(r):
        return brentq(lambda t: thermo.entropy(ideal, a, r, t) - s0, 1e-3, 50.0, xtol=1e-14)

    h = 1e-6 * rho0
    p_hi = thermo.pressure(ideal, a, rho0 + h, theta_of_rho(rho0 + h))
    p_lo = thermo.pressure(ideal, a, rho0 - h, theta_of_rho(rho0 - h))
    c2_fd = (p_hi - p_lo) / (2 * h)
    assert thermo.sound_speed_sq(ideal, a, rho0, theta0) == pytest.approx(c2_fd, rel=1e-6)


def test_pressure_partials_match_fd(law_a):
    rho, theta, a = 1.7, 0.8, 0.4
    h = 1e-6
    fd_r = (thermo.pressure(law_a, a, rho + h, theta) - thermo.pressure(law_a, a, rho - h, theta)) / (2 * h)
    fd_t = (thermo.pressure(law_a, a, rho, theta + h) - thermo.pressure(law_a, a, rho, theta - h)) / (2 * h)
    assert theta * law_a.dP(thermo.Z_of(rho, theta)) == pytest.approx(fd_r, rel=1e-8)
    assert thermo.dp_dtheta(law_a, a, rho, theta) == pytest.approx(fd_t, rel=1e-8)


# ---------------------------------------------------------------------------
# transport fluxes


def test_stress_zero_gradient(transport):
    S = thermo.stress_tensor(transport, 0.1, 1.0, np.zeros((3, 3)))
    assert np.all(S == 0.0)


def test_stress_1d_deviatoric():
    tr = thermo.TransportModel(
        "mu-only",
        mu=lambda t: 1.0 + np.asarray(t, float),
        eta=lambda t: np.zeros_like(np.asarray(t, float)),
        kappa=lambda t: 1.0 + np.asarray(t, float) ** 3,
    )
    g, nu, theta = 0.7, 0.2, 2.0
    S = thermo.stress_tensor(tr, nu, theta, np.array([[g]]))
    assert S.shape == (1, 1)
    assert S[0, 0] == pytest.approx(4.0 / 3.0 * nu * 3.0 * g, rel=1e-14)


def test_stress_symmetry_trace_and_dissipation(transport):
    rng = np.random.default_rng(3)
    for _ in range(1000):
        G = rng.standard_normal((3, 3))
        theta = rng.uniform(0.1, 5.0)
        S = thermo.stress_tensor(transport, 0.3, theta, G)
        assert np.allclose(S, S.T, atol=1e-13)
        div = np.trace(G)
        assert np.trace(S) == pytest.approx(3.0 * 0.3 * float(transport.eta(theta)) * div, rel=1e-10, abs=1e-12)
        assert np.sum(S * G) >= -1e-12


def test_shear_tensor_sq_matches_stress_contraction(transport):
    # S : grad_u = nu [ (mu/2) |A|^2 + eta (div)^2 ] with the 3-D embedding
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        G = rng.standard_normal((d, d))
        theta = 1.3
        S = thermo.stress_tensor(transport, 0.25, theta, G)
        lhs = float(np.sum(S * G))
        div = np.trace(G)
        rhs = 0.25 * (
            0.5 * float(transport.mu(theta)) * thermo.shear_tensor_sq(G)
            + float(transport.eta(theta)) * div ** 2
        )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_heat_flux_point(transport):
    q = thermo.heat_flux(transport, 2.0, 1.0, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(q, [-4.0, 0.0, 0.0])


def test_heat_flux_dissipation_sign(transport):
    rng = np.random.default_rng(5)
    for _ in range(1000):
        g = rng.standard_normal(3)
        theta = rng.uniform(0.05, 8.0)
        q = thermo.heat_flux(transport, 0.7, theta, g)
        assert -np.dot(q, g) >= 0.0


# ---------------------------------------------------------------------------
# hypothesis certification


def test_report_ideal_pattern(ideal, transport):
    rep = thermo.hypothesis_report(ideal, transport)
    assert rep.pattern() == {"H2": True, "H3": True, "H6": True, "H7": False, "H8": True, "H9": True}


def test_report_ideal_ratio_two_thirds(ideal):
    z = np.logspace(-3, 3, 121)
    ratio = (5.0 / 3.0 * ideal.P(z) - ideal.dP(z) * z) / z
    assert np.max(np.abs(ratio - 2.0 / 3.0)) < 1e-12


def test_report_flags_flat_derivative_at_origin(transport):
    gas = thermo.gas_from_expression("square", "Z^2", S0=0.0, P_inf=0.0)
    rep = thermo.hypothesis_report(gas, transport)
    assert not rep.passed("H2")
    assert "P'(0)" in rep["H2"].witness


def test_report_decaying_law_meets_all(law_b, transport):
    rep = thermo.hypothesis_report(law_b, transport)
    assert rep.pattern() == {"H2": True, "H3": True, "H6": True, "H7": True, "H8": True, "H9": True}


def test_report_exponential_mu_fails_H8(ideal):
    tr = thermo.TransportModel(
        "exp-mu",
        mu=lambda t: np.exp(np.asarray(t, float)),
        eta=lambda t: np.zeros_like(np.asarray(t, float)),
        kappa=lambda t: 1.0 + np.asarray(t, float) ** 3,
    )
    rep = thermo.hypothesis_report(ideal, tr)
    assert not rep.passed("H8")
    assert "theta=100" in rep["H8"].witness


def test_report_sublinear_transport_passes(ideal):
    rep = thermo.hypothesis_report(ideal, thermo.sublinear_transport(0.75))
    assert rep.passed("H8") and rep.passed("H9")


def test_report_total_function_weird_law(transport):
    # even a law violating several requirements must produce a full report
    gas = thermo.gas_from_expression("weird", "Z^3/(1+Z)", S0=0.0, P_inf=0.0)
    rep = thermo.hypothesis_report(gas, transport)
    assert set(rep.pattern()) == {"H2", "H3", "H6", "H7", "H8", "H9"}


def test_transport_growth_exponent_validated():
    for b in (0.3, 1.2):
        with pytest.raises(ModelViolationError):
            thermo.TransportModel(
                "bad-b",
                mu=lambda t: 1.0 + np.asarray(t, float),
                eta=lambda t: np.zeros_like(np.asarray(t, float)),
                kappa=lambda t: 1.0 + np.asarray(t, float) ** 3,
                b=b,
            )


def test_temperature_inversion_round_trip(ideal, law_a):
    rng = np.random.default_rng(13)
    rho = rng.uniform(0.05, 8.0, 200)
    theta = rng.uniform(0.05, 8.0, 200)
    for gas in (ideal, law_a):
        for a in (0.0, 0.7):
            e = thermo.internal_energy_density(gas, a, rho, theta)
            back = thermo.admissible_temperature(gas, a, rho, e)
            assert np.max(np.abs(back - theta) / theta) < 1e-10


def test_temperature_inversion_domain_errors(ideal):
    # positivity is for the callers to prove (nsf_solver.recover_temperature,
    # the faces, relative_energy's recovered primitives); the inversion
    # still refuses non-finite input, and running out of steps
    for a in (0.0, 0.5):
        for rho, e in ((math.nan, 1.0), (1.0, math.inf), ([1.0, 2.0], [1.0, -math.inf])):
            with pytest.raises(DomainError, match="non-finite inputs to temperature inversion"):
                thermo.admissible_temperature(ideal, a, np.array(rho), np.array(e))
    with pytest.raises(DomainError, match="did not converge"):
        thermo._invert_ideal(0.5, np.array([1.0]), np.array([3.0]), 1e-12, 1)


def linear_gas():
    """The ideal law in functions of its own, not `ideal_gas`'s, so it takes
    the bracketed solver (`GasModel.ideal`)."""
    return thermo.GasModel(name="linear", P=lambda z: np.asarray(z, dtype=float),
                           dP=lambda z: np.ones_like(np.asarray(z, dtype=float)))


def test_expression_law_z_takes_the_general_route_and_matches_ideal_gas(ideal, count_calls):
    # only ideal_gas's own P and P' take the ideal law's inversion and
    # closures; the same law as an expression takes the general ones and
    # agrees to rounding
    law_z = thermo.gas_from_expression("z", "Z", S0=0.0, P_inf=0.0)
    assert ideal.ideal and not law_z.ideal
    ideal_route = count_calls(thermo, "_invert_ideal")
    rng = np.random.default_rng(11)
    rho = rng.uniform(0.05, 8.0, (2, 48))
    theta = rng.uniform(0.05, 8.0, (2, 48))
    for a in (0.0, 0.5):
        e = thermo.internal_energy_density(ideal, a, rho, theta)
        got = thermo.admissible_temperature(law_z, a, rho, e)
        assert ideal_route == []
        want = thermo.admissible_temperature(ideal, a, rho, e)
        ideal_route.clear()
        assert np.max(np.abs(got - want) / want) <= 1e-12
        pairs = [*zip(thermo._closures_at(law_z, a, rho, got),
                      thermo._closures_at(ideal, a, rho, want), strict=True),
                 (thermo.sound_speed_sq(law_z, a, rho, theta),
                  thermo.sound_speed_sq(ideal, a, rho, theta))]
        for g, w in pairs:
            assert np.max(np.abs(g - w) / w) <= 1e-12


def test_bracketed_inversion_accepts_a_newton_step_onto_the_bracket():
    # the first guess e/(1.5 rho) is the root; a Newton step landing on the
    # bracket end it became must count, or the solver only bisects
    # (whether rounding puts a cell on that path varies by draw: before the
    # fix, two of these four draws stalled at a relative error of 1.6e-3)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        rho = rng.uniform(0.05, 8.0, 48)
        theta = rng.uniform(0.05, 8.0, 48)
        e = 1.5 * rho * theta
        back = thermo._invert_molecular(linear_gas(), 0.0, rho, e, 1e-12, 8)
        assert np.max(np.abs(back - theta) / theta) <= 1e-12


def test_bracketed_inversion_refuses_to_stop_unconverged():
    # one step from the bracket midpoint leaves theta off by up to 9e-2 here;
    # running out of steps is an error, as on the ideal path
    rng = np.random.default_rng(0)
    rho = rng.uniform(0.05, 8.0, 48)
    theta = rng.uniform(0.05, 8.0, 48)
    e = 1.5 * rho * theta + 0.5 * theta ** 4
    with pytest.raises(DomainError, match="did not converge"):
        thermo._invert_molecular(linear_gas(), 0.5, rho, e, 1e-12, 1)
    back = thermo.admissible_temperature(linear_gas(), 0.5, rho, e)
    assert np.max(np.abs(back - theta) / theta) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    rho=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=8),
    theta=st.floats(1e-3, 1e3),
    a=st.one_of(st.just(0.0), st.floats(1e-10, 1e2)),
)
def test_ideal_inversion_matches_bracketed_solver(ideal, rho, theta, a):
    rho = np.array(rho)
    e = 1.5 * rho * theta + a * theta ** 4
    fast = thermo.admissible_temperature(ideal, a, rho, e)
    slow = thermo.admissible_temperature(linear_gas(), a, rho, e)
    assert np.max(np.abs(fast - slow) / slow) <= 1e-14


def test_ideal_inversion_at_zero_radiation_is_exact(ideal):
    rng = np.random.default_rng(5)
    rho = 10.0 ** rng.uniform(-6.0, 3.0, 64)
    e = 10.0 ** rng.uniform(-6.0, 6.0, 64)
    assert np.array_equal(thermo.admissible_temperature(ideal, 0.0, rho, e), e / (1.5 * rho))


def test_scaling_params_validation():
    thermo.ScalingParams(a=0.0, nu=0.1, omega=0.1, lam=0.0)  # zeros allowed
    with pytest.raises(DomainError):
        thermo.ScalingParams(a=-1.0, nu=0.1, omega=0.1, lam=0.0)
    with pytest.raises(DomainError):
        thermo.ScalingParams(a=0.1, nu=math.nan, omega=0.1, lam=0.0)
