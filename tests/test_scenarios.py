import numpy as np
import pytest

from nsflab import euler_reference as er
from nsflab import grid_fields as gf
from nsflab import scenarios
from nsflab.errors import ConfigError, UsageError


@pytest.fixture(scope="module")
def slab():
    return gf.Grid.line(1.0, 24, "slip-wall")


def test_uniform_fields(slab):
    rho, theta, u = scenarios.uniform(slab, rho0=1.25, theta0=0.75).fields(slab)
    assert rho.shape == (24,) and u.shape == (1, 24)
    assert np.all(rho == 1.25) and np.all(theta == 0.75) and np.all(u == 0.0)


def test_acoustic_entropy_closed_form(slab):
    sc = scenarios.acoustic_entropy(slab, amplitude=0.02, gap=0.03)
    rho, theta, u = sc.fields(slab)
    (x,) = gf.cell_centers(slab)
    k = np.pi
    assert np.array_equal(rho, 1.0 + 0.02 * np.cos(k * x))
    assert np.array_equal(theta, 1.0 + 0.01 * np.cos(k * x) + 0.03 * np.cos(2 * k * x))
    assert np.array_equal(u[0], 0.02 * np.sin(k * x) + 0.03 * np.sin(2 * k * x))


def test_acoustic_entropy_wall_compatible(slab, ideal):
    # both harmonics must present a vanishing normal velocity at the walls
    for gap in (0.0, 0.02):
        sc = scenarios.acoustic_entropy(slab, amplitude=0.01, gap=gap)
        er.compatibility_check(sc.rho, sc.theta, sc.u, slab, ideal)


def test_compressive_pulse(slab):
    rho, theta, u = scenarios.compressive_pulse(slab, amplitude=0.4).fields(slab)
    (x,) = gf.cell_centers(slab)
    assert np.all(rho == 1.0) and np.all(theta == 1.0)
    assert np.array_equal(u[0], -0.4 * np.sin(2.0 * np.pi * x))


def test_slab_scenarios_reject_2d():
    box = gf.Grid.box((1.0, 1.0), (8, 8))
    with pytest.raises(UsageError, match="one-dimensional"):
        scenarios.acoustic_entropy(box, 0.01, 0.0)
    with pytest.raises(UsageError, match="one-dimensional"):
        scenarios.compressive_pulse(box, 0.2)


def test_component_count_checked(slab):
    bad = scenarios.Scenario("bad", lambda x: 1.0, lambda x: 1.0,
                             (lambda x: 0.0, lambda x: 0.0))
    with pytest.raises(UsageError, match="velocity components"):
        bad.fields(slab)


def test_registry_matches_direct_builders(slab):
    direct = scenarios.acoustic_entropy(slab, amplitude=0.01, gap=0.02)
    named = scenarios.build("acoustic-entropy", slab, amplitude=0.01, gap=0.02)
    for lhs, rhs in zip(direct.fields(slab), named.fields(slab)):
        assert np.array_equal(lhs, rhs)
    assert scenarios.build("uniform", slab, 0.01, 0.0).name == "uniform"


def test_unknown_name_rejected(slab):
    with pytest.raises(ConfigError, match="unknown scenario"):
        scenarios.build("vortex", slab, 0.01, 0.0)
