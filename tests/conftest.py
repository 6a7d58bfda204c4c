import math

import pytest

from nsflab import euler_reference as er
from nsflab import nsf_solver as ns
from nsflab import thermo

# H7-normalizing entropy constant for the decaying law Z/(1+Z) + Z^(5/3):
# S(inf) - S(1) = -(3/2)[(2/3)log 2 + 1/2] = -(log 2 + 3/4), so S0 = log 2 + 3/4
# sends S(Z) -> 0 (hand-derived antiderivative, cross-checked by quadrature).
S0_STAR_B = math.log(2.0) + 0.75


@pytest.fixture(scope="session")
def ideal():
    return thermo.ideal_gas()


@pytest.fixture(scope="session")
def law_a():
    return thermo.gas_from_expression("lawA", "Z + Z^2/(1+Z)", S0=0.0, P_inf=0.0)


@pytest.fixture(scope="session")
def law_b():
    return thermo.gas_from_expression(
        "lawB", "Z/(1+Z) + Z**(5/3)", S0=S0_STAR_B, P_inf=1.0, asym_rtol=1e-4
    )


@pytest.fixture(scope="session")
def transport():
    return thermo.default_transport()


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) swaps in a wrapper and returns its list of calls."""
    def install(module, name):
        calls = []
        inner = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls
    return install


@pytest.fixture
def add_source(monkeypatch):
    """add_source(source) makes every `nsf_solver.rhs_nsf` tendency add
    source(t) = (f_rho, f_mom, f_etot), in that order."""
    def install(source):
        inner = ns.rhs_nsf

        def forced(state, config, *args, **kwargs):
            dW = inner(state, config, *args, **kwargs)
            f_rho, f_mom, f_etot = source(state.time)
            dW[0] += f_rho
            dW[1:-1] += f_mom
            dW[-1] += f_etot
            return dW

        monkeypatch.setattr(ns, "rhs_nsf", forced)
    return install


@pytest.fixture
def unfiltered(monkeypatch):
    """Inviscid reference runs without their high-order filter."""
    monkeypatch.setattr(er, "FILTER_AMPLITUDE", 0.0)
