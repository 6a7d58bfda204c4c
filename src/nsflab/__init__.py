"""Numerical laboratory for a compressible, heat-conducting gas.

Exact constitutive closures with structural certification, a dissipative
finite-volume solver with damping, a high-order inviscid reference solver,
the relative-energy functional between the two, and a parameter-sweep front
end probing the vanishing-dissipation convergence rate.
"""

__version__ = "0.1.0"

# re-exported from `thermo`, which (with numpy) loads on the first of them
_THERMO_NAMES = ("GasModel", "ScalingParams", "TransportModel", "default_transport",
                 "gas_from_expression", "ideal_gas")


def __getattr__(name):
    if name in _THERMO_NAMES:
        from . import thermo
        return getattr(thermo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
