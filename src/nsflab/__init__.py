"""Numerical laboratory for a compressible, heat-conducting gas.

Exact constitutive closures with structural certification, a dissipative
finite-volume solver with damping, a high-order inviscid reference solver,
the relative-energy functional between the two, and a parameter-sweep front
end probing the vanishing-dissipation convergence rate.
"""

__version__ = "0.1.0"
