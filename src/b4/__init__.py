"""Four-compartment Brusselator toolkit.

Two diffusively coupled Brusselator pairs on a rectangular domain:
explicit finite-difference time integration, positivity machinery for
the quadratic forms that control solution growth, linear-stability mode
counting with attractor-dimension bound formulas, and reconstruction of
attractors from scalar probe time series.

Submodules
----------
model        parameters, states, reaction terms
solver       explicit finite-difference integration and checkpoints
functionals  coupling constants, coefficient sequences, positivity conditions
spectral     mode spectra, unstable-mode counts, dimension bounds
tsa          delay embedding, correlation dimension, Lyapunov exponents
cli          run configuration and the command-line entry point (``b4``)
"""

__version__ = "0.1.0"
