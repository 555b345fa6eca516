"""Gradient-free training of neural ODEs with ensemble Kalman inversion.

The package covers two tasks: learning the right-hand side of a dynamical
system from trajectory observations (spiral and pendulum benchmarks) and
learning an energy-regularized neural controller for scalar linear dynamics.
Both can be trained either with deterministic EKI updates or with a
backpropagation-through-time baseline (Adam / plain SGD).

Every name is reached through its module: ``nnet`` (the MLP), ``ode`` (the
integrators), ``eki`` (the EKI update), ``problems`` (the benchmark problems
and their forward maps), ``gradbase`` (the BPTT baseline), ``runner`` (the
experiment driver) and ``cli`` (the ``eki-node`` command). The package itself
holds ``__version__`` alone, so a bare ``import ekinode`` loads no module.
"""

__version__ = "0.1.0"
