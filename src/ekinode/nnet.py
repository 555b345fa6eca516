"""Minimal multilayer perceptron: parameter layout, init, and forward pass.

Networks here are plain fully-connected stacks used as right-hand sides of
neural ODEs (``f_theta``) and as time-dependent controllers (``u_theta``).
Parameters live in a single flat float64 vector so that ensemble methods can
treat a network as a point in R^N.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MlpSpec",
    "param_count",
    "layer_shapes",
    "unflatten",
    "flatten",
    "mlp_init",
    "mlp_apply",
]

_ACTIVATIONS = ("tanh", "elu")


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of a fully-connected network.

    ``layer_sizes`` runs (input dim, hidden dims ..., output dim).  The
    hidden activation applies to every hidden layer; the output layer is
    affine with no activation (vector fields are unbounded).
    """

    layer_sizes: tuple[int, ...]
    activation: str = "tanh"

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("layer_sizes needs at least input and output dims")
        if any(s < 1 for s in sizes):
            raise ValueError(f"layer sizes must be >= 1, got {sizes}")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}, got {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]


def param_count(spec: MlpSpec) -> int:
    """Total number of weights and biases."""
    sizes = spec.layer_sizes
    return sum(sizes[i] * sizes[i + 1] + sizes[i + 1] for i in range(len(sizes) - 1))


def layer_shapes(spec: MlpSpec) -> list[tuple[tuple[int, int], int]]:
    """Per layer: ((out_dim, in_dim) weight shape, bias length)."""
    sizes = spec.layer_sizes
    return [((sizes[i + 1], sizes[i]), sizes[i + 1]) for i in range(len(sizes) - 1)]


def unflatten(spec: MlpSpec, theta: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a flat parameter vector into per-layer (W, b) views.

    Layout, fixed for serialization portability: for each layer in order,
    the weight matrix of shape (out, in) flattened row-major, then the bias
    vector.  The returned arrays are views into ``theta``.

    A ``(J, N)`` member matrix gives stacked layers instead: W of shape
    ``(J, out, in)`` and b of shape ``(J, 1, out)``, still views, so that
    :func:`mlp_apply` evaluates every member on its own ``(J, rows, in)``
    slice in one call.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim not in (1, 2) or theta.shape[-1] != param_count(spec):
        raise ValueError(
            f"parameter array has shape {theta.shape}, spec needs ({param_count(spec)},)"
            f" or (J, {param_count(spec)})"
        )
    lead = theta.shape[:-1]
    layers = []
    k = 0
    for (w_shape, b_len) in layer_shapes(spec):
        w_size = w_shape[0] * w_shape[1]
        w = theta[..., k : k + w_size].reshape(lead + w_shape)
        k += w_size
        b = theta[..., k : k + b_len].reshape(lead + (1,) * len(lead) + (b_len,))
        k += b_len
        layers.append((w, b))
    return layers


def flatten(spec: MlpSpec, layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Inverse of :func:`unflatten`; exact round trip."""
    parts = []
    for (w, b), (w_shape, b_len) in zip(layers, layer_shapes(spec)):
        w = np.asarray(w, dtype=float)
        b = np.asarray(b, dtype=float)
        if w.shape != w_shape or b.shape != (b_len,):
            raise ValueError(f"layer shapes {w.shape}/{b.shape} do not match spec {w_shape}/{b_len}")
        parts.append(w.reshape(-1))
        parts.append(b)
    return np.concatenate(parts)


def mlp_init(spec: MlpSpec, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """Draw a fresh flat parameter vector, or ``(count, N)`` of them.

    Every weight and bias of a layer with fan-in k is i.i.d. uniform on
    (-sqrt(1/k), +sqrt(1/k)).  Reproducible: the same generator state yields
    bitwise-identical vectors, and ``count`` rows are bitwise the vectors of
    ``count`` calls in a row, with the generator left in the same state.
    """
    bounds = np.concatenate([
        np.full(w_shape[0] * w_shape[1] + b_len, np.sqrt(1.0 / w_shape[1]))
        for (w_shape, b_len) in layer_shapes(spec)
    ])
    return rng.uniform(-bounds, bounds, size=bounds.shape if count is None else (count, bounds.size))


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "tanh":
        return np.tanh(z)
    # ELU with alpha = 1: z for z >= 0, exp(z) - 1 below.  Clamp the expm1
    # argument so the discarded branch cannot overflow for large positive z.
    return np.where(z >= 0.0, z, np.expm1(np.minimum(z, 0.0)))


def _act_deriv(y: np.ndarray, activation: str) -> np.ndarray:
    # Derivatives from the activation OUTPUT: tanh' = 1 - y^2; for ELU with
    # alpha = 1 the output determines the branch (y < 0 iff z < 0) and the
    # negative branch has derivative e^z = y + 1.
    if activation == "tanh":
        return 1.0 - y * y
    return np.where(y < 0.0, y + 1.0, 1.0)


def mlp_apply(
    layers: list[tuple[np.ndarray, np.ndarray]],
    x: np.ndarray,
    activation: str,
    record: list | None = None,
) -> np.ndarray:
    """Forward pass given pre-split (W, b) pairs; hot path for integrators.

    ``x`` holds one input per row in its last axis.  With stacked layers
    from a member matrix, ``x`` is ``(J, rows, in)`` (or broadcasts to it)
    and row block j goes through member j's weights.

    ``record``, when a list is passed, receives each layer's input.  A
    hidden layer's activated output is the next layer's input, so that is
    all a reverse pass through the network needs; the returned value is the
    same with or without it.
    """
    h = x
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        # Without a record, a layer's input is freed before its activation
        # runs: that bounds the peak memory of large ensemble batches.
        if record is not None:
            record.append(h)
        h = h @ w.mT + b
        if i != last:
            h = _activate(h, activation)
    return h

