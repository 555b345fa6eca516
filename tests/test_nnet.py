"""Unit tests for the MLP parameter vector layer: packing, evaluation, init."""

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from ekinode import nnet

ATOL = 1e-12

SPIRAL_SPEC = nnet.MlpSpec((2, 10, 2), "tanh")
CONTROL_SPEC = nnet.MlpSpec((1, 5, 5, 5, 1), "elu")


def forward(spec, theta, x):
    # One input through a parameter vector's network.
    return nnet.mlp_apply(nnet.unflatten(spec, theta), x, spec.activation)


def test_param_count_spiral_net():
    # (2*10 + 10) + (10*2 + 2)
    assert nnet.param_count(SPIRAL_SPEC) == 52


def test_param_count_control_net():
    # (1*5 + 5) + 2 * (5*5 + 5) + (5*1 + 1)
    assert nnet.param_count(CONTROL_SPEC) == 76


def test_layer_shapes():
    shapes = nnet.layer_shapes(CONTROL_SPEC)
    assert shapes == [((5, 1), 5), ((5, 5), 5), ((5, 5), 5), ((1, 5), 1)]


def test_spec_validation():
    with pytest.raises(ValueError):
        nnet.MlpSpec((2,), "tanh")
    with pytest.raises(ValueError):
        nnet.MlpSpec((2, 0, 2), "tanh")
    with pytest.raises(ValueError):
        nnet.MlpSpec((2, 10, 2), "relu")


def test_unflatten_rejects_wrong_length():
    with pytest.raises(ValueError):
        nnet.unflatten(SPIRAL_SPEC, np.zeros(51))


def test_flatten_rejects_layers_that_do_not_match_the_spec():
    # Stacked (J, ...) layers of a member matrix flatten one member at a time.
    n = nnet.param_count(SPIRAL_SPEC)
    stacked = nnet.unflatten(SPIRAL_SPEC, np.zeros((2, n)))
    transposed = [(w.T, b) for w, b in nnet.unflatten(SPIRAL_SPEC, np.zeros(n))]
    for layers in (stacked, transposed):
        with pytest.raises(ValueError, match="do not match spec"):
            nnet.flatten(SPIRAL_SPEC, layers)


@seed(1)
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_flatten_unflatten_round_trip(s):
    rng = np.random.default_rng(s)
    theta = rng.normal(size=nnet.param_count(CONTROL_SPEC))
    back = nnet.flatten(CONTROL_SPEC, nnet.unflatten(CONTROL_SPEC, theta))
    assert np.array_equal(back, theta)


def test_zero_parameters_give_zero_output():
    theta = np.zeros(nnet.param_count(SPIRAL_SPEC))
    out = forward(SPIRAL_SPEC, theta, np.array([0.3, -1.2]))
    assert np.array_equal(out, np.zeros(2))


def test_single_affine_layer():
    # One layer means no activation: y = w x + b.
    spec = nnet.MlpSpec((1, 1), "tanh")
    theta = np.array([2.0, 0.5])
    out = forward(spec, theta, np.array([3.0]))
    assert abs(out[0] - 6.5) < ATOL


def test_two_layer_tanh_cancellation():
    # Hidden units tanh(1) and tanh(-1) cancel under output weights (1, 1).
    spec = nnet.MlpSpec((1, 2, 1), "tanh")
    layers = [
        (np.array([[1.0], [-1.0]]), np.zeros(2)),
        (np.array([[1.0, 1.0]]), np.zeros(1)),
    ]
    theta = nnet.flatten(spec, layers)
    out = forward(spec, theta, np.array([1.0]))
    assert abs(out[0]) < ATOL


@seed(2)
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_tanh_net_with_zero_biases_is_odd(s):
    rng = np.random.default_rng(s)
    layers = [(rng.normal(size=w), np.zeros(b)) for w, b in nnet.layer_shapes(SPIRAL_SPEC)]
    theta = nnet.flatten(SPIRAL_SPEC, layers)
    x = rng.normal(size=2)
    f_pos = forward(SPIRAL_SPEC, theta, x)
    f_neg = forward(SPIRAL_SPEC, theta, -x)
    assert np.allclose(f_neg, -f_pos, atol=1e-10)


@seed(3)
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_lipschitz_bound_from_spectral_norms(s):
    # tanh and elu are 1-Lipschitz, so the product of weight spectral norms
    # bounds the network's Lipschitz constant.
    rng = np.random.default_rng(s)
    theta = nnet.mlp_init(SPIRAL_SPEC, rng)
    bound = 1.0
    for w, _ in nnet.unflatten(SPIRAL_SPEC, theta):
        bound *= np.linalg.svd(w, compute_uv=False)[0]
    x = rng.normal(size=2)
    y = rng.normal(size=2)
    fx = forward(SPIRAL_SPEC, theta, x)
    fy = forward(SPIRAL_SPEC, theta, y)
    assert np.linalg.norm(fx - fy) <= bound * np.linalg.norm(x - y) + 1e-12


def test_forward_rejects_wrong_input_shape():
    theta = np.zeros(nnet.param_count(SPIRAL_SPEC))
    with pytest.raises(ValueError):
        forward(SPIRAL_SPEC, theta, np.zeros(3))


def test_elu_activation_values():
    # elu(z) = z for z >= 0, exp(z) - 1 below; checked through a 1-1-1 net
    # with identity-like weights.
    spec = nnet.MlpSpec((1, 1, 1), "elu")
    layers = [(np.array([[1.0]]), np.zeros(1)), (np.array([[1.0]]), np.zeros(1))]
    theta = nnet.flatten(spec, layers)
    assert abs(forward(spec, theta, np.array([2.0]))[0] - 2.0) < ATOL
    expected = np.expm1(-2.0)
    assert abs(forward(spec, theta, np.array([-2.0]))[0] - expected) < ATOL


def test_elu_handles_large_negative_inputs():
    spec = nnet.MlpSpec((1, 1, 1), "elu")
    layers = [(np.array([[1.0]]), np.zeros(1)), (np.array([[1.0]]), np.zeros(1))]
    theta = nnet.flatten(spec, layers)
    out = forward(spec, theta, np.array([-1e6]))
    assert np.isfinite(out[0])
    assert abs(out[0] + 1.0) < 1e-10


def test_init_is_deterministic_and_bounded():
    a = nnet.mlp_init(SPIRAL_SPEC, np.random.default_rng(42))
    b = nnet.mlp_init(SPIRAL_SPEC, np.random.default_rng(42))
    assert np.array_equal(a, b)
    for (w, bias), fan_in in zip(nnet.unflatten(SPIRAL_SPEC, a), SPIRAL_SPEC.layer_sizes):
        limit = np.sqrt(1.0 / fan_in)
        assert np.all(np.abs(w) <= limit)
        assert np.all(np.abs(bias) <= limit)


def test_init_fills_the_range():
    # Uniform init should come close to its bounds given enough draws.
    spec = nnet.MlpSpec((50, 50), "tanh")
    theta = nnet.mlp_init(spec, np.random.default_rng(0))
    limit = np.sqrt(1.0 / 50)
    assert theta.max() > 0.9 * limit
    assert theta.min() < -0.9 * limit


def layerwise_init(spec, rng):
    # One draw per weight matrix and per bias vector, in layer order: the
    # stream layout the one-call draw has to keep.
    parts = []
    for (w_shape, b_len) in nnet.layer_shapes(spec):
        bound = np.sqrt(1.0 / w_shape[1])
        parts.append(rng.uniform(-bound, bound, size=w_shape[0] * w_shape[1]))
        parts.append(rng.uniform(-bound, bound, size=b_len))
    return np.concatenate(parts)


@pytest.mark.parametrize("spec", [SPIRAL_SPEC, CONTROL_SPEC], ids=["spiral", "control"])
@pytest.mark.parametrize("count", [1, 2, 20, 22])
def test_init_count_is_that_many_calls(spec, count):
    # A whole ensemble in one draw is bitwise the vectors of count calls in
    # a row, layer by layer, and leaves the generator where they leave it.
    batched_rng, single_rng, layer_rng = (np.random.default_rng(9) for _ in range(3))
    batched = nnet.mlp_init(spec, batched_rng, count)
    assert batched.shape == (count, nnet.param_count(spec))
    assert np.array_equal(batched, np.stack([nnet.mlp_init(spec, single_rng) for _ in range(count)]))
    assert np.array_equal(batched, np.stack([layerwise_init(spec, layer_rng) for _ in range(count)]))
    assert batched_rng.bit_generator.state == single_rng.bit_generator.state
    assert batched_rng.bit_generator.state == layer_rng.bit_generator.state
    assert nnet.mlp_init(spec, np.random.default_rng(9)).shape == (nnet.param_count(spec),)
