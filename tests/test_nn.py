import hashlib
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nesyhar import nn
from nesyhar.config import NetworkConfig
from nesyhar.losses import LossConfig, combined_loss_batch
from nesyhar.nn import (
    INFER_BLOCK,
    AdamState,
    BranchSpec,
    NetworkSpec,
    NetworkSpecError,
    Parameters,
    ShapeError,
    adam_step,
    backward,
    build_network,
    finite_difference_gradients,
    forward,
    gradient_check_network,
    max_relative_error,
    parameter_count,
    random_small_spec,
    run_gradient_check_suite,
    _conv_backward,
    _dropout_fwd,
)
from nn_reference import finite_difference_gradients as per_tensor_finite_differences
from nn_reference import reference_backward, reference_forward, shifted_add_input_gradient


def reference_spec(phone_length=400):
    """The default NetworkConfig architecture on 6-channel windows, 22 predicates,
    14 activities."""
    return NetworkConfig().to_spec(phone_channels=6, phone_length=phone_length,
                                   watch_channels=6, watch_length=400, context_size=22,
                                   classes=14)


def tiny_spec(infusion=False, dropout=0.0):
    return NetworkSpec(
        phone=BranchSpec(channels=2, length=12, filters=(3, 4), kernels=(3, 2), pool=2, dense=5),
        watch=BranchSpec(channels=1, length=10, filters=(2,), kernels=(4,), pool=2, dense=4),
        context_size=3,
        classes=4,
        context_dense=3,
        trunk_dense=6,
        dropout=dropout,
        infusion=infusion,
    )


def tiny_inputs(spec, n=3, seed=0):
    rng = np.random.default_rng(seed)
    phone = rng.normal(size=(n, spec.phone.channels, spec.phone.length))
    watch = rng.normal(size=(n, spec.watch.channels, spec.watch.length))
    context = rng.integers(0, 2, size=(n, spec.context_size)).astype(float)
    infusion = rng.integers(0, 2, size=(n, spec.classes)).astype(float) if spec.infusion else None
    return phone, watch, context, infusion


# ---------------------------------------------------------------------------
# Spec validation and initialization
# ---------------------------------------------------------------------------

def test_build_is_deterministic():
    spec = tiny_spec()
    p1 = build_network(spec, seed=42)
    p2 = build_network(spec, seed=42)
    assert p1.keys() == p2.keys()
    for name in p1:
        np.testing.assert_array_equal(p1[name], p2[name])
    p3 = build_network(spec, seed=43)
    assert any(not np.array_equal(p1[k], p3[k]) for k in p1 if k.endswith(".w"))


def test_build_draws_the_per_tensor_initial_values():
    # one uniform draw per weight tensor, in parameter_shapes() order, as
    # before the parameters became one flat vector
    spec = tiny_spec(infusion=True)
    rng = np.random.default_rng(42)
    params = build_network(spec, seed=42)
    for name, shape, fan_in in spec.parameter_shapes():
        if name.endswith(".w"):
            bound = 1.0 / np.sqrt(fan_in)
            np.testing.assert_array_equal(params[name], rng.uniform(-bound, bound, size=shape))


def test_biases_start_zero():
    params = build_network(tiny_spec(), seed=1)
    for name, value in params.items():
        if name.endswith(".b"):
            assert not value.any()


def test_window_too_short_names_layer():
    with pytest.raises(NetworkSpecError, match="phone conv0"):
        reference_spec(phone_length=20)
    with pytest.raises(NetworkSpecError, match="watch pool0"):
        NetworkSpec(phone=BranchSpec(1, 50, (2, 2), (3, 3), 2, 4),
                    watch=BranchSpec(1, 6, (2, 2), (4, 3), 4, 4),
                    context_size=2, classes=2)


def test_reference_parameter_count_hand_derived():
    # 6-channel phone and watch, 22 context predicates, 14 activities.
    spec = reference_spec()
    expected = (
        (32 * 6 * 24 + 32) + (64 * 32 * 16 + 64) + (96 * 64 * 8 + 96) + (96 * 128 + 128)
        + (32 * 6 * 16 + 32) + (64 * 32 * 8 + 64) + (96 * 64 * 4 + 96) + (96 * 128 + 128)
        + (22 * 8 + 8)
        + ((128 + 128 + 8) * 256 + 256)
        + (256 * 14 + 14)
    )
    assert expected == 227398
    assert parameter_count(spec) == expected


def test_infusion_adds_classes_times_trunk_parameters():
    base = reference_spec()
    infused = replace(base, infusion=True)
    assert parameter_count(infused) - parameter_count(base) == 14 * 256


# ---------------------------------------------------------------------------
# Forward semantics
# ---------------------------------------------------------------------------

def test_output_is_distribution():
    spec = tiny_spec()
    params = build_network(spec, seed=3)
    probs, trace = forward(params, spec, *tiny_inputs(spec), mode="infer")
    assert trace is None
    assert probs.shape == (3, 4)
    assert (probs >= 0).all()
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_infer_is_deterministic_with_dropout_configured():
    spec = tiny_spec(dropout=0.5)
    params = build_network(spec, seed=3)
    inputs = tiny_inputs(spec)
    p1, _ = forward(params, spec, *inputs, mode="infer")
    p2, _ = forward(params, spec, *inputs, mode="infer")
    np.testing.assert_array_equal(p1, p2)


def test_all_zero_weights_give_uniform_distribution():
    spec = tiny_spec()
    params = {name: np.zeros_like(p) for name, p in build_network(spec, 0).items()}
    probs, _ = forward(params, spec, *tiny_inputs(spec), mode="infer")
    np.testing.assert_allclose(probs, 0.25, atol=1e-12)


def test_shape_mismatch_names_tensor():
    spec = tiny_spec()
    params = build_network(spec, seed=0)
    phone, watch, context, _ = tiny_inputs(spec)
    with pytest.raises(ShapeError, match="watch input"):
        forward(params, spec, phone, watch[:, :, :-1], context)
    with pytest.raises(ShapeError, match="infusion"):
        forward(params, spec, phone, watch, context, infusion=np.zeros((3, 4)))


def test_infusion_required_when_declared():
    spec = tiny_spec(infusion=True)
    params = build_network(spec, seed=0)
    phone, watch, context, infusion = tiny_inputs(spec)
    with pytest.raises(ShapeError, match="infusion"):
        forward(params, spec, phone, watch, context)
    probs, _ = forward(params, spec, phone, watch, context, infusion)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# Backward semantics
# ---------------------------------------------------------------------------

def test_zero_output_gradient_gives_zero_parameter_gradients():
    spec = tiny_spec()
    params = build_network(spec, seed=5)
    _, trace = forward(params, spec, *tiny_inputs(spec), mode="train")
    grads = backward(trace, np.zeros((3, 4)))
    assert grads.keys() == params.keys()
    for g in grads.values():
        assert not g.any()


def test_backward_requires_train_trace():
    spec = tiny_spec()
    params = build_network(spec, seed=5)
    _, trace = forward(params, spec, *tiny_inputs(spec), mode="infer")
    with pytest.raises(ValueError, match="train-mode"):
        backward(trace, np.zeros((3, 4)))


def test_infusion_input_gradient_reported_but_not_a_parameter():
    spec = tiny_spec(infusion=True)
    params = build_network(spec, seed=5)
    _, trace = forward(params, spec, *tiny_inputs(spec), mode="train")
    grads, input_grads = backward(trace, np.ones((3, 4)), want_input_grads=True)
    assert "infusion" in input_grads
    assert input_grads["infusion"].shape == (3, 4)
    assert not any("infusion" in name for name in grads)


def pass_through_spec(phone_length, pool, blocks):
    """One channel and one filter per conv, kernel 1: with unit weights and
    zero biases the phone branch only pools, so the input gradient shows
    which input position each max pool routed to."""
    phone = BranchSpec(channels=1, length=phone_length, filters=(1,) * blocks,
                       kernels=(1,) * blocks, pool=pool, dense=1)
    watch = BranchSpec(channels=1, length=2, filters=(1,), kernels=(1,), pool=2, dense=1)
    return NetworkSpec(phone=phone, watch=watch, context_size=1, classes=2,
                       context_dense=1, trunk_dense=2, dropout=0.0)


def routed_input_gradient(spec, x):
    params = build_network(spec, seed=0)
    for name, value in params.items():
        value[...] = 0.0 if name.endswith(".b") else 1.0
    params["out.w"][...] = [[1.0, -1.0], [0.5, 2.0]]
    phone = np.array(x, dtype=float).reshape(1, 1, -1)
    _, trace = forward(params, spec, phone, np.ones((1, 1, 2)), np.zeros((1, 1)),
                       mode="train")
    _, inputs = backward(trace, np.array([[1.0, 0.0]]), want_input_grads=True)
    return inputs["phone"][0, 0]


def test_maxpool_ties_route_to_lowest_index():
    # pool 2 over [2, 2 | 5, 5 | 1]: the remainder 1 is dropped, the global max
    # pool picks the 5s, and the tie inside that pool window goes to index 2
    gx = routed_input_gradient(pass_through_spec(5, pool=2, blocks=2), [2, 2, 5, 5, 1])
    assert np.flatnonzero(gx).tolist() == [2]


def test_global_maxpool_tie_and_remainder():
    gx = routed_input_gradient(pass_through_spec(3, pool=2, blocks=1), [4, 4, 1])
    assert np.flatnonzero(gx).tolist() == [0]
    # a tie between two pooled windows and inside each: lowest index throughout
    gx = routed_input_gradient(pass_through_spec(7, pool=3, blocks=2), [4, 1, 4, 4, 4, 0, 9])
    assert np.flatnonzero(gx).tolist() == [0]


def test_negative_pool_windows_pass_no_gradient():
    # every pooled value is zeroed by the ReLU, so no input position gets gradient
    gx = routed_input_gradient(pass_through_spec(5, pool=2, blocks=2), [-1, -2, -3, -1, 4])
    assert not gx.any()


def test_dropout_statistics_and_scaling():
    rng = np.random.default_rng(0)
    x = np.ones((500, 200))
    y, (keep, scale) = _dropout_fwd(x, 0.1, rng)
    zero_rate = 1.0 - keep.mean()
    assert abs(zero_rate - 0.1) < 0.01
    np.testing.assert_allclose(y[keep], 1.0 / 0.9)
    assert not y[~keep].any()


# ---------------------------------------------------------------------------
# The batched kernels against the reference kernels (tests/nn_reference.py)
# ---------------------------------------------------------------------------

@st.composite
def network_cases(draw):
    """A random small spec, batch size, input kind and seed. Branch lengths
    leave random pool remainders; integer-valued inputs and conv weights make
    ties inside pool windows and between them common."""
    def branch():
        blocks = draw(st.integers(1, 3))
        kernels = [draw(st.integers(1, 4)) for _ in range(blocks)]
        pool = draw(st.integers(1, 3))
        length = 1
        for i, kernel in enumerate(reversed(kernels)):
            if i > 0:
                length = length * pool + draw(st.integers(0, pool - 1))
            length += kernel - 1
        return BranchSpec(channels=draw(st.integers(1, 2)),
                          length=length + draw(st.integers(0, 3)),
                          filters=tuple(draw(st.integers(1, 3)) for _ in range(blocks)),
                          kernels=tuple(kernels), pool=pool, dense=draw(st.integers(1, 4)))
    spec = NetworkSpec(phone=branch(), watch=branch(), context_size=draw(st.integers(1, 3)),
                       classes=draw(st.integers(2, 4)), context_dense=draw(st.integers(1, 3)),
                       trunk_dense=draw(st.integers(2, 5)),
                       dropout=draw(st.sampled_from([0.0, 0.3])), infusion=draw(st.booleans()))
    return spec, draw(st.integers(1, 5)), draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


def case_arrays(spec, n, integer, seed):
    rng = np.random.default_rng(seed)
    params = build_network(spec, seed)
    phone = rng.normal(size=(n, spec.phone.channels, spec.phone.length))
    watch = rng.normal(size=(n, spec.watch.channels, spec.watch.length))
    for name, value in params.items():
        if name.endswith(".b"):
            value[...] = rng.normal(scale=0.1, size=value.shape)
    if integer:
        phone, watch = (rng.integers(-2, 3, size=x.shape).astype(float) for x in (phone, watch))
        for name, value in params.items():
            if ".conv" in name:
                value[...] = rng.integers(-2, 3, size=value.shape)
    context = rng.integers(0, 2, size=(n, spec.context_size)).astype(float)
    infusion = (rng.integers(0, 2, size=(n, spec.classes)).astype(float)
                if spec.infusion else None)
    return params, (phone, watch, context, infusion), rng.normal(size=(n, spec.classes))


@settings(max_examples=150, deadline=None)
@given(network_cases())
def test_forward_and_backward_match_reference_kernels(case):
    spec, n, integer, seed = case
    params, inputs, grad_probs = case_arrays(spec, n, integer, seed)
    tolerance = dict(rtol=1e-9, atol=1e-12)

    probs, _ = forward(params, spec, *inputs, mode="infer")
    expected, _ = reference_forward(params, spec, *inputs)
    np.testing.assert_allclose(probs, expected, **tolerance)

    probs, trace = forward(params, spec, *inputs, mode="train",
                           rng=np.random.default_rng(seed))
    keep = None
    if spec.dropout > 0.0:
        keep = np.random.default_rng(seed).random((n, spec.concat_width)) >= spec.dropout
    expected, caches = reference_forward(params, spec, *inputs, keep=keep)
    np.testing.assert_allclose(probs, expected, **tolerance)

    grads, input_grads = backward(trace, grad_probs, want_input_grads=True)
    expected_grads, expected_inputs = reference_backward(spec, caches, grad_probs)
    assert list(grads) == list(params)
    assert input_grads.keys() == expected_inputs.keys()
    for name, value in expected_grads.items():
        np.testing.assert_allclose(grads[name], value, err_msg=name, **tolerance)
    for name, value in expected_inputs.items():
        np.testing.assert_allclose(input_grads[name], value, err_msg=name, **tolerance)


@pytest.mark.parametrize("integer", [False, True], ids=["normal", "integer"])
@pytest.mark.parametrize("kernel", [1, 2, 5])
def test_conv_input_gradient_is_the_shifted_add_loop_byte_for_byte(kernel, integer):
    # integer weights and gradients make ties and exact cancellations common;
    # every third column of the output gradient is all zero
    spec = NetworkSpec(
        phone=BranchSpec(channels=3, length=17, filters=(4, 3), kernels=(kernel, 3), pool=2,
                         dense=3),
        watch=BranchSpec(channels=2, length=9, filters=(2,), kernels=(kernel,), pool=2, dense=2),
        context_size=2, classes=3, context_dense=2, trunk_dense=4, dropout=0.0)
    rng = np.random.default_rng(kernel)
    params = build_network(spec, seed=kernel)
    for n in (1, 4):
        _, trace = forward(params, spec, *tiny_inputs(spec, n=n, seed=n), mode="train")
        for convs, blocks in zip(trace.plan.branches.values(), trace.buffers.branches):
            for conv, block in zip(convs, blocks):
                w = params[conv.w]
                if integer:
                    w[...] = rng.integers(-1, 2, size=w.shape)
                    block.gy[...] = rng.integers(-2, 3, size=block.gy.shape)
                else:
                    block.gy[...] = rng.normal(size=block.gy.shape)
                block.gy[:, ::3] = 0.0
                expected = shifted_add_input_gradient(w, block.gy_valid, block.gx.shape[1])
                # the pads share memory with the other branch's gradients
                block.left_pad.fill(np.nan)
                block.right_pad.fill(np.nan)
                gx = _conv_backward(block, w, np.empty_like(w), np.empty(conv.filters),
                                    want_input=True)
                assert gx.tobytes() == expected.tobytes()


def test_parameter_gradients_do_not_depend_on_want_input_grads():
    spec = tiny_spec(infusion=True, dropout=0.2)
    params = build_network(spec, seed=8)
    _, trace = forward(params, spec, *tiny_inputs(spec, n=5), mode="train",
                       rng=np.random.default_rng(1))
    grad_probs = np.random.default_rng(2).normal(size=(5, spec.classes))
    without = backward(trace, grad_probs)
    with_inputs, _ = backward(trace, grad_probs, want_input_grads=True)
    assert list(without) == list(with_inputs)
    for name in without:
        np.testing.assert_array_equal(without[name], with_inputs[name])


def test_results_do_not_share_memory_with_later_passes():
    # every pass reuses one scratch block; what forward and backward return
    # must not be views into it
    spec = tiny_spec(infusion=True)
    params = build_network(spec, seed=3)
    inputs = tiny_inputs(spec, n=1)
    probs, trace = forward(params, spec, *inputs, mode="train")
    grads, input_grads = backward(trace, np.ones((1, 4)), want_input_grads=True)
    kept = [a.copy() for a in (probs, grads.flat, *input_grads.values())]
    _, trace = forward(params, spec, *tiny_inputs(spec, n=1, seed=9), mode="train")
    backward(trace, -np.ones((1, 4)), want_input_grads=True)
    for before, after in zip(kept, (probs, grads.flat, *input_grads.values())):
        np.testing.assert_array_equal(before, after)


def test_backward_rejects_a_trace_whose_buffers_were_reused():
    spec = tiny_spec()
    params = build_network(spec, seed=5)
    _, first = forward(params, spec, *tiny_inputs(spec, seed=0), mode="train")
    forward(params, spec, *tiny_inputs(spec, seed=1), mode="train")
    with pytest.raises(ValueError, match="stale trace"):
        backward(first, np.zeros((3, 4)))


@pytest.mark.parametrize("n", [1, INFER_BLOCK, INFER_BLOCK + 1, 3 * INFER_BLOCK + 5])
def test_infer_blocks_match_single_window_forwards(n):
    spec = tiny_spec(infusion=True)
    params = build_network(spec, seed=6)
    phone, watch, context, infusion = tiny_inputs(spec, n=n, seed=n)
    probs, trace = forward(params, spec, phone, watch, context, infusion)
    assert trace is None and probs.shape == (n, spec.classes)
    for i in range(n):
        row, _ = forward(params, spec, phone[i:i + 1], watch[i:i + 1], context[i:i + 1],
                         infusion[i:i + 1])
        np.testing.assert_allclose(probs[i], row[0], rtol=1e-12, atol=0)


def test_empty_batch():
    spec = tiny_spec()
    params = build_network(spec, seed=0)
    phone, watch, context, _ = tiny_inputs(spec, n=0)
    probs, _ = forward(params, spec, phone, watch, context)
    assert probs.shape == (0, 4)
    with pytest.raises(ShapeError, match="at least one window"):
        forward(params, spec, phone, watch, context, mode="train")


# ---------------------------------------------------------------------------
# One flat parameter vector
# ---------------------------------------------------------------------------

def test_parameters_are_views_of_one_flat_vector():
    spec = tiny_spec()
    params = build_network(spec, seed=2)
    assert [(name, p.shape) for name, p in params.items()] == [
        (name, shape) for name, shape, _ in spec.parameter_shapes()]
    assert params.flat.size == parameter_count(spec)
    np.testing.assert_array_equal(params.flat,
                                  np.concatenate([p.ravel() for p in params.values()]))
    params["out.b"][0] = 7.0
    assert 7.0 in params.flat
    copy = params.copy()
    copy.flat[:] = 0.0
    assert params.flat.any()
    # entries are written in place, never replaced
    out_b = params["out.b"]
    with pytest.raises(TypeError):
        params["out.b"] = np.zeros(4)
    with pytest.raises(TypeError):
        del params["out.b"]
    assert params["out.b"] is out_b


def test_parameters_survive_pickling_as_views():
    params = build_network(tiny_spec(), seed=2)
    back = pickle.loads(pickle.dumps(params))
    back["out.w"][0, 0] = 3.0
    assert back.flat[back.flat.size - 4 - back["out.w"].size] == 3.0


def test_fused_adam_matches_per_tensor_formula():
    lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
    params = build_network(tiny_spec(), seed=4)
    flat = params.flat
    expected = {name: p.copy() for name, p in params.items()}
    m = {name: np.zeros_like(p) for name, p in expected.items()}
    v = {name: np.zeros_like(p) for name, p in expected.items()}
    state = AdamState.fresh(params)
    rng = np.random.default_rng(0)
    for t in range(1, 7):
        grads = {name: rng.normal(size=p.shape) for name, p in expected.items()}
        params, state = adam_step(params, Parameters.pack(grads), state, lr=lr)
        for name, g in grads.items():
            m[name] = beta1 * m[name] + (1.0 - beta1) * g
            v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
            expected[name] = expected[name] - lr * (m[name] / (1.0 - beta1 ** t)) / (
                np.sqrt(v[name] / (1.0 - beta2 ** t)) + eps)
        for name in expected:
            np.testing.assert_array_equal(params[name], expected[name])
    assert params.flat is flat and state.step == 6


def test_adam_rejects_gradients_in_another_layout():
    params = Parameters.pack({"w": np.zeros(2), "b": np.zeros(1)})
    state = AdamState.fresh(params)
    for grads in (Parameters.pack({"b": np.ones(1), "w": np.ones(2)}),
                  Parameters.pack({"w": np.ones(3)})):
        with pytest.raises(ValueError, match="layout"):
            adam_step(params, grads, state)
    assert not params.flat.any() and state.step == 0


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------

def test_gradcheck_small_specs():
    rng = np.random.default_rng(2024)
    for infusion in (False, True):
        spec = random_small_spec(rng, infusion=infusion)
        err = gradient_check_network(spec, seed=int(rng.integers(1 << 30)))
        assert err < 1e-4


def test_gradcheck_through_combined_loss():
    rng = np.random.default_rng(77)
    spec = random_small_spec(rng, infusion=False)
    err = gradient_check_network(spec, seed=11, loss_cfg=LossConfig("-P1", 3.0))
    assert err < 1e-4


def test_gradcheck_with_dropout_pinned():
    spec = tiny_spec(dropout=0.3)
    err = gradient_check_network(spec, seed=13, dropout_seed=99)
    assert err < 1e-4


def test_gradcheck_suite_report():
    report = run_gradient_check_suite(seed=1, trials=4)
    assert report["passed"]
    assert len(report["trials"]) == 4
    assert report["max_rel_err"] < 1e-4


def test_gradcheck_negative_control():
    # A deliberately wrong analytic gradient must be caught by the machinery.
    x = np.array([1.0, -2.0, 0.5])
    wrong_analytic = -2.0 * x
    fd = finite_difference_gradients(lambda: float((x ** 2).sum()), x)
    assert max_relative_error(wrong_analytic, fd) > 1e-4
    assert max_relative_error(2.0 * x, fd) < 1e-6


def test_flat_finite_differences_match_the_per_tensor_loop():
    spec = tiny_spec(infusion=True)
    params = build_network(spec, seed=5)
    params.flat[...] += np.random.default_rng(5).normal(scale=0.1, size=params.flat.size)
    phone, watch, context, infusion = tiny_inputs(spec, n=2, seed=5)
    head = np.random.default_rng(6).normal(size=(2, spec.classes))

    def value():
        probs, _ = forward(params, spec, phone, watch, context, infusion, mode="train")
        return float((head * probs).sum())

    per_tensor = per_tensor_finite_differences(value, params)
    flat = finite_difference_gradients(value, params.flat)
    np.testing.assert_array_equal(flat, np.concatenate([g.ravel() for g in per_tensor.values()]))


def test_gradcheck_suite_rejects_zero_trials():
    with pytest.raises(ValueError):
        run_gradient_check_suite(seed=0, trials=0)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradients_leave_parameters_unchanged():
    params = Parameters.pack({"w": np.array([1.0, -2.0])})
    state = AdamState.fresh(params)
    new_params, new_state = adam_step(params, Parameters.pack({"w": np.zeros(2)}), state)
    np.testing.assert_array_equal(new_params["w"], [1.0, -2.0])
    assert new_state.step == 1


def test_adam_first_step_hand_computed():
    # t=1, g=1: m_hat = 1, v_hat = 1, step = lr / (1 + eps)
    lr = 1e-3
    params = Parameters.pack({"w": np.array([0.0])})
    state = AdamState.fresh(params)
    new_params, _ = adam_step(params, Parameters.pack({"w": np.array([1.0])}), state, lr=lr)
    expected = -lr * 1.0 / (1.0 + 1e-8)
    np.testing.assert_allclose(new_params["w"], [expected], rtol=0, atol=1e-18)


def test_adam_converges_on_quadratic():
    # f(w) = (w - 0.5)^2, minimizer at 0.5
    params = Parameters.pack({"w": np.array([0.0])})
    state = AdamState.fresh(params)
    for _ in range(5000):
        grad = Parameters.pack({"w": 2.0 * (params["w"] - 0.5)})
        params, state = adam_step(params, grad, state)
        if abs(params["w"][0] - 0.5) < 1e-3:
            break
    assert abs(params["w"][0] - 0.5) < 1e-3


def test_adam_rejects_non_finite_gradient():
    params = Parameters.pack({"w": np.array([0.0]), "b": np.array([0.0])})
    state = AdamState.fresh(params)
    with pytest.raises(FloatingPointError, match="'b'"):
        adam_step(params, Parameters.pack({"w": np.array([1.0]), "b": np.array([np.nan])}),
                  state)
    assert not params.flat.any() and state.step == 0


# ---------------------------------------------------------------------------
# Pinned training trajectories: the bit-identity gate for nn performance work
# ---------------------------------------------------------------------------

def _grid_spec():
    """The network the benchmark's grid workload trains (configs/quick.yaml's
    network on 4 s windows of 3-channel 25 Hz streams, synthetic.rules)."""
    return NetworkConfig(phone_filters=(6, 8), phone_kernels=(7, 5), watch_filters=(6, 8),
                         watch_kernels=(5, 3), pool=2, branch_dense=16, context_dense=8,
                         trunk_dense=32, dropout=0.1).to_spec(
        phone_channels=3, phone_length=100, watch_channels=3, watch_length=100,
        context_size=11, classes=5)


TRAJECTORY_SPECS = {
    "grid": _grid_spec(),
    "infusion": NetworkSpec(
        phone=BranchSpec(channels=2, length=30, filters=(4, 5), kernels=(4, 3), pool=2, dense=6),
        watch=BranchSpec(channels=1, length=25, filters=(3,), kernels=(5,), pool=2, dense=4),
        context_size=4, classes=3, context_dense=3, trunk_dense=7, dropout=0.2,
        infusion=True),
    "kernel 1, pool 1": NetworkSpec(
        phone=BranchSpec(channels=2, length=9, filters=(3, 4), kernels=(1, 2), pool=1, dense=5),
        watch=BranchSpec(channels=3, length=7, filters=(2, 2), kernels=(1, 1), pool=1, dense=3),
        context_size=3, classes=4, context_dense=2, trunk_dense=6, dropout=0.0),
    # phone: 41 -> 38 -> 12 (remainder 2) -> 10 -> 3 (remainder 1) -> 2
    "pool 3 with remainders": NetworkSpec(
        phone=BranchSpec(channels=2, length=41, filters=(3, 4, 2), kernels=(4, 3, 2), pool=3,
                         dense=5),
        watch=BranchSpec(channels=1, length=23, filters=(3, 3), kernels=(3, 2), pool=3, dense=4),
        context_size=3, classes=4, context_dense=3, trunk_dense=5, dropout=0.0),
}


def trajectory_digest(steps=20):
    """sha256 over the gradient, input-gradient and final parameter bytes of
    seeded Adam trajectories under the `All` loss: every spec above at
    batches 1, 11 and 32, integer-valued inputs (ties in the pools) on odd
    steps."""
    loss_cfg = LossConfig("All", 2.0)
    digest = hashlib.sha256()
    for index, spec in enumerate(TRAJECTORY_SPECS.values()):
        for n in (1, 11, 32):
            rng = np.random.default_rng([index, n])
            params = build_network(spec, seed=index)
            state = AdamState.fresh(params)
            for step in range(steps):
                phone, watch, context, infusion = tiny_inputs(spec, n=n, seed=step)
                if step % 2:
                    phone, watch = np.rint(phone), np.rint(watch)
                labels = rng.integers(0, spec.classes, size=n)
                masks = rng.integers(0, 2, size=(n, spec.classes)).astype(bool)
                probs, trace = forward(params, spec, phone, watch, context, infusion,
                                       mode="train", rng=rng)
                _, grad_probs = combined_loss_batch(probs, labels, masks, loss_cfg)
                grads, input_grads = backward(trace, grad_probs, want_input_grads=True)
                digest.update(grads.flat.tobytes())
                for value in input_grads.values():
                    digest.update(np.ascontiguousarray(value).tobytes())
                adam_step(params, grads, state, lr=0.01)
            digest.update(params.flat.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(TRAJECTORY_SPECS))
def test_buffers_fit_a_block_of_exactly_their_measured_size(monkeypatch, name):
    # the layout measures itself: a block of that size must hold every
    # buffer, and the bytes must not depend on the memory around them
    spec = TRAJECTORY_SPECS[name]
    plan = nn._plan(spec)
    params = build_network(spec, seed=4)

    def run(n, mode, extra):
        size = nn._Buffers(plan, min(n, INFER_BLOCK), None).size + extra
        monkeypatch.setattr(nn, "_SCRATCH", nn._Scratch())
        nn._SCRATCH.memory = np.full(size, np.nan)
        probs, trace = forward(params, spec, *tiny_inputs(spec, n=n, seed=n), mode=mode,
                               rng=np.random.default_rng(n))
        results = [probs]
        if trace is not None:
            grads, input_grads = backward(trace, np.cos(probs), want_input_grads=True)
            results += [grads.flat, *input_grads.values()]
        assert nn._SCRATCH.memory.size == size      # the pass took no larger block
        return b"".join(a.tobytes() for a in results)

    for n, mode in ((1, "train"), (11, "train"), (32, "train"), (300, "infer")):
        assert run(n, mode, 0) == run(n, mode, 1000)


def test_training_trajectories_are_pinned_byte_for_byte():
    # A change to the order of nn's arithmetic moves this digest, and with it
    # the training trajectories and every report; a pure speed-up keeps it.
    assert trajectory_digest() == (
        "502049e8842dd3e5637c4debbe20bd8d552d763e67ce0e0e05f57c0922923e4f")
