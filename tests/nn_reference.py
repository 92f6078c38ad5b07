"""Reference kernels and a reference network, the test oracle for nesyhar.nn.

Each layer is written the direct way, one window at a time in spirit: the
convolution as an einsum over ``sliding_window_view`` windows, the pools as
``argmax`` plus ``take_along_axis``/``put_along_axis``. ``reference_forward``
and ``reference_backward`` chain them into the same three-branch network as
``nesyhar.nn.forward``/``backward``, reading the same parameter names, so the
two can be compared on any spec.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def conv1d_fwd(x, w, b):
    # x (n, c, l), w (f, c, k) -> y (n, f, l - k + 1)
    k = w.shape[2]
    windows = sliding_window_view(x, k, axis=2)           # (n, c, l_out, k)
    y = np.einsum("nclk,fck->nfl", windows, w, optimize=True) + b[:, None]
    return y, (x, w)


def conv1d_bwd(g, cache):
    x, w = cache
    k = w.shape[2]
    windows = sliding_window_view(x, k, axis=2)
    gb = g.sum(axis=(0, 2))
    gw = np.einsum("nclk,nfl->fck", windows, g, optimize=True)
    padded = np.pad(g, ((0, 0), (0, 0), (k - 1, k - 1)))
    gwindows = sliding_window_view(padded, k, axis=2)     # (n, f, l, k)
    gx = np.einsum("nflk,fck->ncl", gwindows, w[:, :, ::-1], optimize=True)
    return gx, gw, gb


def shifted_add_input_gradient(w, gy, width):
    """A conv layer's input gradient the way ``nesyhar.nn`` once computed it,
    kept as its byte oracle: dcols = wᵀ·gy, its j = 0 shift copied, the other
    k - 1 shifts added in place. gy (filters, span) covers the windows end to
    end; returns gx (channels, width), the columns past span + j zero."""
    f, c, k = w.shape
    span = gy.shape[1]
    shifted = (w.reshape(f, -1).T @ gy).reshape(c, k, span)
    gx = np.empty((c, width))
    np.copyto(gx[:, :span], shifted[:, 0])
    gx[:, span:] = 0.0
    for j in range(1, k):
        gx[:, j:j + span] += shifted[:, j]
    return gx


def maxpool_fwd(x, size):
    # stride == size, remainder dropped; argmax keeps the first (lowest) index
    n, c, length = x.shape
    groups = length // size
    trimmed = x[:, :, :groups * size].reshape(n, c, groups, size)
    idx = trimmed.argmax(axis=3)
    y = np.take_along_axis(trimmed, idx[..., None], axis=3)[..., 0]
    return y, (idx, size, length)


def maxpool_bwd(g, cache):
    idx, size, length = cache
    n, c, groups = g.shape
    gx = np.zeros((n, c, length), dtype=g.dtype)
    scatter = np.zeros((n, c, groups, size), dtype=g.dtype)
    np.put_along_axis(scatter, idx[..., None], g[..., None], axis=3)
    gx[:, :, :groups * size] = scatter.reshape(n, c, groups * size)
    return gx


def globalmaxpool_fwd(x):
    idx = x.argmax(axis=2)
    y = np.take_along_axis(x, idx[..., None], axis=2)[..., 0]
    return y, (idx, x.shape)


def globalmaxpool_bwd(g, cache):
    idx, shape = cache
    gx = np.zeros(shape, dtype=g.dtype)
    np.put_along_axis(gx, idx[..., None], g[..., None], axis=2)
    return gx


def _dense_fwd(x, w, b):
    return x @ w + b, (x, w)


def _dense_bwd(g, cache):
    x, w = cache
    return g @ w.T, x.T @ g, g.sum(axis=0)


def _branch_fwd(name, branch, x, params, caches):
    for i in range(len(branch.filters)):
        x, caches[f"{name}.conv{i}"] = conv1d_fwd(
            x, params[f"{name}.conv{i}.w"], params[f"{name}.conv{i}.b"])
        caches[f"{name}.relu{i}"] = x > 0
        x = np.maximum(x, 0.0)
        if i < len(branch.filters) - 1:
            x, caches[f"{name}.pool{i}"] = maxpool_fwd(x, branch.pool)
    x, caches[f"{name}.gmp"] = globalmaxpool_fwd(x)
    x, caches[f"{name}.dense"] = _dense_fwd(
        x, params[f"{name}.dense.w"], params[f"{name}.dense.b"])
    caches[f"{name}.denserelu"] = x > 0
    return np.maximum(x, 0.0)


def _branch_bwd(name, branch, g, caches, grads):
    g = g * caches[f"{name}.denserelu"]
    g, grads[f"{name}.dense.w"], grads[f"{name}.dense.b"] = _dense_bwd(
        g, caches[f"{name}.dense"])
    g = globalmaxpool_bwd(g, caches[f"{name}.gmp"])
    for i in reversed(range(len(branch.filters))):
        if i < len(branch.filters) - 1:
            g = maxpool_bwd(g, caches[f"{name}.pool{i}"])
        g = g * caches[f"{name}.relu{i}"]
        g, grads[f"{name}.conv{i}.w"], grads[f"{name}.conv{i}.b"] = conv1d_bwd(
            g, caches[f"{name}.conv{i}"])
    return g


def reference_forward(params, spec, phone, watch, context, infusion=None, keep=None):
    """(probabilities, caches); keep is an optional dropout keep-mask of the
    concatenated features (survivors are scaled by 1 / (1 - rate))."""
    caches = {}
    parts = [_branch_fwd("phone", spec.phone, phone, params, caches),
             _branch_fwd("watch", spec.watch, watch, params, caches)]
    ctx, caches["context.dense"] = _dense_fwd(
        context, params["context.dense.w"], params["context.dense.b"])
    caches["context.relu"] = ctx > 0
    parts.append(np.maximum(ctx, 0.0))
    if spec.infusion:
        parts.append(infusion)
    feats = np.concatenate(parts, axis=1)
    caches["widths"] = [p.shape[1] for p in parts]
    caches["keep"] = keep
    if keep is not None:
        feats = feats * keep * (1.0 / (1.0 - spec.dropout))
    hidden, caches["trunk.dense"] = _dense_fwd(
        feats, params["trunk.dense.w"], params["trunk.dense.b"])
    caches["trunk.relu"] = hidden > 0
    logits, caches["out"] = _dense_fwd(np.maximum(hidden, 0.0), params["out.w"],
                                       params["out.b"])
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    caches["softmax"] = probs
    return probs, caches


def reference_backward(spec, caches, grad_probs):
    """(parameter gradients, input gradients) of one reference_forward."""
    grads = {}
    p = caches["softmax"]
    g = p * (grad_probs - (grad_probs * p).sum(axis=1, keepdims=True))
    g, grads["out.w"], grads["out.b"] = _dense_bwd(g, caches["out"])
    g = g * caches["trunk.relu"]
    g, grads["trunk.dense.w"], grads["trunk.dense.b"] = _dense_bwd(g, caches["trunk.dense"])
    if caches["keep"] is not None:
        g = g * caches["keep"] * (1.0 / (1.0 - spec.dropout))
    parts = np.split(g, np.cumsum(caches["widths"])[:-1], axis=1)
    g_ctx = parts[2] * caches["context.relu"]
    g_ctx, grads["context.dense.w"], grads["context.dense.b"] = _dense_bwd(
        g_ctx, caches["context.dense"])
    inputs = {"phone": _branch_bwd("phone", spec.phone, parts[0], caches, grads),
              "watch": _branch_bwd("watch", spec.watch, parts[1], caches, grads),
              "context": g_ctx}
    if spec.infusion:
        inputs["infusion"] = parts[3]
    return grads, inputs


def finite_difference_gradients(value_fn, tensors, h=1e-5):
    """Central-difference gradients of value_fn, tensor by tensor: the loop
    that ``nesyhar.nn.finite_difference_gradients`` runs over one flat vector.

    value_fn must read the (mutated in place) tensors on each call.
    """
    fd = {}
    for name, tensor in tensors.items():
        grad = np.zeros_like(tensor)
        flat = tensor.reshape(-1)
        grad_flat = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            plus = value_fn()
            flat[i] = original - h
            minus = value_fn()
            flat[i] = original
            grad_flat[i] = (plus - minus) / (2.0 * h)
        fd[name] = grad
    return fd
