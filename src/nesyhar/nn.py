"""Minimal differentiable network core for the three-branch activity classifier.

The architecture has two 1D-convolutional branches (phone and watch inertial
windows), a small dense branch for the multi-hot context vector, and a trunk
that concatenates the three feature vectors (plus an optional
consistency-vector input), applies dropout, a dense layer, and a softmax head.
The standard configuration uses conv filters (32, 64, 96) with kernels
(24, 16, 8) on the phone branch and (16, 8, 4) on the watch branch, max-pool 4
between conv blocks, a global max pool, dense 128 per inertial branch, dense 8
for context, dropout 0.1, and a dense 256 trunk.

Everything is plain numpy in double precision. Forward passes in train mode
return a trace; :func:`backward` replays it to produce exact reverse-mode
gradients for every parameter (and optionally the inputs), which the
finite-difference utilities at the bottom verify.

Convolutions are valid (no padding), stride 1, ReLU after every convolution
and dense layer except the output. Max pooling uses stride == pool size and
drops any remainder; gradient flows only to the argmax position, ties to the
lowest index. Dropout is inverted (survivors scaled by 1/(1-rate)), so
inference needs no rescaling.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "BranchSpec",
    "NetworkSpec",
    "NetworkSpecError",
    "ShapeError",
    "AdamState",
    "build_network",
    "forward",
    "backward",
    "adam_step",
    "parameter_count",
    "finite_difference_gradients",
    "max_relative_error",
    "gradient_check_network",
    "random_small_spec",
    "run_gradient_check_suite",
]


class NetworkSpecError(ValueError):
    """An architecture description is internally inconsistent."""


class ShapeError(ValueError):
    """An input tensor does not match the network specification."""


@dataclass(frozen=True)
class BranchSpec:
    """One inertial branch: conv blocks, pooling, global max pool, dense head."""

    channels: int
    length: int
    filters: tuple[int, ...]
    kernels: tuple[int, ...]
    pool: int
    dense: int

    def stage_lengths(self, name: str) -> list[int]:
        """Sequence lengths after each conv (and the pool that follows it).

        Raises NetworkSpecError naming the first stage whose input is too
        short.
        """
        if len(self.filters) != len(self.kernels):
            raise NetworkSpecError(f"{name}: {len(self.filters)} filter counts but "
                                   f"{len(self.kernels)} kernel sizes")
        if not self.filters:
            raise NetworkSpecError(f"{name}: at least one conv block required")
        if self.pool < 1:
            raise NetworkSpecError(f"{name}: pool size must be >= 1")
        lengths = []
        length = self.length
        for i, kernel in enumerate(self.kernels):
            if length < kernel:
                raise NetworkSpecError(
                    f"{name} conv{i} (kernel {kernel}): input length {length} too short")
            length = length - kernel + 1
            if i < len(self.kernels) - 1:
                pooled = length // self.pool
                if pooled < 1:
                    raise NetworkSpecError(
                        f"{name} pool{i} (size {self.pool}): input length {length} too short")
                length = pooled
            lengths.append(length)
        return lengths


@dataclass(frozen=True)
class NetworkSpec:
    """Complete architecture description; immutable and json-serializable."""

    phone: BranchSpec
    watch: BranchSpec
    context_size: int
    classes: int
    context_dense: int = 8
    trunk_dense: int = 256
    dropout: float = 0.1
    infusion: bool = False

    def __post_init__(self):
        if self.classes < 2:
            raise NetworkSpecError(f"need at least 2 classes, got {self.classes}")
        if not 0.0 <= self.dropout < 1.0:
            raise NetworkSpecError(f"dropout rate must be in [0, 1), got {self.dropout}")
        if self.context_size < 1:
            raise NetworkSpecError("context_size must be >= 1")
        self.phone.stage_lengths("phone")
        self.watch.stage_lengths("watch")

    @classmethod
    def standard(cls, phone_channels: int, watch_channels: int, phone_length: int,
                 watch_length: int, context_size: int, classes: int,
                 infusion: bool = False) -> "NetworkSpec":
        """The reference architecture (see module docstring)."""
        return cls(
            phone=BranchSpec(phone_channels, phone_length, (32, 64, 96), (24, 16, 8), 4, 128),
            watch=BranchSpec(watch_channels, watch_length, (32, 64, 96), (16, 8, 4), 4, 128),
            context_size=context_size,
            classes=classes,
            infusion=infusion,
        )

    @property
    def concat_width(self) -> int:
        width = self.phone.dense + self.watch.dense + self.context_dense
        if self.infusion:
            width += self.classes
        return width

    def parameter_shapes(self) -> Iterator[tuple[str, tuple[int, ...], int]]:
        """Yield (name, shape, fan_in) for every trainable tensor, in a fixed order."""
        for branch_name, branch in (("phone", self.phone), ("watch", self.watch)):
            in_ch = branch.channels
            for i, (n_filters, kernel) in enumerate(zip(branch.filters, branch.kernels)):
                yield f"{branch_name}.conv{i}.w", (n_filters, in_ch, kernel), in_ch * kernel
                yield f"{branch_name}.conv{i}.b", (n_filters,), 1
                in_ch = n_filters
            yield f"{branch_name}.dense.w", (in_ch, branch.dense), in_ch
            yield f"{branch_name}.dense.b", (branch.dense,), 1
        yield "context.dense.w", (self.context_size, self.context_dense), self.context_size
        yield "context.dense.b", (self.context_dense,), 1
        yield "trunk.dense.w", (self.concat_width, self.trunk_dense), self.concat_width
        yield "trunk.dense.b", (self.trunk_dense,), 1
        yield "out.w", (self.trunk_dense, self.classes), self.trunk_dense
        yield "out.b", (self.classes,), 1

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "NetworkSpec":
        def branch(b):
            return BranchSpec(channels=b["channels"], length=b["length"],
                              filters=tuple(b["filters"]), kernels=tuple(b["kernels"]),
                              pool=b["pool"], dense=b["dense"])
        return cls(phone=branch(d["phone"]), watch=branch(d["watch"]),
                   context_size=d["context_size"], classes=d["classes"],
                   context_dense=d["context_dense"], trunk_dense=d["trunk_dense"],
                   dropout=d["dropout"], infusion=d["infusion"])


Parameters = dict  # name -> np.ndarray, float64


def build_network(spec: NetworkSpec, seed: int) -> Parameters:
    """Seeded fan-in-scaled uniform initialization; biases start at zero."""
    rng = np.random.default_rng(seed)
    params: Parameters = {}
    for name, shape, fan_in in spec.parameter_shapes():
        if name.endswith(".b"):
            params[name] = np.zeros(shape, dtype=np.float64)
        else:
            bound = 1.0 / np.sqrt(fan_in)
            params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def parameter_count(spec: NetworkSpec) -> int:
    return sum(int(np.prod(shape)) for _, shape, _ in spec.parameter_shapes())


# ---------------------------------------------------------------------------
# Layer primitives (batched, float64)
# ---------------------------------------------------------------------------

def _conv1d_fwd(x, w, b):
    # x (n, c, l), w (f, c, k) -> y (n, f, l - k + 1)
    k = w.shape[2]
    windows = sliding_window_view(x, k, axis=2)           # (n, c, l_out, k)
    y = np.einsum("nclk,fck->nfl", windows, w, optimize=True) + b[:, None]
    return y, (x, w)


def _conv1d_bwd(g, cache):
    x, w = cache
    k = w.shape[2]
    windows = sliding_window_view(x, k, axis=2)
    gb = g.sum(axis=(0, 2))
    gw = np.einsum("nclk,nfl->fck", windows, g, optimize=True)
    padded = np.pad(g, ((0, 0), (0, 0), (k - 1, k - 1)))
    gwindows = sliding_window_view(padded, k, axis=2)     # (n, f, l, k)
    gx = np.einsum("nflk,fck->ncl", gwindows, w[:, :, ::-1], optimize=True)
    return gx, gw, gb


def _relu_fwd(x):
    return np.maximum(x, 0.0), x > 0


def _relu_bwd(g, positive):
    return g * positive


def _maxpool_fwd(x, size):
    # stride == size, remainder dropped; argmax keeps the first (lowest) index
    n, c, length = x.shape
    groups = length // size
    trimmed = x[:, :, :groups * size].reshape(n, c, groups, size)
    idx = trimmed.argmax(axis=3)
    y = np.take_along_axis(trimmed, idx[..., None], axis=3)[..., 0]
    return y, (idx, size, length)


def _maxpool_bwd(g, cache):
    idx, size, length = cache
    n, c, groups = g.shape
    gx = np.zeros((n, c, length), dtype=g.dtype)
    scatter = np.zeros((n, c, groups, size), dtype=g.dtype)
    np.put_along_axis(scatter, idx[..., None], g[..., None], axis=3)
    gx[:, :, :groups * size] = scatter.reshape(n, c, groups * size)
    return gx


def _globalmaxpool_fwd(x):
    idx = x.argmax(axis=2)
    y = np.take_along_axis(x, idx[..., None], axis=2)[..., 0]
    return y, (idx, x.shape)


def _globalmaxpool_bwd(g, cache):
    idx, shape = cache
    gx = np.zeros(shape, dtype=g.dtype)
    np.put_along_axis(gx, idx[..., None], g[..., None], axis=2)
    return gx


def _dense_fwd(x, w, b):
    return x @ w + b, (x, w)


def _dense_bwd(g, cache):
    x, w = cache
    return g @ w.T, x.T @ g, g.sum(axis=0)


def _dropout_fwd(x, rate, rng):
    keep = rng.random(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    return x * keep * scale, (keep, scale)


def _dropout_bwd(g, cache):
    keep, scale = cache
    return g * keep * scale


def _softmax_fwd(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    return p, p


def _softmax_bwd(g, p):
    return p * (g - (g * p).sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# Whole-network forward / backward
# ---------------------------------------------------------------------------

@dataclass
class Trace:
    """Caches from one train-mode forward pass, consumed by :func:`backward`."""

    spec: NetworkSpec
    caches: dict
    batch_size: int


def _check_shape(name, array, expected):
    if array.shape != expected:
        raise ShapeError(f"{name} has shape {array.shape}, expected {expected}")


def _branch_fwd(name, branch, x, params, caches):
    for i in range(len(branch.filters)):
        x, caches[f"{name}.conv{i}"] = _conv1d_fwd(
            x, params[f"{name}.conv{i}.w"], params[f"{name}.conv{i}.b"])
        x, caches[f"{name}.relu{i}"] = _relu_fwd(x)
        if i < len(branch.filters) - 1:
            x, caches[f"{name}.pool{i}"] = _maxpool_fwd(x, branch.pool)
    x, caches[f"{name}.gmp"] = _globalmaxpool_fwd(x)
    x, caches[f"{name}.dense"] = _dense_fwd(
        x, params[f"{name}.dense.w"], params[f"{name}.dense.b"])
    x, caches[f"{name}.denserelu"] = _relu_fwd(x)
    return x


def _branch_bwd(name, branch, g, caches, grads):
    g = _relu_bwd(g, caches[f"{name}.denserelu"])
    g, grads[f"{name}.dense.w"], grads[f"{name}.dense.b"] = _dense_bwd(
        g, caches[f"{name}.dense"])
    g = _globalmaxpool_bwd(g, caches[f"{name}.gmp"])
    for i in reversed(range(len(branch.filters))):
        if i < len(branch.filters) - 1:
            g = _maxpool_bwd(g, caches[f"{name}.pool{i}"])
        g = _relu_bwd(g, caches[f"{name}.relu{i}"])
        g, grads[f"{name}.conv{i}.w"], grads[f"{name}.conv{i}.b"] = _conv1d_bwd(
            g, caches[f"{name}.conv{i}"])
    return g


def forward(params: Parameters, spec: NetworkSpec, phone: np.ndarray, watch: np.ndarray,
            context: np.ndarray, infusion: np.ndarray | None = None, mode: str = "infer",
            rng: np.random.Generator | None = None) -> tuple[np.ndarray, Trace | None]:
    """Run the network on a batch; returns (probabilities, trace).

    Inputs are batched: phone (n, channels, length), watch likewise, context
    (n, context_size), infusion (n, classes) and required exactly when the spec
    declares an infusion input. mode "infer" disables dropout, is fully
    deterministic, and returns trace None; mode "train" needs an rng whenever
    the dropout rate is positive.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    phone = np.asarray(phone, dtype=np.float64)
    watch = np.asarray(watch, dtype=np.float64)
    context = np.asarray(context, dtype=np.float64)
    n = phone.shape[0] if phone.ndim == 3 else None
    if n is None:
        raise ShapeError(f"phone input must be 3-d (batch, channels, length), "
                         f"got shape {phone.shape}")
    _check_shape("phone input", phone, (n, spec.phone.channels, spec.phone.length))
    _check_shape("watch input", watch, (n, spec.watch.channels, spec.watch.length))
    _check_shape("context input", context, (n, spec.context_size))
    if spec.infusion:
        if infusion is None:
            raise ShapeError("spec declares an infusion input but none was given")
        infusion = np.asarray(infusion, dtype=np.float64)
        _check_shape("infusion input", infusion, (n, spec.classes))
    elif infusion is not None:
        raise ShapeError("infusion input given but the spec declares none")

    caches: dict = {}
    phone_feat = _branch_fwd("phone", spec.phone, phone, params, caches)
    watch_feat = _branch_fwd("watch", spec.watch, watch, params, caches)
    ctx_pre, caches["context.dense"] = _dense_fwd(
        context, params["context.dense.w"], params["context.dense.b"])
    ctx_feat, caches["context.relu"] = _relu_fwd(ctx_pre)

    parts = [phone_feat, watch_feat, ctx_feat]
    if spec.infusion:
        parts.append(infusion)
    feats = np.concatenate(parts, axis=1)
    caches["concat.widths"] = [p.shape[1] for p in parts]

    if mode == "train" and spec.dropout > 0.0:
        if rng is None:
            raise ValueError("train-mode forward with dropout needs an rng")
        feats, caches["dropout"] = _dropout_fwd(feats, spec.dropout, rng)
    else:
        caches["dropout"] = None

    hidden, caches["trunk.dense"] = _dense_fwd(
        feats, params["trunk.dense.w"], params["trunk.dense.b"])
    hidden, caches["trunk.relu"] = _relu_fwd(hidden)
    logits, caches["out"] = _dense_fwd(hidden, params["out.w"], params["out.b"])
    probs, caches["softmax"] = _softmax_fwd(logits)

    if mode == "infer":
        return probs, None
    return probs, Trace(spec=spec, caches=caches, batch_size=n)


def backward(trace: Trace | None, grad_probs: np.ndarray,
             want_input_grads: bool = False):
    """Exact reverse-mode gradients from a train-mode trace.

    grad_probs is the loss gradient with respect to the output probabilities,
    shape (n, classes). Returns a gradient dict keyed like the parameters; with
    want_input_grads=True returns (grads, input_grads) where input_grads has
    keys phone, watch, context and, for infusion specs, infusion.
    """
    if trace is None:
        raise ValueError("backward needs the trace of a train-mode forward pass")
    spec, caches = trace.spec, trace.caches
    grad_probs = np.asarray(grad_probs, dtype=np.float64)
    _check_shape("output gradient", grad_probs, (trace.batch_size, spec.classes))

    grads: dict = {}
    g = _softmax_bwd(grad_probs, caches["softmax"])
    g, grads["out.w"], grads["out.b"] = _dense_bwd(g, caches["out"])
    g = _relu_bwd(g, caches["trunk.relu"])
    g, grads["trunk.dense.w"], grads["trunk.dense.b"] = _dense_bwd(g, caches["trunk.dense"])
    if caches["dropout"] is not None:
        g = _dropout_bwd(g, caches["dropout"])

    widths = caches["concat.widths"]
    splits = np.cumsum(widths)[:-1]
    parts = np.split(g, splits, axis=1)
    g_phone_feat, g_watch_feat, g_ctx_feat = parts[0], parts[1], parts[2]
    g_infusion = parts[3] if spec.infusion else None

    g_ctx = _relu_bwd(g_ctx_feat, caches["context.relu"])
    g_ctx, grads["context.dense.w"], grads["context.dense.b"] = _dense_bwd(
        g_ctx, caches["context.dense"])

    g_phone = _branch_bwd("phone", spec.phone, g_phone_feat, caches, grads)
    g_watch = _branch_bwd("watch", spec.watch, g_watch_feat, caches, grads)

    if not want_input_grads:
        return grads
    input_grads = {"phone": g_phone, "watch": g_watch, "context": g_ctx}
    if spec.infusion:
        input_grads["infusion"] = g_infusion
    return grads, input_grads


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """First/second moment estimates and the step counter."""

    step: int
    m: dict
    v: dict

    @classmethod
    def fresh(cls, params: Parameters) -> "AdamState":
        return cls(step=0,
                   m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params: Parameters, grads: Mapping[str, np.ndarray], state: AdamState,
              lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> tuple[Parameters, AdamState]:
    """One Adam update; returns new parameter and state dicts.

    Raises on non-finite gradients, naming the offending tensor.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in {name!r}")
    t = state.step + 1
    new_params: Parameters = {}
    new_m, new_v = {}, {}
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        m = beta1 * state.m[name] + (1.0 - beta1) * g
        v = beta2 * state.v[name] + (1.0 - beta2) * g * g
        new_params[name] = p - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        new_m[name] = m
        new_v[name] = v
    return new_params, AdamState(step=t, m=new_m, v=new_v)


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------

def finite_difference_gradients(value_fn: Callable[[], float], tensors: Mapping[str, np.ndarray],
                                h: float = 1e-5) -> dict:
    """Central-difference gradients of value_fn with respect to every tensor entry.

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


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float((np.abs(analytic - numeric) / scale).max())


def random_small_spec(rng: np.random.Generator, infusion: bool | None = None) -> NetworkSpec:
    """A tiny random architecture exercising conv, pool, global pool, dense, concat."""
    blocks = int(rng.integers(1, 3))
    def branch():
        kernels = tuple(int(rng.integers(2, 5)) for _ in range(blocks))
        filters = tuple(int(rng.integers(2, 4)) for _ in range(blocks))
        pool = int(rng.integers(2, 4))
        # length long enough for the whole chain, with a little slack
        length = 1
        for i, k in enumerate(reversed(kernels)):
            if i > 0:
                length = length * pool + int(rng.integers(0, pool))
            length = length + k - 1
        length += int(rng.integers(0, 3))
        return BranchSpec(channels=int(rng.integers(1, 3)), length=length,
                          filters=filters, kernels=kernels, pool=pool,
                          dense=int(rng.integers(3, 6)))
    return NetworkSpec(
        phone=branch(), watch=branch(),
        context_size=int(rng.integers(2, 5)),
        classes=int(rng.integers(2, 5)),
        context_dense=int(rng.integers(2, 5)),
        trunk_dense=int(rng.integers(4, 8)),
        dropout=0.0,
        infusion=bool(rng.integers(0, 2)) if infusion is None else infusion,
    )


def _random_inputs(spec: NetworkSpec, rng: np.random.Generator, n: int = 2):
    phone = rng.normal(size=(n, spec.phone.channels, spec.phone.length))
    watch = rng.normal(size=(n, spec.watch.channels, spec.watch.length))
    context = rng.integers(0, 2, size=(n, spec.context_size)).astype(np.float64)
    infusion = None
    if spec.infusion:
        infusion = rng.integers(0, 2, size=(n, spec.classes)).astype(np.float64)
    return phone, watch, context, infusion


def gradient_check_network(spec: NetworkSpec, seed: int, h: float = 1e-5,
                           loss_cfg=None, dropout_seed: int | None = None) -> float:
    """Max relative error between backprop and central differences for one spec.

    The scalar head is a fixed random linear functional of the output
    probabilities, or the combined training loss when loss_cfg is given.
    Checks every parameter tensor and all network inputs. When the spec has a
    positive dropout rate, dropout_seed fixes the mask so the function stays
    deterministic across finite-difference evaluations.
    """
    from .losses import combined_loss_batch

    if spec.dropout > 0.0 and dropout_seed is None:
        raise ValueError("a spec with dropout needs dropout_seed to pin the mask")
    rng = np.random.default_rng(seed)
    params = build_network(spec, seed)
    # randomize biases too, so their gradients are exercised from a generic point
    for name in params:
        if name.endswith(".b"):
            params[name] = rng.normal(scale=0.1, size=params[name].shape)
    phone, watch, context, infusion = _random_inputs(spec, rng)
    n = phone.shape[0]
    head = rng.normal(size=(n, spec.classes))
    labels = rng.integers(0, spec.classes, size=n)
    masks = rng.integers(0, 2, size=(n, spec.classes)).astype(bool)

    def run(mode):
        fwd_rng = (np.random.default_rng(dropout_seed)
                   if spec.dropout > 0.0 and mode == "train" else None)
        return forward(params, spec, phone, watch, context, infusion,
                       mode=mode, rng=fwd_rng)

    def value() -> float:
        probs, _ = run("train")
        if loss_cfg is None:
            return float((head * probs).sum())
        v, _ = combined_loss_batch(probs, labels, masks, loss_cfg)
        return v

    probs, trace = run("train")
    if loss_cfg is None:
        grad_probs = head
    else:
        if loss_cfg.semantic_type != "none":
            top2 = np.sort(probs, axis=1)[:, -2:]
            if (top2[:, 1] - top2[:, 0] < 1e-3).any():
                # argmax too close to a tie for finite differences; perturb the seed
                return gradient_check_network(spec, seed + 1000, h, loss_cfg, dropout_seed)
        _, grad_probs = combined_loss_batch(probs, labels, masks, loss_cfg)
    analytic, input_grads = backward(trace, grad_probs, want_input_grads=True)

    tensors = dict(params)
    fd = finite_difference_gradients(value, tensors, h)
    worst = max(max_relative_error(analytic[name], fd[name]) for name in analytic)

    inputs = {"phone": phone, "watch": watch, "context": context}
    if spec.infusion:
        inputs["infusion"] = infusion
    fd_inputs = finite_difference_gradients(value, inputs, h)
    for name, fd_grad in fd_inputs.items():
        worst = max(worst, max_relative_error(input_grads[name], fd_grad))
    return worst


def run_gradient_check_suite(seed: int = 0, trials: int = 20,
                             tolerance: float = 1e-4) -> dict:
    """Finite-difference verification across random small specs and loss types.

    Returns a report dict with per-trial worst errors and the overall maximum.
    Trials alternate between a linear head and the combined loss with each
    consistency penalty; a few trials enable dropout with a pinned mask.
    """
    from .losses import SEMANTIC_TYPES, LossConfig

    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    results = []
    for trial in range(trials):
        spec = random_small_spec(rng)
        dropout_seed = None
        if trial % 5 == 4:
            spec = replace(spec, dropout=0.2)
            dropout_seed = int(rng.integers(1 << 30))
        if trial % 2 == 0:
            loss_cfg = None
            label = "linear"
        else:
            kind = SEMANTIC_TYPES[(trial // 2) % len(SEMANTIC_TYPES)]
            loss_cfg = LossConfig(kind, 0.0 if kind == "none" else 2.0)
            label = f"loss:{kind}"
        err = gradient_check_network(spec, seed=int(rng.integers(1 << 30)),
                                     loss_cfg=loss_cfg, dropout_seed=dropout_seed)
        results.append({"trial": trial, "head": label, "infusion": spec.infusion,
                        "dropout": spec.dropout, "max_rel_err": err})
    worst = max(r["max_rel_err"] for r in results)
    return {"trials": results, "max_rel_err": worst, "tolerance": tolerance,
            "passed": bool(worst < tolerance)}
