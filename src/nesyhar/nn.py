"""Minimal differentiable network core for the three-branch activity classifier.

The architecture has two 1D-convolutional branches (phone and watch inertial
windows), a small dense branch for the multi-hot context vector, and a trunk
that concatenates the three feature vectors (plus an optional
consistency-vector input), applies dropout, a dense layer, and a softmax head.
The default ``NetworkConfig`` uses conv filters (32, 64, 96) with kernels
(24, 16, 8) on the phone branch and (16, 8, 4) on the watch branch, max-pool 4
between conv blocks, a global max pool, dense 128 per inertial branch, dense 8
for context, dropout 0.1, and a dense 256 trunk.

Everything is plain numpy in double precision. Each :class:`NetworkSpec` is
compiled once (cached per spec) into a plan: the parameter layout and the conv
blocks of each branch, whose lengths are the spec's ``stage_lengths``. A
block's buffers per batch size are views into one scratch block that every
pass reuses; the layout measures itself (a build with no memory behind it
gives the size the block must have), so no size is written out twice. The
parameters are one flat float64 vector whose named views form a read-only
mapping (:class:`Parameters`), so Adam updates and training copies the whole
set at once. Inside an inertial branch the windows of a batch lie end to end,
activations shaped (channels, batch * length): a convolution is one matrix
product over a column matrix built from ``kernel`` shifted copies of its input
(the outputs that straddle two windows are computed and ignored), and max
pooling is an elementwise maximum over the pool's slices. Forward passes in
train mode return a trace; :func:`backward` replays it to produce exact
reverse-mode gradients for every parameter (and optionally the inputs), which
the finite-difference utilities at the bottom verify. Backward mirrors that
layout: a convolution's input gradient is one matrix product into a column
matrix with zero pads on both sides, then one reduction over a strided view of
its ``kernel`` shifts, added in ascending order. Infer-mode passes keep no
trace and run large batches in blocks of ``INFER_BLOCK`` windows, so their
memory does not grow with the batch.

Convolutions are valid (no padding), stride 1, ReLU after every convolution
and dense layer except the output. Max pooling uses stride == pool size and
drops any remainder; gradient flows only to the argmax position, ties to the
lowest index. Dropout is inverted (survivors scaled by 1/(1-rate)), so
inference needs no rescaling.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Mapping

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .records import bounded, check_bounds

__all__ = [
    "BranchSpec",
    "NetworkSpec",
    "NetworkSpecError",
    "ShapeError",
    "Parameters",
    "AdamState",
    "INFER_BLOCK",
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

# An infer-mode forward pass runs batches larger than this in blocks of this
# many windows, which bounds its scratch memory.
INFER_BLOCK = 128
# The scratch memory keeps the array views of this many (spec, batch size)
# pairs, the most recently used ones.
_BUFFER_SETS = 16
# Adam's decay rates and offset; gradcheck's step, windows and passing error
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
_FD_STEP, _CHECK_WINDOWS, _GRADCHECK_TOLERANCE = 1e-5, 2, 1e-4


class NetworkSpecError(ValueError):
    """An architecture description is internally inconsistent."""


class ShapeError(ValueError):
    """An input tensor does not match the network specification."""


@dataclass(frozen=True)
class BranchSpec:
    """One inertial branch: conv blocks, pooling, global max pool, dense head."""

    channels: int = bounded(">= 1")
    length: int = bounded(">= 1")
    filters: tuple[int, ...] = bounded(">= 1")
    kernels: tuple[int, ...] = bounded(">= 1")
    pool: int = bounded(">= 1")
    dense: int = bounded(">= 1")

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
        check_bounds(self, f"{name}: ")
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
    context_size: int = bounded(">= 1")
    classes: int = bounded(">= 2")
    context_dense: int = bounded(">= 1", default=8)
    trunk_dense: int = bounded(">= 1", default=256)
    dropout: float = bounded("in [0, 1)", default=0.1)
    infusion: bool = False

    def __post_init__(self):
        check_bounds(self)
        self.phone.stage_lengths("phone")
        self.watch.stage_lengths("watch")

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


class Parameters(Mapping):
    """Named tensors that are views into one flat float64 vector.

    A read-only ``name -> array`` mapping (checkpoints save it as one): an
    entry can be written in place, never replaced, so every entry stays the
    view of ``flat`` it was built with. ``flat`` holds every value in
    ``layout`` order, so the optimizer updates and training copies the whole
    set at once.
    """

    __slots__ = ("flat", "layout", "_views")

    def __init__(self, flat: np.ndarray, layout: tuple[tuple[str, tuple[int, ...]], ...]):
        self.flat = flat
        self.layout = layout
        self._views = {}
        offset = 0
        for name, shape in layout:
            size = math.prod(shape)
            self._views[name] = flat[offset:offset + size].reshape(shape)
            offset += size

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    @classmethod
    def pack(cls, tensors: Mapping[str, np.ndarray]) -> "Parameters":
        """A flat copy of any name -> array mapping, in its order."""
        arrays = [np.asarray(t, dtype=np.float64) for t in tensors.values()]
        flat = np.concatenate([a.ravel() for a in arrays]) if arrays else np.empty(0)
        return cls(flat, tuple((name, a.shape) for name, a in zip(tensors, arrays)))

    def copy(self) -> "Parameters":
        return Parameters(self.flat.copy(), self.layout)

    def __reduce__(self):
        # a pickled view would come back as a copy, detached from `flat`
        return Parameters, (self.flat, self.layout)


def build_network(spec: NetworkSpec, seed: int) -> Parameters:
    """Seeded fan-in-scaled uniform initialization; biases start at zero."""
    rng = np.random.default_rng(seed)
    plan = _plan(spec)
    params = Parameters(np.zeros(plan.size), plan.layout)
    for name, shape, fan_in in spec.parameter_shapes():
        if not name.endswith(".b"):
            bound = 1.0 / np.sqrt(fan_in)
            params[name][...] = rng.uniform(-bound, bound, size=shape)
    return params


def parameter_count(spec: NetworkSpec) -> int:
    return _plan(spec).size


# ---------------------------------------------------------------------------
# The compiled plan: layout, conv blocks and scratch buffers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Conv:
    """One conv block of a branch and the pool after it (pool 0: the branch's
    global max pool); its lengths are per window, from ``stage_lengths``."""

    w: str
    b: str
    channels: int
    filters: int
    kernel: int
    length: int          # input length
    out: int             # output length, pooled unless pool is 0
    pool: int


class _ConvBuffers:
    """Scratch arrays of one conv block for one batch size of n windows.

    ``x`` (channels, n * length) is the block's input, the windows end to end.
    ``y`` (filters, n * length) is its pre-activation output: column
    ``s * length + t`` is output t of window s, and the last kernel - 1
    columns of every window's slot straddle two windows and are never read.
    ``gy``, ``dcols`` and ``gx`` are the gradients of ``y``, ``cols`` and ``x``;
    ``summed`` (channels, kernel, n * length) reads the kernel shifts of
    ``dcols`` whose sum is ``gx``.
    """

    def __init__(self, conv: _Conv, n: int, take: Callable[..., np.ndarray]):
        c, k, length, f = conv.channels, conv.kernel, conv.length, conv.filters
        self.conv = conv
        self.span = n * length - k + 1
        self.x = take(c, n * length)
        self.x_windows = self.x.reshape(c, n, length)
        # cols[(i, j), t] = x[i, t + j]: one strided read, one copy
        self.shifted = as_strided(self.x, (c, k, self.span),
                                  (self.x.strides[0], self.x.itemsize, self.x.itemsize),
                                  writeable=False)
        self.cols = take(c * k, self.span)
        self.y = take(f, n * length)
        self.y_valid = self.y[:, :self.span]
        slots = self.y.reshape(f, n, length)
        if conv.pool:
            self.tiles = slots[:, :, :conv.out * conv.pool].reshape(f, n, conv.out, conv.pool)
            self.pooled = None      # the next block's x, shaped (f, n, out)
        else:
            self.outputs = slots[:, :, :conv.out]
            self.slot_start = (np.arange(f)[:, None] * (n * length)
                               + np.arange(n)[None, :] * length)

    def take_gradients(self, take: Callable[..., np.ndarray]) -> None:
        self.gy = take(*self.y.shape)
        self.gy_valid = self.gy[:, :self.span]
        if self.conv.pool:
            f, n, groups, p = self.tiles.shape
            slots = self.gy.reshape(f, n, -1)
            self.gy_tiles = slots[:, :, :groups * p].reshape(f, n, groups, p)
            self.gy_rest = slots[:, :, groups * p:]     # no pool window covers these
        # dcols sits between kernel - 1 pad columns on each side, so that
        # summed[i, j, t] = dcols[(i, j), t - j] is one strided read, a pad
        # where t - j falls outside dcols
        c, k = self.conv.channels, self.conv.kernel
        pad, width = k - 1, self.span + 2 * (k - 1)
        padded = take(c * k, width)
        self.left_pad, self.right_pad = padded[:, :pad], padded[:, pad + self.span:]
        self.dcols = padded[:, pad:pad + self.span]
        self.gx = take(*self.x.shape)
        step = padded.itemsize
        self.summed = as_strided(padded.reshape(-1)[pad:], (c, k, self.gx.shape[1]),
                                 (k * width * step, (width - 1) * step, step),
                                 writeable=False)


class _Buffers:
    """The scratch arrays of one plan for one batch size: views into
    ``memory``, the forward pass's arrays first, so inference touches only
    the front of it. The branches' gradient arrays share one region, because
    backward finishes one branch before it starts the next. ``size`` counts
    the elements the layout reaches; with memory None, every array is a fresh
    ``np.empty``, so a build only measures."""

    def __init__(self, plan: "_Plan", n: int, memory: np.ndarray | None):
        offset = self.size = 0

        def take(*shape):
            nonlocal offset
            end = offset + math.prod(shape)
            array = np.empty(shape) if memory is None else memory[offset:end].reshape(shape)
            offset = end
            self.size = max(self.size, end)
            return array

        self.branches = [[_ConvBuffers(conv, n, take) for conv in convs]
                         for convs in plan.branches.values()]
        gradients = offset
        for blocks in self.branches:
            offset = gradients
            for block, following in zip(blocks, blocks[1:]):
                block.pooled = following.x_windows
            for block in blocks:
                block.take_gradients(take)


class _Scratch:
    """The scratch memory of every forward and backward pass in the process.

    Every pass lays its buffers out from the start of one float64 block, so
    the block is as large as the largest pass needs, not the sum over the
    specs and batch sizes in use, and passes after the first fault in no new
    pages. Each forward pass overwrites it: ``generation`` counts them, and a
    trace is valid while the count is unchanged. Shared by the whole process,
    so this code is not thread-safe.
    """

    def __init__(self):
        self.memory = np.empty(0)
        self.generation = 0
        self._sets: dict[tuple, _Buffers] = {}

    def buffers(self, plan: "_Plan", n: int) -> _Buffers:
        """The buffers of one pass of plan over n windows; counts the pass."""
        key = (plan, n)
        bufs = self._sets.pop(key, None)
        if bufs is None:
            size = _Buffers(plan, n, None).size
            if size > self.memory.size:
                self.memory = np.empty(size)
                self._sets.clear()
            bufs = _Buffers(plan, n, self.memory)
            while len(self._sets) >= _BUFFER_SETS:
                del self._sets[next(iter(self._sets))]
        self._sets[key] = bufs
        self.generation += 1
        return bufs


_SCRATCH = _Scratch()


class _Plan:
    """What one spec compiles to: the parameter layout (parameter_shapes()
    order), the conv blocks of each branch and the trunk input's columns."""

    def __init__(self, spec: NetworkSpec):
        self.spec = spec
        self.layout = tuple((name, shape) for name, shape, _ in spec.parameter_shapes())
        self.size = sum(math.prod(shape) for _, shape in self.layout)
        self.branches = {}
        for name, branch in (("phone", spec.phone), ("watch", spec.watch)):
            channels = (branch.channels, *branch.filters)
            lengths = (branch.length, *branch.stage_lengths(name))
            last = len(branch.filters) - 1
            self.branches[name] = tuple(
                _Conv(f"{name}.conv{i}.w", f"{name}.conv{i}.b", channels[i], filters, kernel,
                      lengths[i], lengths[i + 1], 0 if i == last else branch.pool)
                for i, (filters, kernel) in enumerate(zip(branch.filters, branch.kernels)))
        # the columns of each part of the trunk's input: phone, watch, context
        # and, with infusion, the consistency vector
        widths = [spec.phone.dense, spec.watch.dense, spec.context_dense]
        edges = list(itertools.accumulate(widths + [spec.classes] * spec.infusion, initial=0))
        self.features = tuple(slice(a, b) for a, b in zip(edges, edges[1:]))


@functools.lru_cache(maxsize=16)
def _plan(spec: NetworkSpec) -> _Plan:
    return _Plan(spec)


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

def _conv_forward(block: _ConvBuffers, w: np.ndarray, b: np.ndarray) -> None:
    """y = w * x + b over the whole batch: one column matrix, one GEMM."""
    np.copyto(block.cols.reshape(block.shifted.shape), block.shifted)
    np.matmul(w.reshape(w.shape[0], -1), block.cols, out=block.y_valid)
    block.y_valid += b[:, None]


def _conv_backward(block: _ConvBuffers, w: np.ndarray, gw: np.ndarray, gb: np.ndarray,
                   want_input: bool) -> np.ndarray | None:
    """Parameter gradients from block.gy; with want_input, also the input
    gradient (into block.gx): dcols = wᵀ·gy, then gx[i, t] is the sum over
    j of dcols[(i, j), t - j], one reduction over block.summed.

    The sum runs over j in ascending order from -0.0. The left pads are
    -0.0, so adding one changes no value, signed zeros included; the right
    pads are +0.0, so a column whose j = 0 term is a pad starts from +0.0.
    That is bit for bit the j = 0 shift copied and the other k - 1 shifts
    added in place (tests/nn_reference.py keeps that loop as the oracle).
    The branches share the gradient memory, so every call writes the pads.
    """
    np.add.reduce(block.gy, axis=1, out=gb)
    np.matmul(block.gy_valid, block.cols.T, out=gw.reshape(gw.shape[0], -1))
    if not want_input:
        return None
    np.matmul(w.reshape(w.shape[0], -1).T, block.gy_valid, out=block.dcols)
    block.left_pad.fill(-0.0)
    block.right_pad.fill(0.0)
    return np.add.reduce(block.summed, axis=1, out=block.gx, initial=-0.0)


def _pool_relu_forward(block: _ConvBuffers) -> None:
    """ReLU of the max over each pool window, into the next block's input:
    one elementwise maximum per slice of the window."""
    tiles, out = block.tiles, block.pooled
    np.maximum(tiles[..., 0], 0.0, out=out)
    for j in range(1, tiles.shape[3]):
        np.maximum(out, tiles[..., j], out=out)


def _pool_relu_backward(block: _ConvBuffers, g: np.ndarray) -> None:
    """Route g (filters, n, groups), the gradient of the pooled output, into
    block.gy at each window's maximum, the lowest index on ties; windows
    whose output the ReLU zeroed pass nothing."""
    tiles, out, g_tiles = block.tiles, block.pooled, block.gy_tiles
    block.gy_rest.fill(0.0)
    g *= out > 0.0
    last = tiles.shape[3] - 1
    if not last:
        np.copyto(g_tiles[..., 0], g)
    for j in range(last):
        np.multiply(g, tiles[..., j] == out, out=g_tiles[..., j])
        # what the first winner took, exactly; the last slice gets the rest
        np.subtract(g, g_tiles[..., j], out=g_tiles[..., last] if j == last - 1 else g)


def _global_pool_relu_forward(block: _ConvBuffers) -> np.ndarray:
    """ReLU of each window's maximum output, shaped (filters, n), whose flat positions
    go to block.winners (np.maximum(0.0, m) keeps the sign of a zero maximum m)."""
    block.winners = block.slot_start + block.outputs.argmax(axis=2)
    return np.maximum(0.0, block.y.reshape(-1)[block.winners])


def _global_pool_relu_backward(block: _ConvBuffers, g: np.ndarray, pooled: np.ndarray) -> None:
    """Put g (filters, n) at the winners forward found (lowest index on ties)."""
    block.gy.fill(0.0)
    block.gy.reshape(-1)[block.winners] = g * (pooled > 0.0)


def _dense_relu(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    h = x @ w
    h += b
    return np.maximum(h, 0.0, out=h)


def _dropout_fwd(x, rate, rng):
    keep = rng.random(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    return x * keep * scale, (keep, scale)


# ---------------------------------------------------------------------------
# Whole-network forward / backward
# ---------------------------------------------------------------------------

@dataclass
class Trace:
    """What :func:`backward` needs from one train-mode forward pass: the
    parameters it read, the small activations, and the scratch buffers it
    wrote, which stay valid until the next forward pass (``generation``
    tells)."""

    plan: _Plan
    params: Mapping[str, np.ndarray]
    buffers: _Buffers
    generation: int
    acts: dict


def _check_shape(name, array, expected):
    if array.shape != expected:
        raise ShapeError(f"{name} has shape {array.shape}, expected {expected}")


def _forward_block(plan: _Plan, params, phone, watch, context, infusion, rng,
                   train: bool) -> tuple[np.ndarray, Trace | None]:
    spec = plan.spec
    bufs = _SCRATCH.buffers(plan, phone.shape[0])
    acts: dict = {"context": context}
    parts = []
    for (name, convs), blocks, x in zip(plan.branches.items(), bufs.branches, (phone, watch)):
        np.copyto(blocks[0].x_windows, x.transpose(1, 0, 2))
        for conv, block in zip(convs, blocks):
            _conv_forward(block, params[conv.w], params[conv.b])
            if conv.pool:
                _pool_relu_forward(block)
        pooled = acts[f"{name}.pooled"] = _global_pool_relu_forward(blocks[-1])
        parts.append(_dense_relu(pooled.T, params[f"{name}.dense.w"],
                                 params[f"{name}.dense.b"]))
    parts.append(_dense_relu(context, params["context.dense.w"], params["context.dense.b"]))
    if spec.infusion:
        parts.append(infusion)
    acts["parts"] = parts
    feats = np.concatenate(parts, axis=1)
    acts["dropout"] = None
    if train and spec.dropout > 0.0:
        if rng is None:
            raise ValueError("train-mode forward with dropout needs an rng")
        feats, acts["dropout"] = _dropout_fwd(feats, spec.dropout, rng)
    acts["feats"] = feats
    hidden = acts["hidden"] = _dense_relu(feats, params["trunk.dense.w"],
                                          params["trunk.dense.b"])
    logits = hidden @ params["out.w"] + params["out.b"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = acts["probs"] = e / e.sum(axis=1, keepdims=True)
    if not train:
        return probs, None
    return probs, Trace(plan=plan, params=params, buffers=bufs,
                        generation=_SCRATCH.generation, acts=acts)


def forward(params: Mapping[str, np.ndarray], spec: NetworkSpec, phone: np.ndarray,
            watch: np.ndarray, context: np.ndarray, infusion: np.ndarray | None = None,
            mode: str = "infer",
            rng: np.random.Generator | None = None) -> tuple[np.ndarray, Trace | None]:
    """Run the network on a batch; returns (probabilities, trace).

    Inputs are batched: phone (n, channels, length), watch likewise, context
    (n, context_size), infusion (n, classes) and required exactly when the spec
    declares an infusion input. mode "infer" disables dropout, is fully
    deterministic, runs batches of more than INFER_BLOCK windows in blocks of
    that size and returns trace None; mode "train" needs an rng whenever the
    dropout rate is positive. A trace stays valid until the next forward pass
    (of any spec), and reads the parameters as they are when :func:`backward`
    runs.
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
    if n == 0:
        if mode == "train":
            raise ShapeError("a train-mode batch needs at least one window")
        return np.empty((0, spec.classes)), None

    plan = _plan(spec)
    if mode == "train":
        return _forward_block(plan, params, phone, watch, context, infusion, rng, True)
    probs = np.empty((n, spec.classes))
    for start in range(0, n, INFER_BLOCK):
        rows = slice(start, start + INFER_BLOCK)
        probs[rows], _ = _forward_block(plan, params, phone[rows], watch[rows], context[rows],
                                        None if infusion is None else infusion[rows],
                                        None, False)
    return probs, None


def backward(trace: Trace | None, grad_probs: np.ndarray,
             want_input_grads: bool = False):
    """Exact reverse-mode gradients from a train-mode trace.

    grad_probs is the loss gradient with respect to the output probabilities,
    shape (n, classes). Returns the parameter gradients as a fresh
    :class:`Parameters` in the plan's layout; with want_input_grads=True returns
    (grads, input_grads) where input_grads has keys phone, watch, context and,
    for infusion specs, infusion.
    """
    if trace is None:
        raise ValueError("backward needs the trace of a train-mode forward pass")
    if _SCRATCH.generation != trace.generation:
        raise ValueError("stale trace: a later forward pass overwrote its activations")
    plan, params, acts = trace.plan, trace.params, trace.acts
    spec = plan.spec
    grad_probs = np.asarray(grad_probs, dtype=np.float64)
    _check_shape("output gradient", grad_probs, acts["probs"].shape)

    grads = Parameters(np.empty(plan.size), plan.layout)
    p = acts["probs"]
    g = p * (grad_probs - (grad_probs * p).sum(axis=1, keepdims=True))
    np.matmul(acts["hidden"].T, g, out=grads["out.w"])
    np.add.reduce(g, axis=0, out=grads["out.b"])
    g = g @ params["out.w"].T
    g *= acts["hidden"] > 0
    np.matmul(acts["feats"].T, g, out=grads["trunk.dense.w"])
    np.add.reduce(g, axis=0, out=grads["trunk.dense.b"])
    g = g @ params["trunk.dense.w"].T
    if acts["dropout"] is not None:
        keep, scale = acts["dropout"]
        g *= keep
        g *= scale

    parts = acts["parts"]
    g_parts = [g[:, columns] for columns in plan.features]
    input_grads = {}

    g_ctx = g_parts[2] * (parts[2] > 0)
    np.matmul(acts["context"].T, g_ctx, out=grads["context.dense.w"])
    np.add.reduce(g_ctx, axis=0, out=grads["context.dense.b"])
    if want_input_grads:
        input_grads["context"] = g_ctx @ params["context.dense.w"].T
        if spec.infusion:
            input_grads["infusion"] = g_parts[3]

    for (name, convs), blocks, g_dense, h in zip(plan.branches.items(), trace.buffers.branches,
                                                 g_parts, parts):
        g_dense = g_dense * (h > 0)
        pooled = acts[f"{name}.pooled"]
        np.matmul(pooled, g_dense, out=grads[f"{name}.dense.w"])
        np.add.reduce(g_dense, axis=0, out=grads[f"{name}.dense.b"])
        g_pooled = params[f"{name}.dense.w"] @ g_dense.T           # (filters, n)
        _global_pool_relu_backward(blocks[-1], g_pooled, pooled)
        for i in reversed(range(len(convs))):
            conv, block = convs[i], blocks[i]
            gx = _conv_backward(block, params[conv.w], grads[conv.w], grads[conv.b],
                                want_input=i > 0 or want_input_grads)
            if i > 0:
                prev = blocks[i - 1]
                _pool_relu_backward(prev, gx.reshape(prev.pooled.shape))
            elif want_input_grads:
                input_grads[name] = block.gx.reshape(block.x_windows.shape).transpose(
                    1, 0, 2).copy()

    if not want_input_grads:
        return grads
    return grads, {key: input_grads[key] for key in ("phone", "watch", "context", "infusion")
                   if key in input_grads}


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """First/second moment estimates, flat in the parameters' order, and the
    step counter."""

    step: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def fresh(cls, params: Parameters) -> "AdamState":
        return cls(step=0, m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(params: Parameters, grads: Parameters, state: AdamState,
              lr: float = 1e-3) -> tuple[Parameters, AdamState]:
    """One Adam update, fused over the flat parameter vector; updates params
    and state in place and returns them.

    Raises ValueError when grads is not laid out like params, and
    FloatingPointError on non-finite gradients, naming the offending tensor,
    before changing anything.
    """
    if grads.layout != params.layout:
        raise ValueError("gradients and parameters have different layouts")
    g = grads.flat
    if not np.isfinite(g).all():
        name = next(name for name, view in grads.items() if not np.isfinite(view).all())
        raise FloatingPointError(f"non-finite gradient in {name!r}")
    t = state.step + 1
    m, v = state.m, state.v
    m *= _BETA1
    m += (1.0 - _BETA1) * g
    v *= _BETA2
    g2 = (1.0 - _BETA2) * g
    g2 *= g
    v += g2
    update = m / (1.0 - _BETA1 ** t)
    update *= lr
    denom = np.divide(v, 1.0 - _BETA2 ** t, out=g2)
    np.sqrt(denom, out=denom)
    denom += _EPS
    update /= denom
    params.flat -= update
    state.step = t
    return params, state


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------

def finite_difference_gradients(value_fn: Callable[[], float], flat: np.ndarray) -> np.ndarray:
    """Central-difference gradient of value_fn with respect to every entry of
    the 1-d array flat, which is perturbed in place and which value_fn must
    read on each call."""
    grad = np.empty_like(flat)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + _FD_STEP
        plus = value_fn()
        flat[i] = original - _FD_STEP
        minus = value_fn()
        flat[i] = original
        grad[i] = (plus - minus) / (2.0 * _FD_STEP)
    return grad


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


def _random_inputs(spec: NetworkSpec, rng: np.random.Generator) -> Parameters:
    """Random network inputs for _CHECK_WINDOWS windows, as one flat vector to perturb."""
    n = _CHECK_WINDOWS
    inputs = {"phone": rng.normal(size=(n, spec.phone.channels, spec.phone.length)),
              "watch": rng.normal(size=(n, spec.watch.channels, spec.watch.length)),
              "context": rng.integers(0, 2, size=(n, spec.context_size)).astype(np.float64)}
    if spec.infusion:
        inputs["infusion"] = rng.integers(0, 2, size=(n, spec.classes)).astype(np.float64)
    return Parameters.pack(inputs)


def gradient_check_network(spec: NetworkSpec, seed: int, loss_cfg=None,
                           dropout_seed: int | None = None) -> float:
    """Max relative error between backprop and central differences for one spec.

    The scalar head is a fixed random linear functional of the output
    probabilities, or the combined training loss when loss_cfg is given.
    Perturbs every entry of the flat parameter vector, then of the packed
    network inputs. When the spec has a positive dropout rate, dropout_seed
    fixes the mask so the function stays deterministic across
    finite-difference evaluations.
    """
    from .losses import combined_loss_batch

    if spec.dropout > 0.0 and dropout_seed is None:
        raise ValueError("a spec with dropout needs dropout_seed to pin the mask")
    rng = np.random.default_rng(seed)
    params = build_network(spec, seed)
    # randomize biases too, so their gradients are exercised from a generic point
    for name in params:
        if name.endswith(".b"):
            params[name][...] = rng.normal(scale=0.1, size=params[name].shape)
    inputs = _random_inputs(spec, rng)
    n = inputs["phone"].shape[0]
    head = rng.normal(size=(n, spec.classes))
    labels = rng.integers(0, spec.classes, size=n)
    masks = rng.integers(0, 2, size=(n, spec.classes)).astype(bool)

    def run(mode):
        fwd_rng = (np.random.default_rng(dropout_seed)
                   if spec.dropout > 0.0 and mode == "train" else None)
        return forward(params, spec, inputs["phone"], inputs["watch"], inputs["context"],
                       inputs.get("infusion"), mode=mode, rng=fwd_rng)

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
                return gradient_check_network(spec, seed + 1000, loss_cfg, dropout_seed)
        _, grad_probs = combined_loss_batch(probs, labels, masks, loss_cfg)
    analytic, input_grads = backward(trace, grad_probs, want_input_grads=True)
    return max(
        max_relative_error(analytic.flat, finite_difference_gradients(value, params.flat)),
        max_relative_error(Parameters.pack(input_grads).flat,
                           finite_difference_gradients(value, inputs.flat)))


def run_gradient_check_suite(seed: int = 0, trials: int = 20) -> dict:
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
    return {"trials": results, "max_rel_err": worst, "tolerance": _GRADCHECK_TOLERANCE,
            "passed": bool(worst < _GRADCHECK_TOLERANCE)}
