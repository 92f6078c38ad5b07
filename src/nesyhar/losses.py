"""Training losses: cross-entropy, five knowledge-consistency penalties, and
their weighted combination.

Every loss takes the classifier's output probability distribution P (not
logits) together with the binary consistency mask over activities, and returns
the loss value plus its gradient with respect to P. The consistency penalties
come in five flavours:

==========  =================================================================
``All``     1 minus the total probability mass on context-consistent
            activities; pushes the whole distribution onto the consistent set.
``-PP``     1 - p_max when the top activity is consistent, p_max otherwise.
``01``      0 when the top activity is consistent, 1 otherwise. Its gradient
            is identically zero (the loss is piecewise constant), so under
            plain gradient descent it cannot move the parameters; it is kept
            for completeness and implemented literally.
``-P1``     1 - p_max when the top activity is consistent, a flat 1 otherwise.
``0P``      0 when the top activity is consistent, p_max otherwise.
==========  =================================================================

The argmax is treated as locally constant when differentiating, and argmax
ties break to the lowest index. All five penalties take values in [0, 1].

Each loss is defined once, over a batch: ``_cross_entropy`` and the
``PENALTIES`` table give per-row values and (n, k) gradients, and
``combined_loss_batch`` averages them over the batch. One distribution is
evaluated as a batch of one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .records import bounded, check_bounds

__all__ = [
    "PROB_FLOOR",
    "SEMANTIC_TYPES",
    "LossConfig",
    "PENALTIES",
    "combined_loss_batch",
]

PROB_FLOOR = 1e-12

SEMANTIC_TYPES = ("none", "All", "-PP", "01", "-P1", "0P")


@dataclass(frozen=True)
class LossConfig:
    """Which consistency penalty to add to cross-entropy, and with what weight."""

    semantic_type: str = "none"
    alpha: float = bounded("finite and >= 0", default=0.0)

    def __post_init__(self):
        if self.semantic_type not in SEMANTIC_TYPES:
            raise ValueError(f"semantic_type must be one of {SEMANTIC_TYPES}, "
                             f"got {self.semantic_type!r}")
        check_bounds(self)

    @property
    def needs_masks(self) -> bool:
        """A penalty with a positive weight: the loss reads the consistency masks."""
        return self.semantic_type != "none" and self.alpha > 0.0


def _cross_entropy(probs: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row negative log-probability of the true activity, with a 1e-12 floor."""
    n, k = probs.shape
    out_of_range = (labels < 0) | (labels >= k)
    if out_of_range.any():
        raise IndexError(f"label {labels[out_of_range][0]} out of range for {k} activities")
    rows = np.arange(n)
    p_true = probs[rows, labels] + PROB_FLOOR
    grad = np.zeros_like(probs)
    grad[rows, labels] = -1.0 / p_true
    return -np.log(p_true), grad


def _penalty_all(probs: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return 1.0 - np.where(mask, probs, 0.0).sum(axis=1), np.where(mask, -1.0, 0.0)


def _argmax_penalty(if_consistent: tuple[float, float], if_not: tuple[float, float]):
    """A penalty on p_max that is ``constant + slope * p_max`` on each branch;
    each branch is given as (constant, slope)."""

    def penalty(probs: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows = np.arange(probs.shape[0])
        top = probs.argmax(axis=1)  # ties break toward the lowest index
        top_ok = mask[rows, top]
        slope = np.where(top_ok, if_consistent[1], if_not[1])
        grad = np.zeros_like(probs)
        grad[rows, top] = slope
        return np.where(top_ok, if_consistent[0], if_not[0]) + slope * probs[rows, top], grad

    return penalty


# The five penalties by name: each maps probs (n, k) and a boolean consistency
# mask (n, k) to per-row values (n,) and their gradients (n, k).
PENALTIES = {
    "All": _penalty_all,
    "-PP": _argmax_penalty((1.0, -1.0), (0.0, 1.0)),
    "01": _argmax_penalty((0.0, 0.0), (1.0, 0.0)),
    "-P1": _argmax_penalty((1.0, -1.0), (1.0, 0.0)),
    "0P": _argmax_penalty((0.0, 0.0), (0.0, 1.0)),
}


def combined_loss_batch(probs: np.ndarray, labels: np.ndarray, consistent,
                        cfg: LossConfig) -> tuple[float, np.ndarray]:
    """Vectorized combined loss over a batch; the batch value is the mean.

    probs is (n, k), labels (n,), consistent (n, k) or None when unused.
    Returns the mean loss and its gradient with respect to probs (already
    divided by the batch size).
    """
    probs = np.asarray(probs, dtype=np.float64)
    n, k = probs.shape
    ce, grad = _cross_entropy(probs, np.asarray(labels))
    value = ce.sum()
    if cfg.needs_masks:
        mask = np.asarray(consistent, dtype=bool)
        if mask.shape != (n, k):
            raise ValueError(f"consistency mask has shape {mask.shape}, expected {(n, k)}")
        penalty, penalty_grad = PENALTIES[cfg.semantic_type](probs, mask)
        value += cfg.alpha * penalty.sum()
        grad += cfg.alpha * penalty_grad
    return float(value) / n, grad / n
