"""Walkthrough: the five consistency penalties and the combined loss.

Evaluates each penalty on a hand-made distribution for both a consistent and
an inconsistent top prediction, then shows how the combined loss grows with
the trade-off weight alpha. Every loss is defined over a batch, so one
distribution is a batch of one row.
"""

import numpy as np

from nesyhar import LossConfig
from nesyhar.losses import PENALTIES, combined_loss_batch

probs = np.array([0.55, 0.25, 0.15, 0.05])
consistent_top = np.array([True, True, False, False])    # argmax (index 0) allowed
inconsistent_top = np.array([False, True, True, False])  # argmax excluded
# the same distribution twice, under each mask: both cases in one call
batch = np.stack([probs, probs])
masks = np.stack([consistent_top, inconsistent_top])

print(f"distribution: {probs}")
print(f"{'penalty':>8} | {'top consistent':>14} | {'top inconsistent':>16}")
for name, penalty in PENALTIES.items():
    (ok, bad), _ = penalty(batch, masks)
    print(f"{name:>8} | {ok:14.3f} | {bad:16.3f}")

print()
label = 1  # true activity has probability 0.25
ce, _ = combined_loss_batch(probs[None], [label], None, LossConfig())
print(f"cross-entropy at the true activity: {ce:.4f}")
print("combined loss (penalty 'All', inconsistent mass 0.20) as alpha grows:")
for alpha in (0, 1, 2, 5, 10):
    value, _ = combined_loss_batch(probs[None], [label], consistent_top[None],
                                   LossConfig("All", alpha))
    print(f"  alpha={alpha:<3} -> {value:.4f}")
print()
print("the '01' penalty is flat within each branch, so its gradient is zero:")
_, grads = PENALTIES["01"](batch, masks)
print(f"  gradient: {grads[1]}")
