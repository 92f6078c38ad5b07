"""Walkthrough: training the four strategies on one synthetic dataset.

Generates a small dataset, trains each strategy with the same seed, and
compares held-out accuracy. Also shows context refinement flipping an
inconsistent top prediction to the consistent runner-up.
"""

import numpy as np

from nesyhar import (
    DiscretizationConfig,
    EncodedDataset,
    LossConfig,
    StrategyConfig,
    SyntheticConfig,
    TrainConfig,
    encode_user_datasets,
    generate_synthetic,
    load_knowledge,
    predict_many,
    refine,
    train,
)
from nesyhar.evaluation import split_train_validation
from nesyhar.nn import BranchSpec, NetworkSpec
from nesyhar.strategies import REASONING_KINDS

model = load_knowledge("configs/synthetic.rules")
disc = DiscretizationConfig()
datasets = generate_synthetic(
    model, SyntheticConfig(users=4, windows_per_user=80, violation_rate=0.05, seed=21), disc)
encoded = encode_user_datasets(datasets, model, 4.0, disc)

held_out_user = sorted(encoded)[-1]
test = encoded.pop(held_out_user)
pool = EncodedDataset.concatenate(list(encoded.values()))
train_part, val_part = split_train_validation(pool, 0.1, seed=0)
print(f"train {len(train_part)} / validation {len(val_part)} / "
      f"test {len(test)} windows (held-out user: {held_out_user})")

first = pool
spec = NetworkSpec(
    phone=BranchSpec(first.phone.shape[1], first.phone.shape[2], (8, 12), (9, 5), 2, 24),
    watch=BranchSpec(first.watch.shape[1], first.watch.shape[2], (8, 12), (7, 3), 2, 24),
    context_size=first.context.shape[1], classes=len(first.activities),
    context_dense=8, trunk_dense=48, dropout=0.1)
cfg = TrainConfig(epochs=60, batch_size=32, patience=5)

strategies = [
    StrategyConfig("baseline"),
    StrategyConfig("semantic_loss", LossConfig("All", 2.0)),
    StrategyConfig("symbolic_features"),
    StrategyConfig("context_refinement"),
]
for strategy in strategies:
    trained = train(train_part, val_part, strategy, spec, seed=3,
                    knowledge=None if strategy.kind == "baseline" else model, cfg=cfg)
    knowledge = model if strategy.kind in REASONING_KINDS else None
    preds, _, _ = predict_many(trained, test, knowledge)
    accuracy = float(np.mean(preds == test.labels))
    print(f"{strategy.label:<28} accuracy {accuracy:.3f} "
          f"(stopped after {trained.meta['epochs_run']} epochs)")

print()
print("refinement on a hand-made distribution whose top activity is inconsistent:")
probs = np.array([0.45, 0.40, 0.10, 0.03, 0.02])
mask = np.array([False, True, True, True, True])
refined, fallback = refine(probs, mask)
names = model.activity_names
print(f"  before: top = {names[int(np.argmax(probs))]}  {np.round(probs, 3)}")
print(f"  after:  top = {names[int(np.argmax(refined))]}  {np.round(refined, 3)} "
      f"(fallback={fallback})")
