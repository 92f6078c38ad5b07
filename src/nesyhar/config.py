"""Experiment configuration: one YAML file holds every knob of a run.

Validation is exhaustive: all problems in a config are collected and reported
together before aborting, so a config can be fixed in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

import yaml

from .context import DiscretizationConfig
from .data import SyntheticConfig
from .losses import LossConfig
from .nn import BranchSpec, NetworkSpec
from .records import fits, from_mapping
from .strategies import StrategyConfig, TrainConfig

__all__ = ["ConfigError", "NetworkConfig", "ExperimentConfig", "load_config"]

DEFAULT_ALPHA_GRID = tuple(range(1, 31))


class ConfigError(ValueError):
    """One or more problems in an experiment config; message lists them all."""

    def __init__(self, errors: list[str], source: str):
        self.errors = errors
        lines = "\n".join(f"  - {e}" for e in errors)
        super().__init__(f"{source}: {len(errors)} config problem(s):\n{lines}")


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture hyperparameters; input sizes come from the data at run time."""

    phone_filters: tuple[int, ...] = (32, 64, 96)
    phone_kernels: tuple[int, ...] = (24, 16, 8)
    watch_filters: tuple[int, ...] = (32, 64, 96)
    watch_kernels: tuple[int, ...] = (16, 8, 4)
    pool: int = 4
    branch_dense: int = 128
    context_dense: int = 8
    trunk_dense: int = 256
    dropout: float = 0.1

    def to_spec(self, phone_channels: int, phone_length: int, watch_channels: int,
                watch_length: int, context_size: int, classes: int) -> NetworkSpec:
        return NetworkSpec(
            phone=BranchSpec(phone_channels, phone_length, self.phone_filters,
                             self.phone_kernels, self.pool, self.branch_dense),
            watch=BranchSpec(watch_channels, watch_length, self.watch_filters,
                             self.watch_kernels, self.pool, self.branch_dense),
            context_size=context_size, classes=classes,
            context_dense=self.context_dense, trunk_dense=self.trunk_dense,
            dropout=self.dropout)


@dataclass
class ExperimentConfig:
    """Validated contents of one experiment YAML file."""

    rules: Path
    output_dir: Path
    strategies: list[StrategyConfig]
    fractions: list[float]
    repetitions: int
    seeds: list[int]
    fold_k: int = 1
    fold_seed: int = 0
    window_seconds: float = 4.0
    dataset_dir: Path | None = None
    synthetic: SyntheticConfig | None = None
    alpha_grid: tuple[int, ...] = DEFAULT_ALPHA_GRID
    network: NetworkConfig = field(default_factory=NetworkConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    discretization: DiscretizationConfig = field(default_factory=DiscretizationConfig)


# ExperimentConfig's fields, with one `dataset` section for where the data comes from
_TOP_LEVEL_KEYS = ({f.name for f in fields(ExperimentConfig)} - {"dataset_dir", "synthetic"}
                   | {"dataset"})


def _section(where: str, cls: type, raw: Any, errors: list[str], **fixed: Any) -> Any:
    """Build dataclass ``cls`` from one YAML mapping, or record why not."""
    try:
        return from_mapping(cls, raw, fixed=fixed)
    except ValueError as exc:
        errors.append(f"{where}: {exc}")
        return None


def _parse_strategies(raw: Any, errors: list[str]) -> list[StrategyConfig]:
    strategies: list[StrategyConfig] = []
    if not isinstance(raw, list) or not raw:
        errors.append("strategies: must be a non-empty list")
        return strategies
    for i, entry in enumerate(raw):
        where = f"strategies[{i}]"
        if not isinstance(entry, Mapping) or "kind" not in entry:
            errors.append(f"{where}: each strategy needs a 'kind'")
            continue
        loss = {key: value for key, value in entry.items() if key != "kind"}
        if entry["kind"] != "semantic_loss" and loss.keys() & {"semantic_type", "alpha"}:
            errors.append(f"{where}: semantic_type/alpha only apply to semantic_loss")
            continue
        try:
            strategies.append(StrategyConfig(entry["kind"], from_mapping(LossConfig, loss)))
        except (TypeError, ValueError) as exc:
            errors.append(f"{where}: {exc}")
    return strategies


def load_config(path: str | Path) -> ExperimentConfig:
    """Load and validate an experiment YAML file; raises ConfigError listing
    every problem found."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(["config file not found"], str(path)) from None
    except yaml.YAMLError as exc:
        raise ConfigError([f"not valid YAML: {exc}"], str(path)) from None
    if not isinstance(raw, Mapping):
        raise ConfigError(["top level must be a mapping"], str(path))

    errors: list[str] = []
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        errors.append(f"unknown top-level key(s): {sorted(unknown)}")

    rules = Path(str(raw.get("rules", "")))
    if "rules" not in raw:
        errors.append("rules: required (path to the knowledge rule file)")
    elif not rules.is_file():
        errors.append(f"rules: file not found: {rules}")

    if "output_dir" not in raw:
        errors.append("output_dir: required")
    output_dir = Path(str(raw.get("output_dir", "out")))

    window_seconds = raw.get("window_seconds", 4.0)
    if not fits(window_seconds, float) or window_seconds <= 0:
        errors.append("window_seconds: must be a positive number")
        window_seconds = 4.0

    dataset = raw.get("dataset")
    dataset_dir = None
    synthetic = None
    if not isinstance(dataset, Mapping) or len(set(dataset) & {"directory", "synthetic"}) != 1:
        errors.append("dataset: must contain exactly one of 'directory' or 'synthetic'")
    elif "directory" in dataset:
        dataset_dir = Path(str(dataset["directory"]))
        if not dataset_dir.is_dir():
            errors.append(f"dataset.directory: not a directory: {dataset_dir}")
    else:
        synthetic = _section("dataset.synthetic", SyntheticConfig, dataset["synthetic"],
                             errors, window_seconds=float(window_seconds))

    strategies = _parse_strategies(raw.get("strategies"), errors)

    fractions = raw.get("fractions", [1.0])
    if not isinstance(fractions, list) or not fractions or not all(
            fits(f, float) and 0 < f <= 1 for f in fractions):
        errors.append("fractions: must be a non-empty list of numbers in (0, 1]")
        fractions = [1.0]
    for name, values in (("strategies", [s.label for s in strategies]), ("fractions", fractions)):
        repeated = sorted({str(v) for v in values if values.count(v) > 1})
        if repeated:
            errors.append(f"{name}: {', '.join(repeated)} listed more than once")

    repetitions = raw.get("repetitions", 5)
    if not fits(repetitions, int) or repetitions < 1:
        errors.append("repetitions: must be a positive integer")
        repetitions = 1

    seeds = raw.get("seeds")
    if not isinstance(seeds, list) or not seeds or not all(fits(s, int) for s in seeds):
        errors.append("seeds: must be a non-empty list of integers")
    elif len(seeds) < repetitions:
        errors.append(f"seeds: need at least one per repetition "
                      f"({len(seeds)} given, {repetitions} repetitions)")

    fold_k = raw.get("fold_k", 1)
    if not fits(fold_k, int) or fold_k < 1:
        errors.append("fold_k: must be a positive integer")
    fold_seed = raw.get("fold_seed", 0)
    if not fits(fold_seed, int):
        errors.append("fold_seed: must be an integer")

    alpha_grid = raw.get("alpha_grid", list(DEFAULT_ALPHA_GRID))
    if not isinstance(alpha_grid, list) or not all(fits(a, int) and a >= 1 for a in alpha_grid):
        errors.append("alpha_grid: must be a list of positive integers "
                      "(the no-penalty comparison is the baseline strategy)")
        alpha_grid = list(DEFAULT_ALPHA_GRID)
    searching = [s.label for s in strategies if s.searches_alpha]
    if not alpha_grid and searching:
        errors.append(f"alpha_grid: empty, but {', '.join(searching)} needs a positive "
                      "alpha or alphas to search (alpha 0 trains plain cross-entropy)")

    network = _section("network", NetworkConfig, raw.get("network", {}), errors)
    training = _section("training", TrainConfig, raw.get("training", {}), errors,
                        val_metric=None)  # a callable hook
    discretization = _section("discretization", DiscretizationConfig,
                              raw.get("discretization", {}), errors)

    if errors:
        raise ConfigError(errors, str(path))
    return ExperimentConfig(
        rules=rules, output_dir=output_dir, strategies=strategies,
        fractions=[float(f) for f in fractions], repetitions=repetitions,
        seeds=list(seeds), fold_k=fold_k, fold_seed=fold_seed,
        window_seconds=float(window_seconds), dataset_dir=dataset_dir,
        synthetic=synthetic, alpha_grid=tuple(alpha_grid), network=network,
        training=training, discretization=discretization)
