"""Experiment config reader: what loads, and what exits 2 naming its key."""

from pathlib import Path

import pytest
import yaml

from nesyhar.cli import main
from nesyhar.config import ExperimentConfig, NetworkConfig, load_config
from nesyhar.context import DiscretizationConfig
from nesyhar.data import SyntheticConfig
from nesyhar.losses import LossConfig
from nesyhar.strategies import StrategyConfig, TrainConfig

QUICK = Path("configs/quick.yaml")
SMALL_NETWORK = NetworkConfig(
    phone_filters=(6, 8), phone_kernels=(7, 5), watch_filters=(6, 8),
    watch_kernels=(5, 3), pool=2, branch_dense=16, context_dense=8, trunk_dense=32,
    dropout=0.1)


def quick_with(tmp_path, **overrides):
    """quick.yaml writing to tmp_path/out; a key "a.b" overrides a nested key."""
    cfg = yaml.safe_load(QUICK.read_text())
    cfg["output_dir"] = str(tmp_path / "out")
    for dotted, value in overrides.items():
        *parents, key = dotted.split(".")
        section = cfg
        for parent in parents:
            section = section[parent]
        section[key] = value
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


SEARCHING = [{"kind": "baseline"}, {"kind": "semantic_loss", "semantic_type": "All"}]

MALFORMED = [
    # window_seconds is top-level only; the synthetic copy used to be ignored
    ("synthetic_window_seconds", {"dataset.synthetic.window_seconds": 2.0},
     "dataset.synthetic: unknown key(s) ['window_seconds']"),
    ("discretization_not_a_list", {"discretization": {"speed_thresholds": 1}},
     "discretization: speed_thresholds must be a list"),
    ("discretization_unknown_key", {"discretization": {"bogus": 1}},
     "discretization: unknown key(s) ['bogus']"),
    # alpha 0 is plain cross-entropy; the no-penalty comparison is baseline
    ("alpha_grid_zero", {"strategies": SEARCHING, "alpha_grid": [0]},
     "alpha_grid: must be a list of positive integers"),
    ("alpha_grid_zero_among_positive", {"alpha_grid": [0, 3]},
     "alpha_grid: must be a list of positive integers"),
    # YAML booleans are Python ints, but not counts, seeds or fractions
    ("seeds_bool", {"seeds": [True, False]}, "seeds: must be a non-empty list of integers"),
    ("repetitions_bool", {"repetitions": True}, "repetitions: must be a positive integer"),
    ("fold_k_bool", {"fold_k": True}, "fold_k: must be a positive integer"),
    ("fold_seed_bool", {"fold_seed": False}, "fold_seed: must be an integer"),
    # numpy's generators take no negative seed
    ("fold_seed_negative", {"fold_seed": -1}, "fold_seed: must be an integer"),
    ("seeds_negative", {"seeds": [-11, 12]}, "seeds: must be a non-empty list of integers"),
    ("synthetic_seed_negative", {"dataset.synthetic.seed": -7},
     "dataset.synthetic: seed must be >= 0, got -7"),
    # only semantic_loss trains with a penalty; the others used to drop it
    ("baseline_alpha", {"strategies": [{"kind": "baseline", "alpha": 2}]},
     "strategies[0]: semantic_type/alpha only apply to semantic_loss"),
    # provider strings are looked up stripped and lower-cased: 'House' never matched
    ("discretization_place_map_capital", {"discretization": {"place_map": {"House": "home"}}},
     "discretization: place_map keys must be lower-case with no outer spaces, got 'House'"),
    ("alpha_grid_bool", {"strategies": SEARCHING, "alpha_grid": [True]},
     "alpha_grid: must be a list of positive integers"),
    ("fractions_bool", {"fractions": [True]}, "fractions: must be a non-empty list"),
    # results are keyed by strategy label and fraction; a repeat would be
    # pooled into one score and reported twice
    ("strategies_repeated", {"strategies": [{"kind": "baseline"}, {"kind": "baseline"}]},
     "strategies: baseline listed more than once"),
    ("fractions_repeated", {"fractions": [1.0, 1.0]}, "fractions: 1.0 listed more than once"),
    ("window_seconds_bool", {"window_seconds": True}, "window_seconds: must be a positive"),
    # a path is a non-empty string: null used to name a file or directory 'None',
    # and "" the working directory
    ("output_dir_null", {"output_dir": None}, "output_dir: required, as a non-empty path"),
    ("output_dir_empty", {"output_dir": ""}, "output_dir: required, as a non-empty path"),
    ("rules_null", {"rules": None}, "rules: required, as a non-empty path"),
    ("rules_empty", {"rules": ""}, "rules: required, as a non-empty path"),
    ("dataset_directory_null", {"dataset": {"directory": None}},
     "dataset.directory: required, as a non-empty path"),
    ("dataset_directory_empty", {"dataset": {"directory": ""}},
     "dataset.directory: required, as a non-empty path"),
    # values only the generated data can refute
    ("network_pool_zero", {"network.pool": 0}, "network: phone: pool size must be >= 1"),
    ("network_filters_not_a_list", {"network.phone_filters": 3},
     "network: phone_filters must be a list"),
    ("network_kernel_too_long", {"network.phone_kernels": [500, 5]},
     "network: phone conv0 (kernel 500): input length 100 too short"),
    ("fold_k_above_users", {"fold_k": 4},
     "fold_k: 4 leaves no training users among the 3 with usable windows"),
    ("fold_k_equals_users", {"fold_k": 3},
     "fold_k: 3 leaves no training users among the 3 with usable windows"),
    # every section value has its field's type: no booleans or fractions in
    # counts, no booleans in numbers
    ("training_epochs_bool", {"training.epochs": True},
     "training: epochs must be an integer, got True"),
    ("training_learning_rate_bool", {"training.learning_rate": True},
     "training: learning_rate must be a number, got True"),
    # a rate that is not positive and finite trains nothing, or climbs the loss
    ("training_learning_rate_nan", {"training.learning_rate": float("nan")},
     "training: learning_rate must be positive and finite, got nan"),
    ("training_learning_rate_inf", {"training.learning_rate": float("inf")},
     "training: learning_rate must be positive and finite, got inf"),
    ("training_learning_rate_zero", {"training.learning_rate": 0},
     "training: learning_rate must be positive and finite, got 0.0"),
    ("training_learning_rate_negative", {"training.learning_rate": -0.001},
     "training: learning_rate must be positive and finite, got -0.001"),
    ("discretization_threshold_bool", {"discretization": {"speed_thresholds": [0.1, True, 7]}},
     "discretization: speed_thresholds[1] must be a number, got True"),
    # discretization values that would leave a context class unreachable
    ("discretization_epsilon_nan", {"discretization": {"height_epsilon": float("nan")}},
     "discretization: height_epsilon must be positive and finite, got nan"),
    ("discretization_epsilon_inf", {"discretization": {"height_epsilon": float("inf")}},
     "discretization: height_epsilon must be positive and finite, got inf"),
    ("discretization_threshold_inf",
     {"discretization": {"speed_thresholds": [0.1, 2.0, float("inf")]}},
     "discretization: speed thresholds must be finite, positive and strictly increasing"),
    ("discretization_threshold_negative",
     {"discretization": {"speed_thresholds": [-1.0, 2.0, 7.0]}},
     "discretization: speed thresholds must be finite, positive and strictly increasing"),
    ("training_epochs_fraction", {"training.epochs": 2.5},
     "training: epochs must be an integer, got 2.5"),
    ("network_pool_float", {"network.pool": 2.0}, "network: pool must be an integer, got 2.0"),
    ("synthetic_users_bool", {"dataset.synthetic.users": True},
     "dataset.synthetic: users must be an integer, got True"),
    # layer sizes are at least 1
    ("network_filter_zero", {"network.phone_filters": [0, 8]},
     "network: phone: filters must be >= 1, got (0, 8)"),
    ("network_kernel_zero", {"network.phone_kernels": [0, 5]},
     "network: phone: kernels must be >= 1, got (0, 5)"),
    ("network_trunk_dense_zero", {"network.trunk_dense": 0},
     "network: trunk_dense must be >= 1, got 0"),
    ("network_branch_dense_zero", {"network.branch_dense": 0},
     "network: phone: dense must be >= 1, got 0"),
    ("network_context_dense_zero", {"network.context_dense": 0},
     "network: context_dense must be >= 1, got 0"),
    # synthetic values the generator cannot use
    ("synthetic_noise_negative", {"dataset.synthetic.noise": -1.0},
     "dataset.synthetic: noise must be finite and >= 0, got -1.0"),
    ("synthetic_noise_nan", {"dataset.synthetic.noise": float("nan")},
     "dataset.synthetic: noise must be finite and >= 0, got nan"),
    ("synthetic_phone_rate_zero", {"dataset.synthetic.phone_rate": 0.0},
     "dataset.synthetic: phone_rate and watch_rate must be positive and finite"),
    ("synthetic_phone_channels_zero", {"dataset.synthetic.phone_channels": 0},
     "dataset.synthetic: phone_channels and watch_channels must be >= 1"),
]


@pytest.mark.parametrize("overrides, fragment", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_config_exits_2_naming_the_key(tmp_path, capsys, overrides, fragment):
    rc = main(["run", "--config", str(quick_with(tmp_path, **overrides))])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "1 config problem(s)" in err and fragment in err
    assert not (tmp_path / "out").exists()


def _expected(**fields):
    """An ExperimentConfig of the small network, default discretization and
    alpha_grid: [] that every committed config shares."""
    return ExperimentConfig(
        rules=Path("configs/synthetic.rules"), fold_k=1, window_seconds=4.0,
        alpha_grid=(), network=SMALL_NETWORK, discretization=DiscretizationConfig(),
        **fields)


COMMITTED = {
    "quick": (Path("configs/quick.yaml"), _expected(
        output_dir=Path("out/quick"),
        strategies=[StrategyConfig("baseline"),
                    StrategyConfig("semantic_loss", LossConfig("All", 5.0))],
        fractions=[1.0], repetitions=2, seeds=[11, 12], fold_seed=0,
        synthetic=SyntheticConfig(users=3, windows_per_user=40, violation_rate=0.05,
                                  noise=1.0, seed=7),
        training=TrainConfig(epochs=30, batch_size=32, patience=5, learning_rate=0.001))),
    "reference": (Path("configs/synthetic_reference.yaml"), _expected(
        output_dir=Path("out/reference"),
        strategies=[StrategyConfig("baseline"),
                    StrategyConfig("semantic_loss", LossConfig("All", 2.0)),
                    StrategyConfig("symbolic_features"),
                    StrategyConfig("context_refinement")],
        fractions=[0.1, 1.0], repetitions=5, seeds=[101, 102, 103, 104, 105], fold_seed=0,
        synthetic=SyntheticConfig(users=6, windows_per_user=200, violation_rate=0.05,
                                  noise=3.0, confusability=1.0, seed=7),
        training=TrainConfig(epochs=200, batch_size=32, patience=5, learning_rate=0.001))),
    "perfbench_grid": (Path("perfbench/grid.yaml"), _expected(
        output_dir=Path("grid-out"),
        strategies=[StrategyConfig("baseline"),
                    StrategyConfig("semantic_loss", LossConfig("-PP", 1.0)),
                    StrategyConfig("semantic_loss", LossConfig("All", 1.0)),
                    StrategyConfig("symbolic_features"),
                    StrategyConfig("context_refinement")],
        fractions=[0.1, 1.0], repetitions=1, seeds=[21], fold_seed=22,
        synthetic=SyntheticConfig(users=3, windows_per_user=60, violation_rate=0.05,
                                  noise=1.0, seed=20),
        training=TrainConfig(epochs=5, batch_size=32, patience=5, learning_rate=0.001))),
}


@pytest.mark.parametrize("name", sorted(COMMITTED))
def test_committed_configs_load_to_the_expected_experiment(tmp_path, name):
    path, expected = COMMITTED[name]
    if name == "perfbench_grid":
        # the benchmark fills in what grid.yaml leaves null
        raw = yaml.safe_load(path.read_text())
        raw.update(rules="configs/synthetic.rules", output_dir="grid-out",
                   seeds=[21], fold_seed=22)
        raw["dataset"]["synthetic"]["seed"] = 20
        path = tmp_path / "grid.yaml"
        path.write_text(yaml.safe_dump(raw))
    loaded = load_config(path)
    assert loaded == expected
    # equal and of the same types: 5 == 5.0, but an int alpha changes a label
    assert repr(loaded) == repr(expected)
