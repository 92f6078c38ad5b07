import copy
import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import TINY_RULES, make_encoded
from nesyhar.context import DiscretizationConfig
from nesyhar.knowledge import KnowledgeModel, parse_knowledge
from nesyhar.losses import LossConfig
from nesyhar.nn import INFER_BLOCK, Parameters, build_network, parameter_count
from nn_reference import reference_forward
from nesyhar.strategies import (
    EarlyStopping,
    StrategyConfig,
    TrainConfig,
    TrainedModel,
    consistency_masks,
    load_model,
    predict,
    predict_many,
    refine,
    save_model,
    train,
)

FAST = TrainConfig(epochs=3, batch_size=8, patience=5)


@pytest.fixture(scope="module")
def split(tiny_model, tiny_net_spec):
    train_data = make_encoded(tiny_model, tiny_net_spec, 48, seed=1)
    val_data = make_encoded(tiny_model, tiny_net_spec, 12, seed=2)
    return train_data, val_data


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------

def test_refine_hand_example():
    probs, fallback = refine(np.array([0.5, 0.3, 0.2]), [True, False, True])
    np.testing.assert_allclose(probs, [0.5 / 0.7, 0.0, 0.2 / 0.7], atol=1e-12)
    assert not fallback
    assert probs[1] == 0.0


def test_refine_identity_when_all_consistent():
    p = np.array([0.5, 0.3, 0.2])
    out, fallback = refine(p, [True, True, True])
    np.testing.assert_allclose(out, p, atol=1e-12)
    assert not fallback


def test_refine_zero_mass_fallback():
    p = np.array([1.0, 0.0, 0.0])
    out, fallback = refine(p, [False, True, False])
    np.testing.assert_array_equal(out, p)
    assert fallback
    out, fallback = refine(p, [False, False, False])
    np.testing.assert_array_equal(out, p)
    assert fallback


def test_refine_properties():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(2, 8))
        p = rng.random(k)
        p /= p.sum()
        mask = rng.integers(0, 2, size=k).astype(bool)
        out, fallback = refine(p, mask)
        if fallback:
            np.testing.assert_array_equal(out, p)
            continue
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
        assert not out[~mask].any()
        again, _ = refine(out, mask)
        np.testing.assert_allclose(again, out, atol=1e-12)
        inside = np.flatnonzero(mask)
        order = np.argsort(p[inside], kind="stable")
        np.testing.assert_array_equal(np.argsort(out[inside], kind="stable"), order)


# ---------------------------------------------------------------------------
# Strategy configuration
# ---------------------------------------------------------------------------

def test_strategy_validation():
    with pytest.raises(ValueError):
        StrategyConfig("magic")
    with pytest.raises(ValueError, match="semantic loss type"):
        StrategyConfig("semantic_loss")
    cfg = StrategyConfig("semantic_loss", LossConfig("-P1", 7.0))
    assert cfg.label == "semantic_loss[-P1,a=7]"
    assert StrategyConfig("baseline").training_signature() == \
        StrategyConfig("context_refinement").training_signature()


@pytest.mark.parametrize("kind, loss", [
    ("baseline", LossConfig("All", 2.0)),
    ("symbolic_features", LossConfig("-PP", 1.0)),
    ("context_refinement", LossConfig("none", 3.0)),
])
def test_only_semantic_loss_takes_a_penalty(kind, loss):
    # the other kinds train with cross-entropy alone; a penalty would be dropped
    with pytest.raises(ValueError, match="semantic_type/alpha only apply to semantic_loss"):
        StrategyConfig(kind, loss)
    # an explicit default is the default
    assert StrategyConfig(kind, LossConfig("none", 0.0)) == StrategyConfig(kind)


# ---------------------------------------------------------------------------
# Early stopping and the training protocol
# ---------------------------------------------------------------------------

def test_early_stopping_patience_contract():
    # improving through epoch 3, flat afterwards: stop fires at epoch 8
    stopper = EarlyStopping(patience=5)
    losses = {1: 1.0, 2: 0.9, 3: 0.8}
    stopped_at = None
    for epoch in range(1, 50):
        stopper.update(losses.get(epoch, 0.9))
        if stopper.should_stop:
            stopped_at = epoch
            break
    assert stopped_at == 8


def test_train_stops_at_patience_with_injected_sequence(tiny_model, tiny_net_spec, split):
    train_data, val_data = split
    forced = {1: 1.0, 2: 0.9, 3: 0.8}
    cfg = TrainConfig(epochs=200, batch_size=32, patience=5,
                      val_metric=lambda epoch, params: forced.get(epoch, 0.9))
    model = train(train_data, val_data, StrategyConfig("baseline"), tiny_net_spec,
                  seed=0, cfg=cfg)
    assert model.meta["epochs_run"] == 8
    assert model.meta["best_epoch"] == 3


def test_train_honors_batch_size_and_epoch_cap(tiny_model, tiny_net_spec, split):
    train_data, val_data = split
    cfg = TrainConfig(epochs=4, batch_size=32, patience=10)
    model = train(train_data, val_data, StrategyConfig("baseline"), tiny_net_spec,
                  seed=0, cfg=cfg)
    batches_per_epoch = -(-len(train_data) // 32)
    assert model.meta["epochs_run"] == 4
    assert model.meta["steps_run"] == 4 * batches_per_epoch


def test_default_protocol_constants():
    cfg = TrainConfig()
    assert (cfg.epochs, cfg.batch_size, cfg.patience) == (200, 32, 5)


def test_semantic_alpha_zero_matches_baseline_trajectory(tiny_model, tiny_net_spec, split):
    train_data, val_data = split
    base = train(train_data, val_data, StrategyConfig("baseline"), tiny_net_spec,
                 seed=3, cfg=FAST)
    sem = train(train_data, val_data,
                StrategyConfig("semantic_loss", LossConfig("All", 0.0)), tiny_net_spec,
                seed=3, knowledge=tiny_model, cfg=FAST)
    assert base.params.keys() == sem.params.keys()
    for name in base.params:
        np.testing.assert_array_equal(base.params[name], sem.params[name])


def test_semantic_loss_training_runs(tiny_model, tiny_net_spec, split):
    train_data, val_data = split
    model = train(train_data, val_data,
                  StrategyConfig("semantic_loss", LossConfig("-P1", 3.0)), tiny_net_spec,
                  seed=3, knowledge=tiny_model, cfg=FAST)
    assert model.kind == "semantic_loss"
    assert not model.spec.infusion


def test_symbolic_features_spec_widened(tiny_model, tiny_net_spec, split):
    train_data, val_data = split
    model = train(train_data, val_data, StrategyConfig("symbolic_features"), tiny_net_spec,
                  seed=3, knowledge=tiny_model, cfg=FAST)
    assert model.spec.infusion
    extra = parameter_count(model.spec) - parameter_count(tiny_net_spec)
    assert extra == tiny_net_spec.classes * tiny_net_spec.trunk_dense


def test_training_needs_knowledge_for_nesy_strategies(tiny_net_spec, split):
    train_data, val_data = split
    with pytest.raises(ValueError, match="knowledge"):
        train(train_data, val_data, StrategyConfig("symbolic_features"), tiny_net_spec, seed=0)


@pytest.mark.parametrize("strategy", [StrategyConfig("semantic_loss", LossConfig("All", 2.0)),
                                      StrategyConfig("symbolic_features")],
                         ids=["semantic_loss", "symbolic_features"])
def test_train_without_rules_stops_where_it_would_read_masks(tiny_net_spec, split, strategy):
    with pytest.raises(ValueError, match=f"strategy '{strategy.kind}' needs a knowledge "
                                         "model for training"):
        train(*split, strategy, tiny_net_spec, seed=0, cfg=FAST)


@pytest.mark.parametrize("strategy", [StrategyConfig("context_refinement"),
                                      StrategyConfig("semantic_loss", LossConfig("All", 0.0))],
                         ids=["context_refinement", "semantic_loss_alpha_0"])
def test_train_without_rules_when_no_mask_is_read_trains_the_baseline(tiny_net_spec, split,
                                                                      strategy):
    # alpha 0 is plain cross-entropy: the loss never reads the masks
    base = train(*split, StrategyConfig("baseline"), tiny_net_spec, seed=3, cfg=FAST)
    model = train(*split, strategy, tiny_net_spec, seed=3, cfg=FAST)
    assert model.kind == strategy.kind
    for name in base.params:
        np.testing.assert_array_equal(model.params[name], base.params[name])


def test_train_gives_the_infusion_input_to_symbolic_features_alone(tiny_net_spec, split):
    # the strategy, not the spec it is handed, decides the infusion input
    model = train(*split, StrategyConfig("baseline"), replace(tiny_net_spec, infusion=True),
                  seed=3, cfg=FAST)
    assert not model.spec.infusion
    assert parameter_count(model.spec) == parameter_count(tiny_net_spec)


def test_empty_class_warning(tiny_model, tiny_net_spec, split):
    train_data, val_data = split
    narrowed = train_data.subset(np.flatnonzero(train_data.labels != 2))
    with pytest.warns(UserWarning, match="a_ride"):
        train(narrowed, val_data, StrategyConfig("baseline"), tiny_net_spec,
              seed=0, cfg=TrainConfig(epochs=1, batch_size=8))


# ---------------------------------------------------------------------------
# Prediction semantics
# ---------------------------------------------------------------------------

def trained(kind, tiny_model, tiny_net_spec, split, loss=None):
    train_data, val_data = split
    strategy = StrategyConfig(kind, loss or LossConfig())
    return train(train_data, val_data, strategy, tiny_net_spec, seed=5,
                 knowledge=tiny_model if kind != "baseline" else None, cfg=FAST)


def test_predict_distributions_sum_to_one(tiny_model, tiny_net_spec, split):
    model = trained("baseline", tiny_model, tiny_net_spec, split)
    _, probs, diags = predict_many(model, split[1])
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert all(d == {} for d in diags)


def test_context_refinement_flips_to_consistent_runner_up(tiny_model, tiny_net_spec, split):
    model = trained("context_refinement", tiny_model, tiny_net_spec, split)
    data = split[1]
    preds_raw, probs_raw, _ = predict_many(
        TrainedModel("baseline", model.spec, model.params, model.activities,
                     model.vocabulary, model.loss), data)
    preds, probs, diags = predict_many(model, data, tiny_model)
    for i in range(len(data)):
        mask = diags[i]["consistent"].astype(bool)
        if diags[i]["fallback"]:
            assert preds[i] == preds_raw[i]
        else:
            assert mask[preds[i]]
            if not mask[preds_raw[i]]:
                consistent_best = max(np.flatnonzero(mask),
                                      key=lambda j: (probs_raw[i][j], -j))
                assert preds[i] == consistent_best


def test_context_refinement_hand_constructed_flip(tiny_model, tiny_net_spec, split):
    # runner-up is the only consistent activity: refinement must pick it
    probs = np.array([0.6, 0.3, 0.07, 0.03])
    out, fallback = refine(probs, [False, True, False, True])
    assert not fallback
    assert out.argmax() == 1


def test_predict_requires_knowledge_for_refinement(tiny_model, tiny_net_spec, split):
    model = trained("context_refinement", tiny_model, tiny_net_spec, split)
    with pytest.raises(ValueError, match="knowledge"):
        predict_many(model, split[1])


@pytest.mark.parametrize("kind", ["baseline", "semantic_loss", "symbolic_features",
                                  "context_refinement"])
def test_only_the_reasoning_kinds_need_rules_at_inference(tiny_model, tiny_net_spec, split,
                                                          kind):
    loss = LossConfig("All", 2.0) if kind == "semantic_loss" else None
    model = trained(kind, tiny_model, tiny_net_spec, split, loss=loss)
    if kind in ("symbolic_features", "context_refinement"):
        with pytest.raises(ValueError, match=f"'{kind}' models need a knowledge model "
                                             "at inference"):
            predict_many(model, split[1])
    else:
        preds, _, diags = predict_many(model, split[1])
        assert len(preds) == len(split[1])
        assert all(d == {} for d in diags)


def test_semantic_loss_prediction_invokes_no_reasoning(tiny_model, tiny_net_spec,
                                                       split, monkeypatch):
    model = trained("semantic_loss", tiny_model, tiny_net_spec, split,
                    loss=LossConfig("All", 2.0))
    calls = {"n": 0}
    original = KnowledgeModel.consistent_activities

    def counting(self, context):
        calls["n"] += 1
        return original(self, context)

    monkeypatch.setattr(KnowledgeModel, "consistent_activities", counting)
    _, probs, diags = predict_many(model, split[1], knowledge=tiny_model)
    assert calls["n"] == 0
    assert all(d == {} for d in diags)
    predict(model, split[1].sample(0), knowledge=tiny_model)
    assert calls["n"] == 0


def test_symbolic_features_prediction_uses_consistency_input(tiny_model, tiny_net_spec, split):
    model = trained("symbolic_features", tiny_model, tiny_net_spec, split)
    preds, probs, diags = predict_many(model, split[1], tiny_model)
    assert all("consistent" in d for d in diags)
    masks = consistency_masks(tiny_model, split[1])
    from nesyhar.nn import forward
    direct, _ = forward(model.params, model.spec, split[1].phone, split[1].watch,
                        split[1].context, infusion=masks, mode="infer")
    np.testing.assert_array_equal(probs, direct)


def test_consistency_masks_reject_other_activity_order(tiny_model, split):
    # same context vocabulary, activities declared in reverse: the masks'
    # columns would no longer line up with the labels and probabilities
    reordered = parse_knowledge(TINY_RULES.replace("a_walk\na_run\na_ride\na_rest",
                                                   "a_rest\na_ride\na_run\na_walk"))
    assert reordered.vocabulary == tiny_model.vocabulary
    with pytest.raises(ValueError, match="activities"):
        consistency_masks(reordered, split[1])


def test_consistency_masks_reject_two_values_on_an_exclusive_dimension(tiny_model, split):
    data = split[1].subset(np.arange(len(split[1])))
    data.context[3, :3] = 1.0   # motion=still, slow and fast at once
    with pytest.raises(ValueError, match="exclusive dimension 'motion'"):
        consistency_masks(tiny_model, data)


def test_single_sample_predict_matches_batch(tiny_model, tiny_net_spec, split):
    model = trained("baseline", tiny_model, tiny_net_spec, split)
    preds, probs, _ = predict_many(model, split[1])
    idx, p, diag = predict(model, split[1].sample(4))
    assert idx == preds[4]
    np.testing.assert_allclose(p, probs[4], atol=1e-15)


@pytest.mark.parametrize("n", [0, 2])
def test_predict_rejects_a_dataset_that_is_not_one_window(tiny_model, tiny_net_spec, split, n):
    model = TrainedModel("baseline", tiny_net_spec, build_network(tiny_net_spec, 0),
                         tiny_model.activity_names, tiny_model.vocabulary, LossConfig())
    with pytest.raises(ValueError, match=f"got {n} windows"):
        predict(model, split[1].subset(np.arange(n)))


@pytest.mark.parametrize("n", [1, INFER_BLOCK, INFER_BLOCK + 1, 3 * INFER_BLOCK + 5])
@pytest.mark.parametrize("kind", ["semantic_loss", "symbolic_features", "context_refinement"])
def test_predict_many_matches_predict_across_inference_blocks(tiny_model, tiny_net_spec,
                                                              kind, n):
    spec = replace(tiny_net_spec, infusion=kind == "symbolic_features")
    model = TrainedModel(kind, spec, build_network(spec, 3), tiny_model.activity_names,
                         tiny_model.vocabulary, LossConfig())
    data = make_encoded(tiny_model, spec, n, seed=n)
    preds, probs, diagnostics = predict_many(model, data, tiny_model)
    for i in range(n):
        idx, p, diag = predict(model, data.sample(i), tiny_model)
        assert idx == preds[i]
        np.testing.assert_allclose(p, probs[i], rtol=1e-12, atol=0)
        assert diag.keys() == diagnostics[i].keys()
        for key, value in diag.items():
            np.testing.assert_array_equal(value, diagnostics[i][key])


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_old_format_checkpoint_loads_and_predicts_as_before(tiny_model, tiny_net_spec,
                                                           split, tmp_path):
    # written by hand the way checkpoints have always been laid out: a JSON
    # `meta` entry and one `param:<name>` array per tensor
    import json
    rng = np.random.default_rng(12)
    arrays = {name: rng.normal(scale=0.5, size=shape)
              for name, shape, _ in tiny_net_spec.parameter_shapes()}
    meta = {"version": 1, "kind": "baseline", "spec": asdict(tiny_net_spec),
            "activities": list(tiny_model.activity_names),
            "vocabulary": [{"name": d.name, "values": list(d.values),
                            "exclusive": d.exclusive}
                           for d in tiny_model.vocabulary.dimensions],
            "loss": {"semantic_type": "none", "alpha": 0.0}, "window_seconds": None,
            "discretization": None, "meta": {}}
    path = tmp_path / "old.npz"
    # the archive's own entry order does not matter
    np.savez(path, meta=json.dumps(meta),
             **{f"param:{n}": a for n, a in reversed(arrays.items())})
    loaded = load_model(path)
    assert isinstance(loaded.params, Parameters)
    assert list(loaded.params) == list(arrays)
    np.testing.assert_array_equal(loaded.params.flat,
                                  np.concatenate([a.ravel() for a in arrays.values()]))
    for name, value in arrays.items():
        np.testing.assert_array_equal(loaded.params[name], value)
    val = split[1]
    expected, _ = reference_forward(arrays, tiny_net_spec, val.phone, val.watch, val.context)
    preds, probs, _ = predict_many(loaded, val)
    np.testing.assert_allclose(probs, expected, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(preds, expected.argmax(axis=1))


def test_checkpoint_round_trip_value_exact(tiny_model, tiny_net_spec, split, tmp_path):
    from nesyhar.context import DiscretizationConfig
    train_data, val_data = split
    assert tiny_net_spec.dropout > 0
    # symbolic_features round-trips a spec with the infusion input
    for strategy in (StrategyConfig("semantic_loss", LossConfig("0P", 4.0)),
                     StrategyConfig("symbolic_features")):
        model = replace(train(train_data, val_data, strategy, tiny_net_spec, seed=9,
                              knowledge=tiny_model, cfg=FAST),
                        window_seconds=4.0, discretization=DiscretizationConfig())
        path = save_model(model, tmp_path / f"{strategy.kind}.npz")
        loaded = load_model(path)
        assert loaded.kind == model.kind
        assert loaded.spec == model.spec
        assert loaded.spec.infusion == (strategy.kind == "symbolic_features")
        assert loaded.activities == model.activities
        assert loaded.vocabulary == model.vocabulary
        assert loaded.loss == model.loss
        assert loaded.window_seconds == 4.0
        assert loaded.discretization == model.discretization
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name], model.params[name])
        _, probs_a, _ = predict_many(model, val_data, tiny_model)
        _, probs_b, _ = predict_many(loaded, val_data, tiny_model)
        np.testing.assert_array_equal(probs_a, probs_b)


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda p: {**p, "out.b": np.zeros(7)}, r"'out.b' has shape \(7,\)",
                 id="wrong-shape"),
    pytest.param(lambda p: {n: v for n, v in p.items() if n != "trunk.dense.w"},
                 "'trunk.dense.w' is missing", id="missing"),
    pytest.param(lambda p: {**p, "extra.w": np.zeros(2)},
                 "'extra.w' is not in the network spec", id="unexpected"),
])
def test_load_model_rejects_parameters_not_matching_spec(tiny_model, tiny_net_spec, tmp_path,
                                                         edit, message):
    model = TrainedModel("baseline", tiny_net_spec, edit(build_network(tiny_net_spec, 0)),
                         tiny_model.activity_names, tiny_model.vocabulary, LossConfig())
    path = save_model(model, tmp_path / "model.npz")
    with pytest.raises(ValueError, match=message):
        load_model(path)


SMALL_DISCRETIZATION = DiscretizationConfig(
    speed_thresholds=(0.5, 1.5, 6.0), height_epsilon=0.1, place_map={"house": "home"},
    place_location={"home": "indoor"}, weather_map={"drizzle": "rain"})

# the checkpoint `meta` of checkpoint_model(), written out field by field
EXPECTED_META = {
    "version": 1,
    "kind": "semantic_loss",
    "spec": {"phone": {"channels": 2, "length": 12, "filters": [3], "kernels": [3], "pool": 2,
                       "dense": 5},
             "watch": {"channels": 1, "length": 10, "filters": [2], "kernels": [4], "pool": 2,
                       "dense": 4},
             "context_size": 5, "classes": 4, "context_dense": 3, "trunk_dense": 6,
             "dropout": 0.1, "infusion": False},
    "activities": ["a_walk", "a_run", "a_ride", "a_rest"],
    "vocabulary": [{"name": "motion", "values": ["still", "slow", "fast"], "exclusive": True},
                   {"name": "place", "values": ["inside", "outside"], "exclusive": True}],
    "loss": {"semantic_type": "0P", "alpha": 4.0},
    "window_seconds": 4.0,
    "discretization": {"speed_thresholds": [0.5, 1.5, 6.0], "height_epsilon": 0.1,
                       "place_map": {"house": "home"}, "place_location": {"home": "indoor"},
                       "weather_map": {"drizzle": "rain"}},
    "meta": {"epochs_run": 3, "best_val_loss": 0.25},
}


def checkpoint_model(tiny_model, tiny_net_spec):
    return TrainedModel("semantic_loss", tiny_net_spec, build_network(tiny_net_spec, 0),
                        tiny_model.activity_names, tiny_model.vocabulary, LossConfig("0P", 4.0),
                        window_seconds=4.0, discretization=SMALL_DISCRETIZATION,
                        meta={"epochs_run": 3, "best_val_loss": 0.25})


def test_save_model_meta_is_the_written_out_record(tiny_model, tiny_net_spec, tmp_path):
    path = save_model(checkpoint_model(tiny_model, tiny_net_spec), tmp_path / "model.npz")
    with np.load(path) as archive:
        text = str(archive["meta"])
    assert json.loads(text) == EXPECTED_META
    assert text == json.dumps(EXPECTED_META, sort_keys=True)
    loaded = load_model(path)
    assert loaded.discretization == SMALL_DISCRETIZATION
    assert loaded.loss == LossConfig("0P", 4.0)


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda m: m["discretization"].update(bogus=1),
                 r"discretization: unknown key\(s\) \['bogus'\]", id="unknown-discretization-key"),
    pytest.param(lambda m: m["vocabulary"][0].update(exclusive="no"),
                 r"vocabulary.dimensions\[0\].exclusive must be true or false, got 'no'",
                 id="exclusive-string"),
    pytest.param(lambda m: m["loss"].update(alpha="x"),
                 "loss.alpha must be a number, got 'x'", id="alpha-string"),
    pytest.param(lambda m: m["discretization"].pop("height_epsilon"),
                 r"discretization: missing key\(s\) \['height_epsilon'\]",
                 id="missing-discretization-field"),
    pytest.param(lambda m: m["spec"]["phone"].update(filters=[True]),
                 r"spec.phone.filters\[0\] must be an integer, got True", id="bool-filter"),
    pytest.param(lambda m: m.update(kind="bogus"), "kind must be one of .*, got 'bogus'",
                 id="unknown-kind"),
])
def test_load_model_rejects_malformed_meta_naming_the_file(tiny_model, tiny_net_spec, tmp_path,
                                                           edit, message):
    meta = copy.deepcopy(EXPECTED_META)
    edit(meta)
    path = tmp_path / "bad.npz"
    params = build_network(tiny_net_spec, 0)
    np.savez(path, meta=json.dumps(meta), **{f"param:{n}": v for n, v in params.items()})
    with pytest.raises(ValueError, match=message) as exc:
        load_model(path)
    assert str(exc.value).startswith(f"{path}: ")


@pytest.mark.parametrize("entries, message", [
    pytest.param({"meta": json.dumps([1, 2])}, r"meta must be a JSON object, got \[1, 2\]",
                 id="meta-list"),
    pytest.param({"meta": "{version"}, "no JSON meta record", id="meta-not-json"),
    pytest.param({}, "no JSON meta record", id="no-meta"),
])
def test_load_model_rejects_a_checkpoint_without_a_meta_object(tiny_net_spec, tmp_path,
                                                                entries, message):
    path = tmp_path / "bad.npz"
    params = build_network(tiny_net_spec, 0)
    np.savez(path, **entries, **{f"param:{n}": v for n, v in params.items()})
    with pytest.raises(ValueError, match=message) as exc:
        load_model(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_trained_model_invariant():
    import dataclasses
    from nesyhar.nn import BranchSpec, NetworkSpec
    spec = NetworkSpec(phone=BranchSpec(1, 8, (2,), (3,), 2, 3),
                       watch=BranchSpec(1, 8, (2,), (3,), 2, 3),
                       context_size=2, classes=2, infusion=True)
    with pytest.raises(ValueError, match="infusion"):
        TrainedModel("baseline", spec, {}, ("x", "y"), None, LossConfig())
