import itertools

import numpy as np
import pytest

from nesyhar.context import DiscretizationConfig, RawContextRecord
from nesyhar.data import (
    Annotation,
    EncodedDataset,
    SensorStream,
    SyntheticConfig,
    UserDataset,
    downsample_training,
    encode,
    encode_user_datasets,
    encode_windows,
    enumerate_realizable_states,
    generate_synthetic,
    load_dataset,
    segment,
    write_dataset,
)
from nesyhar.knowledge import ContextState, load_knowledge

DISC = DiscretizationConfig()


@pytest.fixture(scope="module")
def model():
    return load_knowledge("configs/synthetic.rules")


def make_user(duration=40.0, rate=10.0, annotations=None, records=None, user="u1"):
    n = int(duration * rate)
    t = np.arange(n) / rate
    phone = SensorStream(rate, ("px", "py"), np.stack([np.sin(t), np.cos(t)]))
    watch = SensorStream(rate, ("wx",), np.sin(2 * t)[None, :])
    return UserDataset(user, phone, watch, records or [],
                       annotations if annotations is not None
                       else [Annotation(user, "walking", 0.0, duration)])


def test_segment_window_count(model):
    windows = segment(make_user(40.0), 4.0, DISC, model.vocabulary)
    assert len(windows) == 10
    assert [w.t_start for w in windows] == [i * 4.0 for i in range(10)]
    assert all(w.phone.shape == (2, 40) and w.watch.shape == (1, 40) for w in windows)


def test_segment_majority_label_and_tie(model):
    annotations = [Annotation("u1", "walking", 0.0, 3.0),
                   Annotation("u1", "sitting", 3.0, 8.0)]
    windows = segment(make_user(8.0, annotations=annotations), 4.0, DISC, model.vocabulary)
    assert [w.label for w in windows] == ["walking", "sitting"]
    # exact tie: both overlap 2 s; the earlier annotation wins
    tie = [Annotation("u1", "running", 0.0, 2.0), Annotation("u1", "sitting", 2.0, 4.0)]
    windows = segment(make_user(4.0, annotations=tie), 4.0, DISC, model.vocabulary)
    assert windows[0].label == "running"


def test_segment_drops_unlabeled(model):
    annotations = [Annotation("u1", "walking", 0.0, 4.0)]
    windows = segment(make_user(12.0, annotations=annotations), 4.0, DISC, model.vocabulary)
    assert len(windows) == 1
    kept = segment(make_user(12.0, annotations=annotations), 4.0, DISC,
                   model.vocabulary, keep_unlabeled=True)
    assert len(kept) == 3
    assert kept[1].label is None


def test_segment_drops_misaligned_window(model, caplog):
    ds = make_user(12.0)
    ds.watch = SensorStream(ds.watch.rate, ds.watch.channels, ds.watch.values[:, :50])
    with caplog.at_level("WARNING"):
        windows = segment(ds, 4.0, DISC, model.vocabulary)
    assert len(windows) == 1
    assert "not covered" in caplog.text


def test_segment_aggregates_window_context(model):
    records = [RawContextRecord(1.0, speed=1.0), RawContextRecord(5.0, speed=5.0)]
    windows = segment(make_user(8.0, records=records), 4.0, DISC, model.vocabulary)
    assert windows[0].state.dimension_values("speed") == {"low"}
    assert windows[1].state.dimension_values("speed") == {"medium"}


def test_encode_round_trip(model):
    state = ContextState.from_pairs(["speed=low", "location_type=outdoor"])
    records = [RawContextRecord(1.0, speed=1.0, semantic_place="park")]
    windows = segment(make_user(4.0, records=records), 4.0, DISC, model.vocabulary)
    sample = encode(windows[0], model.vocabulary, model.activity_names)
    assert sample.label == model.activity_names.index("walking")
    assert sample.context.sum() == len(windows[0].state)
    assert model.vocabulary.decode_state(sample.context) == windows[0].state == state


def test_encode_empty_state_zero_vector(model):
    windows = segment(make_user(4.0), 4.0, DISC, model.vocabulary)
    sample = encode(windows[0], model.vocabulary, model.activity_names)
    assert not sample.context.any()


def test_encode_unknown_label_rejected(model):
    windows = segment(make_user(4.0, annotations=[Annotation("u1", "flying", 0.0, 4.0)]),
                      4.0, DISC, model.vocabulary)
    with pytest.raises(KeyError, match="flying"):
        encode(windows[0], model.vocabulary, model.activity_names)


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------

def small_cfg(**kw):
    defaults = dict(users=2, windows_per_user=30, violation_rate=0.0, seed=7,
                    window_seconds=4.0, phone_rate=10.0, watch_rate=10.0)
    defaults.update(kw)
    return SyntheticConfig(**defaults)


def test_generator_deterministic(model):
    a = generate_synthetic(model, small_cfg())
    b = generate_synthetic(model, small_cfg())
    for da, db in zip(a, b):
        np.testing.assert_array_equal(da.phone.values, db.phone.values)
        assert da.context_records == db.context_records
        assert da.annotations == db.annotations
    c = generate_synthetic(model, small_cfg(seed=8))
    assert not np.array_equal(a[0].phone.values, c[0].phone.values)


def test_generator_zero_violation_labels_always_consistent(model):
    datasets = generate_synthetic(model, small_cfg(users=3, windows_per_user=60))
    encoded = encode_user_datasets(datasets, model, 4.0, DISC)
    for user, ds in encoded.items():
        for i in range(len(ds)):
            state = model.vocabulary.decode_state(ds.context[i])
            consistent = model.consistent_activities(state)
            assert ds.activities[ds.labels[i]] in consistent


def test_generator_round_trip_states(model):
    datasets = generate_synthetic(model, small_cfg())
    realizable = set(enumerate_realizable_states(model.vocabulary, DISC))
    windows = segment(datasets[0], 4.0, DISC, model.vocabulary)
    assert len(windows) == 30
    for w in windows:
        assert w.state in realizable


def test_generator_full_violation_matches_enumerated_expectation(model):
    # Independent enumeration of the state space: all exclusive dimensions,
    # each either unobserved or set to one value.
    dims = model.vocabulary.dimensions
    options = [[None] + list(d.values) for d in dims]
    states = []
    for combo in itertools.product(*options):
        pairs = [(d.name, v) for d, v in zip(dims, combo) if v is not None]
        states.append(ContextState.from_pairs(pairs))
    assert len(states) == 5 * 3 * 3 * 4
    k = model.num_activities
    expected = np.mean([len(model.consistent_activities(s)) / k for s in states])

    datasets = generate_synthetic(model, small_cfg(users=5, windows_per_user=400,
                                                   violation_rate=1.0))
    hits = total = 0
    for ds in datasets:
        windows = segment(ds, 4.0, DISC, model.vocabulary)
        for w in windows:
            total += 1
            hits += w.label in model.consistent_activities(w.state)
    assert total == 2000
    assert abs(hits / total - expected) < 0.03


def test_generator_unsatisfiable_activity_guard(model, monkeypatch):
    # Open-world positive literals make genuinely unsatisfiable rules
    # impossible via the rule language (the empty state satisfies anything),
    # so the guard is exercised by forcing the consistency computation.
    monkeypatch.setattr(type(model), "consistent_activities",
                        lambda self, state: frozenset())
    with pytest.raises(ValueError, match="walking"):
        generate_synthetic(model, small_cfg())


def test_generator_rejects_unrealizable_dimension():
    from nesyhar.knowledge import parse_knowledge
    text = """
[activities]
a
[contexts]
mood (exclusive): happy, sad
"""
    with pytest.raises(ValueError, match="mood"):
        generate_synthetic(parse_knowledge(text), small_cfg())


# ---------------------------------------------------------------------------
# Downsampling
# ---------------------------------------------------------------------------

def toy_encoded(labels):
    labels = np.asarray(labels)
    n = labels.size
    return EncodedDataset(
        phone=np.zeros((n, 1, 4)), watch=np.zeros((n, 1, 4)),
        context=np.zeros((n, 2)), labels=labels,
        users=tuple(f"u{i}" for i in range(n)),
        activities=("a", "b", "c"), vocabulary=None)


def test_downsample_identity_at_full_fraction():
    ds = toy_encoded([0, 1, 2, 0])
    assert downsample_training(ds, 1.0, seed=0) is ds


def test_downsample_half_of_one_class():
    ds = toy_encoded([0] * 100)
    out = downsample_training(ds, 0.5, seed=3)
    assert len(out) == 50


def test_downsample_keeps_every_class():
    ds = toy_encoded([0] * 3 + [1] * 50 + [2] * 7)
    out = downsample_training(ds, 0.01, seed=1)
    assert set(out.labels.tolist()) == {0, 1, 2}
    assert len(out) == 3


def test_downsample_deterministic_and_order_preserving():
    ds = toy_encoded([0, 1] * 30)
    a = downsample_training(ds, 0.4, seed=9)
    b = downsample_training(ds, 0.4, seed=9)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.users == b.users
    positions = [ds.users.index(u) for u in a.users]
    assert positions == sorted(positions)


def test_downsample_rejects_bad_fraction():
    with pytest.raises(ValueError):
        downsample_training(toy_encoded([0]), 0.0, seed=0)


# ---------------------------------------------------------------------------
# Dataset directory round trip
# ---------------------------------------------------------------------------

def test_write_load_round_trip(tmp_path, model):
    datasets = generate_synthetic(model, small_cfg())
    write_dataset(datasets, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert [d.user for d in loaded] == [d.user for d in datasets]
    for a, b in zip(datasets, loaded):
        np.testing.assert_array_equal(a.phone.values, b.phone.values)
        np.testing.assert_array_equal(a.watch.values, b.watch.values)
        assert a.phone.rate == b.phone.rate
        assert a.annotations == b.annotations
        assert a.context_records == b.context_records


def test_write_is_byte_identical_for_same_seed(tmp_path, model):
    datasets = generate_synthetic(model, small_cfg())
    write_dataset(datasets, tmp_path / "a")
    write_dataset(generate_synthetic(model, small_cfg()), tmp_path / "b")
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


def test_load_rejects_unknown_header(tmp_path, model):
    write_dataset(generate_synthetic(model, small_cfg(users=1)), tmp_path / "ds")
    bad = tmp_path / "ds" / "annotations.csv"
    bad.write_text("# something else v9\nuser,activity,t_start,t_end\n")
    with pytest.raises(ValueError, match="header"):
        load_dataset(tmp_path / "ds")


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
def test_stream_rejects_bad_rate(rate):
    with pytest.raises(ValueError, match="sampling rate"):
        SensorStream(rate, ("x",), np.zeros((1, 4)))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_stream_values(tmp_path, model, bad):
    write_dataset(generate_synthetic(model, small_cfg(users=1)), tmp_path / "ds")
    path = tmp_path / "ds" / "phone_user00.csv"
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[5].split(",")  # after the header and column lines: sample 3
    fields[1] = bad
    lines[5] = ",".join(fields)
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=r"phone_user00\.csv: stream channel 'p0' has a "
                                         r"non-finite value at sample 3"):
        load_dataset(tmp_path / "ds")
