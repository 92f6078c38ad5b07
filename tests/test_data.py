import itertools
import logging
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nesyhar.config import load_config, synthesize
from nesyhar.context import DiscretizationConfig, RawContextRecord
from nesyhar.data import (
    Annotation,
    EncodedDataset,
    SensorStream,
    SyntheticConfig,
    UnrealizableRulesError,
    UserDataset,
    _realizable,
    downsample_training,
    encode_user_datasets,
    encode_windows,
    enumerate_realizable_states,
    generate_synthetic,
    load_dataset,
    segment,
    write_dataset,
)
from nesyhar.evaluation import ExperimentError
from nesyhar.knowledge import AnyOf, ContextState, load_knowledge, parse_knowledge

from conftest import consistent_names
from knowledge_reference import decode_state

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
    assert windows.t_start.tolist() == [i * 4.0 for i in range(10)]
    assert windows.phone.shape == (10, 2, 40) and windows.watch.shape == (10, 1, 40)


def test_segment_majority_label_and_tie(model):
    annotations = [Annotation("u1", "walking", 0.0, 3.0),
                   Annotation("u1", "sitting", 3.0, 8.0)]
    windows = segment(make_user(8.0, annotations=annotations), 4.0, DISC, model.vocabulary)
    assert list(windows.labels) == ["walking", "sitting"]
    # exact tie: both overlap 2 s; the earlier annotation wins
    tie = [Annotation("u1", "running", 0.0, 2.0), Annotation("u1", "sitting", 2.0, 4.0)]
    windows = segment(make_user(4.0, annotations=tie), 4.0, DISC, model.vocabulary)
    assert windows.labels[0] == "running"


def test_segment_drops_unlabeled(model):
    annotations = [Annotation("u1", "walking", 0.0, 4.0)]
    windows = segment(make_user(12.0, annotations=annotations), 4.0, DISC, model.vocabulary)
    assert len(windows) == 1
    kept = segment(make_user(12.0, annotations=annotations), 4.0, DISC,
                   model.vocabulary, keep_unlabeled=True)
    assert len(kept) == 3
    assert kept.labels[1] is None


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
    assert windows.states[0].dimension_values("speed") == {"low"}
    assert windows.states[1].dimension_values("speed") == {"medium"}


def test_segment_aggregation_ignores_record_order(model):
    # a float sum in list order rounds 1 + 1e16 to 1e16 and would give a
    # pressure delta of 0 in some orders; the exact sum is 1, a descent
    records = [RawContextRecord(3.0, pressure_delta=1.0), RawContextRecord(5.0, speed=1.0),
               RawContextRecord(1.0, pressure_delta=1e16),
               RawContextRecord(2.0, pressure_delta=-1e16)]
    states = {segment(make_user(8.0, records=list(order)), 4.0, DISC, model.vocabulary).states
              for order in itertools.permutations(records)}
    assert len(states) == 1
    (first_window, _), = states
    assert first_window.dimension_values("height_variation") == {"negative"}


def test_encode_round_trip(model):
    state = ContextState.from_pairs(["speed=low", "location_type=outdoor"])
    records = [RawContextRecord(1.0, speed=1.0, semantic_place="park")]
    windows = segment(make_user(4.0, records=records), 4.0, DISC, model.vocabulary)
    encoded = encode_windows(windows, model.vocabulary, model.activity_names)
    assert encoded.labels[0] == model.activity_names.index("walking")
    assert encoded.context[0].sum() == len(windows.states[0])
    assert decode_state(model.vocabulary, encoded.context[0]) == windows.states[0] == state


def test_encode_empty_state_zero_vector(model):
    windows = segment(make_user(4.0), 4.0, DISC, model.vocabulary)
    encoded = encode_windows(windows, model.vocabulary, model.activity_names)
    assert not encoded.context[0].any()


def test_encode_unknown_label_rejected(model):
    windows = segment(make_user(4.0, annotations=[Annotation("u1", "flying", 0.0, 4.0)]),
                      4.0, DISC, model.vocabulary)
    with pytest.raises(KeyError, match="flying"):
        encode_windows(windows, model.vocabulary, model.activity_names)


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
        matrix = model.consistent_activities(ds.context)
        assert matrix[np.arange(len(ds)), ds.labels].all()


def test_generator_round_trip_states(model):
    datasets = generate_synthetic(model, small_cfg())
    realizable = set(enumerate_realizable_states(model.vocabulary, DISC))
    windows = segment(datasets[0], 4.0, DISC, model.vocabulary)
    assert len(windows) == 30
    for state in windows.states:
        assert state in realizable


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
    expected = np.mean([len(consistent_names(model, s)) / k for s in states])

    datasets = generate_synthetic(model, small_cfg(users=5, windows_per_user=400,
                                                   violation_rate=1.0))
    hits = total = 0
    for ds in datasets:
        windows = segment(ds, 4.0, DISC, model.vocabulary)
        for label, state in zip(windows.labels, windows.states):
            total += 1
            hits += label in consistent_names(model, state)
    assert total == 2000
    assert abs(hits / total - expected) < 0.03


def test_generator_unsatisfiable_activity_guard(model):
    # No rule file can say it (the empty state satisfies every parsed rule),
    # but a model built in Python can hold an empty OR, which no state satisfies.
    unsatisfiable = replace(model, rules={**model.rules, "walking": (AnyOf(()),)})
    with pytest.raises(UnrealizableRulesError,
                       match="activity 'walking' has no realizable consistent context state"):
        generate_synthetic(unsatisfiable, small_cfg())
    with pytest.raises(ExperimentError, match="rules: activity 'walking'"):
        synthesize(load_config("configs/quick.yaml"), unsatisfiable)


GENERATOR_CASES = [
    pytest.param("configs/synthetic.rules", {}, id="synthetic-defaults"),
    pytest.param("configs/domino.rules", {}, id="domino-defaults"),
    pytest.param("configs/synthetic.rules", dict(violation_rate=0.0, noise=0.0), id="v0-noise0"),
    pytest.param("configs/domino.rules", dict(violation_rate=0.0, noise=3.0), id="v0-noise3"),
    pytest.param("configs/domino.rules", dict(violation_rate=0.05, noise=0.0), id="v0.05-noise0"),
    pytest.param("configs/synthetic.rules", dict(violation_rate=0.05, noise=3.0),
                 id="v0.05-noise3"),
    pytest.param("configs/synthetic.rules", dict(violation_rate=1.0), id="v1"),
    pytest.param("configs/domino.rules", dict(violation_rate=1.0, noise=3.0), id="domino-v1"),
    pytest.param("configs/domino.rules", dict(phone_channels=1, watch_channels=4),
                 id="channels-1-4"),
    pytest.param("configs/synthetic.rules", dict(phone_channels=4, watch_channels=1),
                 id="channels-4-1"),
    pytest.param("configs/domino.rules", dict(windows_per_user=1), id="one-window"),
    # 2.5 s at 7.5 Hz is 18.75 samples, rounded to 19
    pytest.param("configs/synthetic.rules", dict(window_seconds=2.5, phone_rate=7.5,
                                                  watch_rate=7.5), id="fractional-samples"),
    pytest.param("configs/domino.rules", dict(window_seconds=2.5, phone_rate=7.5,
                                               watch_rate=30.0), id="domino-fractional"),
    pytest.param("configs/synthetic.rules", dict(window_seconds=0.01), id="zero-samples"),
    pytest.param("configs/synthetic.rules", dict(unobserved_bias=1.0), id="bias1"),
    pytest.param("configs/domino.rules", dict(unobserved_bias=1.0, violation_rate=0.05),
                 id="domino-bias1"),
]


@pytest.mark.parametrize("rules, overrides", GENERATOR_CASES)
def test_generator_matches_the_per_window_oracle(rules, overrides):
    from data_reference import reference_generate_synthetic
    model = load_knowledge(rules)
    cfg = SyntheticConfig(**{**dict(users=3, windows_per_user=50, violation_rate=0.2,
                                    seed=5), **overrides})
    got, want = generate_synthetic(model, cfg), reference_generate_synthetic(model, cfg)
    assert [ds.user for ds in got] == [ds.user for ds in want]
    for g, w in zip(got, want):
        for a, b in ((g.phone, w.phone), (g.watch, w.watch)):
            assert (a.rate, a.channels) == (b.rate, b.channels)
            assert a.values.shape == b.values.shape and a.values.dtype == b.values.dtype
            assert a.values.tobytes() == b.values.tobytes()  # bit for bit, signed zeros too
        assert g.context_records == w.context_records
        assert g.annotations == w.annotations


def test_synthetic_config_bounds_the_stream_values_it_asks_for():
    # 16 users x 1024 windows x 2 streams x 8 channels x 1024 samples is the limit, 2**28
    at_limit = dict(users=16, windows_per_user=1024, violation_rate=0.0, phone_channels=8,
                    watch_channels=8, window_seconds=1024.0, phone_rate=1.0, watch_rate=1.0)
    SyntheticConfig(**at_limit)
    for over, values in ((dict(windows_per_user=1025), "2.68698e+08"),
                         (dict(window_seconds=1e300, phone_rate=1e10), "inf")):
        with pytest.raises(ValueError, match=re.escape(f"ask for {values} stream values")):
            SyntheticConfig(**{**at_limit, **over})


def test_generator_peak_memory_stays_within_three_times_its_streams(model):
    cfg = SyntheticConfig(users=1, windows_per_user=4000, violation_rate=0.05)
    tracemalloc.start()
    try:
        datasets = generate_synthetic(model, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    streams = sum(ds.phone.values.nbytes + ds.watch.values.nbytes for ds in datasets)
    assert streams == 2 * 4000 * 3 * 100 * 8
    assert peak <= 3 * streams


def test_generator_rejects_unrealizable_dimension():
    text = """
[activities]
a
[contexts]
mood (exclusive): happy, sad
"""
    with pytest.raises(ValueError, match="mood"):
        generate_synthetic(parse_knowledge(text), small_cfg())


@pytest.mark.parametrize("rules", ["configs/domino.rules", "configs/synthetic.rules"])
def test_generating_and_segmenting_logs_no_warning(rules, caplog):
    model = load_knowledge(rules)
    with caplog.at_level(logging.WARNING):
        datasets = generate_synthetic(model, small_cfg(violation_rate=0.5))
        encode_user_datasets(datasets, model, 4.0, DISC)
    assert not caplog.records


PARTIAL_PLACES = """
[activities]
resting
[contexts]
location_type (exclusive): indoor, outdoor
semantic_place (exclusive): street, home
"""


def test_partial_place_vocabulary_realizes_locations_only_through_declared_places(caplog):
    # a location comes from a place; an undeclared place would be logged when segmented
    model = parse_knowledge(PARTIAL_PLACES)
    with caplog.at_level(logging.WARNING):
        states = enumerate_realizable_states(model.vocabulary, DISC)
        datasets = generate_synthetic(model, small_cfg(violation_rate=1.0))
        encode_user_datasets(datasets, model, 4.0, DISC)
    assert not caplog.records
    assert states == [ContextState(),
                      ContextState.from_pairs(["location_type=indoor", "semantic_place=home"]),
                      ContextState.from_pairs(["location_type=outdoor", "semantic_place=street"])]


REALIZABLE_CASES = {
    "synthetic.rules": ("configs/synthetic.rules", DISC),
    "domino.rules": ("configs/domino.rules", DISC),
    "partial places": (PARTIAL_PLACES, DISC),
    # several strings per value, a place without a location, fewer weathers
    "domino.rules, other thresholds and maps": ("configs/domino.rules", DiscretizationConfig(
        speed_thresholds=(0.5, 3.0, 10.0), height_epsilon=0.2,
        place_map={"pitch": "park", "house": "home", "home": "home", "depot": "street"},
        place_location={"home": "indoor", "park": "outdoor"},
        weather_map={"overcast": "cloudy", "drizzle": "rainy", "rain": "rainy"})),
    # locations only, through places mapped the other way round
    "synthetic.rules, other thresholds and maps": ("configs/synthetic.rules", DiscretizationConfig(
        speed_thresholds=(1.0, 1.5, 20.0), height_epsilon=1e-3,
        place_location={"park": "indoor", "home": "outdoor", "gym": "outdoor"})),
}


@pytest.mark.parametrize("rules, disc", REALIZABLE_CASES.values(), ids=REALIZABLE_CASES)
def test_realizable_states_match_the_product_oracle(rules, disc):
    from data_reference import reference_realizable

    model = load_knowledge(rules) if rules.startswith("configs/") else parse_knowledge(rules)
    got = _realizable(model.vocabulary, disc)
    assert list(got.items()) == list(reference_realizable(model.vocabulary, disc).items())


# ---------------------------------------------------------------------------
# Downsampling
# ---------------------------------------------------------------------------

def toy_encoded(labels):
    labels = np.asarray(labels)
    n = labels.size
    phone = np.zeros((n, 1, 4))
    phone[:, 0, 0] = np.arange(n)  # each window's position, to tell windows apart
    return EncodedDataset(
        phone=phone, watch=np.zeros((n, 1, 4)),
        context=np.zeros((n, 2)), labels=labels,
        activities=("a", "b", "c"), vocabulary=None)


@pytest.mark.parametrize("indices", [[], range(0), np.arange(0)], ids=["list", "range", "array"])
def test_subset_of_no_indices_is_an_empty_dataset(indices):
    out = toy_encoded([0, 1, 2]).subset(indices)
    assert len(out) == 0
    assert out.phone.shape == (0, 1, 4) and out.context.shape == (0, 2)
    assert out.labels.shape == (0,)


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
    np.testing.assert_array_equal(a.phone, b.phone)
    positions = a.phone[:, 0, 0]
    assert (np.diff(positions) > 0).all()


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


# ---------------------------------------------------------------------------
# Columnar segmentation against the per-window oracle
# ---------------------------------------------------------------------------

PLACES = ("home", "office", "park", "street", "bus stop", "moon base")
WEATHERS = ("clear", "rain", "snow", "fog")


def random_recording(model, seed):
    """A messy recording: overlapping annotations, exact overlap ties, gaps,
    streams of unequal length, and context records on window bounds, past the
    last window, at negative or NaN times."""
    rng = np.random.default_rng(seed)
    z = float(rng.choice([1.0, 2.0, 4.0, 0.3, 2.5]))
    phone_rate, watch_rate = rng.choice([7.5, 10.0, 25.0], size=2)
    seconds = rng.uniform(0.0, 80.0)
    phone_n = int(seconds * phone_rate)
    watch_n = max(int((seconds + rng.uniform(-2 * z, 2 * z)) * watch_rate), 0)
    phone = SensorStream(phone_rate, ("px", "py"), rng.normal(size=(2, phone_n)))
    watch = SensorStream(watch_rate, ("wx",), rng.normal(size=(1, watch_n)))
    duration = max(phone.duration, watch.duration, z)
    names = model.activity_names
    annotations = []
    for _ in range(int(rng.integers(0, 40))):
        # endpoints on a half-second grid make exact overlap ties common
        start = float(np.round(rng.uniform(-z, duration) * 2) / 2)
        length = float(np.round(rng.exponential(2 * z) * 2) / 2) + 0.5
        annotations.append(Annotation("u", str(rng.choice(names)), start, start + length))
    times = list(rng.uniform(-2.0, duration + 2.0, size=int(rng.integers(0, 60))))
    times += [k * z for k in rng.integers(0, int(duration // z) + 2, size=8)]
    times += [-z, float("nan"), duration + z]
    records = []
    for time in rng.permutation(np.array(times)):
        records.append(RawContextRecord(
            float(time),
            speed=float(rng.exponential(3.0)) if rng.random() < 0.7 else None,
            pressure_delta=float(rng.normal(scale=0.1)) if rng.random() < 0.5 else None,
            semantic_place=str(rng.choice(PLACES)) if rng.random() < 0.5 else None,
            transport_route_nearby=bool(rng.random() < 0.5) if rng.random() < 0.5 else None,
            weather=str(rng.choice(WEATHERS)) if rng.random() < 0.5 else None))
    return UserDataset("u", phone, watch, records, annotations), z


@pytest.mark.parametrize("keep_unlabeled", [False, True])
@pytest.mark.parametrize("seed", range(12))
def test_segment_and_encode_match_the_per_window_oracle(model, seed, keep_unlabeled):
    from data_reference import reference_encode, reference_segment
    ds, z = random_recording(model, seed)
    vocab, names = model.vocabulary, model.activity_names
    expected = reference_segment(ds, z, DISC, vocab, keep_unlabeled)
    windows = segment(ds, z, DISC, vocab, keep_unlabeled)
    assert len(windows) == len(expected)
    assert windows.user == ds.user
    assert windows.t_start.tolist() == [w.t_start for w in expected]
    assert windows.t_end.tolist() == [w.t_end for w in expected]
    assert windows.states == tuple(w.state for w in expected)
    assert windows.labels == tuple(w.label for w in expected)
    if not expected:
        with pytest.raises(ValueError, match="no windows"):
            encode_windows(windows, vocab, names)
        return
    encoded = encode_windows(windows, vocab, names)
    samples = [reference_encode(w, vocab, names) for w in expected]
    for got, want in ((encoded.phone, [w.phone for w in expected]),
                      (encoded.watch, [w.watch for w in expected]),
                      (encoded.context, [context for _, context in samples])):
        assert got.dtype == np.float64 and got.flags.c_contiguous
        np.testing.assert_array_equal(got, np.stack(want), strict=True)
    assert encoded.labels.tolist() == [-1 if label is None else label for label, _ in samples]


def test_segment_window_shorter_than_a_sample(model):
    # 0.01 s at 10 Hz rounds to 0 samples: every window is covered and empty
    windows = segment(make_user(4.0), 0.01, DISC, model.vocabulary)
    assert len(windows) == 399
    assert windows.phone.shape == (399, 2, 0) and windows.watch.shape == (399, 1, 0)
    assert set(windows.labels) == {"walking"}


# 80 samples a stream; at 1e308 s the samples a window needs overflow to inf
@pytest.mark.parametrize("z", [8.5, 1e300, 1e308])
def test_segment_window_longer_than_the_streams_gives_no_windows(model, z):
    assert not segment(make_user(8.0), z, DISC, model.vocabulary, keep_unlabeled=True)


@pytest.mark.parametrize("z", [0.0, -1.0, float("nan"), float("inf")])
def test_segment_rejects_a_window_length_that_is_not_positive_and_finite(model, z):
    with pytest.raises(ValueError, match="window length must be positive and finite"):
        segment(make_user(8.0), z, DISC, model.vocabulary)


def test_segment_warns_once_naming_the_uncovered_windows(model, caplog):
    ds = make_user(20.0)
    ds.watch = SensorStream(ds.watch.rate, ds.watch.channels, ds.watch.values[:, :90])
    with caplog.at_level("WARNING"):
        windows = segment(ds, 4.0, DISC, model.vocabulary)
    assert len(windows) == 2
    assert [r.getMessage() for r in caplog.records] == [
        "user u1: 3 window(s) in [8, 20) not covered by both streams; dropped"]


# ---------------------------------------------------------------------------
# Dataset file format
# ---------------------------------------------------------------------------

def two_window_user():
    return UserDataset(
        "u1",
        SensorStream(2.0, ("px",), np.array([[0.5, -1.0, 2.25, 1e-05]])),
        SensorStream(1.0, ("wx", "wy"), np.array([[1.0, 2.0], [0.1, -0.0]])),
        [RawContextRecord(0.5, speed=1.25, semantic_place="park", transport_route_nearby=True),
         RawContextRecord(3.0, pressure_delta=-0.2, weather="rain, light")],
        [Annotation("u1", "walking", 0.0, 2.0), Annotation("u1", "sitting", 2.0, 4.0)])


def test_write_dataset_writes_the_documented_text(tmp_path):
    write_dataset([two_window_user()], tmp_path)
    expected = {
        "annotations.csv": "# nesyhar annotations v1\nuser,activity,t_start,t_end\r\n"
                           "u1,walking,0.0,2.0\r\nu1,sitting,2.0,4.0\r\n",
        "context.csv": "# nesyhar context-records v1\n"
                       "user,t,speed,pressure_delta,semantic_place,transport_route_nearby,"
                       "weather\r\nu1,0.5,1.25,,park,true,\r\nu1,3.0,,-0.2,,,\"rain, light\"\r\n",
        "phone_u1.csv": "# nesyhar stream v1 rate=2.0\nt,px\r\n"
                        "0.0,0.5\r\n0.5,-1.0\r\n1.0,2.25\r\n1.5,1e-05\r\n",
        "watch_u1.csv": "# nesyhar stream v1 rate=1.0\nt,wx,wy\r\n0.0,1.0,0.1\r\n1.0,2.0,-0.0\r\n",
    }
    assert {p.name: p.read_bytes().decode() for p in tmp_path.iterdir()} == expected


def test_load_dataset_reads_a_stream_without_samples(tmp_path):
    user = two_window_user()
    user.watch = SensorStream(1.0, ("wx", "wy"), np.empty((2, 0)))
    write_dataset([user], tmp_path)
    loaded = load_dataset(tmp_path)[0]
    assert loaded.watch.channels == ("wx", "wy") and loaded.watch.values.shape == (2, 0)
    np.testing.assert_array_equal(loaded.phone.values, user.phone.values)


# (file, line, field, new text or None to cut the row there, error)
MALFORMED_ROWS = [
    pytest.param("annotations.csv", 3, 2, "x", "could not convert string to float: 'x'",
                 id="annotation-time"),
    pytest.param("annotations.csv", 4, 3, None, r"expected 4 fields", id="annotation-short-row"),
    pytest.param("annotations.csv", 3, 3, "0.0", r"interval \[0.0, 0.0\) is empty",
                 id="annotation-empty-interval"),
    pytest.param("context.csv", 3, 1, "soon", "could not convert string to float: 'soon'",
                 id="context-time"),
    pytest.param("context.csv", 4, 3, "up", "could not convert string to float: 'up'",
                 id="context-value"),
    pytest.param("context.csv", 3, 3, None, r"expected 7 fields", id="context-short-row"),
    pytest.param("context.csv", 3, 2, "inf", "speed must be finite, got inf",
                 id="context-speed-inf"),
    pytest.param("context.csv", 3, 2, "-nan", "speed must be finite, got nan",
                 id="context-speed-nan"),
    pytest.param("context.csv", 4, 3, "-inf", "pressure_delta must be finite, got -inf",
                 id="context-pressure-delta-inf"),
    pytest.param("context.csv", 3, 2, "-50.0", r"speed must be >= 0, got -50.0",
                 id="context-speed-negative"),
]


@pytest.mark.parametrize("name, line, field, text, message", MALFORMED_ROWS)
def test_load_rejects_a_malformed_row_naming_file_and_line(tmp_path, name, line, field, text,
                                                           message):
    write_dataset([two_window_user()], tmp_path)
    path = tmp_path / name
    lines = path.read_text().splitlines()
    fields = lines[line - 1].split(",")
    lines[line - 1] = ",".join(fields[:field] if text is None
                               else fields[:field] + [text] + fields[field + 1:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message) as exc:
        load_dataset(tmp_path)
    assert str(exc.value).startswith(f"{path}: line {line}: ")


@pytest.mark.parametrize("row, message", [
    ("1.0,x", "could not convert string 'x'"),
    ("one,0.5", "could not convert string 'one'"),
    ("1.0", "number of columns changed"),
    ("# 1.0,0.5", "could not convert string '# 1.0'"),
])
def test_load_rejects_a_malformed_stream_row_naming_the_file(tmp_path, row, message):
    write_dataset([two_window_user()], tmp_path)
    path = tmp_path / "phone_u1.csv"
    path.write_text(path.read_text() + row + "\n")
    with pytest.raises(ValueError, match=message) as exc:
        load_dataset(tmp_path)
    assert str(exc.value).startswith(f"{path}: ")
