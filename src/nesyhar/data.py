"""Dataset model, windowing, encoding, and a synthetic generator.

Per-user raw data consists of two inertial streams (phone and watch), a list of
raw context records, and activity annotations. :func:`segment` cuts the streams
into fixed-length non-overlapping windows, labels each window by the annotation
with the largest temporal overlap, and aggregates raw context records into a
discrete context state. :func:`encode_windows` packs labeled windows into the
columnar :class:`EncodedDataset` consumed by training and evaluation.

The synthetic generator produces datasets whose inertial channels follow
per-activity band-limited signatures and whose context states are consistent
with the activity's knowledge rules except for a configurable violation rate,
so knowledge-aware strategies have something real to exploit at desk scale.

Dataset directory layout (written by the generator, read by the loader)::

    <dir>/annotations.csv   # "user,activity,t_start,t_end" rows
    <dir>/context.csv       # one row per raw context record
    <dir>/phone_<user>.csv  # "t,<channel...>" rows, rate in the header line
    <dir>/watch_<user>.csv

Every file starts with a versioned comment header (e.g. ``# nesyhar
annotations v1``); the loader rejects unknown versions.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .context import (
    DiscretizationConfig,
    HEIGHT_VARIATION,
    LOCATION_TYPE,
    RawContextRecord,
    SEMANTIC_PLACE,
    SPEED,
    TRANSPORT_ROUTE,
    WEATHER,
    aggregate_context,
)
from .knowledge import ContextState, ContextVocabulary, KnowledgeModel

log = logging.getLogger(__name__)

__all__ = [
    "Annotation",
    "SensorStream",
    "UserDataset",
    "Window",
    "EncodedSample",
    "EncodedDataset",
    "segment",
    "encode",
    "encode_windows",
    "encode_user_datasets",
    "SyntheticConfig",
    "enumerate_realizable_states",
    "generate_synthetic",
    "downsample_training",
    "write_dataset",
    "load_dataset",
]


@dataclass(frozen=True)
class Annotation:
    """One labeled interval: the user performed the activity in [t_start, t_end)."""

    user: str
    activity: str
    t_start: float
    t_end: float

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValueError(f"annotation interval [{self.t_start}, {self.t_end}) is empty")


@dataclass
class SensorStream:
    """A multichannel inertial stream sampled at a fixed rate, starting at t=0."""

    rate: float
    channels: tuple[str, ...]
    values: np.ndarray  # (channels, samples)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not 0 < self.rate < math.inf:
            raise ValueError(f"sampling rate must be positive and finite, got {self.rate}")
        if self.values.ndim != 2 or self.values.shape[0] != len(self.channels):
            raise ValueError(f"stream values have shape {self.values.shape}, expected "
                             f"({len(self.channels)}, n)")
        finite = np.isfinite(self.values)
        if not finite.all():
            channel, sample = np.argwhere(~finite)[0]
            raise ValueError(f"stream channel {self.channels[channel]!r} has a non-finite "
                             f"value at sample {sample}")

    @property
    def duration(self) -> float:
        return self.values.shape[1] / self.rate


@dataclass
class UserDataset:
    """All raw data of one user: two inertial streams, context records, annotations."""

    user: str
    phone: SensorStream
    watch: SensorStream
    context_records: list[RawContextRecord]
    annotations: list[Annotation]


@dataclass(frozen=True)
class Window:
    """One fixed-length window with aggregated context and (optionally) a label."""

    user: str
    t_start: float
    t_end: float
    phone: np.ndarray
    watch: np.ndarray
    state: ContextState
    label: str | None


@dataclass(frozen=True)
class EncodedSample:
    """Network-ready form of one window; context is multi-hot over the vocabulary."""

    phone: np.ndarray
    watch: np.ndarray
    context: np.ndarray
    label: int | None


@dataclass
class EncodedDataset:
    """Columnar batch of encoded samples, the workhorse for training/evaluation."""

    phone: np.ndarray    # (n, channels, samples)
    watch: np.ndarray
    context: np.ndarray  # (n, vocabulary size)
    labels: np.ndarray   # (n,), -1 where unlabeled
    users: tuple[str, ...]
    activities: tuple[str, ...]
    vocabulary: ContextVocabulary

    def __len__(self) -> int:
        return self.phone.shape[0]

    def sample(self, i: int) -> EncodedSample:
        label = int(self.labels[i])
        return EncodedSample(self.phone[i], self.watch[i], self.context[i],
                             None if label < 0 else label)

    def subset(self, indices) -> "EncodedDataset":
        indices = np.asarray(indices)
        return EncodedDataset(self.phone[indices], self.watch[indices],
                              self.context[indices], self.labels[indices],
                              tuple(self.users[i] for i in indices),
                              self.activities, self.vocabulary)

    @classmethod
    def concatenate(cls, parts: Sequence["EncodedDataset"]) -> "EncodedDataset":
        if not parts:
            raise ValueError("nothing to concatenate")
        first = parts[0]
        for p in parts[1:]:
            if p.activities != first.activities or p.vocabulary != first.vocabulary:
                raise ValueError("cannot concatenate datasets with different vocabularies")
        return cls(np.concatenate([p.phone for p in parts]),
                   np.concatenate([p.watch for p in parts]),
                   np.concatenate([p.context for p in parts]),
                   np.concatenate([p.labels for p in parts]),
                   tuple(itertools.chain.from_iterable(p.users for p in parts)),
                   first.activities, first.vocabulary)


# ---------------------------------------------------------------------------
# Windowing and encoding
# ---------------------------------------------------------------------------

def segment(ds: UserDataset, z: float, cfg: DiscretizationConfig,
            vocab: ContextVocabulary, keep_unlabeled: bool = False) -> list[Window]:
    """Cut a user's streams into consecutive non-overlapping z-second windows.

    Each window is labeled by the annotation with the largest temporal overlap
    (ties to the earlier annotation); windows without any overlapping
    annotation are dropped unless keep_unlabeled is set. Windows not fully
    covered by both streams are dropped with a warning.
    """
    if z <= 0:
        raise ValueError("window length must be positive")
    n_phone = int(round(z * ds.phone.rate))
    n_watch = int(round(z * ds.watch.rate))
    duration = max(ds.phone.duration, ds.watch.duration)
    count = int(duration // z)
    annotations = sorted(ds.annotations, key=lambda a: (a.t_start, a.t_end))

    windows: list[Window] = []
    for w in range(count):
        t_start, t_end = w * z, (w + 1) * z
        if (w + 1) * n_phone > ds.phone.values.shape[1] or \
                (w + 1) * n_watch > ds.watch.values.shape[1]:
            log.warning("user %s: window [%g, %g) not covered by both streams; dropped",
                        ds.user, t_start, t_end)
            continue
        label = None
        best = 0.0
        for a in annotations:
            overlap = min(t_end, a.t_end) - max(t_start, a.t_start)
            if overlap > best:
                best = overlap
                label = a.activity
        if label is None and not keep_unlabeled:
            continue
        records = [r for r in ds.context_records if t_start <= r.timestamp < t_end]
        state = aggregate_context(records, cfg, vocab)
        windows.append(Window(
            user=ds.user, t_start=t_start, t_end=t_end,
            phone=ds.phone.values[:, w * n_phone:(w + 1) * n_phone].copy(),
            watch=ds.watch.values[:, w * n_watch:(w + 1) * n_watch].copy(),
            state=state, label=label))
    return windows


def encode(window: Window, vocab: ContextVocabulary,
           activities: Sequence[str]) -> EncodedSample:
    """Turn one window into network-ready tensors plus a label index."""
    label = None
    if window.label is not None:
        try:
            label = list(activities).index(window.label)
        except ValueError:
            raise KeyError(f"label {window.label!r} not in the activity vocabulary") from None
    return EncodedSample(window.phone, window.watch, vocab.encode_state(window.state), label)


def encode_windows(windows: Sequence[Window], vocab: ContextVocabulary,
                   activities: Sequence[str]) -> EncodedDataset:
    if not windows:
        raise ValueError("no windows to encode")
    samples = [encode(w, vocab, activities) for w in windows]
    return EncodedDataset(
        phone=np.stack([s.phone for s in samples]),
        watch=np.stack([s.watch for s in samples]),
        context=np.stack([s.context for s in samples]),
        labels=np.array([-1 if s.label is None else s.label for s in samples], dtype=np.int64),
        users=tuple(w.user for w in windows),
        activities=tuple(activities),
        vocabulary=vocab,
    )


def encode_user_datasets(datasets: Sequence[UserDataset], model: KnowledgeModel,
                         z: float, cfg: DiscretizationConfig) -> dict[str, EncodedDataset]:
    """Segment and encode every user dataset against a knowledge model's vocabularies."""
    out = {}
    for ds in datasets:
        windows = segment(ds, z, cfg, model.vocabulary)
        if windows:
            out[ds.user] = encode_windows(windows, model.vocabulary, model.activity_names)
        else:
            log.warning("user %s produced no usable windows", ds.user)
    return out


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the synthetic dataset generator.

    ``confusability`` pulls the inertial signatures of consecutive activity
    pairs together (1.0 = identical within a pair), so that context knowledge
    is genuinely needed to separate them. ``unobserved_bias`` down-weights
    states with unobserved dimensions when drawing a context consistent with
    the activity (weight = bias ** number of unobserved dimensions); the
    violation branch always draws uniformly from the full state space.
    """

    users: int
    windows_per_user: int
    violation_rate: float
    noise: float = 1.0
    seed: int = 0
    window_seconds: float = 4.0
    phone_channels: int = 3
    watch_channels: int = 3
    phone_rate: float = 25.0
    watch_rate: float = 25.0
    confusability: float = 0.7
    unobserved_bias: float = 0.35

    def __post_init__(self):
        if self.users < 1 or self.windows_per_user < 1:
            raise ValueError("users and windows_per_user must be positive")
        if not 0.0 <= self.violation_rate <= 1.0:
            raise ValueError("violation_rate must be in [0, 1]")
        if not 0.0 <= self.confusability <= 1.0:
            raise ValueError("confusability must be in [0, 1]")
        if not 0.0 < self.unobserved_bias <= 1.0:
            raise ValueError("unobserved_bias must be in (0, 1]")
        if not 0.0 <= self.noise < math.inf:
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")
        if not (0.0 < self.phone_rate < math.inf and 0.0 < self.watch_rate < math.inf):
            raise ValueError("phone_rate and watch_rate must be positive and finite")
        if self.phone_channels < 1 or self.watch_channels < 1:
            raise ValueError("phone_channels and watch_channels must be >= 1")


_MAX_STATE_SPACE = 200_000


def _enumerate_states(vocab: ContextVocabulary) -> list[ContextState]:
    """All context states: per exclusive dimension one value or unobserved,
    per non-exclusive dimension any subset of values."""
    per_dim = []
    total = 1
    for dim in vocab.dimensions:
        if dim.exclusive:
            options = [()] + [((dim.name, v),) for v in dim.values]
        else:
            options = [tuple((dim.name, v) for v in subset)
                       for r in range(len(dim.values) + 1)
                       for subset in itertools.combinations(dim.values, r)]
        total *= len(options)
        if total > _MAX_STATE_SPACE:
            raise ValueError(f"context state space exceeds {_MAX_STATE_SPACE} states; "
                             "too large to enumerate")
        per_dim.append(options)
    return [ContextState.from_pairs(itertools.chain.from_iterable(combo))
            for combo in itertools.product(*per_dim)]


class _StateRealizer:
    """Turns a discrete context state back into raw context records.

    Only dimensions the context aggregator knows (speed, height variation,
    location type, semantic place, transport route, weather) can be realized.
    """

    def __init__(self, vocab: ContextVocabulary, cfg: DiscretizationConfig):
        self.vocab = vocab
        self.cfg = cfg
        t = cfg.speed_thresholds
        self._speed_value = {
            "null": t[0] / 2.0,
            "low": (t[0] + t[1]) / 2.0,
            "medium": (t[1] + t[2]) / 2.0,
            "high": t[2] * 1.5,
        }
        self._height_value = {"null": 0.0, "positive": -4.0 * cfg.height_epsilon,
                              "negative": 4.0 * cfg.height_epsilon}
        # provider string for each mappable place / weather value
        self._place_provider = {}
        for provider in sorted(cfg.place_map):
            self._place_provider.setdefault(cfg.place_map[provider], provider)
        self._weather_provider = {}
        for provider in sorted(cfg.weather_map):
            self._weather_provider.setdefault(cfg.weather_map[provider], provider)
        self._location_place = {}
        for place in sorted(cfg.place_location):
            if place in self._place_provider:
                self._location_place.setdefault(cfg.place_location[place], place)

    def realize(self, state: ContextState, timestamp: float) -> RawContextRecord:
        fields: dict = {}
        place_value = None
        for pred in sorted(state.observed, key=lambda p: (p.dimension, p.value)):
            dim, value = pred.dimension, pred.value
            if dim == SPEED:
                fields["speed"] = self._speed_value[value]
            elif dim == HEIGHT_VARIATION:
                fields["pressure_delta"] = self._height_value[value]
            elif dim == TRANSPORT_ROUTE:
                fields["transport_route_nearby"] = value == "true"
            elif dim == SEMANTIC_PLACE:
                place_value = value
            elif dim == LOCATION_TYPE:
                if place_value is None and not state.observes(SEMANTIC_PLACE):
                    place_value = self._location_place.get(value)
                    if place_value is None:
                        raise ValueError(f"no semantic place realizes location_type={value}")
            elif dim == WEATHER:
                provider = self._weather_provider.get(value)
                if provider is None:
                    raise ValueError(f"no provider string realizes weather={value}")
                fields["weather"] = provider
            else:
                raise ValueError(f"cannot realize context dimension {dim!r} as raw signals")
        if place_value is not None:
            provider = self._place_provider.get(place_value)
            if provider is None:
                raise ValueError(f"no provider string realizes semantic_place={place_value}")
            fields["semantic_place"] = provider
        return RawContextRecord(timestamp=timestamp, **fields)


def enumerate_realizable_states(vocab: ContextVocabulary,
                                cfg: DiscretizationConfig) -> list[ContextState]:
    """All context states that survive a realize/aggregate round trip.

    This is the state space the synthetic generator samples from; combinations
    that raw signals cannot express (e.g. an indoor semantic place together
    with location_type=outdoor) are filtered out.
    """
    realizer = _StateRealizer(vocab, cfg)
    states = []
    for state in _enumerate_states(vocab):
        try:
            record = realizer.realize(state, 0.0)
        except ValueError:
            continue
        if aggregate_context([record], cfg, vocab) == state:
            states.append(state)
    for dim in vocab.dimensions:
        if not any(s.observes(dim.name) for s in states):
            raise ValueError(f"no realizable context state observes dimension {dim.name!r}; "
                             "raw signals cannot express it")
    return states


def _signature_templates(rng: np.random.Generator, n_activities: int, channels: int,
                         confusability: float) -> dict[str, np.ndarray]:
    """Per-activity sinusoid parameters; consecutive pairs share a base template."""
    n_pairs = (n_activities + 1) // 2
    base_freq = rng.uniform(0.8, 6.0, size=(n_pairs, channels))
    base_amp = rng.uniform(0.6, 1.6, size=(n_pairs, channels))
    base_offset = rng.uniform(-1.0, 1.0, size=(n_pairs, channels))
    sep = 1.0 - confusability
    freq = np.empty((n_activities, channels))
    amp = np.empty((n_activities, channels))
    offset = np.empty((n_activities, channels))
    for i in range(n_activities):
        p = i // 2
        freq[i] = np.clip(base_freq[p] + sep * rng.uniform(-2.0, 2.0, channels), 0.3, None)
        amp[i] = base_amp[p] * (1.0 + sep * rng.uniform(-0.5, 0.5, channels))
        offset[i] = base_offset[p] + sep * rng.uniform(-0.8, 0.8, channels)
    return {"freq": freq, "amp": amp, "offset": offset}


def _window_signal(templates, activity: int, rng: np.random.Generator, channels: int,
                   samples: int, rate: float, noise: float) -> np.ndarray:
    t = np.arange(samples) / rate
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(channels, 2))
    freq = templates["freq"][activity][:, None]
    amp = templates["amp"][activity][:, None]
    offset = templates["offset"][activity][:, None]
    signal = (offset
              + amp * np.sin(2.0 * np.pi * freq * t[None, :] + phase[:, :1])
              + 0.4 * amp * np.sin(4.0 * np.pi * freq * t[None, :] + phase[:, 1:]))
    return signal + rng.normal(scale=0.6 * noise, size=(channels, samples))


def generate_synthetic(model: KnowledgeModel, cfg: SyntheticConfig,
                       disc: DiscretizationConfig | None = None) -> list[UserDataset]:
    """Seeded synthetic per-user datasets driven by a knowledge model.

    Each window draws an activity uniformly; its context state is drawn
    consistent with the activity's rules with probability 1 - violation_rate
    and uniformly from the full realizable state space otherwise. Raw context
    records are emitted such that aggregation reproduces the drawn state, and
    inertial channels follow the activity's signature templates plus noise.
    """
    disc = disc or DiscretizationConfig()
    states = enumerate_realizable_states(model.vocabulary, disc)
    realizer = _StateRealizer(model.vocabulary, disc)
    k = model.num_activities

    consistency = np.zeros((len(states), k), dtype=bool)
    for s, state in enumerate(states):
        consistent = model.consistent_activities(state)
        consistency[s] = [a in consistent for a in model.activity_names]
    for i, name in enumerate(model.activity_names):
        if not consistency[:, i].any():
            raise ValueError(f"activity {name!r} has no realizable consistent context state")

    unobserved_counts = np.array([
        sum(1 for d in model.vocabulary.dimensions if not st.observes(d.name))
        for st in states], dtype=np.float64)
    bias_weights = cfg.unobserved_bias ** unobserved_counts
    consistent_probs = []
    for i in range(k):
        w = np.where(consistency[:, i], bias_weights, 0.0)
        consistent_probs.append(w / w.sum())

    root = np.random.SeedSequence(cfg.seed)
    template_seed, *user_seeds = root.spawn(cfg.users + 1)
    template_rng = np.random.default_rng(template_seed)
    phone_templates = _signature_templates(template_rng, k, cfg.phone_channels,
                                           cfg.confusability)
    watch_templates = _signature_templates(template_rng, k, cfg.watch_channels,
                                           cfg.confusability)

    z = cfg.window_seconds
    n_phone = int(round(z * cfg.phone_rate))
    n_watch = int(round(z * cfg.watch_rate))
    datasets = []
    for u in range(cfg.users):
        rng = np.random.default_rng(user_seeds[u])
        user = f"user{u:02d}"
        phone = np.empty((cfg.phone_channels, n_phone * cfg.windows_per_user))
        watch = np.empty((cfg.watch_channels, n_watch * cfg.windows_per_user))
        records: list[RawContextRecord] = []
        annotations: list[Annotation] = []
        for w in range(cfg.windows_per_user):
            activity = int(rng.integers(k))
            if rng.random() < cfg.violation_rate:
                state = states[int(rng.integers(len(states)))]
            else:
                state = states[int(rng.choice(len(states), p=consistent_probs[activity]))]
            t_start = w * z
            records.append(realizer.realize(state, t_start + z / 2.0))
            annotations.append(Annotation(user, model.activity_names[activity],
                                          t_start, t_start + z))
            phone[:, w * n_phone:(w + 1) * n_phone] = _window_signal(
                phone_templates, activity, rng, cfg.phone_channels, n_phone,
                cfg.phone_rate, cfg.noise)
            watch[:, w * n_watch:(w + 1) * n_watch] = _window_signal(
                watch_templates, activity, rng, cfg.watch_channels, n_watch,
                cfg.watch_rate, cfg.noise)
        phone_names = tuple(f"p{c}" for c in range(cfg.phone_channels))
        watch_names = tuple(f"w{c}" for c in range(cfg.watch_channels))
        datasets.append(UserDataset(
            user=user,
            phone=SensorStream(cfg.phone_rate, phone_names, phone),
            watch=SensorStream(cfg.watch_rate, watch_names, watch),
            context_records=records,
            annotations=annotations))
    return datasets


# ---------------------------------------------------------------------------
# Stratified downsampling
# ---------------------------------------------------------------------------

def downsample_training(dataset: EncodedDataset, fraction: float,
                        seed: int) -> EncodedDataset:
    """Per-class stratified subsample keeping ceil(fraction * count) of each class.

    Every class present in the input stays present (the ceiling keeps at least
    one sample). Deterministic for a given seed; original sample order is
    preserved.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return dataset
    rng = np.random.default_rng(seed)
    keep: list[np.ndarray] = []
    for label in np.unique(dataset.labels):
        idx = np.flatnonzero(dataset.labels == label)
        n = max(1, math.ceil(fraction * idx.size))
        keep.append(rng.choice(idx, size=n, replace=False))
    order = np.sort(np.concatenate(keep))
    return dataset.subset(order)


# ---------------------------------------------------------------------------
# Dataset directory IO
# ---------------------------------------------------------------------------

_ANNOTATIONS_HEADER = "# nesyhar annotations v1"
_CONTEXT_HEADER = "# nesyhar context-records v1"
_STREAM_HEADER = "# nesyhar stream v1"


def _fmt(x: float) -> str:
    return repr(float(x))


def write_dataset(datasets: Sequence[UserDataset], directory: str | Path) -> Path:
    """Write datasets in the documented directory layout; returns the directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    with open(directory / "annotations.csv", "w", newline="") as f:
        f.write(_ANNOTATIONS_HEADER + "\n")
        writer = csv.writer(f)
        writer.writerow(["user", "activity", "t_start", "t_end"])
        for ds in datasets:
            for a in ds.annotations:
                writer.writerow([a.user, a.activity, _fmt(a.t_start), _fmt(a.t_end)])

    with open(directory / "context.csv", "w", newline="") as f:
        f.write(_CONTEXT_HEADER + "\n")
        writer = csv.writer(f)
        writer.writerow(["user", "t", "speed", "pressure_delta", "semantic_place",
                         "transport_route_nearby", "weather"])
        for ds in datasets:
            for r in ds.context_records:
                writer.writerow([
                    ds.user, _fmt(r.timestamp),
                    "" if r.speed is None else _fmt(r.speed),
                    "" if r.pressure_delta is None else _fmt(r.pressure_delta),
                    "" if r.semantic_place is None else r.semantic_place,
                    "" if r.transport_route_nearby is None
                    else str(r.transport_route_nearby).lower(),
                    "" if r.weather is None else r.weather,
                ])

    for ds in datasets:
        for kind, stream in (("phone", ds.phone), ("watch", ds.watch)):
            with open(directory / f"{kind}_{ds.user}.csv", "w", newline="") as f:
                f.write(f"{_STREAM_HEADER} rate={_fmt(stream.rate)}\n")
                writer = csv.writer(f)
                writer.writerow(["t"] + list(stream.channels))
                for i in range(stream.values.shape[1]):
                    writer.writerow([_fmt(i / stream.rate)]
                                    + [_fmt(v) for v in stream.values[:, i]])
    return directory


def _check_header(line: str, expected: str, path: Path) -> str:
    if not line.startswith(expected):
        raise ValueError(f"{path}: unsupported file header {line.strip()!r}")
    return line


def load_dataset(directory: str | Path) -> list[UserDataset]:
    """Load a dataset directory written by :func:`write_dataset`."""
    directory = Path(directory)
    annotations: dict[str, list[Annotation]] = {}
    path = directory / "annotations.csv"
    with open(path, newline="") as f:
        _check_header(f.readline(), _ANNOTATIONS_HEADER, path)
        for row in csv.DictReader(f):
            a = Annotation(row["user"], row["activity"],
                           float(row["t_start"]), float(row["t_end"]))
            annotations.setdefault(a.user, []).append(a)

    records: dict[str, list[RawContextRecord]] = {}
    path = directory / "context.csv"
    with open(path, newline="") as f:
        _check_header(f.readline(), _CONTEXT_HEADER, path)
        for row in csv.DictReader(f):
            records.setdefault(row["user"], []).append(RawContextRecord(
                timestamp=float(row["t"]),
                speed=float(row["speed"]) if row["speed"] else None,
                pressure_delta=float(row["pressure_delta"]) if row["pressure_delta"] else None,
                semantic_place=row["semantic_place"] or None,
                transport_route_nearby=(row["transport_route_nearby"] == "true"
                                        if row["transport_route_nearby"] else None),
                weather=row["weather"] or None,
            ))

    def load_stream(path: Path) -> SensorStream:
        with open(path, newline="") as f:
            header = _check_header(f.readline(), _STREAM_HEADER, path)
            rate = float(header.rsplit("rate=", 1)[1])
            reader = csv.reader(f)
            columns = next(reader)
            channels = tuple(columns[1:])
            values = [[float(v) for v in row[1:]] for row in reader]
        try:
            return SensorStream(rate, channels, np.array(values).T
                                if values else np.empty((len(channels), 0)))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    users = sorted(p.name[len("phone_"):-len(".csv")]
                   for p in directory.glob("phone_*.csv"))
    if not users:
        raise ValueError(f"{directory}: no phone_<user>.csv stream files found")
    datasets = []
    for user in users:
        datasets.append(UserDataset(
            user=user,
            phone=load_stream(directory / f"phone_{user}.csv"),
            watch=load_stream(directory / f"watch_{user}.csv"),
            context_records=records.get(user, []),
            annotations=annotations.get(user, []),
        ))
    return datasets
