"""Dataset model, windowing, encoding, and a synthetic generator.

Per-user raw data consists of two inertial streams (phone and watch), a list of
raw context records, and activity annotations. :func:`segment` cuts the streams
into fixed-length non-overlapping windows, labels each window by the annotation
with the largest temporal overlap, and aggregates raw context records into a
discrete context state. It returns one columnar :class:`Windows` record per
user, in time linear in the windows, annotations and records: the samples are
one reshape of each stream, and annotations and records find their windows by
binary search on the window bounds. :func:`encode_windows` turns that record
into the :class:`EncodedDataset` consumed by training and evaluation.

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
import warnings
from dataclasses import astuple, dataclass, fields, replace
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
    SPEED_CLASSES,
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
    "Windows",
    "EncodedDataset",
    "segment",
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
class Windows:
    """One user's windows in time order, column by column (entry i is window i)."""

    user: str
    t_start: np.ndarray  # (n,)
    t_end: np.ndarray    # (n,)
    phone: np.ndarray    # (n, channels, samples)
    watch: np.ndarray
    states: tuple[ContextState, ...]
    labels: tuple[str | None, ...]

    def __len__(self) -> int:
        return len(self.labels)


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

    def sample(self, i: int) -> "EncodedDataset":
        """Window i as a one-window dataset."""
        return self.subset([i])

    def subset(self, indices) -> "EncodedDataset":
        indices = np.asarray(indices, dtype=np.intp)
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
            vocab: ContextVocabulary, keep_unlabeled: bool = False) -> Windows:
    """Cut a user's streams into consecutive non-overlapping z-second windows.

    Each window is labeled by the annotation with the largest temporal overlap
    (ties to the earlier annotation); windows without any overlapping
    annotation are dropped unless keep_unlabeled is set. Windows not fully
    covered by both streams are dropped with a warning. A context record
    belongs to the window with t_start <= t < t_end. Every step is a sweep
    over the annotations, the records or the windows, never a product of two.
    """
    if not 0 < z < math.inf:
        raise ValueError("window length must be positive and finite")
    streams = [(s.values, int(round(z * s.rate))) for s in (ds.phone, ds.watch)]
    count = int(max(ds.phone.duration, ds.watch.duration) // z)
    # the covered windows are a prefix; windows of 0 samples never run out of stream
    covered = min([count] + [v.shape[1] // n for v, n in streams if n])
    if covered < count:
        log.warning("user %s: %d window(s) in [%g, %g) not covered by both streams; dropped",
                    ds.user, count - covered, covered * z, count * z)
    bounds = np.arange(covered + 1) * z
    starts, ends = bounds[:-1], bounds[1:]

    best, label_of = np.zeros(covered), np.full(covered, -1)
    annotations = sorted(ds.annotations, key=lambda a: (a.t_start, a.t_end))
    for i, a in enumerate(annotations):
        lo = max(int(np.searchsorted(bounds, a.t_start, side="right")) - 1, 0)
        hi = min(int(np.searchsorted(bounds, a.t_end, side="left")), covered)
        overlap = np.minimum(ends[lo:hi], a.t_end) - np.maximum(starts[lo:hi], a.t_start)
        better = overlap > best[lo:hi]
        best[lo:hi][better] = overlap[better]
        label_of[lo:hi][better] = i
    kept = np.arange(covered) if keep_unlabeled else np.flatnonzero(label_of >= 0)

    times = np.array([r.timestamp for r in ds.context_records], dtype=np.float64)
    window_of = np.searchsorted(bounds, times, side="right") - 1
    inside = np.flatnonzero((window_of >= 0) & (window_of < covered) & ~np.isnan(times))
    inside = inside[np.argsort(window_of[inside], kind="stable")]
    first = np.searchsorted(window_of[inside], np.arange(covered + 1))
    records = ds.context_records
    states = tuple(aggregate_context([records[r] for r in inside[first[w]:first[w + 1]]], cfg,
                                     vocab) for w in kept.tolist())

    phone, watch = (np.ascontiguousarray(
        v[:, :covered * n].reshape(v.shape[0], covered, n).transpose(1, 0, 2)[kept])
        for v, n in streams)
    return Windows(ds.user, starts[kept], ends[kept], phone, watch, states,
                   tuple(None if label_of[w] < 0 else annotations[label_of[w]].activity
                         for w in kept.tolist()))


def encode_windows(windows: Windows, vocab: ContextVocabulary,
                   activities: Sequence[str]) -> EncodedDataset:
    """Turn one user's windows into network-ready tensors plus label indices."""
    if not len(windows):
        raise ValueError("no windows to encode")
    index = {None: -1, **{name: i for i, name in enumerate(activities)}}
    try:
        labels = np.array([index[label] for label in windows.labels], dtype=np.int64)
    except KeyError as exc:
        raise KeyError(f"label {exc.args[0]!r} not in the activity vocabulary") from None
    return EncodedDataset(
        phone=windows.phone,
        watch=windows.watch,
        context=vocab.encode_states(windows.states),
        labels=labels,
        users=(windows.user,) * len(windows),
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


def _raw_candidates(vocab: ContextVocabulary, cfg: DiscretizationConfig) -> list[list]:
    """Per field of :class:`RawContextRecord` after the timestamp, the raw value of
    each declared predicate that field can yield, in declaration order."""
    def declared(dimension: str, raw: dict) -> list:
        values = vocab.dimension(dimension).values if vocab.has_dimension(dimension) else ()
        return [raw[v] for v in values if v in raw]

    def first_key(mapping) -> dict:
        # for each value, the first key in sorted order that maps to it (written last, so it wins)
        return {v: k for k, v in sorted(mapping.items(), reverse=True)}

    t, eps = cfg.speed_thresholds, cfg.height_epsilon
    speeds = (t[0] / 2.0, (t[0] + t[1]) / 2.0, (t[1] + t[2]) / 2.0, t[2] * 1.5)
    places, place_dimension = first_key(cfg.place_map), SEMANTIC_PLACE
    if not vocab.has_dimension(SEMANTIC_PLACE):  # a location comes only from a place
        at = first_key({p: loc for p, loc in cfg.place_location.items() if p in places})
        places = {location: places[place] for location, place in at.items()}
        place_dimension = LOCATION_TYPE
    return [declared(SPEED, dict(zip(SPEED_CLASSES, speeds))),
            declared(HEIGHT_VARIATION, {"null": 0.0, "positive": -4.0 * eps,
                                        "negative": 4.0 * eps}),
            declared(place_dimension, places),
            declared(TRANSPORT_ROUTE, {"true": True, "false": False}),
            declared(WEATHER, first_key(cfg.weather_map))]


def _realizable(vocab: ContextVocabulary,
                cfg: DiscretizationConfig) -> dict[ContextState, RawContextRecord]:
    """Each state that aggregating one record of candidate raw values yields, with
    the first such record, in state-space order: dimensions in declaration order,
    within each unobserved first, then the values in declaration order.

    Each field of a record feeds its own dimensions, so a record's state is
    the union of what its fields yield alone, and the first record of a state
    (in the order of the product of the fields' candidates, None first) holds
    each field's first value with that outcome.
    """
    def rank(observed: frozenset) -> list[int]:
        index = {p.dimension: vocab.index(p) for p in observed}
        return [index.get(dim.name, -1) for dim in vocab.dimensions]

    names = [f.name for f in fields(RawContextRecord)][1:]
    per_field = []      # per field: each outcome's rank, predicates and first value
    for name, candidates in zip(names, _raw_candidates(vocab, cfg)):
        first: dict[frozenset, object] = {}
        for value in (None, *candidates):
            state = aggregate_context([RawContextRecord(0.0, **{name: value})], cfg, vocab)
            first.setdefault(state.observed, value)
        per_field.append([(rank(observed), observed, value) for observed, value in first.items()])
    observable = {p.dimension for outcomes in per_field for _, observed, _ in outcomes
                  for p in observed}
    for dim in vocab.dimensions:
        if dim.name not in observable:
            raise ValueError(f"no realizable context state observes dimension {dim.name!r}; "
                             "raw signals cannot express it")

    found = []
    for combination in itertools.product(*per_field):
        ranks, observed, values = zip(*combination)
        found.append(([max(r) for r in zip(*ranks)], ContextState(frozenset().union(*observed)),
                      RawContextRecord(0.0, *values)))
    found.sort(key=lambda item: item[0])
    return {state: record for _, state, record in found}


def enumerate_realizable_states(vocab: ContextVocabulary,
                                cfg: DiscretizationConfig) -> list[ContextState]:
    """All context states that aggregation of representative raw values yields.

    This is the state space the synthetic generator samples from. Each field of
    a raw record takes, besides None, one representative value per declared
    predicate it can produce (a speed class midpoint, a provider string, ...);
    what :func:`aggregate_context` makes of each combination is realizable, so
    combinations raw signals cannot express (e.g. an indoor semantic place
    together with location_type=outdoor, or a declared value no threshold
    derives) never appear. Raises ValueError when no state observes a declared
    dimension.
    """
    return list(_realizable(vocab, cfg))


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


def _render(templates, activities: np.ndarray, phase: np.ndarray, noise: np.ndarray,
            rate: float, level: float) -> np.ndarray:
    """The (channels, windows * samples) stream of windows with the given activities,
    phases (windows, channels, 2) and standard normal draws (windows, channels,
    samples, scaled in place), each element computed in the order one window's
    signature plus ``normal(scale=0.6 * level)`` noise would be."""
    t = np.arange(noise.shape[2]) / rate
    freq, amp, offset = (templates[key][activities].T[:, :, None]
                         for key in ("freq", "amp", "offset"))
    phase = phase.transpose(1, 0, 2)
    signal = np.multiply(2.0 * np.pi * freq, t, out=np.empty(freq.shape[:2] + t.shape))
    np.sin(np.add(signal, phase[:, :, :1], out=signal), out=signal)
    np.add(offset, np.multiply(amp, signal, out=signal), out=signal)
    harmonic = np.multiply(4.0 * np.pi * freq, t, out=np.empty_like(signal))
    np.sin(np.add(harmonic, phase[:, :, 1:], out=harmonic), out=harmonic)
    signal += np.multiply(0.4 * amp, harmonic, out=harmonic)
    noise *= 0.6 * level  # normal(scale=s) is s * standard_normal() when loc is 0
    signal += noise.transpose(1, 0, 2)
    channels, windows, samples = signal.shape
    return signal.reshape(channels, windows * samples)


def generate_synthetic(model: KnowledgeModel, cfg: SyntheticConfig,
                       disc: DiscretizationConfig | None = None) -> list[UserDataset]:
    """Seeded synthetic per-user datasets driven by a knowledge model.

    Each window draws an activity uniformly; its context state is drawn
    consistent with the activity's rules with probability 1 - violation_rate
    and uniformly from the full realizable state space otherwise (see
    :func:`enumerate_realizable_states`). The window's raw context record is
    the one the state was found from, so aggregation reproduces the drawn
    state, and inertial channels follow the activity's signature templates
    plus noise. The per-window loop only draws random numbers, in window
    order; the streams are rendered afterwards, for all windows at once.
    """
    disc = disc or DiscretizationConfig()
    vocab = model.vocabulary
    realizable = _realizable(vocab, disc)
    states, representatives = list(realizable), list(realizable.values())
    k = model.num_activities

    rows = vocab.encode_states(states)
    consistency = model.consistent_activities(rows)
    for i, name in enumerate(model.activity_names):
        if not consistency[:, i].any():
            raise ValueError(f"activity {name!r} has no realizable consistent context state")

    # per state and dimension, the number of values observed
    observed = rows @ (vocab.dimension_of[:, None] == np.arange(len(vocab.dimensions)))
    bias_weights = cfg.unobserved_bias ** (observed == 0).sum(axis=1).astype(np.float64)
    cdfs = []
    for i in range(k):
        w = np.where(consistency[:, i], bias_weights, 0.0)
        # numpy's own Generator.choice(p=...) algorithm, with the cdf computed once:
        # cdf = p.cumsum(); cdf /= cdf[-1]; one random() draw searched side="right"
        cdf = (w / w.sum()).cumsum()
        cdfs.append(cdf / cdf[-1])

    root = np.random.SeedSequence(cfg.seed)
    template_seed, *user_seeds = root.spawn(cfg.users + 1)
    template_rng = np.random.default_rng(template_seed)
    phone_templates = _signature_templates(template_rng, k, cfg.phone_channels,
                                           cfg.confusability)
    watch_templates = _signature_templates(template_rng, k, cfg.watch_channels,
                                           cfg.confusability)

    z, n = cfg.window_seconds, cfg.windows_per_user
    n_phone = int(round(z * cfg.phone_rate))
    n_watch = int(round(z * cfg.watch_rate))
    datasets = []
    for u in range(cfg.users):
        rng = np.random.default_rng(user_seeds[u])
        user = f"user{u:02d}"
        activities, drawn = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
        phone_phase, watch_phase = (np.empty((n, c, 2))
                                    for c in (cfg.phone_channels, cfg.watch_channels))
        phone_noise = np.empty((n, cfg.phone_channels, n_phone))
        watch_noise = np.empty((n, cfg.watch_channels, n_watch))
        for w in range(n):
            activity = activities[w] = rng.integers(k)
            if rng.random() < cfg.violation_rate:
                drawn[w] = rng.integers(len(states))
            else:
                drawn[w] = cdfs[activity].searchsorted(rng.random(), side="right")
            for phase, noise in ((phone_phase, phone_noise), (watch_phase, watch_noise)):
                phase[w] = rng.uniform(0.0, 2.0 * np.pi, size=phase.shape[1:])
                rng.standard_normal(out=noise[w])
        phone = _render(phone_templates, activities, phone_phase, phone_noise,
                        cfg.phone_rate, cfg.noise)
        del phone_noise  # freed before the watch stream is rendered
        watch = _render(watch_templates, activities, watch_phase, watch_noise,
                        cfg.watch_rate, cfg.noise)
        phone_names = tuple(f"p{c}" for c in range(cfg.phone_channels))
        watch_names = tuple(f"w{c}" for c in range(cfg.watch_channels))
        datasets.append(UserDataset(
            user=user,
            phone=SensorStream(cfg.phone_rate, phone_names, phone),
            watch=SensorStream(cfg.watch_rate, watch_names, watch),
            context_records=[replace(representatives[d], timestamp=w * z + z / 2.0)
                             for w, d in enumerate(drawn.tolist())],
            annotations=[Annotation(user, model.activity_names[a], w * z, w * z + z)
                         for w, a in enumerate(activities.tolist())]))
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


def _text(value) -> str:
    """One CSV field: empty for None, true/false for a flag, repr for a number
    (which loads back as the same float)."""
    if value is None or isinstance(value, str):
        return value or ""
    return str(value).lower() if isinstance(value, bool) else repr(float(value))


def _write_csv(path: Path, header: str, columns: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        writer = csv.writer(f)
        writer.writerow(columns)
        writer.writerows(rows)


def write_dataset(datasets: Sequence[UserDataset], directory: str | Path) -> Path:
    """Write datasets in the documented directory layout; returns the directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_csv(directory / "annotations.csv", _ANNOTATIONS_HEADER,
               ["user", "activity", "t_start", "t_end"],
               (list(map(_text, astuple(a))) for ds in datasets for a in ds.annotations))
    _write_csv(directory / "context.csv", _CONTEXT_HEADER,
               ["user", "t", "speed", "pressure_delta", "semantic_place",
                "transport_route_nearby", "weather"],
               ([ds.user, *map(_text, astuple(r))]
                for ds in datasets for r in ds.context_records))
    for ds in datasets:
        for kind, stream in (("phone", ds.phone), ("watch", ds.watch)):
            # str(float) is repr(float): the same text as _text, without a call per value
            times = np.arange(stream.values.shape[1]) / stream.rate
            _write_csv(directory / f"{kind}_{ds.user}.csv",
                       f"{_STREAM_HEADER} rate={float(stream.rate)!r}", ["t", *stream.channels],
                       np.column_stack([times, stream.values.T]).tolist())
    return directory


def _check_header(line: str, expected: str, path: Path) -> str:
    if not line.startswith(expected):
        raise ValueError(f"{path}: unsupported file header {line.strip()!r}")
    return line


def _read_rows(path: Path, header: str, parse) -> dict[str, list]:
    """``parse`` of every row of a versioned CSV file (a dict keyed by its
    column line), grouped by the row's user; a malformed row is a ValueError
    naming the file and line."""
    out: dict[str, list] = {}
    with open(path, newline="") as f:
        _check_header(f.readline(), header, path)
        reader = csv.DictReader(f)
        for row in reader:
            try:
                if None in row or None in row.values():
                    raise ValueError(f"expected {len(reader.fieldnames)} fields")
                out.setdefault(row["user"], []).append(parse(row))
            except (KeyError, ValueError) as exc:
                # + 1 for the header line the reader never saw
                raise ValueError(f"{path}: line {reader.line_num + 1}: {exc}") from None
    return out


def _context_record(row: dict) -> RawContextRecord:
    speed, delta, route = row["speed"], row["pressure_delta"], row["transport_route_nearby"]
    return RawContextRecord(float(row["t"]), float(speed) if speed else None,
                            float(delta) if delta else None, row["semantic_place"] or None,
                            route == "true" if route else None, row["weather"] or None)


def _load_stream(path: Path) -> SensorStream:
    with open(path, newline="") as f:
        header = _check_header(f.readline(), _STREAM_HEADER, path)
        try:
            rate = float(header.rsplit("rate=", 1)[-1])
            channels = tuple(next(csv.reader(f), ["t"])[1:])
            with warnings.catch_warnings():  # a stream with no samples is valid
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(f, delimiter=",", ndmin=2, comments=None)
            return SensorStream(rate, channels, rows[:, 1:].T if rows.size
                                else np.empty((len(channels), 0)))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def load_dataset(directory: str | Path) -> list[UserDataset]:
    """Load a dataset directory written by :func:`write_dataset`."""
    directory = Path(directory)
    annotations = _read_rows(directory / "annotations.csv", _ANNOTATIONS_HEADER,
                             lambda row: Annotation(row["user"], row["activity"],
                                                    float(row["t_start"]), float(row["t_end"])))
    records = _read_rows(directory / "context.csv", _CONTEXT_HEADER, _context_record)
    users = sorted(p.stem[len("phone_"):] for p in directory.glob("phone_*.csv"))
    if not users:
        raise ValueError(f"{directory}: no phone_<user>.csv stream files found")
    return [UserDataset(user, _load_stream(directory / f"phone_{user}.csv"),
                        _load_stream(directory / f"watch_{user}.csv"),
                        records.get(user, []), annotations.get(user, []))
            for user in users]
