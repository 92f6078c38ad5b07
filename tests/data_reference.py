"""The per-window segmentation and encoding, the test oracle for nesyhar.data.

``reference_segment`` visits one window at a time: it scans every annotation
for the largest overlap (strictly larger replaces, so the earlier annotation
wins a tie) and every context record for ``t_start <= t < t_end``, and copies
the window's samples out of each stream. ``reference_encode`` turns one window
into a label index and a context vector. ``segment`` plus ``encode_windows``
must agree with the two on any recording, bit for bit.

``reference_generate_synthetic`` renders one window at a time, in the loop
that draws its random numbers; ``generate_synthetic`` must return the same
streams, records and annotations, bit for bit. ``reference_realizable``
aggregates every record of the product of the fields' candidate values;
``_realizable`` must return the same states, in the same order, with the
same first records.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from nesyhar.context import DiscretizationConfig, RawContextRecord, aggregate_context
from nesyhar.data import (Annotation, SensorStream, UserDataset, _raw_candidates,
                          _signature_templates)


@dataclass(frozen=True)
class Window:
    user: str
    t_start: float
    t_end: float
    phone: np.ndarray
    watch: np.ndarray
    state: object
    label: str | None


def reference_segment(ds, z, cfg, vocab, keep_unlabeled=False) -> list[Window]:
    n_phone = int(round(z * ds.phone.rate))
    n_watch = int(round(z * ds.watch.rate))
    count = int(max(ds.phone.duration, ds.watch.duration) // z)
    annotations = sorted(ds.annotations, key=lambda a: (a.t_start, a.t_end))
    windows = []
    for w in range(count):
        t_start, t_end = w * z, (w + 1) * z
        if (w + 1) * n_phone > ds.phone.values.shape[1] or \
                (w + 1) * n_watch > ds.watch.values.shape[1]:
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
        windows.append(Window(
            ds.user, t_start, t_end,
            ds.phone.values[:, w * n_phone:(w + 1) * n_phone].copy(),
            ds.watch.values[:, w * n_watch:(w + 1) * n_watch].copy(),
            aggregate_context(records, cfg, vocab), label))
    return windows


def reference_encode(window: Window, vocab, activities) -> tuple[int | None, np.ndarray]:
    label = None
    if window.label is not None:
        try:
            label = list(activities).index(window.label)
        except ValueError:
            raise KeyError(f"label {window.label!r} not in the activity vocabulary") from None
    return label, vocab.encode_state(window.state)


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


def reference_realizable(vocab, cfg):
    """``_realizable`` by aggregating one record of every combination of
    candidate values (None first), keeping the first record of each state,
    then sorting the states."""
    found = {}
    for values in itertools.product(*([None, *c] for c in _raw_candidates(vocab, cfg))):
        record = RawContextRecord(0.0, *values)
        found.setdefault(aggregate_context([record], cfg, vocab), record)
    for dim in vocab.dimensions:
        if not any(s.observes(dim.name) for s in found):
            raise ValueError(f"no realizable context state observes dimension {dim.name!r}; "
                             "raw signals cannot express it")

    def rank(state):
        index = {p.dimension: vocab.index(p) for p in state.observed}
        return [index.get(dim.name, -1) for dim in vocab.dimensions]
    return dict(sorted(found.items(), key=lambda item: rank(item[0])))


def reference_generate_synthetic(model, cfg, disc=None):
    """``generate_synthetic`` one window at a time: each window is rendered
    right after its draws, and the consistent state comes from ``rng.choice``."""
    disc = disc or DiscretizationConfig()
    vocab = model.vocabulary
    realizable = reference_realizable(vocab, disc)
    states, representatives = list(realizable), list(realizable.values())
    k = model.num_activities

    rows = np.stack([vocab.encode_state(s) for s in states])
    consistency = model.consistent_activities(rows)
    for i, name in enumerate(model.activity_names):
        if not consistency[:, i].any():
            raise ValueError(f"activity {name!r} has no realizable consistent context state")

    # per state and dimension, the number of values observed
    observed = rows @ (vocab.dimension_of[:, None] == np.arange(len(vocab.dimensions)))
    bias_weights = cfg.unobserved_bias ** (observed == 0).sum(axis=1).astype(np.float64)
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
                drawn = int(rng.integers(len(states)))
            else:
                drawn = int(rng.choice(len(states), p=consistent_probs[activity]))
            t_start = w * z
            records.append(replace(representatives[drawn], timestamp=t_start + z / 2.0))
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
