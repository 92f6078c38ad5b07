"""The per-window segmentation and encoding, the test oracle for nesyhar.data.

``reference_segment`` visits one window at a time: it scans every annotation
for the largest overlap (strictly larger replaces, so the earlier annotation
wins a tie) and every context record for ``t_start <= t < t_end``, and copies
the window's samples out of each stream. ``reference_encode`` turns one window
into a label index and a context vector. ``segment`` plus ``encode_windows``
must agree with the two on any recording, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nesyhar.context import aggregate_context


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
