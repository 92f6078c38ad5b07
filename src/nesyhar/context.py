"""Context aggregation: raw per-window signals to a discrete context state.

Raw context records carry provider-style measurements (GPS speed, barometric
pressure change, semantic place strings, transit-route proximity, weather).
:func:`aggregate_context` turns all records of one window into the predicates
of the window's :class:`~nesyhar.knowledge.ContextState`, emitting at most one
value per exclusive dimension and nothing when evidence is absent. Aggregation
uses order-free statistics only, so record order never matters.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .knowledge import ContextPredicate, ContextState, ContextVocabulary

log = logging.getLogger(__name__)

__all__ = ["RawContextRecord", "DiscretizationConfig", "aggregate_context",
           "SPEED", "LOCATION_TYPE", "SEMANTIC_PLACE", "TRANSPORT_ROUTE",
           "HEIGHT_VARIATION", "WEATHER"]

# Dimension names the aggregator knows how to populate.
SPEED = "speed"
LOCATION_TYPE = "location_type"
SEMANTIC_PLACE = "semantic_place"
TRANSPORT_ROUTE = "transport_route"
HEIGHT_VARIATION = "height_variation"
WEATHER = "weather"

SPEED_CLASSES = ("null", "low", "medium", "high")

_DEFAULT_PLACE_MAP = {
    "home": "home", "house": "home", "apartment": "home",
    "office": "office", "workplace": "office",
    "gym": "gym", "fitness center": "gym",
    "bar": "bar", "restaurant": "bar", "cafe": "bar",
    "park": "park", "public park": "park",
    "street": "street", "road": "street", "sidewalk": "street",
    "transit stop": "transit_stop", "bus stop": "transit_stop",
    "train station": "transit_stop",
}

_DEFAULT_PLACE_LOCATION = {
    "home": "indoor", "office": "indoor", "gym": "indoor", "bar": "indoor",
    "park": "outdoor", "street": "outdoor", "transit_stop": "outdoor",
}

_DEFAULT_WEATHER_MAP = {
    "clear": "sunny", "sunny": "sunny", "clouds": "cloudy", "cloudy": "cloudy",
    "rain": "rainy", "rainy": "rainy", "drizzle": "rainy",
    "snow": "snowy", "snowy": "snowy",
}


@dataclass(frozen=True)
class RawContextRecord:
    """One timestamped bundle of raw context signals; absent fields stay None.
    A present speed is finite and >= 0, a present pressure_delta finite."""

    timestamp: float
    speed: float | None = None
    pressure_delta: float | None = None
    semantic_place: str | None = None
    transport_route_nearby: bool | None = None
    weather: str | None = None

    def __post_init__(self):
        for name in ("speed", "pressure_delta"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.speed is not None and self.speed < 0:
            raise ValueError(f"speed must be >= 0, got {self.speed}")


@dataclass(frozen=True)
class DiscretizationConfig:
    """Thresholds and provider-string mappings used by :func:`aggregate_context`.

    speed_thresholds are the null/low, low/medium and medium/high boundaries in
    m/s (finite, above 0 and increasing, so each class is reachable);
    height_epsilon is the finite barometric dead band in hPa below which a
    window counts as height_variation=null.
    """

    speed_thresholds: tuple[float, ...] = (0.1, 2.0, 7.0)
    height_epsilon: float = 0.05
    place_map: Mapping[str, str] = field(default_factory=lambda: dict(_DEFAULT_PLACE_MAP))
    place_location: Mapping[str, str] = field(
        default_factory=lambda: dict(_DEFAULT_PLACE_LOCATION))
    weather_map: Mapping[str, str] = field(default_factory=lambda: dict(_DEFAULT_WEATHER_MAP))

    def __post_init__(self):
        # written as ranges, so that a NaN, which fails every comparison, is rejected
        t = tuple(self.speed_thresholds)
        if len(t) != 3 or not (0 < t[0] < t[1] < t[2] < math.inf):
            raise ValueError(f"speed thresholds must be finite, positive and strictly "
                             f"increasing, got {t}")
        if not 0 < self.height_epsilon < math.inf:
            raise ValueError(f"height_epsilon must be positive and finite, got "
                             f"{self.height_epsilon}")

    def speed_class(self, speed: float) -> str:
        for boundary, name in zip(self.speed_thresholds, SPEED_CLASSES):
            if speed < boundary:
                return name
        return SPEED_CLASSES[-1]


def _mapped_mode(texts: Iterable[str | None], mapping: Mapping[str, str],
                 what: str) -> str | None:
    """Most frequent mapped value of the provider strings present, ties broken
    lexicographically; unmapped strings are logged and skipped."""
    counts = Counter()
    for text in texts:
        if text is not None:
            value = mapping.get(text.strip().lower())
            if value is None:
                log.warning("unmapped %s %r; ignoring record", what, text)
            else:
                counts[value] += 1
    best = max(counts.values(), default=0)
    return min((v for v, c in counts.items() if c == best), default=None)


def _sum(values: Sequence[float], divisor: int = 1) -> float:
    """The exact sum of ``values`` over ``divisor``, rounded to a float (±inf
    beyond the float range)."""
    try:
        return math.fsum(values) / divisor
    except OverflowError:  # scaled by 2**-k, which is exact, the sum fits in a float
        k = len(values).bit_length() + 1
        return math.fsum(math.ldexp(v, -k) for v in values) / divisor * 2.0 ** k


def aggregate_context(records: Sequence[RawContextRecord], cfg: DiscretizationConfig,
                      vocab: ContextVocabulary) -> ContextState:
    """Derive the discrete context state of one window from its raw records.

    Only dimensions declared in ``vocab`` are emitted, each at most once, so
    the state always encodes. Provider strings without a mapping (or mapping
    to an undeclared value) are logged and skipped, never a hard failure.
    """
    preds: list[ContextPredicate] = []

    def emit(dimension: str, value: str) -> None:
        if not vocab.has_dimension(dimension):
            return
        pred = ContextPredicate(dimension, value)
        if pred not in vocab:
            log.warning("derived %s=%s is not in the context vocabulary; leaving "
                        "%s unobserved", dimension, value, dimension)
            return
        preds.append(pred)

    speeds = [r.speed for r in records if r.speed is not None]
    if speeds:
        emit(SPEED, cfg.speed_class(_sum(speeds, len(speeds))))

    deltas = [r.pressure_delta for r in records if r.pressure_delta is not None]
    if deltas:
        total = _sum(deltas)
        if abs(total) <= cfg.height_epsilon:
            emit(HEIGHT_VARIATION, "null")
        else:
            # Barometric pressure drops as elevation rises.
            emit(HEIGHT_VARIATION, "positive" if total < 0 else "negative")

    place = _mapped_mode((r.semantic_place for r in records), cfg.place_map, "semantic place")
    if place is not None:
        emit(SEMANTIC_PLACE, place)
        location = cfg.place_location.get(place)
        if location is None:
            log.warning("no indoor/outdoor mapping for place %r", place)
        else:
            emit(LOCATION_TYPE, location)

    routes = [r.transport_route_nearby for r in records if r.transport_route_nearby is not None]
    if routes:
        emit(TRANSPORT_ROUTE, "true" if sum(routes) * 2 >= len(routes) else "false")

    weather = _mapped_mode((r.weather for r in records), cfg.weather_map, "weather string")
    if weather is not None:
        emit(WEATHER, weather)
    return ContextState(frozenset(preds))
