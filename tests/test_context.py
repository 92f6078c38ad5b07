import logging
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nesyhar.context import DiscretizationConfig, RawContextRecord, aggregate_context
from nesyhar.knowledge import ContextDimension, ContextPredicate, ContextState, ContextVocabulary

VOCAB = ContextVocabulary((
    ContextDimension("speed", ("null", "low", "medium", "high")),
    ContextDimension("height_variation", ("negative", "null", "positive")),
    ContextDimension("semantic_place", ("home", "office", "gym", "bar", "park", "street",
                                        "transit_stop")),
    ContextDimension("location_type", ("indoor", "outdoor")),
    ContextDimension("transport_route", ("true", "false")),
    ContextDimension("weather", ("sunny", "cloudy", "rainy", "snowy")),
))

CFG = DiscretizationConfig()


def state_of(records):
    return aggregate_context(records, CFG, VOCAB)


def test_zero_speed_is_null_class():
    state = state_of([RawContextRecord(0.0, speed=0.0)])
    assert state.observed == {ContextPredicate("speed", "null")}


def test_speed_classes_from_window_mean():
    # mean of 1.0 and 3.0 is 2.0, on the low/medium boundary -> medium
    state = state_of([RawContextRecord(0.0, speed=1.0), RawContextRecord(1.0, speed=3.0)])
    assert state.dimension_values("speed") == {"medium"}
    state = state_of([RawContextRecord(0.0, speed=10.0)])
    assert state.dimension_values("speed") == {"high"}


def test_zero_pressure_delta_is_null_height():
    state = state_of([RawContextRecord(0.0, pressure_delta=0.0)])
    assert state.dimension_values("height_variation") == {"null"}


def test_pressure_drop_means_ascent():
    state = state_of([RawContextRecord(0.0, pressure_delta=-0.2)])
    assert state.dimension_values("height_variation") == {"positive"}
    state = state_of([RawContextRecord(0.0, pressure_delta=0.2)])
    assert state.dimension_values("height_variation") == {"negative"}


def test_public_park_maps_to_park_and_outdoor():
    state = state_of([RawContextRecord(0.0, semantic_place="public park")])
    assert state.observed == {ContextPredicate("semantic_place", "park"),
                              ContextPredicate("location_type", "outdoor")}


def test_unmapped_place_warns_and_stays_unobserved(caplog):
    with caplog.at_level(logging.WARNING, logger="nesyhar.context"):
        state = state_of([RawContextRecord(0.0, semantic_place="space station")])
    assert not state.observes("semantic_place")
    assert not state.observes("location_type")
    assert "space station" in caplog.text


def test_weather_and_route():
    state = state_of([RawContextRecord(0.0, weather="Rain", transport_route_nearby=True)])
    assert state.dimension_values("weather") == {"rainy"}
    assert state.dimension_values("transport_route") == {"true"}


def test_route_majority_vote():
    recs = [RawContextRecord(t, transport_route_nearby=b)
            for t, b in enumerate([True, False, False])]
    assert state_of(recs).dimension_values("transport_route") == {"false"}


def test_empty_records_give_empty_state():
    assert state_of([]) == ContextState()


def test_order_invariance():
    recs = [RawContextRecord(0.0, speed=0.5, semantic_place="home"),
            RawContextRecord(1.0, speed=1.5, weather="clear"),
            RawContextRecord(2.0, pressure_delta=0.01)]
    forward = state_of(recs)
    backward = state_of(list(reversed(recs)))
    assert forward == backward


def test_locality_removing_a_signal_removes_only_its_dimensions():
    recs = [RawContextRecord(0.0, speed=0.5, weather="clear")]
    full = state_of(recs)
    without_weather = state_of([RawContextRecord(0.0, speed=0.5)])
    assert without_weather.observed == {p for p in full.observed if p.dimension != "weather"}


def test_undeclared_dimension_is_skipped():
    vocab = ContextVocabulary((ContextDimension("speed", ("null", "low", "medium", "high")),))
    state = aggregate_context([RawContextRecord(0.0, speed=0.0, weather="clear")], CFG, vocab)
    assert state.observed == {ContextPredicate("speed", "null")}


def test_invalid_config_rejected():
    with pytest.raises(ValueError, match="increasing"):
        DiscretizationConfig(speed_thresholds=(2.0, 1.0, 7.0))
    with pytest.raises(ValueError, match="epsilon"):
        DiscretizationConfig(height_epsilon=0.0)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("name", ["speed", "pressure_delta"])
def test_record_rejects_a_non_finite_measurement(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        RawContextRecord(0.0, **{name: value})


@pytest.mark.parametrize("speed", [-50.0, -1e308, -5e-324])
def test_record_rejects_a_negative_speed(speed):
    # a sign error in a provider's data must not read as standing still
    with pytest.raises(ValueError, match=re.escape(f"speed must be >= 0, got {speed}")):
        RawContextRecord(0.0, speed=speed)


def test_record_accepts_a_zero_speed_and_a_negative_pressure_delta():
    assert state_of([RawContextRecord(0.0, speed=-0.0, pressure_delta=-1.0)]).observed == {
        ContextPredicate("speed", "null"), ContextPredicate("height_variation", "positive")}


@pytest.mark.parametrize("speeds, thresholds, expected", [
    ([1e308, 1e308], (0.1, 2.0, 7.0), "high"),
    # the mean of 1e308 and 1e308 fits in a float, and is below a 1.5e308 threshold
    ([1e308, 1e308], (0.1, 2.0, 1.5e308), "medium"),
])
def test_speed_class_of_values_whose_sum_overflows(speeds, thresholds, expected):
    cfg = DiscretizationConfig(speed_thresholds=thresholds)
    recs = [RawContextRecord(float(t), speed=s) for t, s in enumerate(speeds)]
    assert aggregate_context(recs, cfg, VOCAB).dimension_values("speed") == {expected}


@pytest.mark.parametrize("deltas, expected", [
    ([-1e308, -1e308], "positive"),
    ([1e308, 1e308], "negative"),
    # the huge values cancel exactly; the small ones decide
    ([1e308, 1e308, -1e308, -1e308, 0.2], "negative"),
    ([1e308, 1e308, -1e308, -1e308, -0.2], "positive"),
    ([1e308, 1e308, -1e308, -1e308, 0.01], "null"),
])
def test_height_variation_of_deltas_whose_sum_overflows(deltas, expected):
    recs = [RawContextRecord(float(t), pressure_delta=d) for t, d in enumerate(deltas)]
    assert state_of(recs).dimension_values("height_variation") == {expected}


_TEXTS = st.one_of(st.none(), st.text(max_size=6),
                   st.sampled_from(["home", " Public Park ", "bus stop", "Rain", "clear",
                                    "snow", "space station"]))
_RECORDS = st.builds(
    RawContextRecord, timestamp=st.floats(0.0, 10.0),
    speed=st.none() | st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    pressure_delta=st.none() | st.floats(allow_nan=False, allow_infinity=False),
    semantic_place=_TEXTS, transport_route_nearby=st.none() | st.booleans(), weather=_TEXTS)


@settings(max_examples=300, deadline=None)
@given(records=st.lists(_RECORDS, max_size=8), data=st.data())
def test_aggregation_never_raises_encodes_and_ignores_record_order(records, data):
    state = state_of(records)
    VOCAB.encode_state(state)
    assert state_of(data.draw(st.permutations(records))) == state
