import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nesyhar.knowledge import (
    AllOf,
    AnyOf,
    ContextDimension,
    ContextPredicate,
    ContextState,
    ContextVocabulary,
    KnowledgeModel,
    Literal,
    RuleFileError,
    literal_satisfied,
    load_knowledge,
    parse_knowledge,
)

RULES_DIR = "configs"

MINI_RULES = """
[activities]
brushing_teeth
walking

[contexts]
location_type (exclusive): indoor, outdoor
height_variation (exclusive): negative, null, positive

[rules]
brushing_teeth: location_type=indoor AND height_variation=null
"""


@pytest.fixture(scope="module")
def domino():
    return load_knowledge(f"{RULES_DIR}/domino.rules")


def test_parse_mini_model():
    model = parse_knowledge(MINI_RULES)
    assert model.activity_names == ("brushing_teeth", "walking")
    assert len(model.rules["brushing_teeth"]) == 1
    assert "walking" not in model.rules


def test_zero_rules_file_everything_consistent():
    text = MINI_RULES.split("[rules]")[0]
    model = parse_knowledge(text)
    state = ContextState.from_pairs(["location_type=outdoor"])
    assert model.consistent_activities(state) == {"brushing_teeth", "walking"}


def test_unknown_predicate_rejected():
    text = MINI_RULES + "walking: weather=snowy\n"
    with pytest.raises(RuleFileError, match="weather"):
        parse_knowledge(text)


def test_unknown_value_rejected():
    text = MINI_RULES + "walking: location_type=underwater\n"
    with pytest.raises(RuleFileError, match="location_type=underwater"):
        parse_knowledge(text)


def test_duplicate_activity_rejected():
    text = MINI_RULES.replace("walking", "brushing_teeth", 1)
    with pytest.raises(RuleFileError, match="duplicate activity"):
        parse_knowledge(text)


def test_parse_error_reports_line_and_column():
    text = MINI_RULES + "walking: location_type=\n"
    with pytest.raises(RuleFileError) as exc:
        parse_knowledge(text)
    assert exc.value.line == 12
    assert "line 12" in str(exc.value)


def test_unknown_section_rejected():
    with pytest.raises(RuleFileError, match=r"\[weather\]"):
        parse_knowledge("[weather]\nsunny\n")


def test_rule_for_undeclared_activity_rejected():
    text = MINI_RULES + "swimming: location_type=outdoor\n"
    with pytest.raises(RuleFileError, match="swimming"):
        parse_knowledge(text)


def test_operator_precedence_and_parentheses():
    text = """
[activities]
a
[contexts]
d1 (exclusive): x, y
d2 (exclusive): u, v
[rules]
a: d1=x OR d1=y AND d2=u
"""
    model = parse_knowledge(text)
    (req,) = model.rules["a"]
    assert isinstance(req, AnyOf)
    assert isinstance(req.children[0], Literal)
    assert isinstance(req.children[1], AllOf)


# ---------------------------------------------------------------------------
# Open-world literal semantics
# ---------------------------------------------------------------------------

VOCAB = ContextVocabulary((
    ContextDimension("location_type", ("indoor", "outdoor"), exclusive=True),
    ContextDimension("tags", ("pet", "child"), exclusive=False),
))


def test_literal_direct_match():
    state = ContextState.from_pairs(["location_type=indoor"])
    assert literal_satisfied(state, ContextPredicate("location_type", "indoor"), VOCAB)


def test_literal_exclusive_contradiction():
    state = ContextState.from_pairs(["location_type=outdoor"])
    assert not literal_satisfied(state, ContextPredicate("location_type", "indoor"), VOCAB)


def test_literal_open_world_default():
    assert literal_satisfied(ContextState(), ContextPredicate("location_type", "indoor"), VOCAB)


def test_literal_non_exclusive_never_contradicts():
    state = ContextState.from_pairs(["tags=pet"])
    assert literal_satisfied(state, ContextPredicate("tags", "child"), VOCAB)


def test_state_exclusivity_validated():
    state = ContextState.from_pairs(["location_type=indoor", "location_type=outdoor"])
    with pytest.raises(ValueError, match="exclusive"):
        VOCAB.validate_state(state)


# ---------------------------------------------------------------------------
# Consistency reasoning on the shipped rule files
# ---------------------------------------------------------------------------

def test_brushing_teeth_excluded_outdoors(domino):
    state = ContextState.from_pairs(["location_type=outdoor"])
    consistent = domino.consistent_activities(state)
    assert "brushing_teeth" not in consistent
    assert "walking" in consistent


def test_transport_excluded_off_route(domino):
    state = ContextState.from_pairs(["transport_route=false"])
    consistent = domino.consistent_activities(state)
    assert "sitting_on_transport" not in consistent
    assert "standing_on_transport" not in consistent


def test_empty_state_everything_consistent(domino):
    assert domino.consistent_activities(ContextState()) == set(domino.activity_names)
    assert domino.consistency_vector(ContextState()).tolist() == [1] * 14


def test_domino_outdoor_vector_hand_derived(domino):
    # Hand evaluation of configs/domino.rules under {location_type=outdoor}:
    # only lying, elevator_up, elevator_down and brushing_teeth carry an
    # unconditional location_type=indoor literal.
    state = ContextState.from_pairs(["location_type=outdoor"])
    vec = domino.consistency_vector(state)
    expected = [1, 1, 1, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0]
    assert vec.tolist() == expected
    assert domino.activity_names[3] == "lying"
    assert domino.activity_names[13] == "brushing_teeth"


def test_vector_matches_set_size(domino):
    state = ContextState.from_pairs(["speed=high", "location_type=outdoor"])
    consistent = domino.consistent_activities(state)
    vec = domino.consistency_vector(state)
    assert int(vec.sum()) == len(consistent)
    assert vec.shape == (14,)


def test_determinism(domino):
    state = ContextState.from_pairs(["speed=low", "weather=rainy"])
    assert domino.consistent_activities(state) == domino.consistent_activities(state)
    np.testing.assert_array_equal(domino.consistency_vector(state),
                                  domino.consistency_vector(state))


# ---------------------------------------------------------------------------
# Randomized monotonicity / determinism properties
# ---------------------------------------------------------------------------

def random_model_and_states(rng):
    """Random small knowledge model plus a nested state pair S <= S'."""
    dims = []
    for d in range(rng.integers(2, 5)):
        values = tuple(f"v{j}" for j in range(rng.integers(2, 4)))
        dims.append(ContextDimension(f"d{d}", values, exclusive=bool(rng.integers(0, 2))))
    vocab = ContextVocabulary(tuple(dims))

    def random_requirement(depth=0):
        if depth >= 2 or rng.random() < 0.5:
            dim = dims[rng.integers(len(dims))]
            return Literal(ContextPredicate(dim.name, dim.values[rng.integers(len(dim.values))]))
        node = AllOf if rng.random() < 0.5 else AnyOf
        return node(tuple(random_requirement(depth + 1) for _ in range(rng.integers(2, 4))))

    activities = tuple(f"a{i}" for i in range(rng.integers(2, 6)))
    rules = {a: tuple(random_requirement() for _ in range(rng.integers(1, 3)))
             for a in activities if rng.random() < 0.7}
    model = KnowledgeModel(activities, vocab, rules)

    # Build S' dimension by dimension, then drop observations to get S.
    preds = []
    for dim in dims:
        if rng.random() < 0.7:
            if dim.exclusive:
                preds.append(ContextPredicate(dim.name, dim.values[rng.integers(len(dim.values))]))
            else:
                preds.extend(ContextPredicate(dim.name, v) for v in dim.values
                             if rng.random() < 0.5)
    larger = ContextState(frozenset(preds))
    smaller = ContextState(frozenset(p for p in preds if rng.random() < 0.5))
    return model, smaller, larger


@pytest.mark.parametrize("seed", range(25))
def test_monotonicity_randomized(seed):
    rng = np.random.default_rng(seed)
    for _ in range(8):
        model, smaller, larger = random_model_and_states(rng)
        a_small = model.consistent_activities(smaller)
        a_large = model.consistent_activities(larger)
        assert a_large <= a_small
        assert model.consistent_activities(larger) == a_large


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_unconstrained_activity_always_consistent(seed):
    rng = np.random.default_rng(seed)
    model, smaller, larger = random_model_and_states(rng)
    unconstrained = [a for a in model.activity_names if a not in model.rules]
    for state in (smaller, larger):
        consistent = model.consistent_activities(state)
        for name in unconstrained:
            assert name in consistent
