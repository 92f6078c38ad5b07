import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nesyhar.context import DiscretizationConfig
from nesyhar.data import enumerate_realizable_states
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
    load_knowledge,
    parse_knowledge,
)

from conftest import consistency_row, consistent_names
from knowledge_reference import reference_consistent

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
    assert consistent_names(model, state) == {"brushing_teeth", "walking"}


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


def with_rule(line):
    """MINI_RULES with one more rule line, which is line 12."""
    return MINI_RULES + line + "\n"


# one row per raise site of the reader: the whole message, its line and its
# column (the column counts characters of the raw line, from 1)
RULE_FILE_ERRORS = [
    ("unexpected_character", with_rule("walking: location_type=indoor & x"),
     "<rules>, line 12, column 31: unexpected character '&'", 12, 31),
    ("unexpected_character_after_tabs", with_rule("walking:\tlocation_type=indoor\tOR\t(é"),
     "<rules>, line 12, column 35: unexpected character 'é'", 12, 35),
    ("token_after_expression", with_rule("walking: location_type=indoor location_type=outdoor"),
     "<rules>, line 12, column 31: unexpected token 'location_type' after expression", 12, 31),
    ("close_paren_mid_line",
     with_rule("walking: (location_type=indoor location_type=outdoor)"),
     "<rules>, line 12, column 32: expected ')'", 12, 32),
    ("close_paren_at_end", with_rule("walking: (location_type=indoor"),
     "<rules>, line 12: expected ')'", 12, None),
    ("equals", with_rule("walking: location_type indoor"),
     "<rules>, line 12, column 24: expected '=' after 'location_type'", 12, 24),
    ("equals_at_end", with_rule("walking: location_type"),
     "<rules>, line 12, column 10: expected '=' after 'location_type'", 12, 10),
    ("value", with_rule("walking: location_type=)"),
     "<rules>, line 12, column 24: expected a value after location_type=", 12, 24),
    ("value_at_end", with_rule("walking: location_type="),
     "<rules>, line 12, column 10: expected a value after location_type=", 12, 10),
    ("literal", with_rule("walking: AND location_type=indoor"),
     "<rules>, line 12, column 10: expected a dimension=value literal or '('", 12, 10),
    ("literal_at_end", with_rule("walking: location_type=indoor OR"),
     "<rules>, line 12: expected a dimension=value literal or '('", 12, None),
    ("unknown_section", "[activities]\nwalking\n[weather]\n",
     "<rules>, line 3: unknown section [weather]", 3, None),
    ("content_before_section", "walking\n[activities]\n",
     "<rules>, line 1: content before any [section] header", 1, None),
    ("activity_name", "[activities]\nwalk ing\n",
     "<rules>, line 2: invalid activity name 'walk ing'", 2, None),
    ("rule_activity_name", with_rule("walk-ing: location_type=indoor"),
     "<rules>, line 12: invalid activity name 'walk-ing'", 12, None),
    ("duplicate_activity", "[activities]\nwalking\nsitting\nwalking\n",
     "<rules>, line 4: duplicate activity 'walking' (first declared on line 2)", 4, None),
    ("duplicate_dimension", "[activities]\nwalking\n[contexts]\nd: x, y\ne: x\nd (multi): z\n",
     "<rules>, line 6: duplicate context dimension 'd' (first declared on line 4)", 6, None),
    ("dimension_format", "[activities]\nwalking\n[contexts]\nd x, y\n",
     "<rules>, line 4: expected 'name (exclusive|multi): value, value, ...'", 4, None),
    ("dimension_value", "[activities]\nwalking\n[contexts]\nd: x, y z\n",
     "<rules>, line 4: invalid value 'y z' in dimension 'd'", 4, None),
    ("duplicate_value", "[activities]\nwalking\n[contexts]\nd: x, y, x\n",
     "<rules>, line 4: duplicate value in dimension 'd'", 4, None),
    ("rule_format", with_rule("walking location_type=indoor"),
     "<rules>, line 12: expected 'activity: expression'", 12, None),
    ("empty_rule", with_rule("walking:   # nothing"),
     "<rules>, line 12: empty rule expression", 12, None),
    ("no_activities", "[contexts]\nd: x\n", "<rules>: no [activities] declared", None, None),
    ("unknown_activity", with_rule("swimming: location_type=outdoor"),
     "<rules>, line 12: unknown activity 'swimming'", 12, None),
    ("unknown_dimension", with_rule("walking: weather=snowy"),
     "<rules>, line 12: unknown context dimension 'weather'", 12, None),
    ("unknown_predicate", with_rule("walking: location_type=underwater"),
     "<rules>, line 12: unknown context predicate 'location_type=underwater'", 12, None),
]


@pytest.mark.parametrize("text, message, line, column", [row[1:] for row in RULE_FILE_ERRORS],
                         ids=[row[0] for row in RULE_FILE_ERRORS])
def test_each_rule_file_error_names_its_line_and_column(text, message, line, column):
    with pytest.raises(RuleFileError) as exc:
        parse_knowledge(text)
    assert (str(exc.value), exc.value.line, exc.value.column) == (message, line, column)


RULE_TEXTS = [path.read_text() for path in sorted(Path(RULES_DIR).glob("*.rules"))]
FRAGMENTS = (st.text(alphabet="az09_ \t=():,#[]&-é\n", max_size=6)
             | st.sampled_from(["AND", "OR", " AND (", ") OR ", "speed", "[rules]",
                                "[contexts]", "[activities]", "(multi)"]))


@st.composite
def mutated_rule_files(draw):
    """A committed rule file after 1-4 edits: text inserted into a line, text
    cut from one, or a line repeated elsewhere."""
    lines = draw(st.sampled_from(RULE_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i])))
        edit = draw(st.sampled_from(["insert", "delete", "duplicate"]))
        if edit == "insert":
            lines[i] = lines[i][:j] + draw(FRAGMENTS) + lines[i][j:]
        elif edit == "delete":
            lines[i] = lines[i][:j] + lines[i][j + draw(st.integers(1, 12)):]
        else:
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
    return "\n".join(lines)


@given(mutated_rule_files())
@settings(max_examples=300, deadline=None)
def test_a_mutated_rule_file_loads_or_names_its_line(text):
    try:
        parse_knowledge(text)
    except RuleFileError as exc:
        assert exc.line is not None or str(exc) == "<rules>: no [activities] declared"


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


def literal_holds(state, predicate):
    """The compiled reasoner's verdict on a one-literal rule."""
    model = KnowledgeModel(("a",), VOCAB, {"a": (Literal(predicate),)})
    return bool(consistency_row(model, state)[0])


def test_literal_direct_match():
    state = ContextState.from_pairs(["location_type=indoor"])
    assert literal_holds(state, ContextPredicate("location_type", "indoor"))


def test_literal_exclusive_contradiction():
    state = ContextState.from_pairs(["location_type=outdoor"])
    assert not literal_holds(state, ContextPredicate("location_type", "indoor"))


def test_literal_open_world_default():
    assert literal_holds(ContextState(), ContextPredicate("location_type", "indoor"))


def test_literal_non_exclusive_never_contradicts():
    state = ContextState.from_pairs(["tags=pet"])
    assert literal_holds(state, ContextPredicate("tags", "child"))


def test_state_exclusivity_validated():
    state = ContextState.from_pairs(["location_type=indoor", "location_type=outdoor"])
    with pytest.raises(ValueError, match="exclusive"):
        VOCAB.encode_state(state)


def one_hot_rows(vocab, states):
    """Each state's multi-hot row, built one predicate at a time."""
    rows = np.zeros((len(states), vocab.size))
    for i, state in enumerate(states):
        for pred in state.observed:
            rows[i, vocab.index(pred)] = 1.0
    return rows


@pytest.mark.parametrize("name", ["domino.rules", "synthetic.rules"])
def test_encode_states_equals_the_stacked_single_rows(name):
    vocab = load_knowledge(f"{RULES_DIR}/{name}").vocabulary
    states = [ContextState(), *enumerate_realizable_states(vocab, DiscretizationConfig())]
    rows = vocab.encode_states(states)
    assert rows.shape == (len(states), vocab.size) and rows.dtype == np.float64
    np.testing.assert_array_equal(rows, np.stack([vocab.encode_state(s) for s in states]),
                                  strict=True)
    np.testing.assert_array_equal(rows, one_hot_rows(vocab, states), strict=True)
    assert vocab.encode_states([]).shape == (0, vocab.size)


def test_encode_states_covers_a_multi_dimension():
    states = [ContextState.from_pairs(p) for p in
              ([], ["tags=pet", "tags=child"], ["location_type=outdoor", "tags=child"])]
    np.testing.assert_array_equal(VOCAB.encode_states(states), one_hot_rows(VOCAB, states))


@pytest.mark.parametrize("bad, message", [
    (["location_type=indoor", "tags=goat"], "predicate tags=goat not in context vocabulary"),
    (["location_type=indoor", "location_type=outdoor"],
     "multiple values observed for exclusive dimension 'location_type'"),
])
def test_encode_states_raises_what_encode_state_raises(bad, message):
    state = ContextState.from_pairs(bad)
    with pytest.raises(ValueError) as single:
        VOCAB.encode_state(state)
    good = ContextState.from_pairs(["tags=pet"])
    with pytest.raises(ValueError) as batch:
        VOCAB.encode_states([good, state, good])
    assert str(batch.value) == str(single.value) == message


def test_query_rejects_two_values_on_an_exclusive_dimension():
    model = KnowledgeModel(("a",), VOCAB, {})
    rows = np.zeros((3, VOCAB.size))
    rows[1, :2] = 1.0   # location_type=indoor and location_type=outdoor
    with pytest.raises(ValueError, match="exclusive dimension 'location_type'"):
        model.consistent_activities(rows)
    rows[1, :2] = 0.0
    rows[2, 2:] = 1.0   # both tags: the dimension is not exclusive
    assert model.consistent_activities(rows).all()


@pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 5), (1, 2, 4)])
def test_query_rejects_rows_of_the_wrong_shape(shape):
    model = KnowledgeModel(("a",), VOCAB, {})
    with pytest.raises(ValueError, match="expected"):
        model.consistent_activities(np.zeros(shape))


def test_query_counts_any_nonzero_entry_as_observed():
    model = KnowledgeModel(("a",), VOCAB, {
        "a": (Literal(ContextPredicate("location_type", "indoor")),)})
    rows = np.zeros((3, VOCAB.size))
    rows[0, 1] = 0.5
    rows[1, 1] = -2.0
    rows[2, 1] = np.nan
    assert not model.consistent_activities(rows).any()


@pytest.mark.parametrize("activities, rules, message", [
    (("a", "b", "a"), {}, "activity 'a' listed more than once"),
    (("a",), {"a": (AnyOf((Literal(ContextPredicate("tags", "pet")),
                           Literal(ContextPredicate("tags", "goat")))),)},
     "rule literal tags=goat not in context vocabulary"),
], ids=["duplicate_activity", "literal_outside_vocabulary"])
def test_model_rejects_what_the_parser_rejects(activities, rules, message):
    # the parser names the line first; a model built in Python names the symbol
    with pytest.raises(ValueError) as exc:
        KnowledgeModel(activities, VOCAB, rules)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# Consistency reasoning on the shipped rule files
# ---------------------------------------------------------------------------

def test_brushing_teeth_excluded_outdoors(domino):
    state = ContextState.from_pairs(["location_type=outdoor"])
    consistent = consistent_names(domino, state)
    assert "brushing_teeth" not in consistent
    assert "walking" in consistent


def test_transport_excluded_off_route(domino):
    state = ContextState.from_pairs(["transport_route=false"])
    consistent = consistent_names(domino, state)
    assert "sitting_on_transport" not in consistent
    assert "standing_on_transport" not in consistent


def test_empty_state_everything_consistent(domino):
    assert consistent_names(domino, ContextState()) == set(domino.activity_names)
    assert consistency_row(domino, ContextState()).astype(int).tolist() == [1] * 14


def test_domino_outdoor_vector_hand_derived(domino):
    # Hand evaluation of configs/domino.rules under {location_type=outdoor}:
    # only lying, elevator_up, elevator_down and brushing_teeth carry an
    # unconditional location_type=indoor literal.
    vec = consistency_row(domino, ContextState.from_pairs(["location_type=outdoor"]))
    expected = [1, 1, 1, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0]
    assert vec.astype(int).tolist() == expected
    assert domino.activity_names[3] == "lying"
    assert domino.activity_names[13] == "brushing_teeth"


def test_vector_matches_set_size(domino):
    state = ContextState.from_pairs(["speed=high", "location_type=outdoor"])
    consistent = consistent_names(domino, state)
    vec = consistency_row(domino, state)
    assert int(vec.sum()) == len(consistent)
    assert vec.shape == (14,) and vec.dtype == bool


def test_determinism(domino):
    state = ContextState.from_pairs(["speed=low", "weather=rainy"])
    assert consistent_names(domino, state) == consistent_names(domino, state)
    np.testing.assert_array_equal(consistency_row(domino, state), consistency_row(domino, state))


# ---------------------------------------------------------------------------
# The compiled query against the tree-walking oracle
# ---------------------------------------------------------------------------

def assert_matches_oracle(model, states):
    matrix = model.consistent_activities(
        np.stack([model.vocabulary.encode_state(s) for s in states]))
    assert matrix.shape == (len(states), model.num_activities) and matrix.dtype == bool
    for state, row in zip(states, matrix):
        names = frozenset(a for a, ok in zip(model.activity_names, row) if ok)
        assert names == reference_consistent(model, state), state


@pytest.mark.parametrize("seed", range(25))
def test_query_matches_oracle_on_random_models(seed):
    rng = np.random.default_rng(seed)
    for _ in range(8):
        model, smaller, larger = random_model_and_states(rng)
        assert_matches_oracle(model, [ContextState(), smaller, larger])


@pytest.mark.parametrize("rules", ["domino.rules", "synthetic.rules"])
def test_query_matches_oracle_on_every_realizable_state(rules):
    model = load_knowledge(f"{RULES_DIR}/{rules}")
    states = enumerate_realizable_states(model.vocabulary, DiscretizationConfig())
    assert len(states) > 100
    assert_matches_oracle(model, states)


NESTED_RULES = """
[activities]
deep
free
twice

[contexts]
d1 (exclusive): x, y
d2 (exclusive): u, v
d3 (exclusive): p, q
tags (multi): t1, t2

[rules]
deep: d1=x AND (d2=u OR (d3=p AND (d1=y OR tags=t1)))
twice: d1=x
twice: d1=x
twice: d2=v OR tags=t2
"""


def test_query_matches_oracle_on_nested_repeated_and_multi_rules():
    model = parse_knowledge(NESTED_RULES)
    options = [[()] + [((d.name, v),) for v in d.values]
               if d.exclusive else
               [tuple((d.name, v) for v in chosen) for r in range(len(d.values) + 1)
                for chosen in itertools.combinations(d.values, r)]
               for d in model.vocabulary.dimensions]
    states = [ContextState.from_pairs(itertools.chain(*combo))
              for combo in itertools.product(*options)]
    assert len(states) == 3 * 3 * 3 * 4
    assert_matches_oracle(model, states)
    # hand-derived: with d3 unobserved, tags=t1 (never contradicted) keeps deep
    assert consistent_names(model, ContextState.from_pairs(["d1=x", "d2=v"])) == {
        "deep", "free", "twice"}
    assert consistent_names(model, ContextState.from_pairs(["d1=x", "d2=v", "d3=q"])) == {
        "free", "twice"}
    assert consistent_names(model, ContextState.from_pairs(["d1=y"])) == {"free"}


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
        a_small = consistent_names(model, smaller)
        a_large = consistent_names(model, larger)
        assert a_large <= a_small
        assert consistent_names(model, larger) == a_large


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_unconstrained_activity_always_consistent(seed):
    rng = np.random.default_rng(seed)
    model, smaller, larger = random_model_and_states(rng)
    unconstrained = [a for a in model.activity_names if a not in model.rules]
    for state in (smaller, larger):
        consistent = consistent_names(model, state)
        for name in unconstrained:
            assert name in consistent
