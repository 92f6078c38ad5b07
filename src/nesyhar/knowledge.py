"""Declarative activity knowledge: vocabularies, rules, and consistency reasoning.

A knowledge model couples an activity vocabulary, a context vocabulary, and
per-activity rules. Each rule is a *necessary condition*: a boolean expression
over positive ``dimension=value`` literals combined with AND/OR. Evaluation is
open-world: a literal is violated only by contradicting evidence (the literal's
dimension observed with a different value on an exclusive dimension); an
unobserved dimension never falsifies a rule. Negation is deliberately absent
from the rule language, which makes the consistent-activity set shrink
monotonically as more context is observed.

Rule file grammar (one directive per line, ``#`` starts a comment)::

    [activities]
    walking                         # one activity name per line

    [contexts]
    speed (exclusive): null, low, medium, high
    tags (multi): with_pet, with_child     # non-exclusive dimension
    location_type: indoor, outdoor         # exclusive is the default

    [rules]
    brushing_teeth: location_type=indoor AND height_variation=null
    cycling: speed=medium OR speed=high
    cycling: location_type=outdoor         # repeated lines are all required

AND binds tighter than OR; parentheses group. Identifiers match
``[A-Za-z0-9_]+``. Every symbol used in a rule must be declared above.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "ContextPredicate",
    "ContextDimension",
    "ContextVocabulary",
    "ContextState",
    "Requirement",
    "Literal",
    "AllOf",
    "AnyOf",
    "KnowledgeModel",
    "RuleFileError",
    "literal_satisfied",
    "parse_knowledge",
    "load_knowledge",
]

_IDENT = re.compile(r"[A-Za-z0-9_]+")


class RuleFileError(ValueError):
    """A rule file failed to parse or referenced undeclared symbols."""

    def __init__(self, message: str, *, source: str = "<rules>", line: int | None = None,
                 column: int | None = None):
        loc = source
        if line is not None:
            loc += f", line {line}"
            if column is not None:
                loc += f", column {column}"
        super().__init__(f"{loc}: {message}")
        self.source = source
        self.line = line
        self.column = column


@dataclass(frozen=True)
class ContextPredicate:
    """A single ``dimension=value`` statement about the current situation."""

    dimension: str
    value: str

    def __str__(self) -> str:
        return f"{self.dimension}={self.value}"


@dataclass(frozen=True)
class ContextDimension:
    """A named context dimension with its admissible values.

    An exclusive dimension holds at most one observed value per window
    (e.g. speed class); a non-exclusive one may hold several at once.
    """

    name: str
    values: tuple[str, ...]
    exclusive: bool = True


@dataclass(frozen=True)
class ContextVocabulary:
    """Ordered collection of context dimensions.

    The predicate order (dimension declaration order, then value order) fixes
    the layout of multi-hot context vectors everywhere in the toolkit.
    """

    dimensions: tuple[ContextDimension, ...]
    _by_name: dict = field(init=False, repr=False, compare=False)
    _pred_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_name = {}
        for dim in self.dimensions:
            if dim.name in by_name:
                raise ValueError(f"duplicate context dimension {dim.name!r}")
            if len(set(dim.values)) != len(dim.values):
                raise ValueError(f"duplicate value in context dimension {dim.name!r}")
            by_name[dim.name] = dim
        index = {p: i for i, p in enumerate(
            ContextPredicate(d.name, v) for d in self.dimensions for v in d.values)}
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_pred_index", index)

    @property
    def predicates(self) -> tuple[ContextPredicate, ...]:
        return tuple(self._pred_index)

    @property
    def size(self) -> int:
        """Width of the multi-hot encoding."""
        return len(self._pred_index)

    def __contains__(self, predicate: ContextPredicate) -> bool:
        return predicate in self._pred_index

    def dimension(self, name: str) -> ContextDimension:
        return self._by_name[name]

    def has_dimension(self, name: str) -> bool:
        return name in self._by_name

    def index(self, predicate: ContextPredicate) -> int:
        return self._pred_index[predicate]

    def validate_state(self, state: "ContextState") -> None:
        """Raise ValueError if the state uses unknown predicates or breaks exclusivity."""
        for pred in state.observed:
            if pred not in self._pred_index:
                raise ValueError(f"predicate {pred} not in context vocabulary")
        for dim in self.dimensions:
            if dim.exclusive and len(state.dimension_values(dim.name)) > 1:
                raise ValueError(f"multiple values observed for exclusive dimension {dim.name!r}")

    def encode_state(self, state: "ContextState") -> np.ndarray:
        """Multi-hot vector with a 1 at each observed predicate's index."""
        self.validate_state(state)
        vec = np.zeros(self.size, dtype=np.float64)
        for pred in state.observed:
            vec[self._pred_index[pred]] = 1.0
        return vec

    def decode_state(self, vector: np.ndarray) -> "ContextState":
        """Inverse of :meth:`encode_state`."""
        vector = np.asarray(vector)
        if vector.shape != (self.size,):
            raise ValueError(f"context vector has shape {vector.shape}, expected ({self.size},)")
        preds = self.predicates
        return ContextState(frozenset(preds[i] for i in np.flatnonzero(vector)))


@dataclass(frozen=True)
class ContextState:
    """The set of context predicates observed during one window.

    Dimensions not mentioned are unobserved, which under open-world evaluation
    is different from being false.
    """

    observed: frozenset[ContextPredicate] = frozenset()

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str] | str]) -> "ContextState":
        """Build a state from ("dim", "value") tuples or "dim=value" strings."""
        preds = set()
        for pair in pairs:
            if isinstance(pair, str):
                dim, sep, value = pair.partition("=")
                dim, value = dim.strip(), value.strip()
                if not sep or not _IDENT.fullmatch(dim) or not _IDENT.fullmatch(value):
                    raise ValueError(f"malformed predicate {pair!r}, expected dimension=value")
                preds.add(ContextPredicate(dim, value))
            else:
                dim, value = pair
                preds.add(ContextPredicate(dim, value))
        return cls(frozenset(preds))

    def observes(self, dimension: str) -> bool:
        return any(p.dimension == dimension for p in self.observed)

    def dimension_values(self, dimension: str) -> frozenset[str]:
        return frozenset(p.value for p in self.observed if p.dimension == dimension)

    def __len__(self) -> int:
        return len(self.observed)


def literal_satisfied(state: ContextState, literal: ContextPredicate,
                      vocab: ContextVocabulary) -> bool:
    """Open-world truth value of one positive literal.

    True when the literal is observed, and also when its dimension is entirely
    unobserved (absence of evidence does not violate a requirement). False only
    when the dimension is observed with a different value and is exclusive.
    """
    if literal in state.observed:
        return True
    if not state.observes(literal.dimension):
        return True
    return not vocab.dimension(literal.dimension).exclusive


class Requirement:
    """Boolean expression tree over positive context literals (AND/OR only)."""

    def satisfied(self, state: ContextState, vocab: ContextVocabulary) -> bool:
        raise NotImplementedError

    def literals(self) -> Iterable[ContextPredicate]:
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Requirement):
    predicate: ContextPredicate

    def satisfied(self, state, vocab):
        return literal_satisfied(state, self.predicate, vocab)

    def literals(self):
        yield self.predicate

    def __str__(self):
        return str(self.predicate)


@dataclass(frozen=True)
class AllOf(Requirement):
    children: tuple[Requirement, ...]

    def satisfied(self, state, vocab):
        return all(c.satisfied(state, vocab) for c in self.children)

    def literals(self):
        for child in self.children:
            yield from child.literals()

    def __str__(self):
        return "(" + " AND ".join(map(str, self.children)) + ")"


@dataclass(frozen=True)
class AnyOf(Requirement):
    children: tuple[Requirement, ...]

    def satisfied(self, state, vocab):
        return any(c.satisfied(state, vocab) for c in self.children)

    def literals(self):
        for child in self.children:
            yield from child.literals()

    def __str__(self):
        return "(" + " OR ".join(map(str, self.children)) + ")"


@dataclass(frozen=True)
class KnowledgeModel:
    """Activity vocabulary, context vocabulary, and per-activity necessary conditions.

    An activity's index (in labels, consistency vectors and probability
    columns) is its position in ``activity_names``. Immutable after
    construction; all queries are pure, so a single model is safe to share
    between concurrent callers.
    """

    activity_names: tuple[str, ...]
    vocabulary: ContextVocabulary
    rules: Mapping[str, tuple[Requirement, ...]]

    def __post_init__(self):
        for name in self.rules:
            if name not in self.activity_names:
                raise ValueError(f"rule for unknown activity {name!r}")

    @property
    def num_activities(self) -> int:
        return len(self.activity_names)

    def is_consistent(self, activity: str, state: ContextState) -> bool:
        """True when every necessary condition of the activity holds under the state."""
        return all(req.satisfied(state, self.vocabulary)
                   for req in self.rules.get(activity, ()))

    def consistent_activities(self, state: ContextState) -> frozenset[str]:
        """The set of activities not excluded by any rule given the observed context."""
        self.vocabulary.validate_state(state)
        return frozenset(a for a in self.activity_names if self.is_consistent(a, state))

    def consistency_vector(self, state: ContextState) -> np.ndarray:
        """Binary vector of length k: 1 at index i iff activity i is context-consistent."""
        consistent = self.consistent_activities(state)
        return np.array([1 if a in consistent else 0 for a in self.activity_names],
                        dtype=np.int64)


# ---------------------------------------------------------------------------
# Rule-file parsing
# ---------------------------------------------------------------------------

_SECTION_RE = re.compile(r"^\[([a-z_]+)\]$")
_DIM_RE = re.compile(r"^(?P<name>\w+)\s*(?:\((?P<flag>exclusive|multi)\))?\s*:\s*(?P<values>.+)$")


class _ExpressionParser:
    """Recursive-descent parser for requirement expressions (AND > OR)."""

    _TOKEN_RE = re.compile(r"\s*(?:(?P<ident>[A-Za-z0-9_]+)|(?P<op>[=()]))")

    def __init__(self, text: str, source: str, line: int, offset: int):
        self.source = source
        self.line = line
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = self._TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stray = text[pos:].lstrip()
                if not stray:
                    break
                col = offset + len(text) - len(stray) + 1
                raise RuleFileError(f"unexpected character {stray[0]!r}",
                                    source=source, line=line, column=col)
            col = offset + m.start(m.lastgroup) + 1
            self.tokens.append((m.lastgroup, m.group(m.lastgroup), col))
            pos = m.end()
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, None)

    def _error(self, message: str, column: int | None = None):
        raise RuleFileError(message, source=self.source, line=self.line, column=column)

    def parse(self) -> Requirement:
        expr = self._parse_or()
        kind, text, col = self._peek()
        if kind is not None:
            self._error(f"unexpected token {text!r} after expression", col)
        return expr

    def _parse_or(self) -> Requirement:
        terms = [self._parse_and()]
        while self._peek()[:2] == ("ident", "OR"):
            self.pos += 1
            terms.append(self._parse_and())
        return terms[0] if len(terms) == 1 else AnyOf(tuple(terms))

    def _parse_and(self) -> Requirement:
        factors = [self._parse_atom()]
        while self._peek()[:2] == ("ident", "AND"):
            self.pos += 1
            factors.append(self._parse_atom())
        return factors[0] if len(factors) == 1 else AllOf(tuple(factors))

    def _parse_atom(self) -> Requirement:
        kind, text, col = self._peek()
        if kind == "op" and text == "(":
            self.pos += 1
            expr = self._parse_or()
            kind, text, col = self._peek()
            if (kind, text) != ("op", ")"):
                self._error("expected ')'", col)
            self.pos += 1
            return expr
        if kind == "ident" and text not in ("AND", "OR"):
            dim = text
            self.pos += 1
            kind, text, col2 = self._peek()
            if (kind, text) != ("op", "="):
                self._error(f"expected '=' after {dim!r}", col2 if col2 else col)
            self.pos += 1
            kind, value, col3 = self._peek()
            if kind != "ident" or value in ("AND", "OR"):
                self._error(f"expected a value after {dim}=", col3 if col3 else col)
            self.pos += 1
            return Literal(ContextPredicate(dim, value))
        self._error("expected a dimension=value literal or '('", col)


def parse_knowledge(text: str, source: str = "<rules>") -> KnowledgeModel:
    """Parse rule-file text into a validated :class:`KnowledgeModel`."""
    activity_names: list[str] = []
    activity_lines: dict[str, int] = {}
    dims: list[ContextDimension] = []
    dim_lines: dict[str, int] = {}
    rule_entries: list[tuple[str, Requirement, int]] = []
    section = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        m = _SECTION_RE.match(stripped)
        if m:
            name = m.group(1)
            if name not in ("activities", "contexts", "rules"):
                raise RuleFileError(f"unknown section [{name}]", source=source, line=lineno)
            section = name
            continue
        if section is None:
            raise RuleFileError("content before any [section] header", source=source, line=lineno)

        if section == "activities":
            if not _IDENT.fullmatch(stripped):
                raise RuleFileError(f"invalid activity name {stripped!r}",
                                    source=source, line=lineno)
            if stripped in activity_lines:
                raise RuleFileError(
                    f"duplicate activity {stripped!r} (first declared on line "
                    f"{activity_lines[stripped]})", source=source, line=lineno)
            activity_lines[stripped] = lineno
            activity_names.append(stripped)

        elif section == "contexts":
            m = _DIM_RE.match(stripped)
            if m is None:
                raise RuleFileError("expected 'name (exclusive|multi): value, value, ...'",
                                    source=source, line=lineno)
            name = m.group("name")
            if name in dim_lines:
                raise RuleFileError(
                    f"duplicate context dimension {name!r} (first declared on line "
                    f"{dim_lines[name]})", source=source, line=lineno)
            values = [v.strip() for v in m.group("values").split(",")]
            for v in values:
                if not _IDENT.fullmatch(v):
                    raise RuleFileError(f"invalid value {v!r} in dimension {name!r}",
                                        source=source, line=lineno)
            if len(set(values)) != len(values):
                raise RuleFileError(f"duplicate value in dimension {name!r}",
                                    source=source, line=lineno)
            dim_lines[name] = lineno
            dims.append(ContextDimension(name, tuple(values),
                                         exclusive=m.group("flag") != "multi"))

        else:  # rules
            head, sep, expr_text = line.partition(":")
            if not sep:
                raise RuleFileError("expected 'activity: expression'", source=source, line=lineno)
            activity = head.strip()
            if not _IDENT.fullmatch(activity):
                raise RuleFileError(f"invalid activity name {activity!r}",
                                    source=source, line=lineno)
            parser = _ExpressionParser(expr_text, source, lineno, offset=len(head) + 1)
            if not parser.tokens:
                raise RuleFileError("empty rule expression", source=source, line=lineno)
            rule_entries.append((activity, parser.parse(), lineno))

    if not activity_names:
        raise RuleFileError("no [activities] declared", source=source)

    vocab = ContextVocabulary(tuple(dims))
    rules: dict[str, list[Requirement]] = {}
    for activity, requirement, lineno in rule_entries:
        if activity not in activity_lines:
            raise RuleFileError(f"unknown activity {activity!r}", source=source, line=lineno)
        for literal in requirement.literals():
            if not vocab.has_dimension(literal.dimension):
                raise RuleFileError(f"unknown context dimension {literal.dimension!r}",
                                    source=source, line=lineno)
            if literal not in vocab:
                raise RuleFileError(f"unknown context predicate '{literal}'",
                                    source=source, line=lineno)
        rules.setdefault(activity, []).append(requirement)

    return KnowledgeModel(tuple(activity_names), vocab,
                          {k: tuple(v) for k, v in rules.items()})


def load_knowledge(path: str | Path) -> KnowledgeModel:
    """Load and validate a rule file from disk."""
    path = Path(path)
    return parse_knowledge(path.read_text(encoding="utf-8"), source=str(path))
