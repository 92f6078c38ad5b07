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

:class:`ContextVocabulary` alone owns the multi-hot layout of context rows and
the exclusivity check (:meth:`ContextVocabulary.rival_counts`), which both
state encoding and the reasoner's queries go through.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

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
    the layout of multi-hot context vectors everywhere in the toolkit;
    ``dimension_of[i]`` is the index in ``dimensions`` of predicate i.
    """

    dimensions: tuple[ContextDimension, ...]
    _by_name: dict = field(init=False, repr=False, compare=False)
    _pred_index: dict = field(init=False, repr=False, compare=False)
    dimension_of: np.ndarray = field(init=False, repr=False, compare=False)
    _rivals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = self.dimensions
        by_name = {}
        for dim in dims:
            if dim.name in by_name:
                raise ValueError(f"duplicate context dimension {dim.name!r}")
            if len(set(dim.values)) != len(dim.values):
                raise ValueError(f"duplicate value in context dimension {dim.name!r}")
            by_name[dim.name] = dim
        index = {p: i for i, p in enumerate(
            ContextPredicate(d.name, v) for d in dims for v in d.values)}
        dim_of = np.array([i for i, d in enumerate(dims) for _ in d.values], dtype=np.intp)
        exclusive = np.array([dims[i].exclusive for i in dim_of], dtype=bool)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_pred_index", index)
        object.__setattr__(self, "dimension_of", dim_of)
        # 1 where two predicates share an exclusive dimension
        object.__setattr__(self, "_rivals", ((dim_of[:, None] == dim_of) & exclusive) * 1.0)

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

    def rival_counts(self, observed: np.ndarray) -> np.ndarray:
        """Per row of a bool (n, size) observed matrix and per predicate, the values
        observed on its dimension if that is exclusive (else 0); raises ValueError
        when a row observes two values on an exclusive dimension."""
        counts = observed @ self._rivals
        if (counts > 1).any():
            name = self.dimensions[self.dimension_of[np.argmax((counts > 1).any(axis=0))]].name
            raise ValueError(f"multiple values observed for exclusive dimension {name!r}")
        return counts

    def encode_states(self, states: Sequence["ContextState"]) -> np.ndarray:
        """(n, size) multi-hot matrix, row i with a 1 at each predicate state i
        observes; raises ValueError for an unknown predicate or two values on an
        exclusive dimension."""
        try:
            columns = [self._pred_index[p] for s in states for p in s.observed]
        except KeyError as exc:
            raise ValueError(f"predicate {exc.args[0]} not in context vocabulary") from None
        rows = np.zeros((len(states), self.size), dtype=np.float64)
        rows[np.repeat(np.arange(len(states)), [len(s.observed) for s in states]), columns] = 1.0
        self.rival_counts(rows != 0)
        return rows

    def encode_state(self, state: "ContextState") -> np.ndarray:
        """Row 0 of :meth:`encode_states` for the one state."""
        return self.encode_states([state])[0]


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


class Requirement:
    """Boolean expression tree over positive context literals (AND/OR only)."""

    def literals(self) -> Iterable[ContextPredicate]:
        for child in self.children:
            yield from child.literals()


@dataclass(frozen=True)
class Literal(Requirement):
    predicate: ContextPredicate

    def literals(self):
        yield self.predicate


@dataclass(frozen=True)
class AllOf(Requirement):
    children: tuple[Requirement, ...]


@dataclass(frozen=True)
class AnyOf(Requirement):
    children: tuple[Requirement, ...]


@dataclass(frozen=True)
class KnowledgeModel:
    """Activity vocabulary, context vocabulary, and per-activity necessary conditions.

    An activity's index (in labels, consistency vectors and probability
    columns) is its position in ``activity_names``. Immutable after
    construction; all queries are pure, so a single model is safe to share
    between concurrent callers.

    The rules are compiled once, at construction, into the columns of a truth
    table: one per context predicate (its literal), a true and a false
    constant, one per AND/OR node, and last one AND node per activity over its
    rules. A node's level is one more than its deepest child's;
    :meth:`consistent_activities` fills the table level by level, with one
    reduction per level and operator, in time linear in the size of the rules.
    """

    activity_names: tuple[str, ...]
    vocabulary: ContextVocabulary
    rules: Mapping[str, tuple[Requirement, ...]]
    _levels: tuple = field(init=False, repr=False, compare=False)
    _width: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for i, name in enumerate(self.activity_names):
            if name in self.activity_names[:i]:
                raise ValueError(f"activity {name!r} listed more than once")
        for name in self.rules:
            if name not in self.activity_names:
                raise ValueError(f"rule for unknown activity {name!r}")
        vocab = self.vocabulary
        true, false = vocab.size, vocab.size + 1
        level = [0] * (vocab.size + 2)
        groups: dict[tuple[int, bool], list] = {}  # (level, is AND) -> [(column, children)]

        def add(is_and: bool, kids: list[int]) -> int:
            kids = kids or [true if is_and else false]  # an empty AND holds, an empty OR fails
            level.append(1 + max(level[c] for c in kids))
            groups.setdefault((level[-1], is_and), []).append((len(level) - 1, kids))
            return len(level) - 1

        def column(req: Requirement) -> int:
            if isinstance(req, Literal):
                if req.predicate not in vocab:
                    raise ValueError(f"rule literal {req.predicate} not in context vocabulary")
                return vocab.index(req.predicate)
            return add(isinstance(req, AllOf), [column(c) for c in req.children])

        roots = [[column(r) for r in self.rules.get(a, ())] for a in self.activity_names]
        for kids in roots:  # the activities take the last k columns
            add(True, kids)
        levels = []
        for (_, is_and), group in sorted(groups.items()):
            cols, kids = zip(*group)
            levels.append((np.array(cols), np.array([c for k in kids for c in k]),
                           np.cumsum([0, *map(len, kids[:-1])]),
                           np.logical_and if is_and else np.logical_or))
        object.__setattr__(self, "_levels", tuple(levels))
        object.__setattr__(self, "_width", len(level))

    @property
    def num_activities(self) -> int:
        return len(self.activity_names)

    def consistent_activities(self, context: np.ndarray) -> np.ndarray:
        """(n, k) bool matrix over encoded context rows (array-like, n x size):
        entry (i, j) is true iff no rule of activity j is violated by row i.

        A nonzero entry counts as observed. Raises ValueError for rows of the
        wrong width or with more than one value on an exclusive dimension.
        """
        context = np.asarray(context)
        size = self.vocabulary.size
        if context.ndim != 2 or context.shape[1] != size:
            raise ValueError(f"context rows have shape {context.shape}, expected (n, {size})")
        observed = context != 0
        rivals = self.vocabulary.rival_counts(observed)
        values = np.empty((len(context), self._width), dtype=bool)
        # a literal fails only when its exclusive dimension holds another value
        values[:, :size] = observed | (rivals == 0)
        values[:, size:size + 2] = (True, False)
        for columns, children, starts, op in self._levels:
            values[:, columns] = op.reduceat(values[:, children], starts, axis=1)
        return values[:, self._width - self.num_activities:]


# ---------------------------------------------------------------------------
# Rule-file parsing
# ---------------------------------------------------------------------------

_SECTION_RE = re.compile(r"^\[([a-z_]+)\]$")
_DIM_RE = re.compile(r"^(?P<name>\w+)\s*(?:\((?P<flag>exclusive|multi)\))?\s*:\s*(?P<values>.+)$")


class _ExpressionParser:
    """Recursive-descent parser for requirement expressions (AND > OR)."""

    _TOKEN_RE = re.compile(r"(?P<ident>[A-Za-z0-9_]+)|(?P<op>[=()])|(?P<stray>\S)")

    def __init__(self, text: str, source: str, line: int, offset: int):
        self.source = source
        self.line = line
        self.tokens: list[tuple[str, str, int]] = []
        for m in self._TOKEN_RE.finditer(text):
            if m.lastgroup == "stray":
                self._error(f"unexpected character {m.group()!r}", offset + m.start() + 1)
            self.tokens.append((m.lastgroup, m.group(), offset + m.start() + 1))
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
        return self._parse_chain("OR", AnyOf, self._parse_and)

    def _parse_and(self) -> Requirement:
        return self._parse_chain("AND", AllOf, self._parse_atom)

    def _parse_chain(self, word: str, node: type, operand) -> Requirement:
        """operand (word operand)*: one operand alone, or a ``node`` of them all."""
        terms = [operand()]
        while self._peek()[:2] == ("ident", word):
            self.pos += 1
            terms.append(operand())
        return terms[0] if len(terms) == 1 else node(tuple(terms))

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
    declared: dict[tuple[str, str], int] = {}  # (kind, name) -> line of its declaration
    dims: list[ContextDimension] = []
    rule_entries: list[tuple[str, Requirement, int]] = []
    section = None

    def error(message: str) -> RuleFileError:  # at lineno: the line read, or the rule's line
        return RuleFileError(message, source=source, line=lineno)

    def declare(kind: str, name: str) -> None:
        if (kind, name) in declared:
            raise error(f"duplicate {kind} {name!r} (first declared on line "
                        f"{declared[kind, name]})")
        declared[kind, name] = lineno

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        m = _SECTION_RE.match(stripped)
        if m:
            section = m.group(1)
            if section not in ("activities", "contexts", "rules"):
                raise error(f"unknown section [{section}]")
            continue
        if section is None:
            raise error("content before any [section] header")

        if section == "activities":
            if not _IDENT.fullmatch(stripped):
                raise error(f"invalid activity name {stripped!r}")
            declare("activity", stripped)

        elif section == "contexts":
            m = _DIM_RE.match(stripped)
            if m is None:
                raise error("expected 'name (exclusive|multi): value, value, ...'")
            name = m.group("name")
            declare("context dimension", name)
            values = [v.strip() for v in m.group("values").split(",")]
            for v in values:
                if not _IDENT.fullmatch(v):
                    raise error(f"invalid value {v!r} in dimension {name!r}")
            if len(set(values)) != len(values):
                raise error(f"duplicate value in dimension {name!r}")
            dims.append(ContextDimension(name, tuple(values),
                                         exclusive=m.group("flag") != "multi"))

        else:  # rules
            head, sep, expr_text = line.partition(":")
            if not sep:
                raise error("expected 'activity: expression'")
            activity = head.strip()
            if not _IDENT.fullmatch(activity):
                raise error(f"invalid activity name {activity!r}")
            parser = _ExpressionParser(expr_text, source, lineno, offset=len(head) + 1)
            if not parser.tokens:
                raise error("empty rule expression")
            rule_entries.append((activity, parser.parse(), lineno))

    activity_names = tuple(name for kind, name in declared if kind == "activity")
    if not activity_names:
        raise RuleFileError("no [activities] declared", source=source)

    vocab = ContextVocabulary(tuple(dims))
    rules: dict[str, list[Requirement]] = {}
    for activity, requirement, lineno in rule_entries:
        if ("activity", activity) not in declared:
            raise error(f"unknown activity {activity!r}")
        for literal in requirement.literals():
            if not vocab.has_dimension(literal.dimension):
                raise error(f"unknown context dimension {literal.dimension!r}")
            if literal not in vocab:
                raise error(f"unknown context predicate '{literal}'")
        rules.setdefault(activity, []).append(requirement)

    return KnowledgeModel(activity_names, vocab, {k: tuple(v) for k, v in rules.items()})


def load_knowledge(path: str | Path) -> KnowledgeModel:
    """Load and validate a rule file from disk."""
    path = Path(path)
    return parse_knowledge(path.read_text(encoding="utf-8"), source=str(path))
