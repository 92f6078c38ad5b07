"""The per-state rule-tree evaluator, the test oracle for nesyhar.knowledge.

``reference_consistent`` walks every rule tree of every activity for one
:class:`ContextState`, with the open-world semantics of the knowledge module's
docstring: a literal fails only when its dimension is exclusive and observed
with another value. ``KnowledgeModel.consistent_activities`` must agree with
it on every encoded row. ``decode_state`` inverts
``ContextVocabulary.encode_state``.
"""

from __future__ import annotations

import numpy as np

from nesyhar.knowledge import AllOf, AnyOf, ContextPredicate, ContextState, Literal


def literal_satisfied(state, literal, vocab) -> bool:
    if literal in state.observed or not state.observes(literal.dimension):
        return True
    return not vocab.dimension(literal.dimension).exclusive


def satisfied(requirement, state, vocab) -> bool:
    if isinstance(requirement, Literal):
        return literal_satisfied(state, requirement.predicate, vocab)
    results = (satisfied(c, state, vocab) for c in requirement.children)
    if isinstance(requirement, AllOf):
        return all(results)
    assert isinstance(requirement, AnyOf)
    return any(results)


def reference_consistent(model, state) -> frozenset[str]:
    """The activities none of whose rules the state violates."""
    model.vocabulary.encode_state(state)  # rejects unknown predicates and clashes
    return frozenset(a for a in model.activity_names
                     if all(satisfied(r, state, model.vocabulary)
                            for r in model.rules.get(a, ())))


def decode_state(vocab, vector) -> ContextState:
    vector = np.asarray(vector)
    assert vector.shape == (vocab.size,)
    predicates = [ContextPredicate(d.name, v) for d in vocab.dimensions for v in d.values]
    return ContextState(frozenset(predicates[i] for i in np.flatnonzero(vector)))
