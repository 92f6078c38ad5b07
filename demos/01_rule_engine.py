"""Walkthrough: the declarative knowledge model and consistency reasoning.

Loads the 14-activity rule file, evaluates a few context states, and shows the
open-world behaviour: activities are excluded only by contradicting evidence,
and observing more context can only shrink the consistent set.
"""

from nesyhar import ContextState, load_knowledge

model = load_knowledge("configs/domino.rules")
print(f"activities ({model.num_activities}):", ", ".join(model.activity_names))
print(f"context predicates: {model.vocabulary.size}")
print()

states = [
    ("nothing observed", ContextState()),
    ("outdoors", ContextState.from_pairs(["location_type=outdoor"])),
    ("outdoors, moving fast", ContextState.from_pairs(
        ["location_type=outdoor", "speed=high"])),
    ("outdoors, fast, on a transit route", ContextState.from_pairs(
        ["location_type=outdoor", "speed=high", "transport_route=true"])),
]

# one query answers every state: row i, column j is true iff activity j is
# consistent with state i
matrix = model.consistent_activities(
    model.vocabulary.encode_states([state for _, state in states]))
for i, ((title, _), vector) in enumerate(zip(states, matrix)):
    print(f"-- {title}")
    print(f"   consistent ({vector.sum()}): "
          + ", ".join(a for a, ok in zip(model.activity_names, vector) if ok))
    print(f"   vector: {' '.join(str(int(ok)) for ok in vector)}")
    if i:
        # more evidence never re-admits an excluded activity
        assert not (vector & ~matrix[i - 1]).any(), "monotonicity violated"
print()
print("each extra observation only ever shrank the consistent set (monotonicity).")
