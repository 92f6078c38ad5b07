import numpy as np
import pytest

from nesyhar.data import EncodedDataset
from nesyhar.knowledge import parse_knowledge
from nesyhar.nn import BranchSpec, NetworkSpec

TINY_RULES = """
[activities]
a_walk
a_run
a_ride
a_rest

[contexts]
motion (exclusive): still, slow, fast
place (exclusive): inside, outside

[rules]
a_walk: motion=slow
a_run: motion=fast
a_ride: motion=fast AND place=outside
a_rest: motion=still
"""


@pytest.fixture(scope="session")
def tiny_model():
    return parse_knowledge(TINY_RULES)


@pytest.fixture(scope="session")
def tiny_net_spec():
    return NetworkSpec(
        phone=BranchSpec(channels=2, length=12, filters=(3,), kernels=(3,), pool=2, dense=5),
        watch=BranchSpec(channels=1, length=10, filters=(2,), kernels=(4,), pool=2, dense=4),
        context_size=5,
        classes=4,
        context_dense=3,
        trunk_dense=6,
        dropout=0.1,
    )


def make_encoded(model, spec, n, seed, separable=True):
    """Random encoded dataset; with separable=True the phone signal carries
    a learnable per-class offset."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, spec.classes, size=n)
    phone = rng.normal(size=(n, spec.phone.channels, spec.phone.length))
    if separable:
        phone += labels[:, None, None] - 1.5
    watch = rng.normal(size=(n, spec.watch.channels, spec.watch.length))
    # valid random states: at most one value per exclusive dimension
    context = np.zeros((n, model.vocabulary.size))
    offsets = np.cumsum([0] + [len(d.values) for d in model.vocabulary.dimensions])[:-1]
    for i in range(n):
        for dim, off in zip(model.vocabulary.dimensions, offsets):
            choice = rng.integers(-1, len(dim.values))
            if choice >= 0:
                context[i, off + choice] = 1.0
    return EncodedDataset(
        phone=phone, watch=watch, context=context, labels=labels,
        activities=model.activity_names, vocabulary=model.vocabulary)


def consistency_row(model, state):
    """The compiled reasoner's row for one state: k bools in activity order."""
    return model.consistent_activities(model.vocabulary.encode_state(state)[None])[0]


def consistent_names(model, state):
    """The activities the compiled reasoner finds consistent with one state."""
    return frozenset(a for a, ok in zip(model.activity_names, consistency_row(model, state))
                     if ok)
