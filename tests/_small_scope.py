"""Every problem in a small scope, enumerated in one fixed order with no RNG.

The scope has three states ``a``, ``b`` and ``c``, and the partitions
{abc} and {ab}{c}.  A policy gives each state a posterior on denominator 2
that is certain of the state's cell: 6 ** 3 policies on {abc} and 3 ** 2
on {ab}{c}, 225 in all.  A problem is the zero act ``safe`` against a
``risky`` act that pays -1, 0 or 1 in each state, 27 per prior.  Adding
one function of the state to every act changes neither value, so fixing
the first act at 0 loses no problem with two acts.

Priors are positive weight triples ``(a, b, c)``, listed by their total
and then in lexicographic order.  Swapping ``a`` and ``b`` maps the scope
onto itself, so only priors with ``a <= b`` are listed.
"""

from fractions import Fraction
from itertools import count, product

from infovalue.decision import Action, ChoiceSet, DecisionProblem, OutcomeSpace
from infovalue.prob import Credence, Event, EvidencePartition, StateSpace
from infovalue.updating import UpdatePolicy

SPACE = StateSpace(("a", "b", "c"))
PARTITIONS = (
    EvidencePartition(SPACE, (Event(SPACE, {"a", "b", "c"}),)),
    EvidencePartition(SPACE, (Event(SPACE, {"a", "b"}), Event(SPACE, {"c"}))),
)
_PAYS = ("-1", "0", "1")
_OUTCOMES = OutcomeSpace(_PAYS, {pay: int(pay) for pay in _PAYS})
_SAFE = Action("safe", dict.fromkeys(SPACE.states, "0"))


def priors():
    """Every positive prior with ``a <= b``, by weight total, without end."""
    for total in count(3):
        for a in range(1, total - 1):
            for b in range(a, total - a):
                weights = (a, b, total - a - b)
                yield Credence(SPACE, {s: Fraction(w, total) for s, w in zip(SPACE, weights)})


def problems(prior):
    """The 27 problems on ``prior``: ``safe`` against each ``risky``, in
    lexicographic order of its payoffs."""
    return [
        DecisionProblem(
            SPACE,
            _OUTCOMES,
            prior,
            ChoiceSet((_SAFE, Action("risky", dict(zip(SPACE.states, pays))))),
        )
        for pays in product(_PAYS, repeat=3)
    ]


def _halves(cell):
    """The cell's posteriors on denominator 2, one object each."""
    members = cell.sorted_members()
    return [
        Credence(SPACE, {s: Fraction(h, 2) for s, h in zip(members, halves)})
        for halves in product(range(3), repeat=len(members))
        if sum(halves) == 2
    ]


def policies():
    """The 225 policies, partition by partition, each state's posterior
    drawn from its cell's list, states that pick alike sharing one object."""
    for partition in PARTITIONS:
        options = {cell: _halves(cell) for cell in partition.cells}
        per_state = [options[partition.cell_of(s)] for s in SPACE.states]
        for picked in product(*per_state):
            yield UpdatePolicy(partition, dict(zip(SPACE.states, picked)))
