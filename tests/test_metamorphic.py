"""Metamorphic relations: ``evaluate`` checked at sizes no oracle reaches.

Each relation transforms a drawn instance and says exactly how the report
must change, so no second computation of a value is needed.  Instances are
built with the property suite's generators at 16 to 64 states, from fixed
seeds: literal conditionalization on a drawn problem, and the mixture
expansion of a drawn problem (8 to 32 base states) with a drawn self-doubt
disposition.  Where ``evaluate`` refuses because choices leak, the
transformed instance must be refused with the same witness, carried
across.

- Relabel the states and permute their order: the values, the cells (in
  declared order) and each row's act id are unchanged, and each row's
  states map across.
- Append a copy of every act, each under a fresh id: the earliest
  maximizer wins, so no copy is ever chosen, and the values, the rows and
  ``chosen_by_state`` are unchanged.
"""

import dataclasses
import random

import pytest

from infovalue.decision import Action, ChoiceSet, DecisionProblem
from infovalue.errors import IndependenceBrokenError
from infovalue.prob import Credence, Event, StateSpace
from infovalue.properties import _random_deviation_spec, _random_problem
from infovalue.updating import (
    EvidencePartition,
    UpdatePolicy,
    conditionalization_policy,
    mixture_expand,
)
from infovalue.voi import evaluate

SEEDS = range(8)


def conditionalization_instance(rng):
    problem, partition = _random_problem(rng, 16, 64)
    return problem, conditionalization_policy(problem.prior, partition)


def mixture_instance(rng):
    base, partition = _random_problem(rng, 8, 32, need_wide_cell=True)
    spec = _random_deviation_spec(rng, base.prior, partition)
    return mixture_expand(base, partition, spec)


INSTANCES = [
    pytest.param(draw, seed, id=f"{draw.__name__.split('_')[0]}-{seed}")
    for draw in (conditionalization_instance, mixture_instance)
    for seed in SEEDS
]


def outcome(problem, policy):
    """The report, or the refusal's witness as ``(cell members, chosen, probe)``."""
    try:
        return evaluate(problem, policy)
    except IndependenceBrokenError as error:
        return error.cell.members, error.chosen_action, error.probe_action


def relabelled(problem, policy, rng):
    """The instance on fresh state ids in a shuffled order, and the id map.

    Cells keep their declared order, acts their order and outcomes, and
    states that shared a posterior object still share one.
    """
    old = problem.space.states
    name = dict(zip(old, (f"t{j}" for j in rng.sample(range(len(old)), len(old)))))
    space = StateSpace(tuple(name[s] for s in rng.sample(old, len(old))))
    moved = {}

    def move(credence):
        if id(credence) not in moved:
            moved[id(credence)] = Credence(space, {name[s]: credence(s) for s in old})
        return moved[id(credence)]

    choices = ChoiceSet(tuple(
        Action(a.id, {name[s]: o for s, o in a.assignment.items()})
        for a in problem.choices
    ))
    partition = EvidencePartition(space, tuple(
        Event(space, {name[s] for s in cell.members}) for cell in policy.partition
    ))
    posteriors = {name[s]: move(p) for s, p in policy.posteriors.items()}
    return (
        DecisionProblem(space, problem.outcomes, move(problem.prior), choices),
        UpdatePolicy(partition, posteriors),
        name,
    )


def carried(result, name=None):
    """``result`` with every state id passed through ``name`` (kept if
    ``None``), each row's states as a set and each cell as its members."""
    rename = set if name is None else (lambda states: {name[s] for s in states})
    if not hasattr(result, "per_cell"):
        members, chosen, probe = result
        return rename(members), chosen, probe
    return (
        (result.baseline, result.val_good, result.val_general),
        [
            (
                rename(c.cell.members), c.prob, c.max_cond_eu,
                [(r.action_id, r.choose_prob, r.cond_eu, rename(r.states)) for r in c.rows],
            )
            for c in result.per_cell
        ],
    )


@pytest.mark.parametrize("draw, seed", INSTANCES)
def test_relabelling_and_permuting_the_states_maps_the_report_across(draw, seed):
    rng = random.Random(f"metamorphic:{seed}")
    problem, policy = draw(rng)
    assert 16 <= len(problem.space) <= 64
    moved_problem, moved_policy, name = relabelled(problem, policy, rng)
    assert moved_problem.space.states != problem.space.states
    assert carried(outcome(moved_problem, moved_policy)) == carried(
        outcome(problem, policy), name
    )


@pytest.mark.parametrize("draw, seed", INSTANCES)
def test_copies_of_the_acts_listed_last_are_never_chosen(draw, seed):
    problem, policy = draw(random.Random(f"metamorphic:{seed}"))
    copies = tuple(Action(f"copy-of-{a.id}", a.assignment) for a in problem.choices)
    widened = dataclasses.replace(
        problem, choices=ChoiceSet(problem.choices.actions + copies)
    )
    report, widened_report = outcome(problem, policy), outcome(widened, policy)
    assert widened_report == report
    if hasattr(report, "per_cell"):
        assert widened_report.chosen_by_state == report.chosen_by_state
