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
- Scale every utility by 7/5, a factor with a denominator no drawn
  utility has: the baseline, both values, each cell's ``max_cond_eu`` and
  each row's ``cond_eu`` scale by 7/5, and the rest of the report, or the
  leak witness, is unchanged.
- Add one drawn function of the state to every act, through a fresh
  outcome for each (outcome, state) pair: ``val_good`` and ``val_general``
  are unchanged.  The two functions are compared rather than ``evaluate``,
  as a shift can make choices leak or stop them leaking.
- Reverse the choice set: ``val_good`` compares maxima only, so it is
  unchanged on every draw.  On a draw whose base credences
  ``_probe_ties`` finds tie-free, every posterior has one best act, so
  ``val_general`` and ``chosen_by_state`` are unchanged too.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from infovalue.decision import (
    Action,
    ChoiceSet,
    DecisionProblem,
    OutcomeSpace,
    _probe_ties,
)
from infovalue.errors import IndependenceBrokenError
from infovalue.prob import Credence, Event, EvidencePartition, StateSpace
from infovalue.properties import _random_deviation_spec, _random_problem
from infovalue.updating import (
    UpdatePolicy,
    conditionalization_policy,
    mixture_expand,
)
from infovalue.voi import evaluate, val_general, val_good

SEEDS = range(8)


def conditionalization_instance(rng):
    """A drawn problem, its conditionalizer, and the first tie of its posteriors."""
    problem, partition = _random_problem(rng, 16, 64)
    policy = conditionalization_policy(problem.prior, partition)
    return problem, policy, _probe_ties(problem, partition, {})


def mixture_instance(rng):
    """A drawn mixture expansion, and the first tie of its base credences."""
    base, partition = _random_problem(rng, 8, 32, need_wide_cell=True)
    spec = _random_deviation_spec(rng, base.prior, partition)
    tie = _probe_ties(base, partition, spec.deviant_posteriors)
    return (*mixture_expand(base, partition, spec), tie)


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


def carried(result, name=None, scale=1):
    """``result`` with every state id passed through ``name`` (kept if
    ``None``), each row's states as a set and each cell as its members, and
    every expected utility and value times ``scale``."""
    rename = set if name is None else (lambda states: {name[s] for s in states})
    if not hasattr(result, "per_cell"):
        members, chosen, probe = result
        return rename(members), chosen, probe
    return (
        tuple(scale * v for v in (result.baseline, result.val_good, result.val_general)),
        [
            (
                rename(c.cell.members), c.prob, scale * c.max_cond_eu,
                [
                    (r.action_id, r.choose_prob, scale * r.cond_eu, rename(r.states))
                    for r in c.rows
                ],
            )
            for c in result.per_cell
        ],
    )


@pytest.mark.parametrize("draw, seed", INSTANCES)
def test_relabelling_and_permuting_the_states_maps_the_report_across(draw, seed):
    rng = random.Random(f"metamorphic:{seed}")
    problem, policy, _ = draw(rng)
    assert 16 <= len(problem.space) <= 64
    moved_problem, moved_policy, name = relabelled(problem, policy, rng)
    assert moved_problem.space.states != problem.space.states
    assert carried(outcome(moved_problem, moved_policy)) == carried(
        outcome(problem, policy), name
    )


@pytest.mark.parametrize("draw, seed", INSTANCES)
def test_copies_of_the_acts_listed_last_are_never_chosen(draw, seed):
    problem, policy, _ = draw(random.Random(f"metamorphic:{seed}"))
    copies = tuple(Action(f"copy-of-{a.id}", a.assignment) for a in problem.choices)
    widened = dataclasses.replace(
        problem, choices=ChoiceSet(problem.choices.actions + copies)
    )
    report, widened_report = outcome(problem, policy), outcome(widened, policy)
    assert widened_report == report
    if hasattr(report, "per_cell"):
        assert widened_report.chosen_by_state == report.chosen_by_state


SCALE = Fraction(7, 5)  # drawn utilities have denominators 1 to 4


@pytest.mark.parametrize("draw, seed", INSTANCES)
def test_scaling_every_utility_scales_every_value(draw, seed):
    problem, policy, _ = draw(random.Random(f"metamorphic:{seed}"))
    utility = problem.outcomes.utility
    scaled = dataclasses.replace(problem, outcomes=OutcomeSpace(
        problem.outcomes.outcomes, {o: u * SCALE for o, u in utility.items()}
    ))
    assert problem._scale % 5 and not scaled._scale % 5  # a new denominator
    assert carried(outcome(scaled, policy)) == carried(outcome(problem, policy), scale=SCALE)


def shifted(problem, rng):
    """The problem with a drawn ``f(state)`` added to every act's payoff there.

    Each (outcome, state) pair an act uses becomes a fresh outcome worth
    ``u(outcome) + f(state)``.
    """
    shift = {s: Fraction(rng.randint(-12, 12), rng.randint(1, 5)) for s in problem.space}
    utility = problem.outcomes.utility
    fresh = {
        f"{o}@{s}": utility[o] + shift[s]
        for a in problem.choices
        for s, o in a.assignment.items()
    }
    choices = ChoiceSet(tuple(
        Action(a.id, {s: f"{o}@{s}" for s, o in a.assignment.items()})
        for a in problem.choices
    ))
    return DecisionProblem(
        problem.space, OutcomeSpace(tuple(fresh), fresh), problem.prior, choices
    )


@pytest.mark.parametrize("draw, seed", INSTANCES)
def test_adding_a_function_of_the_state_to_every_act_changes_no_value(draw, seed):
    rng = random.Random(f"metamorphic:{seed}")
    problem, policy, _ = draw(rng)
    moved = shifted(problem, rng)
    assert moved.prior == problem.prior
    assert (val_good(moved, policy.partition), val_general(moved, policy)) == (
        val_good(problem, policy.partition), val_general(problem, policy)
    )


@pytest.mark.parametrize("draw, seed", INSTANCES)
def test_reversing_the_acts_of_a_tie_free_draw_changes_no_value_or_choice(draw, seed):
    problem, policy, tie = draw(random.Random(f"metamorphic:{seed}"))
    reversed_problem = dataclasses.replace(
        problem, choices=ChoiceSet(problem.choices.actions[::-1])
    )
    assert val_good(reversed_problem, policy.partition) == val_good(problem, policy.partition)
    if tie is not None:
        return  # a tied posterior takes the other end of its tie once reversed
    assert val_general(reversed_problem, policy) == val_general(problem, policy)
    report, reversed_report = evaluate(problem, policy), evaluate(reversed_problem, policy)
    assert reversed_report.chosen_by_state == report.chosen_by_state
