"""Finite decision problems: actions, utilities, and optimal choice.

An action is a total map from states to outcomes; a decision problem fixes
a prior, a utility on outcomes, and an ordered set of candidate actions.
Ordering matters: optimal choice takes the earliest-listed maximizer, so two
problems with the same actions in a different order are different problems.
Whether acts tie is a fact about the inputs: ``_probe_ties`` finds the
first tie a problem's posteriors would meet.

Choice runs on integers.  Each problem derives, once, an integer utility
table: :mod:`prob`'s ``_over_lcm`` brings the utilities to the scale
``U``, the lcm of their denominators, and each action gets a row of
``u(outcome) * U`` in state order.  The rows are a tuple in choice order,
read by position.  The table is a view of ``outcomes`` and ``choices``,
not a field, so it takes no part in equality and is rebuilt whenever the
problem is.  An expected utility is then one integer dot product of a row
with a credence's numerators, over ``credence.den * U``; Fractions appear
only in returned values.

:func:`best_action` scores a credence on every state and takes the first
maximizer, and ``DecisionProblem._cell_scores`` scores the prior on a
cell's columns, read by :mod:`prob`'s one reader ``_cell_weights`` with no
credence conditioned, for :func:`is_relevant`, ``_probe_ties`` and
``val_good``.  An update policy's choices are grouped by :mod:`voi`, which
reads the rows by position.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .errors import SpaceMismatchError, ValidationError
from .prob import (
    Credence,
    Event,
    EvidencePartition,
    StateSpace,
    _cell_weights,
    _check_types,
    _distinct_ids,
    _over_lcm,
    _sequence,
    as_fraction,
)

__all__ = [
    "OutcomeSpace",
    "Action",
    "ChoiceSet",
    "DecisionProblem",
    "expected_utility",
    "best_action",
    "is_relevant",
]


@dataclass(frozen=True)
class OutcomeSpace:
    """Ordered outcome ids with an exact utility for each."""

    outcomes: tuple[str, ...]
    utility: Mapping[str, Fraction] = field(hash=False)

    def __post_init__(self) -> None:
        seen = _distinct_ids("outcomes", self.outcomes, "outcome", "an outcome space")
        object.__setattr__(self, "outcomes", tuple(seen))
        _check_types(("utility", self.utility, Mapping))
        cleaned = {}
        for outcome, raw in self.utility.items():
            if outcome not in seen:
                raise ValidationError(f"utility assigned to unknown outcome {outcome!r}")
            cleaned[outcome] = as_fraction(raw)
        missing = [o for o in self.outcomes if o not in cleaned]
        if missing:
            raise ValidationError(f"no utility for outcomes: {missing}")
        object.__setattr__(self, "utility", cleaned)

    def __contains__(self, outcome: object) -> bool:
        return outcome in self.utility

    def u(self, outcome: str) -> Fraction:
        try:
            return self.utility[outcome]
        except KeyError:
            raise ValidationError(f"unknown outcome {outcome!r}") from None


@dataclass(frozen=True)
class Action:
    """A named total map from states to outcomes.

    Totality is checked by :class:`DecisionProblem`, which knows the space.
    """

    id: str
    assignment: Mapping[str, str] = field(hash=False)

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError(f"action ids must be non-empty strings, got {self.id!r}")
        _check_types(("assignment", self.assignment, Mapping))
        object.__setattr__(self, "assignment", dict(self.assignment))

    def outcome_in(self, state: str) -> str:
        try:
            return self.assignment[state]
        except KeyError:
            raise ValidationError(
                f"action {self.id!r} assigns no outcome to state {state!r}"
            ) from None


@dataclass(frozen=True)
class ChoiceSet:
    """An ordered collection of actions with distinct ids."""

    actions: tuple[Action, ...]

    def __post_init__(self) -> None:
        actions = _sequence("actions", self.actions, "sequence of Actions")
        for a in actions:
            if not isinstance(a, Action):
                raise ValidationError(
                    f"choice set entries must be Actions, not {type(a).__name__}"
                )
        _distinct_ids("actions", [a.id for a in actions], "action", "a choice set")
        object.__setattr__(self, "actions", actions)

    def __iter__(self):
        return iter(self.actions)

    def __len__(self) -> int:
        return len(self.actions)

    def ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.actions)

    def by_id(self, action_id: str) -> Action:
        for a in self.actions:
            if a.id == action_id:
                return a
        raise ValidationError(f"no action with id {action_id!r}")


@dataclass(frozen=True)
class DecisionProblem:
    """A prior, a utility, and the actions on offer.

    Under any credence the problem's choice is its earliest-listed
    maximizer, so the order of ``choices`` is part of the problem.

    Construction validates every (action, state) pair and, in the same walk,
    derives the integer utility table described in the module docstring.
    """

    space: StateSpace
    outcomes: OutcomeSpace
    prior: Credence
    choices: ChoiceSet

    def __post_init__(self) -> None:
        _check_types(
            ("space", self.space, StateSpace), ("outcomes", self.outcomes, OutcomeSpace),
            ("prior", self.prior, Credence), ("choices", self.choices, ChoiceSet),
        )
        if self.prior.space != self.space:
            raise SpaceMismatchError("prior is not a credence over the problem's space")
        utility = self.outcomes.utility
        scaled, _, scale = _over_lcm([u.as_integer_ratio() for u in utility.values()])
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_scaled_utility", dict(zip(utility, scaled)))
        object.__setattr__(self, "_rows", tuple(map(self._utility_row, self.choices)))

    def _utility_row(self, action: Action) -> tuple[int, ...]:
        """``u(outcome) * U`` for each state in order, validating the action.

        A total action onto known outcomes is read by C-level lookups; the
        walk below runs only to name the first fault.
        """
        scaled, assignment = self._scaled_utility, action.assignment
        try:
            row = tuple(
                map(scaled.__getitem__, map(assignment.__getitem__, self.space.states))
            )
        except (KeyError, TypeError):  # TypeError: an unhashable outcome
            pass
        else:
            if len(assignment) == len(row):
                return row
        for state in self.space:
            outcome = assignment.get(state)
            if outcome is None:
                raise ValidationError(
                    f"action {action.id!r} assigns no outcome to state {state!r}"
                )
            if not isinstance(outcome, str) or outcome not in scaled:
                raise ValidationError(
                    f"action {action.id!r} maps state {state!r} to "
                    f"unknown outcome {outcome!r}"
                )
        stray = set(assignment) - set(self.space.states)
        raise ValidationError(
            f"action {action.id!r} assigns outcomes to unknown states: {sorted(stray)}"
        )

    def _scores(self, credence: Credence) -> list[int]:
        """Each choice's expected utility times ``credence.den * U``, in order."""
        if credence.space != self.space:
            raise SpaceMismatchError("credence is not over the problem's space")
        nums = credence.nums
        return [sum(map(mul, row, nums)) for row in self._rows]

    def _cell_scores(self, cell: Event) -> tuple[int, list[int]]:
        """The prior's integer weight on ``cell`` and, in choice order, each
        choice's expected utility given the cell times ``weight * U``; refused
        as conditioning on ``cell`` would be, by ``_cell_weights``."""
        take, weights = _cell_weights(self.prior, cell)
        return sum(weights), [sum(map(mul, take(row), weights)) for row in self._rows]


def expected_utility(
    problem: DecisionProblem, action: Action, credence: Credence | None = None
) -> Fraction:
    """Expected payoff of ``action`` under ``credence`` (default: the prior).

    Computed on integers: the action's utility row dotted with the
    credence's numerators, over ``credence.den * U``.  An action outside the
    choice set is validated against the problem and scored the same way.
    """
    _check_types(("problem", problem, DecisionProblem), ("action", action, Action))
    p = problem.prior if credence is None else credence
    _check_types(("credence", p, Credence))
    if p.space != problem.space:
        raise SpaceMismatchError("credence is not over the problem's space")
    row = problem._utility_row(action)
    return Fraction(sum(map(mul, row, p.nums)), p.den * problem._scale)


def best_action(credence: Credence, problem: DecisionProblem) -> tuple[Action, Fraction]:
    """The optimal action and its expected utility under ``credence``.

    Compares the integer numerators of the choices' expected utilities,
    which share the denominator ``credence.den * U``, and builds one
    Fraction for the value.  Of several maximizers, the earliest listed is
    chosen.
    """
    _check_types(("credence", credence, Credence), ("problem", problem, DecisionProblem))
    scores = problem._scores(credence)
    top = max(scores)
    den = credence.den * problem._scale
    return problem.choices.actions[scores.index(top)], Fraction(top, den)


def is_relevant(problem: DecisionProblem, partition: EvidencePartition) -> bool:
    """Whether the evidence could change the best choice.

    True iff no single action attains the maximum conditional expected
    utility in *every* cell.  Evaluation is tie-insensitive: an action that
    merely ties for best everywhere still makes the evidence irrelevant.
    Each cell's scores come from ``_cell_scores`` (so through ``prob``'s
    ``_cell_weights``), with no credence conditioned.
    """
    _check_types(
        ("problem", problem, DecisionProblem), ("partition", partition, EvidencePartition)
    )
    rows = []
    for cell in partition.cells:
        scores = problem._cell_scores(cell)[1]
        best = max(scores)
        rows.append([score == best for score in scores])
    return not any(all(column) for column in zip(*rows))


def _probe_ties(
    problem: DecisionProblem, partition: EvidencePartition, deviant: Mapping[Event, Credence]
) -> tuple[tuple[str, ...], Fraction] | None:
    """The first tie among the base posteriors: the tied act ids and their value.

    Cells are probed in declared order, each on its conditioned prior and
    then on its ``deviant`` posterior, if it has one.  The first posterior
    that gives two or more acts the best expected utility names them, in
    choice-set order, with that utility; ``None`` means no posterior ties.
    Those are the posteriors of updating's ``conditionalization_policy``
    and, mixed, of its ``mixture_expand`` by a spec with these deviant
    posteriors; a mixed credence prices each act as its base credence does,
    so for every epsilon strictly between 0 and 1 the expansion's choices
    tie exactly when this finds a tie.  A cell's prior is scored through
    ``DecisionProblem._cell_scores``, as in :func:`is_relevant`, so a
    zero-probability cell is refused as conditioning on it would be.  This
    is the one place a tie is decided: choice itself always takes the
    earliest maximizer.
    """

    def probes():  # (scores, den): each act's expected utility is score / (den * U)
        for cell in partition.cells:
            weight, scores = problem._cell_scores(cell)
            yield scores, weight
            posterior = deviant.get(cell)
            if posterior is not None:
                yield problem._scores(posterior), posterior.den

    for scores, den in probes():
        top = max(scores)
        if scores.count(top) > 1:
            tied = (a for a, score in zip(problem.choices.ids(), scores) if score == top)
            return tuple(tied), Fraction(top, den * problem._scale)
    return None
