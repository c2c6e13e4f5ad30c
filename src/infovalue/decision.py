"""Finite decision problems: actions, utilities, and optimal choice.

An action is a total map from states to outcomes; a decision problem fixes
a prior, a utility on outcomes, and an ordered set of candidate actions.
Ordering matters: optimal choice takes the earliest-listed maximizer, so two
problems with the same actions in a different order are different problems.
Whether acts tie is a fact about the inputs: updating's ``_probe_ties``
finds the first tie a problem's posteriors would meet.

Choice runs on integers.  Each problem derives, once, an integer utility
table: :mod:`prob`'s ``_over_lcm`` brings the utilities to the scale
``U``, the lcm of their denominators, and each action gets a row of
``u(outcome) * U`` in state order.  The table is a view of ``outcomes`` and ``choices``, not a field, so
it takes no part in equality and is rebuilt whenever the problem is.  An
expected utility is then one integer dot product of a row with a credence's
numerators, over ``credence.den * U``; Fractions appear only in returned
values.

:func:`best_action` scores a credence on every state and takes the first
maximizer, and ``DecisionProblem._cell_scores`` scores the prior on a
cell's columns, read by :mod:`prob`'s one reader ``_cell_weights`` with no
credence conditioned, for :func:`is_relevant` and ``val_good``.  An update
policy's choices (``updating._choice_groups``) are decided once per
posterior object, by each act's lead over the first act on its own cell's
columns only.  That is exact: a posterior puts all of its mass on its
cell, so every product left out is 0, and each score is the first act's
plus its lead.  They are stored once, as per-cell act groups: for each
cell, the positions of the positive-prior states that choose each act,
keyed by the act's index in the choice set.
The realized value, the leak test and the cellwise decomposition all read
those groups.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING

from .errors import SpaceMismatchError, ValidationError
from .prob import (
    Credence,
    Event,
    StateSpace,
    _cell_weights,
    _check_types,
    _distinct_ids,
    _over_lcm,
    _sequence,
    as_fraction,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .updating import EvidencePartition

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
        object.__setattr__(
            self, "_rows", {action: self._utility_row(action) for action in self.choices}
        )

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

    def _row(self, action: Action) -> tuple[int, ...]:
        """The action's cached utility row, or a fresh one if it is not a choice."""
        row = self._rows.get(action)
        return self._utility_row(action) if row is None else row

    def _scores(self, credence: Credence) -> list[int]:
        """Each choice's expected utility times ``credence.den * U``, in order."""
        if credence.space != self.space:
            raise SpaceMismatchError("credence is not over the problem's space")
        nums = credence.nums
        return [sum(map(mul, row, nums)) for row in self._rows.values()]

    def _cell_scores(self, cell: Event) -> tuple[int, list[int]]:
        """The prior's integer weight on ``cell`` and, in choice order, each
        choice's expected utility given the cell times ``weight * U``; refused
        as conditioning on ``cell`` would be, by ``_cell_weights``."""
        take, weights = _cell_weights(self.prior, cell)
        rows = self._rows.values()
        return sum(weights), [sum(map(mul, take(row), weights)) for row in rows]


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
    return Fraction(sum(map(mul, problem._row(action), p.nums)), p.den * problem._scale)


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


def is_relevant(problem: DecisionProblem, partition: "EvidencePartition") -> bool:
    """Whether the evidence could change the best choice.

    True iff no single action attains the maximum conditional expected
    utility in *every* cell.  Evaluation is tie-insensitive: an action that
    merely ties for best everywhere still makes the evidence irrelevant.
    Each cell's scores come from ``_cell_scores`` (so through ``prob``'s
    ``_cell_weights``), with no credence conditioned.
    """
    from .updating import EvidencePartition  # updating imports this module

    _check_types(
        ("problem", problem, DecisionProblem), ("partition", partition, EvidencePartition)
    )
    rows = []
    for cell in partition.cells:
        scores = problem._cell_scores(cell)[1]
        best = max(scores)
        rows.append([score == best for score in scores])
    return not any(all(column) for column in zip(*rows))
