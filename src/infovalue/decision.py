"""Finite decision problems: actions, utilities, and optimal choice.

An action is a total map from states to outcomes; a decision problem fixes
a prior, a utility on outcomes, and an ordered set of candidate actions.
Ordering matters: the default tie policy picks the earliest-listed maximizer,
so two problems with the same actions in a different order are different
problems.

Choice runs on integers.  Each problem derives, once, an integer utility
table: :mod:`prob`'s ``_over_lcm`` brings the utilities to the scale
``U``, the lcm of their denominators, and each action gets a row of
``u(outcome) * U`` in state order.  The table is a view of ``outcomes`` and ``choices``, not a field, so
it takes no part in equality and is rebuilt whenever the problem is.  An
expected utility is then one integer dot product of a row with a credence's
numerators, over ``credence.den * U``; Fractions appear only in returned
values.

Every choice goes through one private core, ``_choose``, which takes the
choices' integer scores over a shared denominator and applies the tie
policy.  :func:`best_action` scores a credence on every state.  An update
policy's choices (``updating._choice_groups``) are decided once per
posterior object, by each act's lead over the first act on its own cell's
columns only.  That is exact: a posterior puts all of its mass on its
cell, so every product left out is 0, and each score is the first act's
plus its lead.  They are stored once, as per-cell act groups: for each
cell, the positions of the positive-prior states that choose each act.
The realized value, the leak test and the cellwise decomposition all read
those groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, Mapping

from .errors import SpaceMismatchError, TieError, ValidationError
from .prob import Credence, StateSpace, _over_lcm, as_fraction, condition

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .updating import EvidencePartition

__all__ = [
    "FIRST_BY_ORDER",
    "ERROR_ON_TIE",
    "OutcomeSpace",
    "Action",
    "ChoiceSet",
    "DecisionProblem",
    "expected_utility",
    "best_action",
    "max_expected_utility",
    "is_relevant",
]

FIRST_BY_ORDER = "first-by-order"
ERROR_ON_TIE = "error-on-tie"

_TIE_POLICIES = (FIRST_BY_ORDER, ERROR_ON_TIE)


@dataclass(frozen=True)
class OutcomeSpace:
    """Ordered outcome ids with an exact utility for each."""

    outcomes: tuple[str, ...]
    utility: Mapping[str, Fraction] = field(hash=False)

    def __post_init__(self) -> None:
        if isinstance(self.outcomes, str):
            raise ValidationError(
                f"outcomes must be a sequence of ids, not the string {self.outcomes!r}"
            )
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if not self.outcomes:
            raise ValidationError("an outcome space needs at least one outcome")
        seen = set()
        for o in self.outcomes:
            if not isinstance(o, str) or not o:
                raise ValidationError(f"outcome ids must be non-empty strings, got {o!r}")
            if o in seen:
                raise ValidationError(f"duplicate outcome id: {o!r}")
            seen.add(o)
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
        if isinstance(self.actions, str):
            raise ValidationError(
                f"actions must be a sequence of Actions, not the string {self.actions!r}"
            )
        object.__setattr__(self, "actions", tuple(self.actions))
        if not self.actions:
            raise ValidationError("a choice set needs at least one action")
        seen = set()
        for a in self.actions:
            if a.id in seen:
                raise ValidationError(f"duplicate action id: {a.id!r}")
            seen.add(a.id)

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

    ``tie_policy`` fixes how optimal choice resolves ties everywhere this
    problem is evaluated: ``first-by-order`` (the default) deterministically
    prefers the earliest-listed maximizer, ``error-on-tie`` refuses to choose.

    Construction validates every (action, state) pair and, in the same walk,
    derives the integer utility table described in the module docstring.
    """

    space: StateSpace
    outcomes: OutcomeSpace
    prior: Credence
    choices: ChoiceSet
    tie_policy: str = FIRST_BY_ORDER

    def __post_init__(self) -> None:
        if self.prior.space != self.space:
            raise SpaceMismatchError("prior is not a credence over the problem's space")
        if self.tie_policy not in _TIE_POLICIES:
            raise ValidationError(
                f"unknown tie policy {self.tie_policy!r}; "
                f"expected one of {', '.join(_TIE_POLICIES)}"
            )
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
        except KeyError:
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
            if outcome not in scaled:
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


def expected_utility(
    problem: DecisionProblem, action: Action, credence: Credence | None = None
) -> Fraction:
    """Expected payoff of ``action`` under ``credence`` (default: the prior).

    Computed on integers: the action's utility row dotted with the
    credence's numerators, over ``credence.den * U``.  An action outside the
    choice set is validated against the problem and scored the same way.
    """
    p = problem.prior if credence is None else credence
    if p.space != problem.space:
        raise SpaceMismatchError("credence is not over the problem's space")
    return Fraction(sum(map(mul, problem._row(action), p.nums)), p.den * problem._scale)


def _choose(problem: DecisionProblem, scores: list[int], den: int) -> tuple[Action, int]:
    """The maximizer of integer ``scores`` (one per choice, in order) and its score.

    The scores share the denominator ``den``.  Ties resolve by the problem's
    ``tie_policy``: ``first-by-order`` takes the earliest maximizer, and
    ``error-on-tie`` raises :class:`TieError` listing every tied action id,
    with the tied value ``top / den`` built only then.
    """
    top = max(scores)
    if problem.tie_policy == ERROR_ON_TIE and scores.count(top) > 1:
        tied = tuple(a.id for a, score in zip(problem.choices, scores) if score == top)
        raise TieError(tied, Fraction(top, den))
    return problem.choices.actions[scores.index(top)], top


def best_action(credence: Credence, problem: DecisionProblem) -> tuple[Action, Fraction]:
    """The optimal action and its expected utility under ``credence``.

    Compares the integer numerators of the choices' expected utilities,
    which share the denominator ``credence.den * U``, and builds one
    Fraction for the value.  Ties resolve by the problem's ``tie_policy``:
    under ``error-on-tie`` a non-unique maximizer raises :class:`TieError`
    listing every tied action id.
    """
    den = credence.den * problem._scale
    action, top = _choose(problem, problem._scores(credence), den)
    return action, Fraction(top, den)


def max_expected_utility(credence: Credence, problem: DecisionProblem) -> Fraction:
    """The best achievable expected utility under ``credence`` (tie-insensitive)."""
    return Fraction(max(problem._scores(credence)), credence.den * problem._scale)


def is_relevant(problem: DecisionProblem, partition: "EvidencePartition") -> bool:
    """Whether the evidence could change the best choice.

    True iff no single action attains the maximum conditional expected
    utility in *every* cell.  Evaluation is tie-insensitive: an action that
    merely ties for best everywhere still makes the evidence irrelevant.
    """
    rows = []
    for cell in partition.cells:
        scores = problem._scores(condition(problem.prior, cell))
        best = max(scores)
        rows.append([score == best for score in scores])
    return not any(all(column) for column in zip(*rows))
