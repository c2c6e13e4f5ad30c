"""Finite decision problems: actions, utilities, and optimal choice.

An action is a total map from states to outcomes; a decision problem fixes
a prior, a utility on outcomes, and an ordered set of candidate actions.
Ordering matters: the default tie policy picks the earliest-listed maximizer,
so two problems with the same actions in a different order are different
problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

from .errors import TieError, ValidationError
from .prob import Credence, StateSpace, as_fraction, condition

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
    """

    space: StateSpace
    outcomes: OutcomeSpace
    prior: Credence
    choices: ChoiceSet
    tie_policy: str = FIRST_BY_ORDER

    def __post_init__(self) -> None:
        if self.prior.space != self.space:
            raise ValidationError("prior is not a credence over the problem's space")
        if self.tie_policy not in _TIE_POLICIES:
            raise ValidationError(
                f"unknown tie policy {self.tie_policy!r}; "
                f"expected one of {', '.join(_TIE_POLICIES)}"
            )
        for action in self.choices:
            for state in self.space:
                outcome = action.assignment.get(state)
                if outcome is None:
                    raise ValidationError(
                        f"action {action.id!r} assigns no outcome to state {state!r}"
                    )
                if outcome not in self.outcomes:
                    raise ValidationError(
                        f"action {action.id!r} maps state {state!r} to "
                        f"unknown outcome {outcome!r}"
                    )
            stray = set(action.assignment) - set(self.space.states)
            if stray:
                raise ValidationError(
                    f"action {action.id!r} assigns outcomes to unknown states: "
                    f"{sorted(stray)}"
                )


def expected_utility(
    problem: DecisionProblem, action: Action, credence: Credence | None = None
) -> Fraction:
    """Expected payoff of ``action`` under ``credence`` (default: the prior)."""
    p = problem.prior if credence is None else credence
    if p.space != problem.space:
        raise ValidationError("credence is not over the problem's space")
    u = problem.outcomes.u
    return sum(
        (u(action.outcome_in(s)) * n for s, n in zip(p.space, p.nums) if n),
        Fraction(0),
    ) / p.den


def best_action(credence: Credence, problem: DecisionProblem) -> tuple[Action, Fraction]:
    """The optimal action and its expected utility under ``credence``.

    Ties resolve by the problem's ``tie_policy``: under ``error-on-tie`` a
    non-unique maximizer raises :class:`TieError` listing every tied
    action id.
    """
    scored = [(expected_utility(problem, a, credence), a) for a in problem.choices]
    best_value = max(value for value, _ in scored)
    winners = [a for value, a in scored if value == best_value]
    if problem.tie_policy == ERROR_ON_TIE and len(winners) > 1:
        raise TieError(tuple(a.id for a in winners), best_value)
    return winners[0], best_value


def max_expected_utility(credence: Credence, problem: DecisionProblem) -> Fraction:
    """The best achievable expected utility under ``credence`` (tie-insensitive)."""
    return max(expected_utility(problem, a, credence) for a in problem.choices)


def is_relevant(problem: DecisionProblem, partition: "EvidencePartition") -> bool:
    """Whether the evidence could change the best choice.

    True iff no single action attains the maximum conditional expected
    utility in *every* cell.  Evaluation is tie-insensitive: an action that
    merely ties for best everywhere still makes the evidence irrelevant.
    """
    rows = []
    for cell in partition.cells:
        q = condition(problem.prior, cell)
        eus = [expected_utility(problem, a, q) for a in problem.choices]
        best = max(eus)
        rows.append([eu == best for eu in eus])
    return not any(all(column) for column in zip(*rows))
