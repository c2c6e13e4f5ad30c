"""Exact value of information, classical and generalized.

Two quantities, same baseline.  The baseline is the best expected utility
available by acting on the prior alone.

``val_good`` is the classical value of learning which cell of a partition
obtains, for an agent who will condition on it and then optimize:
probability-weighted best conditional expected utility, minus the baseline.
It is never negative, and it is strictly positive exactly when the evidence
could change the best choice.

``val_general`` drops the assumption that the agent trusts their own
updating.  An update policy says what the agent would actually believe in
each state after learning its cell; the agent then takes whatever action is
best by that possibly-distorted posterior, and gets paid by the true state.
The value of learning is the prior expectation of that realized payoff,
minus the same baseline.  For policies that just conditionalize the two
quantities coincide; for policies the agent's own prior expects to deviate,
``val_general`` can go negative — learning can hurt.

:func:`evaluate` computes in integers and builds a Fraction only for a
report field or an error message.  Every expected utility it needs is an
integer score, ``sum(row[i] * prior.nums[i])`` over some states, divided
by ``prior.den * U`` or by the states' prior weight times ``U`` (``U`` is
the problem's utility scale), so maxima compare scores.  The report's
checks cross-multiply, and each of its sums is one integer over the least
common multiple of its terms' denominators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Mapping

from .decision import DecisionProblem, max_expected_utility
from .errors import (
    IndependenceBrokenError,
    SpaceMismatchError,
    ValidationError,
    ZeroProbabilityError,
)
from .prob import Event, _over_lcm, as_fraction
from .updating import (
    EvidencePartition,
    UpdatePolicy,
    _cell_pass,
    _choice_groups,
    _columns,
)

__all__ = [
    "LemmaOneRow",
    "PerCell",
    "VoiReport",
    "val_good",
    "val_general",
    "cellwise_decomposition",
    "evaluate",
]


@dataclass(frozen=True)
class LemmaOneRow:
    """One chosen action's entry in a :class:`PerCell`, whose cell it is in.

    ``choose_prob`` is the conditional probability, given the cell, of
    being in a state where the policy leads the agent to pick ``action_id``;
    ``cond_eu`` is that action's expected utility under the *conditioned
    prior* for the cell.  The decomposition is only sound when choices are
    evidentially independent of payoffs, which is exactly when multiplying
    these two numbers is legitimate.  Both are read by
    :func:`~infovalue.prob.as_fraction`.
    """

    action_id: str
    choose_prob: Fraction
    cond_eu: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "choose_prob", as_fraction(self.choose_prob))
        object.__setattr__(self, "cond_eu", as_fraction(self.cond_eu))
        if not 0 < self.choose_prob.numerator <= self.choose_prob.denominator:
            raise ValidationError(
                f"choose_prob must lie in (0, 1], got {self.choose_prob}"
            )

    def _term(self) -> tuple[int, int]:
        """``choose_prob * cond_eu`` as an unreduced integer pair."""
        p, eu = self.choose_prob, self.cond_eu
        return p.numerator * eu.numerator, p.denominator * eu.denominator


@dataclass(frozen=True)
class PerCell:
    """The cellwise decomposition for a single evidence cell.

    ``prob`` and ``max_cond_eu`` are read by :func:`~infovalue.prob.as_fraction`.
    """

    cell: Event
    prob: Fraction
    max_cond_eu: Fraction
    rows: tuple[LemmaOneRow, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "prob", as_fraction(self.prob))
        object.__setattr__(self, "max_cond_eu", as_fraction(self.max_cond_eu))
        if self.prob.numerator <= 0:
            raise ValidationError(f"cell probability must be positive, got {self.prob}")
        _, total, den = _over_lcm([r.choose_prob.as_integer_ratio() for r in self.rows])
        if total != den:
            raise ValidationError(
                f"choose probabilities in cell {self.cell.describe()} must sum "
                f"to 1, got {Fraction(total, den)}"
            )
        top, top_den = self.max_cond_eu.numerator, self.max_cond_eu.denominator
        for row in self.rows:
            if row.cond_eu.numerator * top_den > top * row.cond_eu.denominator:
                raise ValidationError(
                    f"row for {row.action_id!r} beats the recorded cell maximum"
                )

    def realized_eu(self) -> Fraction:
        """Expected payoff within this cell, weighting each chosen action."""
        _, total, den = _over_lcm([r._term() for r in self.rows])
        return Fraction(total, den)


@dataclass(frozen=True)
class VoiReport:
    """Everything one evaluation establishes, cross-checked on construction.

    The per-cell table must reproduce both headline numbers exactly:
    ``val_good`` from the cell maxima and ``val_general`` from the
    choose-probability-weighted rows.  Construction fails loudly if the
    definitional and cellwise routes disagree, so a report in hand is
    itself evidence the two computations matched.

    ``baseline``, ``val_good`` and ``val_general`` are read by
    :func:`~infovalue.prob.as_fraction`.  The checks run in this order and
    in integers, each sum one integer over the lcm of its terms'
    denominators: the cells' ``prob`` sum to 1; ``sum(prob * max_cond_eu)
    - baseline`` is ``val_good``; and ``sum(prob * choose_prob * cond_eu)``
    over every cell's rows, less ``baseline``, is ``val_general``.  A
    Fraction is built only for an error message.
    """

    baseline: Fraction
    val_good: Fraction
    val_general: Fraction
    per_cell: tuple[PerCell, ...]
    chosen_by_state: Mapping[str, str] = field(hash=False)

    def __post_init__(self) -> None:
        for name in ("baseline", "val_good", "val_general"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        object.__setattr__(self, "per_cell", tuple(self.per_cell))
        object.__setattr__(self, "chosen_by_state", dict(self.chosen_by_state))
        cells = self.per_cell
        _, total, den = _over_lcm([c.prob.as_integer_ratio() for c in cells])
        if total != den:
            raise ValidationError(
                f"cell probabilities must sum to 1, got {Fraction(total, den)}"
            )
        less_baseline = (-self.baseline.numerator, self.baseline.denominator)
        _, classical, den = _over_lcm([less_baseline] + [
            (c.prob.numerator * c.max_cond_eu.numerator,
             c.prob.denominator * c.max_cond_eu.denominator)
            for c in cells
        ])
        if not _equals(classical, den, self.val_good):
            raise ValidationError(
                f"per-cell table reconstructs val_good={Fraction(classical, den)}, "
                f"report claims {self.val_good}"
            )
        _, general, den = _over_lcm([less_baseline] + [
            (c.prob.numerator * row_num, c.prob.denominator * row_den)
            for c in cells
            for row_num, row_den in map(LemmaOneRow._term, c.rows)
        ])
        if not _equals(general, den, self.val_general):
            raise ValidationError(
                f"per-cell table reconstructs val_general={Fraction(general, den)}, "
                f"report claims {self.val_general}"
            )


def _equals(num: int, den: int, value: Fraction) -> bool:
    """Whether ``num / den`` equals ``value``, cross-multiplied."""
    return num * value.denominator == value.numerator * den


def val_good(problem: DecisionProblem, partition: EvidencePartition) -> Fraction:
    """Classical value of learning the partition, for a conditionalizer.

    Probability-weighted maximum conditional expected utility across cells,
    minus the best expected utility under the prior.  Tie-insensitive, since
    only maxima enter.  A zero-probability cell is a hard error (conditioning
    on it is undefined), not a silently skipped term.
    """
    if partition.space != problem.space:
        raise SpaceMismatchError("partition is not over the problem's space")
    return _informed(problem, partition) - max_expected_utility(problem.prior, problem)


def _informed(problem: DecisionProblem, partition: EvidencePartition) -> Fraction:
    """Probability-weighted best conditional expected utility across cells.

    A cell's probability times an act's conditional expected utility is the
    act's score on the cell, ``sum(row[i] * prior.nums[i])`` over its states,
    over ``prior.den * U``: one Fraction of the summed best scores, with no
    credence conditioned.  It scores the cells' states itself, not the act
    groups the decomposition sums, so a report's ``val_good`` check compares
    two routes.  Refuses another space or a zero-probability cell as
    conditioning on it would.
    """
    prior = problem.prior
    if partition.space != prior.space:
        raise SpaceMismatchError("event and credence live on different spaces")
    position, rows = prior.space._position, problem._rows.values()
    total = 0
    for cell in partition.cells:
        take = _columns([position[s] for s in cell.members])
        nums = take(prior.nums)
        if not any(nums):
            raise ZeroProbabilityError(
                f"cannot condition on zero-probability event {cell.describe()}"
            )
        total += max(sum(map(mul, take(row), nums)) for row in rows)
    return Fraction(total, prior.den * problem._scale)


def _realized(problem: DecisionProblem, groups: list[dict]) -> Fraction:
    """Prior expectation of what each state's chosen act pays there.

    Sums ``prior.nums[i] * row[i]`` over each act group, on its act's
    utility row, and divides once, by ``prior.den * U``.
    """
    nums, rows = problem.prior.nums, problem._rows
    total = 0
    for cell_groups in groups:
        for action, group in cell_groups.items():
            row = rows[action]
            total += sum(row[i] * nums[i] for i in group)
    return Fraction(total, problem.prior.den * problem._scale)


def val_general(problem: DecisionProblem, policy: UpdatePolicy) -> Fraction:
    """Value of learning for an agent who may not trust their own update.

    The agent foresees, state by state, which action the policy would lead
    them to take, and scores each by what it actually pays in that state.
    The prior expectation of that realized payoff, minus the same
    no-learning baseline as :func:`val_good`.  Unlike the classical value,
    this can be negative.
    """
    realized = _realized(problem, _choice_groups(problem, policy))
    return realized - max_expected_utility(problem.prior, problem)


def _cellwise(
    problem: DecisionProblem, policy: UpdatePolicy, groups: list[dict]
) -> tuple[PerCell, ...]:
    out = []
    for cell, cell_groups in zip(policy.partition.cells, groups):
        if not cell_groups:
            raise ValidationError(
                f"cannot decompose zero-probability cell {cell.describe()}"
            )
        cell_scores, weights, leak = _cell_pass(problem, cell_groups)
        if leak is not None:
            action, probe = leak
            raise IndependenceBrokenError(cell, action.id, probe.id)
        # P(chose the act | cell) is the choosers' prior weight over the cell's;
        # a conditional expected utility is the act's cell score over den
        cell_weight = sum(weights.values())
        den = cell_weight * problem._scale
        top = max(cell_scores)
        max_cond_eu = Fraction(top, den)
        rows = []
        for action, score in zip(problem.choices, cell_scores):
            weight = weights.get(action)
            if weight:
                cond_eu = max_cond_eu if score == top else Fraction(score, den)
                rows.append(LemmaOneRow(action.id, Fraction(weight, cell_weight), cond_eu))
        p_cell = Fraction(cell_weight, problem.prior.den)
        out.append(PerCell(cell, p_cell, max_cond_eu, tuple(rows)))
    return tuple(out)


def cellwise_decomposition(
    problem: DecisionProblem, policy: UpdatePolicy
) -> tuple[PerCell, ...]:
    """Per-cell tables for every cell of the policy's partition, in order.

    Each entry pairs the cell's probability and best conditional expected
    utility with one row per chosen action, in choice-set order: the
    conditional probability, given the cell, that the policy picks it, and
    its expected utility under the cell's conditioned prior.  The one
    structure reconstructs both the classical and the generalized value.

    Factoring a cell's realized value that way is exact only when choices
    carry no payoff-relevant information; if they do, raises
    :class:`IndependenceBrokenError` carrying the witnessing (cell, chosen
    action, probe action) triple.  A zero-probability cell is a
    :class:`ValidationError`.
    """
    return _cellwise(problem, policy, _choice_groups(problem, policy))


def evaluate(problem: DecisionProblem, policy: UpdatePolicy) -> VoiReport:
    """Full evaluation: both values, the per-cell table, and chosen actions.

    Groups each cell's states by the act chosen there once, then sums the
    definitional value and builds the cellwise decomposition from those
    groups separately; ``val_good`` comes from :func:`_informed`'s own
    scores of each cell's states, less the same baseline.  The prior is
    scored once, for the baseline, and no credence is conditioned.  Each
    value is the difference of two Fractions over ``prior.den * U``, and
    the table's maxima compare integer scores, so a Fraction is built only
    for a field.  :class:`VoiReport` refuses to construct unless the
    per-cell table reproduces both values exactly, so each is checked
    against a second route.  Requires the decomposition's independence
    precondition, like :func:`cellwise_decomposition`.
    """
    groups = _choice_groups(problem, policy)
    per_cell = _cellwise(problem, policy, groups)
    baseline = max_expected_utility(problem.prior, problem)
    states = problem.space.states
    chosen = [None] * len(states)  # by state position: the chosen act's id
    for cell_groups in groups:
        for action, group in cell_groups.items():
            for i in group:
                chosen[i] = action.id
    return VoiReport(
        baseline=baseline,
        val_good=_informed(problem, policy.partition) - baseline,
        val_general=_realized(problem, groups) - baseline,
        per_cell=per_cell,
        chosen_by_state={s: a for s, a in zip(states, chosen) if a is not None},
    )
