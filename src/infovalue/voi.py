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

:func:`evaluate`, :func:`val_good` and :func:`val_general` compute in
integers and build a Fraction only for a reported number or an error
message; none adds, subtracts, multiplies or divides one.  Every expected
utility they need is an integer score, ``sum(row[i] * prior.nums[i])``
over some states, divided by ``prior.den * U`` or by the states' prior
weight times ``U`` (``U`` is the problem's utility scale), so maxima
compare scores.  Both values and the baseline, ``max`` of the prior's
scores, are numerators over ``prior.den * U``, and each reported value is
one Fraction of a numerator less the baseline over that denominator.
``val_good`` scores cells by ``DecisionProblem._cell_scores``, on
:mod:`prob`'s one reader ``_cell_weights``; ``val_general`` sums the act
groups, keyed by act index.  The report's checks cross-multiply, and each
of its sums is one integer over the least common multiple of its terms'
denominators.  The report records each positive-prior state's chosen act
once, in the per-cell row for that act; ``VoiReport.chosen_by_state`` is
read off the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .decision import DecisionProblem
from .errors import IndependenceBrokenError, SpaceMismatchError, ValidationError
from .prob import Event, _check_types, _columns, _over_lcm, _sequence, as_fraction
from .updating import EvidencePartition, UpdatePolicy, _cell_pass, _choice_groups

__all__ = [
    "LemmaOneRow",
    "PerCell",
    "VoiReport",
    "val_good",
    "val_general",
    "evaluate",
]


@dataclass(frozen=True)
class LemmaOneRow:
    """One chosen action's entry in a :class:`PerCell`, whose cell it is in.

    ``states`` are the positive-prior states of the cell where the policy
    leads the agent to pick ``action_id``, in space order, stored as a
    tuple; a row names at least one.  ``choose_prob`` is the conditional
    probability, given the cell, of being in one of them; ``cond_eu`` is
    that action's expected utility under the *conditioned prior* for the
    cell.  The decomposition is only sound when choices are evidentially
    independent of payoffs, which is exactly when multiplying these two
    numbers is legitimate.  Both are read by
    :func:`~infovalue.prob.as_fraction`.
    """

    action_id: str
    choose_prob: Fraction
    cond_eu: Fraction
    states: tuple[str, ...]

    def __post_init__(self) -> None:
        if type(self.action_id) is not str:
            _check_types(("action_id", self.action_id, str))
        object.__setattr__(
            self, "states", _sequence("states", self.states, "sequence of ids")
        )
        object.__setattr__(self, "choose_prob", as_fraction(self.choose_prob))
        object.__setattr__(self, "cond_eu", as_fraction(self.cond_eu))
        if not 0 < self.choose_prob.numerator <= self.choose_prob.denominator:
            raise ValidationError(
                f"choose_prob must lie in (0, 1], got {self.choose_prob}"
            )
        if not self.states:
            raise ValidationError(f"row for {self.action_id!r} names no state")

    def _term(self) -> tuple[int, int]:
        """``choose_prob * cond_eu`` as an unreduced integer pair."""
        p, eu = self.choose_prob, self.cond_eu
        return p.numerator * eu.numerator, p.denominator * eu.denominator


@dataclass(frozen=True)
class PerCell:
    """The cellwise decomposition for a single evidence cell.

    ``prob`` and ``max_cond_eu`` are read by :func:`~infovalue.prob.as_fraction`.
    Each act has at most one row, and no state is named by two rows or
    twice by one; every state a row names is in ``cell``.
    """

    cell: Event
    prob: Fraction
    max_cond_eu: Fraction
    rows: tuple[LemmaOneRow, ...]

    def __post_init__(self) -> None:
        if type(self.cell) is not Event:
            _check_types(("cell", self.cell, Event))
        rows = _sequence("rows", self.rows, "sequence of LemmaOneRows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "prob", as_fraction(self.prob))
        object.__setattr__(self, "max_cond_eu", as_fraction(self.max_cond_eu))
        if self.prob.numerator <= 0:
            raise ValidationError(f"cell probability must be positive, got {self.prob}")
        try:
            ratios = [r.choose_prob.as_integer_ratio() for r in rows]
        except AttributeError:
            _check_types(*((f"rows[{i}]", r, LemmaOneRow) for i, r in enumerate(rows)))
            raise
        if len({r.action_id for r in rows}) != len(rows):
            acts = [r.action_id for r in rows]
            twice = next(a for k, a in enumerate(acts) if a in acts[:k])
            raise ValidationError(
                f"cell {self.cell.describe()} has two rows for action {twice!r}"
            )
        _, total, den = _over_lcm(ratios)
        if total != den:
            raise ValidationError(
                f"choose probabilities in cell {self.cell.describe()} must sum "
                f"to 1, got {Fraction(total, den)}"
            )
        top, top_den = self.max_cond_eu.numerator, self.max_cond_eu.denominator
        named: list[str] = []
        for row in rows:
            if row.cond_eu.numerator * top_den > top * row.cond_eu.denominator:
                raise ValidationError(
                    f"row for {row.action_id!r} beats the recorded cell maximum"
                )
            named += row.states
        members = self.cell.members
        try:
            distinct = len(set(named)) == len(named) and members.issuperset(named)
        except TypeError:  # an unhashable state
            distinct = False
        if not distinct:
            stray = [
                s for k, s in enumerate(named)
                if not isinstance(s, str) or s not in members or s in named[:k]
            ]
            raise ValidationError(
                f"rows in cell {self.cell.describe()} name states outside it or "
                f"twice: {stray}"
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
    Fraction is built only for an error message.  Last, the cells must be
    pairwise disjoint events on one space.  Each state's chosen act is
    stored once, in the row that names the state; :attr:`chosen_by_state`
    reads it off the rows.
    """

    baseline: Fraction
    val_good: Fraction
    val_general: Fraction
    per_cell: tuple[PerCell, ...]

    def __post_init__(self) -> None:
        for name in ("baseline", "val_good", "val_general"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        cells = _sequence("per_cell", self.per_cell, "sequence of PerCells")
        object.__setattr__(self, "per_cell", cells)
        try:
            ratios = [c.prob.as_integer_ratio() for c in cells]
        except AttributeError:
            _check_types(*((f"per_cell[{i}]", c, PerCell) for i, c in enumerate(cells)))
            raise
        _, total, den = _over_lcm(ratios)
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
        space, earlier = cells[0].cell.space, set()
        for c in cells:
            if c.cell.space != space:
                raise ValidationError(
                    f"report cell {c.cell.describe()} is not on the first cell's space"
                )
            if not earlier.isdisjoint(c.cell.members):
                raise ValidationError(
                    f"report cell {c.cell.describe()} overlaps an earlier cell"
                )
            earlier |= c.cell.members

    @property
    def chosen_by_state(self) -> dict[str, str]:
        """Each state a row names, mapped to that row's act id, in space order.

        Zero-prior states are in no row, so they are left out.
        """
        act = {s: r.action_id for c in self.per_cell for r in c.rows for s in r.states}
        return {s: act[s] for s in self.per_cell[0].cell.space.states if s in act}


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
    _check_types(
        ("problem", problem, DecisionProblem), ("partition", partition, EvidencePartition)
    )
    if partition.space != problem.space:
        raise SpaceMismatchError("partition is not over the problem's space")
    informed = _informed(problem, partition)
    baseline = max(problem._scores(problem.prior))
    return Fraction(informed - baseline, problem.prior.den * problem._scale)


def _informed(problem: DecisionProblem, partition: EvidencePartition) -> int:
    """Probability-weighted best conditional expected utility across cells,
    times ``prior.den * U``.

    Sums each cell's best score from ``DecisionProblem._cell_scores`` (read
    through :mod:`prob`'s ``_cell_weights``, so refused as conditioning on
    the cell would be); each is already over ``prior.den * U``.  It scores
    the cells' states, not the act groups the decomposition sums, so a
    report's ``val_good`` check compares two routes.
    """
    return sum(max(problem._cell_scores(cell)[1]) for cell in partition.cells)


def _realized(problem: DecisionProblem, groups: list[dict[int, list[int]]]) -> int:
    """Prior expectation of what each state's chosen act pays there, times
    ``prior.den * U``.

    ``groups`` is :func:`~infovalue.updating._choice_groups` of the problem,
    keyed by act index.  Each group adds its act's utility row dotted with
    ``prior.nums`` on the group's positions, both read by one
    ``itemgetter``.
    """
    nums, rows = problem.prior.nums, tuple(problem._rows.values())
    total = 0
    for cell_groups in groups:
        for k, group in cell_groups.items():
            take = _columns(group)
            total += sum(map(mul, take(rows[k]), take(nums)))
    return total


def val_general(problem: DecisionProblem, policy: UpdatePolicy) -> Fraction:
    """Value of learning for an agent who may not trust their own update.

    The agent foresees, state by state, which action the policy would lead
    them to take, and scores each by what it actually pays in that state.
    The prior expectation of that realized payoff, minus the same
    no-learning baseline as :func:`val_good`.  Unlike the classical value,
    this can be negative.
    """
    _check_types(("problem", problem, DecisionProblem), ("policy", policy, UpdatePolicy))
    realized = _realized(problem, _choice_groups(problem, policy))
    baseline = max(problem._scores(problem.prior))
    return Fraction(realized - baseline, problem.prior.den * problem._scale)


def _cellwise(
    problem: DecisionProblem, policy: UpdatePolicy, groups: list[dict[int, list[int]]]
) -> tuple[PerCell, ...]:
    """Per-cell tables for every cell of the policy's partition, in order.

    Each entry pairs the cell's probability and best conditional expected
    utility with one row per chosen action, in choice-set order: the
    states that choose it, read off its group's positions by one
    ``_columns`` getter, the conditional probability, given the cell, that
    the policy picks it, and its expected utility under the cell's
    conditioned prior.  The first cell, in declared order, whose choices
    leak refuses.  Every cell has positive probability, which
    :func:`_informed` has checked, so every cell has an act group.
    """
    states, ids = problem.space.states, problem.choices.ids()
    out = []
    for cell, cell_groups in zip(policy.partition.cells, groups):
        cell_scores, weights, leak = _cell_pass(problem, cell_groups)
        if leak is not None:
            chosen, probe = leak
            raise IndependenceBrokenError(cell, ids[chosen], ids[probe])
        # P(chose the act | cell) is the choosers' prior weight over the cell's;
        # a conditional expected utility is the act's cell score over den
        cell_weight = sum(weights.values())
        den = cell_weight * problem._scale
        top = max(cell_scores)
        max_cond_eu = Fraction(top, den)
        rows = []
        for k in sorted(weights):
            score = cell_scores[k]
            cond_eu = max_cond_eu if score == top else Fraction(score, den)
            choosers = _columns(cell_groups[k])(states)
            rows.append(
                LemmaOneRow(ids[k], Fraction(weights[k], cell_weight), cond_eu, choosers)
            )
        p_cell = Fraction(cell_weight, problem.prior.den)
        out.append(PerCell(cell, p_cell, max_cond_eu, tuple(rows)))
    return tuple(out)


def evaluate(problem: DecisionProblem, policy: UpdatePolicy) -> VoiReport:
    """Full evaluation: both values, and the per-cell table of chosen actions.

    Groups each cell's states by the act chosen there once, then sums the
    definitional value and builds the cellwise decomposition from those
    groups separately; ``val_good`` comes from :func:`_informed`'s own
    scores of each cell's states, less the same baseline.  The table's rows
    name the states that choose their act, so the report's
    ``chosen_by_state`` is read off them and no per-state list is built.
    The prior is scored once, for the baseline, and no credence is
    conditioned.  Both values and the baseline are integers over
    ``prior.den * U`` until each becomes one Fraction, the difference of
    two integers over that denominator, and the table's maxima compare
    integer scores, so a Fraction is built only for a field and none is
    added or subtracted.  :class:`VoiReport` refuses to construct unless
    the per-cell table reproduces both values exactly, so each is checked
    against a second route.

    Factoring a cell's realized value into the table is exact only when
    choices carry no payoff-relevant information; if they do, raises
    :class:`IndependenceBrokenError` carrying the witnessing (cell, chosen
    action, probe action) triple.  A zero-probability cell raises
    :class:`ZeroProbabilityError` first, as it does in :func:`val_good`.
    """
    _check_types(("problem", problem, DecisionProblem), ("policy", policy, UpdatePolicy))
    groups = _choice_groups(problem, policy)
    informed = _informed(problem, policy.partition)
    per_cell = _cellwise(problem, policy, groups)
    baseline = max(problem._scores(problem.prior))
    den = problem.prior.den * problem._scale
    return VoiReport(
        baseline=Fraction(baseline, den),
        val_good=Fraction(informed - baseline, den),
        val_general=Fraction(_realized(problem, groups) - baseline, den),
        per_cell=per_cell,
    )
