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
denominators.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .decision import DecisionProblem
from .errors import IndependenceBrokenError, SpaceMismatchError, ValidationError
from .prob import Event, _check_types, _columns, _over_lcm, as_fraction
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
        if type(self.action_id) is not str:
            _check_types(("action_id", self.action_id, str))
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
    Each act has at most one row.
    """

    cell: Event
    prob: Fraction
    max_cond_eu: Fraction
    rows: tuple[LemmaOneRow, ...]

    def __post_init__(self) -> None:
        if type(self.cell) is not Event:
            _check_types(("cell", self.cell, Event))
        try:
            rows = tuple(self.rows)
        except TypeError:
            _check_types(("rows", self.rows, Iterable))
            raise
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
    Fraction is built only for an error message.  Last, ``chosen_by_state``
    must agree with the table: each of its states lies in a report cell,
    and in a cell where any state is recorded, the acts chosen are exactly
    those the cell has rows for.  Both are checked by C-level set and
    ``map`` operations, with no Python loop over the states; a cell's
    members are read straight off the map, and intersected with its keys
    only when one of them is unrecorded (or records ``None``).
    """

    baseline: Fraction
    val_good: Fraction
    val_general: Fraction
    per_cell: tuple[PerCell, ...]
    chosen_by_state: Mapping[str, str] = field(hash=False)

    def __post_init__(self) -> None:
        for name in ("baseline", "val_good", "val_general"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        try:
            cells = tuple(self.per_cell)
        except TypeError:
            _check_types(("per_cell", self.per_cell, Iterable))
            raise
        object.__setattr__(self, "per_cell", cells)
        try:  # unlike dict(), refuses a sequence of pairs
            chosen = {**self.chosen_by_state}
        except TypeError:
            _check_types(("chosen_by_state", self.chosen_by_state, Mapping))
            raise
        object.__setattr__(self, "chosen_by_state", chosen)
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
        states = chosen.keys()
        members = [c.cell.members for c in cells]
        if not frozenset().union(*members).issuperset(states):
            stray = [s for s in chosen if not any(s in m for m in members)]
            raise ValidationError(
                f"chosen_by_state names states in no report cell: {stray}"
            )
        for c, cell_members in zip(cells, members):
            try:
                picked = set(map(chosen.get, cell_members))
                if None in picked:  # an unrecorded state, or a None act id
                    picked = set(map(chosen.get, states & cell_members))
            except TypeError:  # an unhashable act id
                _check_types(
                    *((f"chosen_by_state[{s!r}]", a, str) for s, a in chosen.items())
                )
                raise
            acts = {r.action_id for r in c.rows}
            if picked and picked != acts:
                raise ValidationError(
                    f"chosen_by_state picks {sorted(picked, key=repr)} in cell "
                    f"{c.cell.describe()}, whose rows are for {sorted(acts)}"
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
    conditional probability, given the cell, that the policy picks it, and
    its expected utility under the cell's conditioned prior.  The first
    cell, in declared order, whose choices leak refuses.  Every cell has
    positive probability, which :func:`_informed` has checked, so every
    cell has an act group.
    """
    ids = problem.choices.ids()
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
            rows.append(LemmaOneRow(ids[k], Fraction(weights[k], cell_weight), cond_eu))
        p_cell = Fraction(cell_weight, problem.prior.den)
        out.append(PerCell(cell, p_cell, max_cond_eu, tuple(rows)))
    return tuple(out)


def evaluate(problem: DecisionProblem, policy: UpdatePolicy) -> VoiReport:
    """Full evaluation: both values, the per-cell table, and chosen actions.

    Groups each cell's states by the act chosen there once, then sums the
    definitional value and builds the cellwise decomposition from those
    groups separately; ``val_good`` comes from :func:`_informed`'s own
    scores of each cell's states, less the same baseline.  The prior is
    scored once, for the baseline, and no credence is conditioned.  Both
    values and the baseline are integers over ``prior.den * U`` until each
    becomes one Fraction, the difference of two integers over that
    denominator, and the table's maxima compare integer scores, so a
    Fraction is built only for a field and none is added or subtracted.
    :class:`VoiReport` refuses to construct unless the per-cell table
    reproduces both values exactly, so each is checked against a second
    route.

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
    states, ids = problem.space.states, problem.choices.ids()
    chosen = [None] * len(states)  # by state position: the chosen act's id
    for cell_groups in groups:
        for k, group in cell_groups.items():
            action_id = ids[k]
            for i in group:
                chosen[i] = action_id
    return VoiReport(
        baseline=Fraction(baseline, den),
        val_good=Fraction(informed - baseline, den),
        val_general=Fraction(_realized(problem, groups) - baseline, den),
        per_cell=per_cell,
        chosen_by_state={s: a for s, a in zip(states, chosen) if a is not None},
    )
