"""Evidence partitions and update policies.

An update policy says, for each state, what the agent's credence would
become upon learning which partition cell that state lies in.  The one
structural constraint is certainty: having learned a cell, the agent must
be certain of it.  Nothing forces the posterior to be the conditioned
prior — policies that deviate from conditionalization are the interesting
ones here — but every posterior must at least respect what was learned.

A posterior deviates from conditioning exactly when its integer row over
its ``den`` and the cell's prior weights ``w_i`` (summing to ``total``)
have ``row[i] * total != w_i * den`` for some member ``i``.  One integer
table per cell holds both, and every deviation question reads it.

:func:`mixture_expand` builds the canonical self-doubt model: an agent who
thinks that with probability epsilon, independently of everything else,
they will respond to evidence with a fixed distorted posterior instead of
conditionalizing.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul, sub
from typing import NamedTuple

from .decision import (
    Action,
    ChoiceSet,
    DecisionProblem,
)
from .errors import (
    MissingPosteriorError,
    SpaceMismatchError,
    ValidationError,
)
from .prob import (
    Credence,
    Event,
    StateSpace,
    _check_types,
    _columns,
    _sequence,
    _weight,
    as_fraction,
    condition,
    is_partition,
)

__all__ = [
    "EvidencePartition",
    "UpdatePolicy",
    "DeviationSpec",
    "CONDITIONALIZATION",
    "conditionalization_policy",
    "mixture_expand",
    "deviating_states",
]

CONDITIONALIZATION = "conditionalization"


@dataclass(frozen=True)
class EvidencePartition:
    """An ordered partition of a state space into learnable events."""

    space: StateSpace
    cells: tuple[Event, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "cells", _sequence("cells", self.cells, "sequence of Events")
        )
        _check_types(("space", self.space, StateSpace))
        if not is_partition(self.space, self.cells):
            raise ValidationError(
                "cells must be non-empty, pairwise disjoint, and cover the space"
            )
        lookup = {}
        for cell in self.cells:
            for state in cell.members:
                lookup[state] = cell
        object.__setattr__(self, "_cell_of", lookup)

    def __iter__(self):
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def cell_of(self, state: str) -> Event:
        try:
            return self._cell_of[state]
        except KeyError:
            raise ValidationError(f"unknown state {state!r}") from None


@dataclass(frozen=True)
class UpdatePolicy:
    """What the agent would believe in each state, after learning its cell.

    ``posteriors`` is total: every state of the space gets a posterior,
    and each posterior assigns probability exactly 1 to the state's own
    cell.  A policy is its partition and its posteriors: policies with
    equal posteriors compare and hash equal however they were built, and
    whether one conditions a prior is read off its posteriors
    (:func:`deviating_states`, and the problem file's keyword).
    """

    partition: EvidencePartition
    posteriors: Mapping[str, Credence] = field(hash=False)

    def __post_init__(self) -> None:
        _check_types(
            ("partition", self.partition, EvidencePartition),
            ("posteriors", self.posteriors, Mapping),
        )
        space = self.partition.space
        cleaned: dict[str, Credence] = {}
        certain: set[tuple[int, int]] = set()  # ids of (posterior, cell) pairs checked
        for state, posterior in self.posteriors.items():
            if not isinstance(posterior, Credence):
                raise ValidationError(
                    f"posterior for state {state!r} must be a Credence, "
                    f"not {type(posterior).__name__}"
                )
            if state not in space:
                raise ValidationError(f"posterior assigned to unknown state {state!r}")
            if posterior.space != space:
                raise SpaceMismatchError(
                    f"posterior for state {state!r} is over a different space"
                )
            cell = self.partition.cell_of(state)
            if (id(posterior), id(cell)) not in certain:
                in_cell = _weight(posterior, cell)
                if in_cell != posterior.den:
                    raise ValidationError(
                        f"posterior for state {state!r} must assign probability "
                        f"exactly 1 to its partition cell "
                        f"(got {Fraction(in_cell, posterior.den)})"
                    )
                certain.add((id(posterior), id(cell)))
            cleaned[state] = posterior
        missing = [s for s in space if s not in cleaned]
        if missing:
            raise MissingPosteriorError(f"no posterior for states: {missing}")
        object.__setattr__(self, "posteriors", cleaned)

    @classmethod
    def _checked(
        cls, partition: EvidencePartition, posteriors: dict[str, Credence]
    ) -> UpdatePolicy:
        """The policy for posteriors its caller has already checked.

        ``posteriors`` must map every state of ``partition.space``, and no
        other id, to a credence over that space that is certain of the
        state's cell, as ``__post_init__`` would check.  The problem-file
        parser checks each (posterior, cell) pair once for its located
        error, and the library's own builders are certain by construction;
        neither should pay for the walk twice.  The dict is stored as is.
        """
        policy = object.__new__(cls)
        object.__setattr__(policy, "partition", partition)
        object.__setattr__(policy, "posteriors", posteriors)
        return policy

    @property
    def space(self) -> StateSpace:
        return self.partition.space

    def posterior(self, state: str) -> Credence:
        try:
            return self.posteriors[state]
        except KeyError:
            raise MissingPosteriorError(f"no posterior for state {state!r}") from None


def _epsilon(value) -> Fraction:
    """``value`` read as the chance of deviating, refused outside ``[0, 1]``."""
    eps = as_fraction(value)
    if not 0 <= eps <= 1:
        raise ValidationError(f"epsilon must lie in [0, 1], got {eps}")
    return eps


@dataclass(frozen=True)
class DeviationSpec:
    """How an agent suspects they might misupdate.

    ``epsilon`` is the probability, independent of everything else, of
    responding to evidence with the distorted posterior instead of
    conditionalizing.  ``deviant_posteriors`` gives that distorted
    posterior for each affected cell, as a credence over the *base* space
    concentrated on the cell; cells left out are updated on correctly even
    when the deviant disposition fires.
    """

    epsilon: Fraction
    deviant_posteriors: Mapping[Event, Credence] = field(hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", _epsilon(self.epsilon))
        _check_types(("deviant_posteriors", self.deviant_posteriors, Mapping))
        cleaned = {}
        for cell, posterior in self.deviant_posteriors.items():
            if not (isinstance(cell, Event) and isinstance(posterior, Credence)):
                raise ValidationError(
                    "deviant posteriors must map cell Events to Credences, not "
                    f"{type(cell).__name__} to {type(posterior).__name__}"
                )
            if posterior.space != cell.space:
                raise SpaceMismatchError(
                    f"deviant posterior for cell {cell.describe()} is over a "
                    "different space"
                )
            in_cell = _weight(posterior, cell)
            if in_cell != posterior.den:
                raise ValidationError(
                    f"deviant posterior for cell {cell.describe()} must assign "
                    f"probability exactly 1 to the cell "
                    f"(got {Fraction(in_cell, posterior.den)})"
                )
            cleaned[cell] = posterior
        object.__setattr__(self, "deviant_posteriors", cleaned)


def conditionalization_policy(
    prior: Credence, partition: EvidencePartition
) -> UpdatePolicy:
    """The policy that conditions the prior on whichever cell obtains."""
    _check_types(("prior", prior, Credence), ("partition", partition, EvidencePartition))
    if prior.space != partition.space:
        raise SpaceMismatchError("prior and partition live on different spaces")
    # keyed by id: hashing an Event hashes its whole space
    by_cell = {id(cell): condition(prior, cell) for cell in partition.cells}
    posteriors = {
        state: by_cell[id(partition.cell_of(state))] for state in partition.space
    }
    return UpdatePolicy._checked(partition, posteriors)


def mixture_expand(
    problem: DecisionProblem,
    partition: EvidencePartition,
    spec: DeviationSpec,
    labels: tuple[str, str] = ("stay", "deviate"),
) -> tuple[DecisionProblem, UpdatePolicy]:
    """Fold self-doubt about updating into the state space itself.

    Each base state splits into two: one where the agent updates correctly
    and one where the deviant disposition fires.  The disposition is
    independent of the base state (probability ``spec.epsilon``), actions
    can't see it (they pay what their base action pays), and evidence
    can't reveal it (cells are lifted wholesale).  Deviant-side posteriors
    distort only the action-relevant part of the belief: the deviant agent
    still assigns the disposition its correct marginal, so choosing among
    the lifted actions is exactly choosing by the distorted base belief.

    Every expanded credence is one product, taken on integer numerators: a
    base credence times the disposition's law ``(1 - epsilon, epsilon)``.
    The prior is the base prior's product; a cell's stay posterior is the
    product of the base prior conditioned on the cell, and its deviate
    posterior that of the cell's deviant posterior (or the stay posterior
    when the spec gives none).  A product prices every lifted act exactly
    as its base credence prices the base act, so each posterior chooses as
    its base credence does, and ``val_general`` of the expansion is
    ``(1 - epsilon)`` times the base problem's value under conditioning
    plus ``epsilon`` times its value under the deviant posteriors.

    A zero-probability cell could never be learned; it is refused up front,
    as problem files refuse it.

    Returns the expanded problem and the expanded update policy.
    """
    _check_types(
        ("problem", problem, DecisionProblem),
        ("partition", partition, EvidencePartition),
        ("spec", spec, DeviationSpec),
    )
    if (
        not isinstance(labels, tuple)
        or len(labels) != 2
        or not all(isinstance(label, str) and label for label in labels)
        or labels[0] == labels[1]
    ):
        raise ValidationError(
            f"labels must be two distinct non-empty strings, got {labels!r}"
        )
    stay, deviate = labels
    if partition.space != problem.space:
        raise SpaceMismatchError("partition is not over the problem's space")
    for cell in partition.cells:
        if not _weight(problem.prior, cell):
            raise ValidationError(f"cell {cell.describe()} has zero prior probability")
    for cell in spec.deviant_posteriors:
        if cell not in partition.cells:
            raise ValidationError(
                f"deviant posterior given for {cell.describe()}, which is not a "
                "cell of the partition"
            )

    lifted = {s: (f"{s}·{stay}", f"{s}·{deviate}") for s in problem.space}
    expanded_ids = [t for pair in lifted.values() for t in pair]
    if len(set(expanded_ids)) != len(expanded_ids):
        raise ValidationError(
            "expanded state ids collide; rename base states or pass other labels"
        )
    space = StateSpace(tuple(expanded_ids))
    eps = spec.epsilon
    keeps, flips = eps.denominator - eps.numerator, eps.numerator

    def mixed(base: Credence) -> Credence:
        return Credence._from_weights(
            space, [w for n in base.nums for w in (n * keeps, n * flips)]
        )

    actions = tuple(
        Action(a.id, {t: a.outcome_in(s) for s, pair in lifted.items() for t in pair})
        for a in problem.choices
    )
    expanded = DecisionProblem(
        space, problem.outcomes, mixed(problem.prior), ChoiceSet(actions)
    )
    # certain of each lifted cell by construction: the stay side is a
    # conditioned prior, the deviate side a posterior DeviationSpec checked,
    # and a product keeps each one's support inside the lifted cell
    lifted_cells, posteriors = [], {}
    for base_cell in partition.cells:
        members = frozenset(t for s in base_cell.members for t in lifted[s])
        lifted_cells.append(Event(space, members))
        correct = mixed(condition(problem.prior, base_cell))
        deviant = spec.deviant_posteriors.get(base_cell)
        distorted = correct if deviant is None else mixed(deviant)
        for s in base_cell.members:
            posteriors.update(zip(lifted[s], (correct, distorted)))
    partition = EvidencePartition(space, tuple(lifted_cells))
    return expanded, UpdatePolicy._checked(partition, posteriors)


def _probe_ties(
    problem: DecisionProblem, partition: EvidencePartition, deviant: Mapping[Event, Credence]
) -> tuple[tuple[str, ...], Fraction] | None:
    """The first tie among the base posteriors: the tied act ids and their value.

    Cells are probed in declared order, each on its conditioned prior and
    then on its ``deviant`` posterior, if it has one.  The first posterior
    that gives two or more acts the best expected utility names them, in
    choice-set order, with that utility; ``None`` means no posterior ties.
    Those are the posteriors of :func:`conditionalization_policy` and,
    mixed, of :func:`mixture_expand` by a spec with these deviant
    posteriors; a mixed credence prices each act as its base credence does,
    so for every epsilon strictly between 0 and 1 the expansion's choices
    tie exactly when this finds a tie.  A cell's prior is scored through
    ``DecisionProblem._cell_scores``, so a zero-probability cell is refused
    as conditioning on it would be.  This is the one place a tie is decided:
    choice itself always takes the earliest maximizer.
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


class _PosteriorClass(NamedTuple):
    """The positive-prior states of one cell that share a posterior.

    ``row`` holds the posterior's mass on each cell member as an integer
    over ``den``.  ``own`` holds, by member, the prior weight of each of
    the class's own states and 0 at every other member, and ``weight``
    their sum.  ``deviates`` says whether the posterior differs from the
    prior conditioned on the cell.
    """

    first: str
    row: tuple[int, ...]
    den: int
    own: list[int]
    weight: int
    deviates: bool


def _cell_table(
    prior: Credence, policy: UpdatePolicy, cell: Event
) -> tuple[tuple[str, ...], tuple[int, ...], int, tuple[_PosteriorClass, ...]]:
    """The cell's members in state order, their prior ``nums``, total and classes.

    The classes group the positive-prior members by posterior, in order of
    each class's first state, and each class's ``own`` is filled in one
    walk over the cell.  Each distinct posterior object is hashed once, at
    its first state, so equal posteriors held as distinct objects share a
    class; later states that hold it find its class by the object's id.
    Rows are read off the stored credences with one ``itemgetter`` per
    cell, built on the cell's stored positions, with no credence built.

    A class deviates when ``row[i] * total != w_i * den`` for some member,
    decided as one tuple comparison: a stored credence's ``nums`` are
    reduced, and a posterior certain of the cell has ``den == sum(row)``,
    so its row equals the cell's prior weights divided by their gcd exactly
    when the two are proportional.
    """
    take = _columns(cell._positions)
    members = take(prior.space.states)
    weights = take(prior.nums)
    total = sum(weights)
    if not total:
        return members, weights, total, ()
    common = math.gcd(*weights)
    conditioned = tuple(w // common for w in weights)
    posteriors = policy.posteriors
    groups: dict[Credence, tuple[str, list[int]]] = {}  # posterior -> (first, own)
    by_object: dict[int, list[int]] = {}  # id(posterior) -> its class's own
    for i, (state, weight) in enumerate(zip(members, weights)):
        if not weight:
            continue
        posterior = posteriors[state]
        own = by_object.get(id(posterior))
        if own is None:
            own = by_object[id(posterior)] = groups.setdefault(
                posterior, (state, [0] * len(members))
            )[1]
        own[i] = weight
    classes = []
    for posterior, (first, own) in groups.items():
        row = take(posterior.nums)
        classes.append(
            _PosteriorClass(first, row, posterior.den, own, sum(own), row != conditioned)
        )
    return members, weights, total, tuple(classes)


def deviating_states(policy: UpdatePolicy, prior: Credence) -> tuple[str, ...]:
    """Positive-prior states whose posterior differs from conditioning.

    Returned in state-space order, however the cells are declared.
    Zero-prior states never count: what the agent would believe in a state
    that cannot obtain carries no weight.  Read off each cell's integer
    table, so no credence is conditioned or compared.
    """
    _check_types(("policy", policy, UpdatePolicy), ("prior", prior, Credence))
    if prior.space != policy.space:
        raise SpaceMismatchError("prior and policy live on different spaces")
    deviating = set()
    for cell in policy.partition.cells:
        members, _, _, classes = _cell_table(prior, policy, cell)
        for cls in classes:
            if cls.deviates:
                deviating.update(s for s, w in zip(members, cls.own) if w)
    return tuple(s for s in prior.space if s in deviating)


def _choice_groups(
    problem: DecisionProblem, policy: UpdatePolicy
) -> list[dict[int, list[int]]]:
    """Each cell's positive-prior states, grouped by the act chosen there.

    One dict per cell of ``policy.partition.cells``, in order, maps the
    choice-set index of each chosen act to the positions of the states that
    choose it; a cell with no positive-prior state gets an empty dict.
    Readers fetch an :class:`~infovalue.decision.Action` by its index only
    to report its id or a leak witness.  Each cell is walked alone, its
    states in order, and choice is decided once per posterior object, at its
    first state; a later state that holds the same object finds its group by
    the object's id.  A posterior is scored on its own cell's columns only,
    sliced by one ``itemgetter`` over the cell's stored positions.  That is
    exact, because :class:`UpdatePolicy` has checked that each posterior
    puts all of its mass on its own cell, so every product left out is 0.
    The cell keeps each act's integer gap row ``row_a - row_first``; a
    posterior's leads are ``[0]`` then each gap row dotted with its
    ``nums``.  Each score is the first act's plus its lead, so the first
    largest lead is the earliest maximizer: a posterior that ties picks the
    earliest-listed of its tied acts.  Whether any posterior ties is
    :func:`_probe_ties`'s question, not this map's.  Equal posteriors held
    as distinct objects choose alike.
    """
    if policy.space != problem.space:
        raise SpaceMismatchError("policy is not over the problem's space")
    states = problem.space.states
    prior_nums = problem.prior.nums
    first_row, *other_rows = problem._rows.values()
    posteriors = policy.posteriors
    out = []
    for cell in policy.partition.cells:
        take = _columns(cell._positions)
        first = take(first_row)
        gaps = [tuple(map(sub, take(row), first)) for row in other_rows]
        cell_groups: dict[int, list[int]] = {}
        by_object: dict[int, list[int]] = {}  # id(posterior) -> the group it chooses into
        for i in cell._positions:
            if not prior_nums[i]:
                continue
            posterior = posteriors[states[i]]
            group = by_object.get(id(posterior))
            if group is None:
                nums = take(posterior.nums)
                leads = [0] + [sum(map(mul, gap, nums)) for gap in gaps]
                group = by_object[id(posterior)] = cell_groups.setdefault(
                    leads.index(max(leads)), []
                )
            group.append(i)
        out.append(cell_groups)
    return out


def _cell_pass(
    problem: DecisionProblem, groups: Mapping[int, list[int]]
) -> tuple[list[int], dict[int, int], tuple[int, int] | None]:
    """One pass over a positive-probability cell's act groups.

    ``groups`` is one cell's dict from :func:`_choice_groups`, keyed by act
    index.  Returns each action's integer score on the cell (choice-set
    order), each group's summed prior numerators (keyed by its act's
    index), and the cell's first leak: the first (chosen, probe) pair of
    act indices, both in choice-set order, whose expected utility moves
    when the prior is conditioned further on "the agent chose this".

    Decided in integers, with no credence or Fraction built.  For a set of
    states, an action's score is ``sum(row[i] * prior.nums[i])`` over the
    states and the set's weight is ``sum(prior.nums[i])``; the expected
    utility under the prior conditioned on the set is ``score / (weight *
    U)``, so a cell's expected utilities are its scores over the sum of
    the groups' weights times ``U``.  Each
    group is scored once on every row; the groups hold all of the cell's
    positive-prior states, so the cell's scores and weight are their sums.
    A chosen act's group leaks through a probe exactly when ``group_score *
    cell_weight != cell_score * group_weight`` for the probe's row.
    """
    nums, rows = problem.prior.nums, problem._rows.values()  # choice-set order
    weights: dict[int, int] = {}
    scores: dict[int, list[int]] = {}
    for k, group in groups.items():
        take = _columns(group)
        group_nums = take(nums)
        weights[k] = sum(group_nums)
        scores[k] = [sum(map(mul, take(row), group_nums)) for row in rows]
    cell_weight = sum(weights.values())
    cell_scores = [sum(column) for column in zip(*scores.values())]
    if len(groups) > 1:  # a lone group is the cell's whole support
        for k in sorted(scores):
            for probe, (score, cell_score) in enumerate(zip(scores[k], cell_scores)):
                if score * cell_weight != cell_score * weights[k]:
                    return cell_scores, weights, (k, probe)
    return cell_scores, weights, None


def _first_leak(
    problem: DecisionProblem, policy: UpdatePolicy, groups: list[dict]
) -> tuple[Event, Action, Action] | None:
    """The first place where choosing leaks payoff-relevant information.

    ``groups`` is :func:`_choice_groups` of the problem and policy.  Within
    each cell, states are grouped by the act the policy leads the agent to
    choose there, and the test is whether further conditioning on that
    choice moves the conditional expected utility of any act.  Returns the
    first witnessing ``(cell, chosen action, probe action)`` triple, cells
    in declared order and acts in choice-set order, or ``None`` if choices
    reveal nothing that matters.  A cell with fewer than two act groups is
    skipped: a lone group is the cell's whole support, and conditioning on
    it moves nothing.
    """
    actions = problem.choices.actions
    for cell, cell_groups in zip(policy.partition.cells, groups):
        if len(cell_groups) > 1:
            leak = _cell_pass(problem, cell_groups)[2]
            if leak is not None:
                chosen, probe = leak
                return cell, actions[chosen], actions[probe]
    return None
