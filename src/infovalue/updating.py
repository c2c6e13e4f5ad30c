"""Update policies.

An update policy says, for each state, what the agent's credence would
become upon learning which cell of an
:class:`~infovalue.prob.EvidencePartition` that state lies in.  The one
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
    EvidencePartition,
    StateSpace,
    _check_types,
    _columns,
    _weight,
    as_fraction,
    condition,
)

__all__ = [
    "UpdatePolicy",
    "DeviationSpec",
    "CONDITIONALIZATION",
    "conditionalization_policy",
    "mixture_expand",
    "deviating_states",
]

CONDITIONALIZATION = "conditionalization"


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
        Action(a.id, {t: a.assignment[s] for s, pair in lifted.items() for t in pair})
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
