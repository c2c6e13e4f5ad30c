"""Constructive exploitation of self-distrusted updating.

If an agent's own prior expects their update policy to deviate from
conditioning somewhere that matters, there is a concrete pair of options —
a do-nothing act and one bet — such that the agent, by their own lights,
does strictly worse being offered the bet *after* learning than never
being offered the evidence at all.  This module finds where the policy
deviates, prices the bet, and packages the whole thing as a self-verifying
certificate.

The bet is priced at the midpoint: if the deviant posterior puts
probability ``q`` on an event the conditioned prior gives ``r``, stakes
``(win, loss) = (1 - m, m)`` with ``m = (q + r) / 2`` put the bet's
break-even threshold strictly between the two, so the deviant self takes a
bet the sober self correctly prices as a loss.

Not every disagreement supports the construction: a bet on an event that
*reveals who takes it* (for instance, a bet directly on the agent's own
deviant disposition) pays the deviant self for existing rather than
punishing it for misjudging the world, and the accounting behind the
demonstration breaks.  :func:`demonstrate_aversion` therefore walks
candidate events in a deterministic order and certifies the first one
whose synthesized bet leaves choices uninformative about payoffs; it
refuses, naming the first deviating cell as the witness, only if no
candidate in any deviating cell qualifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterator

from .decision import (
    Action,
    ChoiceSet,
    DecisionProblem,
    OutcomeSpace,
)
from .errors import (
    IndependenceBrokenError,
    NoDeviationError,
    SpaceMismatchError,
    ValidationError,
)
from .prob import Credence, Event, _cell_weights, _check_types, _ratio, _weight, as_fraction
from .updating import UpdatePolicy, _cell_table, _PosteriorClass
from .voi import _choice_groups, _first_leak, _realized

__all__ = [
    "Deviation",
    "AversionCertificate",
    "construct_bet",
    "demonstrate_aversion",
    "SAFE_ID",
    "RISKY_ID",
]

SAFE_ID = "safe"
RISKY_ID = "risky"

_OUTCOME_ZERO = "zero"
_OUTCOME_WIN = "win"
_OUTCOME_LOSS = "loss"


@dataclass(frozen=True)
class Deviation:
    """A located disagreement between a policy and conditioning.

    In ``state``, which has positive prior and lies in the partition cell
    ``cell``, the policy's posterior puts probability ``q`` on ``event``
    while the prior conditioned on ``cell`` puts ``r`` on it, and the two
    differ.  That gap is what a bet can exploit.  A plain record: an
    :class:`AversionCertificate` derives every field from its state and
    event and exposes the result as ``cert.deviation``.
    """

    cell: Event
    state: str
    event: Event
    q: Fraction
    r: Fraction


def construct_bet(q: Fraction, r: Fraction) -> tuple[Fraction, Fraction]:
    """Stakes ``(win, loss)`` that split the disagreement between q and r.

    The bet pays ``win`` if the disputed event obtains and costs ``loss``
    otherwise (when ``q > r``; for ``q < r`` the same stakes apply to the
    event's complement, which flips the inequality).  Stakes are
    normalized to ``win + loss = 1``, so the bet is favorable to a
    credence exactly when it puts more than ``loss`` on the event; the
    midpoint ``loss = (q + r) / 2`` lies strictly between ``r`` and ``q``,
    and both stakes land strictly inside (0, 1).  :class:`AversionCertificate`
    prices its own bet here, from the ``q`` and ``r`` it derives.  ``q`` and
    ``r`` are read in :func:`~infovalue.prob.as_fraction`'s grammar as
    integer pairs, and every step cross-multiplies them: the only Fractions
    built are the two stakes, and a refused value for its message.
    """
    (q_num, q_den), (r_num, r_den) = _ratio(q), _ratio(r)
    for name, num, den in (("q", q_num, q_den), ("r", r_num, r_den)):
        if not 0 <= num <= den:
            raise ValidationError(f"{name} must lie in [0, 1], got {Fraction(num, den)}")
    if q_num * r_den == r_num * q_den:
        raise ValidationError("q and r agree; no bet can split them")
    if q_num * r_den < r_num * q_den:  # the bet is on the complement
        q_num, r_num = q_den - q_num, r_den - r_num
    den = 2 * q_den * r_den
    loss = q_num * r_den + r_num * q_den  # (q + r) / 2 == loss / den
    return Fraction(den - loss, den), Fraction(loss, den)


@dataclass(frozen=True)
class AversionCertificate:
    """A checked demonstration that learning has strictly negative value.

    Holds a deviant ``state``, the ``event`` its posterior disagrees about,
    the prior, the policy and the claimed value, which is read by
    :func:`~infovalue.prob.as_fraction`.  From these it derives, once,
    five attributes that are not fields (so ``==``, ``hash`` and
    :func:`dataclasses.replace` see only the inputs): ``deviation``, the
    :class:`Deviation` of the state's partition cell and of ``q`` and
    ``r``, the masses the state's posterior and the prior conditioned on
    the cell give the event; the stakes ``bet_win`` and ``bet_loss``,
    priced by :func:`construct_bet` from ``q`` and ``r``; ``bet_event``,
    the event when ``q > r`` and its complement otherwise; and
    ``problem``, the two-action problem on the prior: ``safe`` always pays
    0; ``risky`` wins ``bet_win`` on ``bet_event`` inside the cell, loses
    ``bet_loss`` on the rest of the cell, and pays 0 outside it.

    Construction checks the theorem's hypotheses, in this order:

    1. ``state`` is a ``str``, ``event`` an :class:`~infovalue.prob.Event`,
       ``prior`` a :class:`~infovalue.prob.Credence` and ``policy`` an
       :class:`~infovalue.updating.UpdatePolicy`;
    2. the state is one of the policy's, so it has a cell;
    3. the event lies inside that cell, and on its space;
    4. the prior gives the cell positive weight, refused as conditioning
       on it would be;
    5. the state has positive prior probability, as a state that never
       occurs witnesses nothing;
    6. ``q != r``;
    7. ``val_general``, recomputed from scratch on the synthesized
       problem rather than trusted from the caller, equals the claim;
    8. no choice on that problem reveals anything payoff-relevant.

    The bet is priced and synthesized between the sixth and the seventh.
    The value is then strictly negative, so it needs no check of its own.
    The posterior is certain of its cell, so ``q`` is its probability of
    the bet's event within the cell, as ``r`` is the conditioned prior's,
    and the midpoint stake lies strictly between them: the deviant
    posterior takes the bet and the conditioned prior declines it.  Only
    the cell's states can take it, as both acts pay 0 elsewhere and ties
    go to ``safe``.  With no leak, the takers hold the bet's event at the
    cell's odds ``r'``, so the value is ``W_T * (r' - loss)`` for the
    takers' prior weight ``W_T``.  ``W_T > 0``, because the deviant state
    has positive prior and takes its own bet, and ``loss > r'``, because
    the midpoint lies above the conditioned prior's price.  For the same
    reason declining is prior-optimal at exactly 0, which is the baseline.

    Every check compares integers: ``q`` and ``r`` are read off the
    posterior's ``nums`` and the prior's weights on the cell, so no
    credence is conditioned and no expected utility is built.  The checks
    build four Fractions, ``q``, ``r`` and the stakes; the recomputed value
    is an integer over ``prior.den * U``, compared with the claim by
    cross-multiplying, and any other Fraction is built only for an error
    message.  The bet's side is read off the same cross-multiplied ``q``
    and ``r``.  The recomputation is a second route: it builds its own
    per-cell act groups from the synthesized problem and the policy,
    sharing no tally with the search that found the bet, and the leak test
    reads the same groups.  Besides that one choice map, the checks cost
    O(|space|) integer operations.
    """

    state: str
    event: Event
    prior: Credence
    policy: UpdatePolicy
    val_general: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "val_general", as_fraction(self.val_general))
        _check_types(
            ("state", self.state, str),
            ("event", self.event, Event),
            ("prior", self.prior, Credence),
            ("policy", self.policy, UpdatePolicy),
        )
        state, event, prior, policy = self.state, self.event, self.prior, self.policy
        cell = policy.partition.cell_of(state)
        if not event.members <= cell.members:
            raise ValidationError(
                f"event {event.describe()} is not inside cell {cell.describe()}"
            )
        if event.space != cell.space:
            raise SpaceMismatchError("event and cell live on different spaces")
        _, weights = _cell_weights(prior, cell)
        if not prior.nums[prior.space.index(state)]:
            raise ValidationError(f"state {state!r} has prior probability 0, so it never occurs")
        # the event's mass under the posterior and, as it lies inside the
        # cell, under the prior conditioned on the cell
        posterior = policy.posterior(state)
        q_num, q_den = _weight(posterior, event), posterior.den
        r_num, r_den = _weight(prior, event), sum(weights)
        if q_num * r_den == r_num * q_den:
            raise ValidationError("q and r agree; a deviation must disagree about its event")
        q, r = Fraction(q_num, q_den), Fraction(r_num, r_den)
        win, loss = construct_bet(q, r)
        bet_event = event if q_num * r_den > r_num * q_den else event.complement()
        problem = _synthesize(prior, cell, bet_event, win, loss)
        object.__setattr__(self, "deviation", Deviation(cell, state, event, q, r))
        object.__setattr__(self, "bet_win", win)
        object.__setattr__(self, "bet_loss", loss)
        object.__setattr__(self, "bet_event", bet_event)
        object.__setattr__(self, "problem", problem)
        groups = _choice_groups(problem, policy)
        # less the baseline, which is 0; over prior.den * U
        recomputed, den = _realized(problem, groups), prior.den * problem._scale
        claim = self.val_general
        if recomputed * claim.denominator != claim.numerator * den:
            raise ValidationError(
                f"certificate claims val_general={claim}, "
                f"recomputation gives {Fraction(recomputed, den)}"
            )
        leak = _first_leak(problem, policy, groups)
        if leak is not None:
            raise ValidationError(f"the bet's takers leak: {leak}")


def _synthesize(
    prior: Credence,
    cell: Event,
    bet_event: Event,
    bet_win: Fraction,
    bet_loss: Fraction,
) -> DecisionProblem:
    """The two-action problem on ``prior``: ``safe``, then ``risky``.

    Safe is listed first, so every state indifferent between the two
    (everything outside the deviation's cell, where both pay 0) declines.
    Each act is laid out over the prior's states.
    """
    space = prior.space
    outcomes = OutcomeSpace(
        (_OUTCOME_ZERO, _OUTCOME_WIN, _OUTCOME_LOSS),
        {_OUTCOME_ZERO: 0, _OUTCOME_WIN: bet_win, _OUTCOME_LOSS: -bet_loss},
    )
    nothing = dict.fromkeys(space.states, _OUTCOME_ZERO)
    in_cell, wins = cell.members, bet_event.members
    bet = {
        state: _OUTCOME_ZERO if state not in in_cell
        else _OUTCOME_WIN if state in wins else _OUTCOME_LOSS
        for state in space.states
    }
    safe, risky = Action(SAFE_ID, nothing), Action(RISKY_ID, bet)
    return DecisionProblem(space, outcomes, prior, ChoiceSet((safe, risky)))


def _is_calibrated(classes: tuple[_PosteriorClass, ...]) -> bool:
    """Whether each class's posterior is the prior conditioned on its states.

    Learning cannot hurt an agent whose prior is calibrated to their own
    posteriors (Skyrms, "The Value of Knowledge", 1990; Huttegger,
    "Learning experiences and the value of knowledge", 2014), and such a
    cell yields no certificate.  Take any candidate's bet ``B`` with stake
    ``loss``.  A class takes it only when its posterior μ puts more than
    ``loss`` on ``B``; since μ is the prior conditioned on the class's
    states, the takers' value, the sum over taker classes of
    ``W_S * (μ(B) - loss)``, is positive.  A surviving candidate's takers
    leave ``B`` at its cell-wide prior odds ``r'``, so their value is
    ``W_T * (r' - loss)``.  ``W_T`` is positive, because the walked
    posterior takes its own bet, and ``r' < loss``, because the conditioned
    prior prices the bet as a loss; that value is negative.  So every
    candidate in a calibrated cell is rejected.

    In integers, the test is ``row[i] * weight == own[i] * den`` at each
    member with ``own[i] > 0``, the class's own states.  That suffices: the
    posterior is certain of its cell, so its row sums to ``den``, and
    matching on the class's own states leaves 0 on every other member.  It
    costs O(|cell| * classes) integer operations.
    """
    return all(
        mass * cls.weight == weight * cls.den
        for cls in classes
        for mass, weight in zip(cls.row, cls.own)
        if weight
    )


def _disagreements(
    row: tuple[int, ...], den: int, weights: tuple[int, ...], total: int
) -> Iterator[tuple[tuple[int, ...], int, int, int]]:
    """The candidate events on which a posterior row and the cell's prior disagree.

    Events run by size, then in member order, from single members up to
    all but one.  Each comes as ``(combo, mask, q_num, r_num)``: its member
    indices, their bit mask, and the posterior's ``q = q_num / den`` and
    the conditioned prior's ``r = r_num / total`` on it, with ``q != r``.
    """
    n = len(weights)
    for size in range(1, n):
        for combo in combinations(range(n), size):
            q_num = r_num = mask = 0
            for i in combo:
                q_num += row[i]
                r_num += weights[i]
                mask |= 1 << i
            if q_num * total != r_num * den:
                yield combo, mask, q_num, r_num


def _tally(
    classes: tuple[_PosteriorClass, ...],
    combo: tuple[int, ...],
    mirrored: bool,
    loss_num: int,
    loss_den: int,
) -> tuple[int, int]:
    """The prior weights of a bet's takers, and of those among them in the bet.

    Only the cell's states can take the bet: outside it both acts pay 0
    and ties go to safe.  A posterior class takes the bet iff its mass on
    it exceeds ``loss_num / loss_den``.  Its mass and its ``own`` weight
    on the bet are summed along ``combo``.  A ``mirrored`` bet is the rest
    of the cell: there a posterior certain of its cell has ``den`` less its
    mass on ``combo``, and a class its ``weight`` less its weight on
    ``combo``.  The bet keeps choices uninformative iff its takers hold it
    at the cell's odds.
    """
    taker_weight = taker_bet_weight = 0
    for _, row, den, own, class_weight, _ in classes:
        mass = weight = 0
        for i in combo:
            mass += row[i]
            weight += own[i]
        if mirrored:
            mass, weight = den - mass, class_weight - weight
        if mass * loss_den > loss_num * den:
            taker_weight += class_weight
            taker_bet_weight += weight
    return taker_weight, taker_bet_weight


def demonstrate_aversion(
    problem: DecisionProblem, policy: UpdatePolicy
) -> AversionCertificate:
    """Replace the problem's options with a bet that makes learning hurt.

    Walks the policy's disagreements with conditioning in deterministic
    order — cells as declared, deviating states in state order, candidate
    events by size then state order within the cell — and weighs the
    midpoint bet for each, in integers, until one leaves choices
    uninformative about payoffs.  That first surviving candidate's state
    and event become the certificate, which derives the cell, ``q`` and
    ``r`` and prices its own stakes.  Its value is the takers' prior
    weight times their stake, summed from the search's integer tallies
    into one Fraction over ``loss_den * prior.den``.
    :class:`AversionCertificate` then checks it, in integers, against a
    definitional recomputation that builds its own act groups on
    the synthesized problem and shares no tally with the search, and
    reruns the leak test on those groups.

    Each cell is read from the integer table that
    :func:`~infovalue.updating.deviating_states` reads, where a posterior
    class deviates when ``row[i] * total != w_i * den`` for some member.
    A calibrated cell, where each posterior is the prior conditioned on
    the states that hold it, can yield no certificate (see
    :func:`_is_calibrated`), so it is skipped without a walk; its deviating
    states still count as deviating.  This costs O(|cell| * classes)
    integer operations.

    Every other cell is walked in full.  States that share a posterior
    price every event alike, so each posterior is walked once, at its first
    state; a later state holding it would only repeat bets already
    rejected.  A bet's verdict depends only on its event and stake, so the
    search keeps the set of those it rejected and skips a bet met again.
    Stakes are integers over one denominator per cell, and each
    posterior class's mass and ``own`` weight on a candidate are summed
    along the candidate's own members (:func:`_tally`), in O(|event|)
    integer operations.  Only the certificate's claim is a Fraction: the
    value, so a rejected candidate is never priced.
    A cell of ``n`` states that is not calibrated walks up to
    ``2**n - 2`` events per distinct deviating posterior.

    Raises :class:`NoDeviationError` if the policy conditionalizes at
    every prior-possible state, and :class:`IndependenceBrokenError` if
    every exploitable disagreement is of the self-revealing kind the
    demonstration's accounting excludes.  Its witness is ``(the first
    deviating cell, safe, risky)``, which is what the full independence
    check finds on the first rejected candidate's bet:

    - ``risky`` pays 0 outside the bet's cell, so every state there
      declines (ties go to ``safe``), and no other cell can leak.
    - A rejected bet has takers: the walked posterior takes its own bet.
    - It also has decliners: if every state took it, the takers would hold
      the bet at the cell's odds, and the bet would be accepted.
    - ``safe`` pays 0, so probing ``safe`` never leaks.  Probing ``risky``
      leaks from the safe group exactly when the two groups' odds on the
      bet differ, and that is why the bet was rejected.
    - Every deviating class yields at least one candidate (it differs from
      the conditioned prior on some single member), so the first rejected
      candidate lies in the first deviating cell.
    """
    _check_types(("problem", problem, DecisionProblem), ("policy", policy, UpdatePolicy))
    prior = problem.prior
    space = prior.space
    if space != policy.space:
        raise SpaceMismatchError("policy is not over the problem's space")
    first_deviating = None
    for cell in policy.partition.cells:
        members, weights, total, classes = _cell_table(prior, policy, cell)
        deviating = [cls for cls in classes if cls.deviates]
        if not deviating:
            continue  # no positive-prior state, or each holds the conditioned prior
        if first_deviating is None:
            first_deviating = cell
        if _is_calibrated(classes):
            continue
        scale = lcm(*(cls.den for cls in classes))
        loss_den = 2 * scale * total
        everything = (1 << len(members)) - 1
        rejected: set[tuple[int, int]] = set()
        for cls in deviating:
            den = cls.den
            q_scale = scale // den * total
            for combo, mask, q_num, r_num in _disagreements(cls.row, den, weights, total):
                midpoint = q_num * q_scale + r_num * scale  # (q + r) * loss_den / 2
                mirrored = q_num * total < r_num * den
                if mirrored:  # the bet is on the rest of the cell
                    key = (mask ^ everything, loss_den - midpoint)
                    bet_weight = total - r_num
                else:
                    key, bet_weight = (mask, midpoint), r_num
                if key in rejected:
                    continue  # a bet's verdict depends on its key alone
                taker_weight, taker_bet_weight = _tally(
                    classes, combo, mirrored, key[1], loss_den
                )
                if taker_bet_weight * total != bet_weight * taker_weight:
                    rejected.add(key)
                    continue
                # a taker wins 1 - loss on the bet and loses loss off it, with
                # loss = key[1] / loss_den
                value_num = taker_bet_weight * loss_den - taker_weight * key[1]
                return AversionCertificate(
                    state=cls.first,
                    event=Event(space, frozenset(members[i] for i in combo)),
                    prior=prior,
                    policy=policy,
                    val_general=Fraction(value_num, loss_den * prior.den),
                )
    if first_deviating is None:
        raise NoDeviationError(
            "the policy conditionalizes at every prior-possible state; "
            "there is no disagreement to bet against"
        )
    raise IndependenceBrokenError(first_deviating, SAFE_ID, RISKY_ID)
