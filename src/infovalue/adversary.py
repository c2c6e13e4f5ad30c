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
    FIRST_BY_ORDER,
    Action,
    ChoiceSet,
    DecisionProblem,
    OutcomeSpace,
    expected_utility,
    max_expected_utility,
)
from .errors import (
    IndependenceBrokenError,
    NoDeviationError,
    SpaceMismatchError,
    ValidationError,
)
from .prob import Credence, Event, as_fraction, condition, probability
from .updating import (
    UpdatePolicy,
    _cell_table,
    _choice_groups,
    _first_leak,
    _PosteriorClass,
)
from .voi import _realized

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

    In ``state`` (prior-possible, inside ``cell``), the policy's posterior
    puts probability ``q`` on ``event`` while the conditioned prior puts
    ``r`` on it, and the two differ.  That gap is what a bet can exploit.
    ``q`` and ``r`` are read by :func:`~infovalue.prob.as_fraction`.
    """

    cell: Event
    state: str
    event: Event
    q: Fraction
    r: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", as_fraction(self.q))
        object.__setattr__(self, "r", as_fraction(self.r))
        if self.state not in self.cell:
            raise ValidationError(
                f"state {self.state!r} is not in cell {self.cell.describe()}"
            )
        if not self.event.members <= self.cell.members:
            raise ValidationError(
                f"event {self.event.describe()} is not inside cell "
                f"{self.cell.describe()}"
            )
        for name, value in (("q", self.q), ("r", self.r)):
            if not 0 <= value <= 1:
                raise ValidationError(f"{name} must lie in [0, 1], got {value}")
        if self.q == self.r:
            raise ValidationError(
                "q and r agree; a deviation must disagree about its event"
            )


def construct_bet(q: Fraction, r: Fraction) -> tuple[Fraction, Fraction]:
    """Stakes ``(win, loss)`` that split the disagreement between q and r.

    The bet pays ``win`` if the disputed event obtains and costs ``loss``
    otherwise (when ``q > r``; for ``q < r`` the same stakes apply to the
    event's complement, which flips the inequality).  Stakes are
    normalized to ``win + loss = 1``, so the bet is favorable to a
    credence exactly when it puts more than ``loss`` on the event; the
    midpoint construction puts that threshold strictly between ``r`` and
    ``q``, and both stakes land strictly inside (0, 1).  ``q`` and ``r``
    are read by :func:`~infovalue.prob.as_fraction`.
    """
    q, r = as_fraction(q), as_fraction(r)
    for name, value in (("q", q), ("r", r)):
        if not 0 <= value <= 1:
            raise ValidationError(f"{name} must lie in [0, 1], got {value}")
    if q == r:
        raise ValidationError("q and r agree; no bet can split them")
    if q < r:
        return construct_bet(1 - q, 1 - r)
    m = (q + r) / 2
    return 1 - m, m


@dataclass(frozen=True)
class AversionCertificate:
    """A checked demonstration that learning has strictly negative value.

    Holds the located deviation, the priced bet, and the two-action
    problem: ``safe`` always pays 0; ``risky`` wins ``bet_win`` on
    ``bet_event`` inside the deviation's cell, loses ``bet_loss`` on the
    rest of the cell, and pays 0 outside it.  Construction re-derives
    everything it claims: the break-even threshold separates q from r,
    the bet is strictly attractive to the deviant posterior and strictly
    unattractive to the conditioned one, declining is prior-optimal at
    exactly 0, ``val_general`` — recomputed from scratch, not trusted
    from the caller — is strictly negative, and the full independence
    check (:func:`~infovalue.updating.find_independence_violation`) finds
    no choice that reveals anything payoff-relevant, which the value's
    accounting requires.  The recomputation and the independence check
    read one set of per-cell act groups, built once from the synthesized
    problem and the policy.  Last
    come the claims themselves: ``q`` and ``r`` are the deviant
    posterior's and the conditioned prior's probabilities of the
    deviation's event, ``bet_event`` is that event when ``q > r`` and its
    complement otherwise, and the acts are exactly ``safe`` and ``risky``
    as above, read off the problem's integer utility table in O(|space|).
    """

    deviation: Deviation
    bet_win: Fraction
    bet_loss: Fraction
    bet_event: Event
    problem: DecisionProblem
    policy: UpdatePolicy
    val_general: Fraction

    def __post_init__(self) -> None:
        if self.bet_win <= 0 or self.bet_loss <= 0:
            raise ValidationError("stakes must be positive on both sides")
        threshold = self.bet_loss / (self.bet_win + self.bet_loss)
        q, r = self.deviation.q, self.deviation.r
        if q > r:
            separated = r < threshold < q
        else:
            separated = (1 - r) < threshold < (1 - q)
        if not separated:
            raise ValidationError(
                f"break-even threshold {threshold} does not separate "
                f"q={q} from r={r} on the event bet on"
            )
        risky = self.problem.choices.by_id(RISKY_ID)
        posterior = self.policy.posterior(self.deviation.state)
        sober = condition(self.problem.prior, self.deviation.cell)
        deviant_eu = expected_utility(self.problem, risky, posterior)
        sober_eu = expected_utility(self.problem, risky, sober)
        if not deviant_eu > 0 > sober_eu:
            raise ValidationError(
                f"the bet must be strictly attractive to the deviant posterior "
                f"(EU {deviant_eu}) and strictly unattractive to the conditioned "
                f"one (EU {sober_eu})"
            )
        baseline = max_expected_utility(self.problem.prior, self.problem)
        if baseline != 0:
            raise ValidationError(
                f"declining must be prior-optimal at exactly 0, got {baseline}"
            )
        groups = _choice_groups(self.problem, self.policy)
        recomputed = _realized(self.problem, groups) - baseline
        if recomputed != self.val_general:
            raise ValidationError(
                f"certificate claims val_general={self.val_general}, "
                f"recomputation gives {recomputed}"
            )
        if self.val_general >= 0:
            raise ValidationError(
                f"certificate requires strictly negative value, got {self.val_general}"
            )
        witness = _first_leak(self.problem, self.policy, groups)
        if witness is not None:
            cell, chosen, probe = witness
            leak = IndependenceBrokenError(cell, chosen.id, probe.id)
            raise ValidationError(f"the bet's takers leak: {leak}")
        self._check_claims(posterior, sober)

    def _check_claims(self, posterior: Credence, sober: Credence) -> None:
        """That q, r, the bet event and the two acts are what the deviation implies."""
        space, event = self.problem.space, self.deviation.event
        q, r = self.deviation.q, self.deviation.r
        actual = (probability(posterior, event), probability(sober, event))
        if actual != (q, r):
            raise ValidationError(
                f"deviation claims q={q}, r={r} on {event.describe()}, but the "
                f"posterior and the conditioned prior give {actual[0]} and {actual[1]}"
            )
        bet = event.members if q > r else frozenset(space.states) - event.members
        if self.bet_event.space != space or self.bet_event.members != bet:
            raise ValidationError(
                f"bet event {self.bet_event.describe()} must be the deviation's "
                "event when q > r and its complement otherwise"
            )
        scale, cell = self.problem._scale, self.deviation.cell.members
        win, loss = self.bet_win * scale, self.bet_loss * scale
        pays = (
            win.denominator == loss.denominator == 1
            and self.problem.choices.ids() == (SAFE_ID, RISKY_ID)
            and tuple(self.problem._rows.values()) == (
                (0,) * len(space),
                tuple(
                    (win.numerator if s in bet else -loss.numerator) if s in cell else 0
                    for s in space.states
                ),
            )
        )
        if not pays:
            raise ValidationError(
                f"the acts must be exactly {SAFE_ID!r}, paying 0 everywhere, and "
                f"{RISKY_ID!r}, paying {self.bet_win} on the bet in the cell, "
                f"-{self.bet_loss} on the rest of the cell and 0 outside it"
            )


def _synthesize(
    problem: DecisionProblem,
    cell: Event,
    bet_event: Event,
    bet_win: Fraction,
    bet_loss: Fraction,
) -> DecisionProblem:
    """The problem with its choice set replaced by {safe, risky}.

    Safe is listed first, so every state indifferent between the two
    (everything outside the deviation's cell, where both pay 0) declines.
    """
    space = problem.space
    outcomes = OutcomeSpace(
        (_OUTCOME_ZERO, _OUTCOME_WIN, _OUTCOME_LOSS),
        {_OUTCOME_ZERO: Fraction(0), _OUTCOME_WIN: bet_win, _OUTCOME_LOSS: -bet_loss},
    )
    safe = Action(SAFE_ID, {s: _OUTCOME_ZERO for s in space})

    def risky_outcome(state: str) -> str:
        if state not in cell:
            return _OUTCOME_ZERO
        return _OUTCOME_WIN if state in bet_event else _OUTCOME_LOSS

    risky = Action(RISKY_ID, {s: risky_outcome(s) for s in space})
    return DecisionProblem(
        space,
        outcomes,
        problem.prior,
        ChoiceSet((safe, risky)),
        tie_policy=FIRST_BY_ORDER,
    )


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
    events by size then state order within the cell — and prices the
    midpoint bet for each until one leaves choices uninformative about
    payoffs.  That first surviving candidate becomes the certificate.  Its
    value is the takers' prior weight times their stake, summed from the
    search's integer tallies; :class:`AversionCertificate` then checks it
    against a definitional recomputation and reruns the full independence
    check on the synthesized problem.

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
    rejected.  Stakes are integers over one denominator per cell, and each
    posterior class's mass and ``own`` weight on a candidate are summed
    along the candidate's own members (:func:`_tally`), in O(|event|)
    integer operations.  Stakes become ``Fraction``s only for the
    certificate.  A cell of ``n`` states that is not calibrated walks up to
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
        tallies: dict[tuple[int, int], tuple[int, int]] = {}
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
                if key not in tallies:
                    tallies[key] = _tally(classes, combo, mirrored, key[1], loss_den)
                taker_weight, taker_bet_weight = tallies[key]
                if taker_bet_weight * total != bet_weight * taker_weight:
                    continue
                q, r = Fraction(q_num, den), Fraction(r_num, total)
                bet_win, bet_loss = construct_bet(q, r)
                event = Event(space, frozenset(members[i] for i in combo))
                bet_event = event if q > r else event.complement()
                taker_loss_weight = taker_weight - taker_bet_weight
                return AversionCertificate(
                    deviation=Deviation(
                        cell=cell, state=cls.first, event=event, q=q, r=r
                    ),
                    bet_win=bet_win,
                    bet_loss=bet_loss,
                    bet_event=bet_event,
                    problem=_synthesize(problem, cell, bet_event, bet_win, bet_loss),
                    policy=policy,
                    val_general=(
                        taker_bet_weight * bet_win - taker_loss_weight * bet_loss
                    ) / prior.den,
                )
    if first_deviating is None:
        raise NoDeviationError(
            "the policy conditionalizes at every prior-possible state; "
            "there is no disagreement to bet against"
        )
    raise IndependenceBrokenError(first_deviating, SAFE_ID, RISKY_ID)
