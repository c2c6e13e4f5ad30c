"""Worked scenarios and epsilon sweeps.

Three presets, each a complete problem-plus-policy pairing:

``race``
    A day at the races.  Whether it rains decides which horse is favored;
    learning the weather before betting is classically valuable, and the
    bettor conditionalizes.  The baseline case where information is worth
    paying for.

``gamblers``
    Two fair, independent coin flips.  Bets on the second flip all lose
    money on expectation, so a conditionalizer ignores news about the
    first flip: the evidence is worthless but harmless.  An agent who
    suspects (with probability epsilon) that seeing the first flip will
    trigger the gambler's fallacy — 9/10 confident the second flip comes
    up opposite — expects that news to push them into a losing bet.

``unknown-bias``
    Two flips of a coin whose bias is unknown, so the flips are
    correlated and the first is genuinely informative about the second.
    Here learning has classical value 1/3, but the same fallacy (tuned to
    confidence 91/100, where it tips the agent into a reckless 2-to-minus-10
    bet) costs more than the news is worth once epsilon exceeds 1/7.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .decision import (
    Action,
    ChoiceSet,
    DecisionProblem,
    OutcomeSpace,
    _probe_ties,
)
from .errors import ConfigError
from .prob import Credence, Event, EvidencePartition, StateSpace, _sequence, as_fraction
from .updating import (
    DeviationSpec,
    UpdatePolicy,
    _epsilon,
    conditionalization_policy,
    mixture_expand,
)
from .voi import val_general, val_good

__all__ = [
    "RACE",
    "GAMBLERS",
    "UNKNOWN_BIAS",
    "SCENARIO_NAMES",
    "Scenario",
    "SweepRow",
    "SweepTable",
    "build_scenario",
    "sweep",
    "threshold",
]

RACE = "race"
GAMBLERS = "gamblers"
UNKNOWN_BIAS = "unknown-bias"
SCENARIO_NAMES = (RACE, GAMBLERS, UNKNOWN_BIAS)

_MIXTURE_LABELS = ("bayes", "fallacy")
_UNKNOWN_BIAS_CONFIDENCE = Fraction(91, 100)
_TWO_FLIPS = ("hh", "ht", "th", "tt")


@dataclass(frozen=True)
class Scenario:
    """A named, ready-to-evaluate problem with its update policy."""

    name: str
    problem: DecisionProblem
    policy: UpdatePolicy


def _race() -> Scenario:
    """Rain favors one horse, shine the other; the bettor conditionalizes.

    It rains with probability 1/2, and the favored horse wins with
    probability 3/4.  Each bet pays +1 when right and -2 when wrong, so
    neither is worth taking on the prior (both expect -1/2 against the
    do-nothing 0), but after a weather report the favored bet expects
    +1/4.  Learning the weather is worth exactly 1/4.
    """
    space = StateSpace(("rain-a", "rain-b", "shine-a", "shine-b"))
    prior = Credence(
        space,
        {
            "rain-a": Fraction(3, 8),
            "rain-b": Fraction(1, 8),
            "shine-a": Fraction(1, 8),
            "shine-b": Fraction(3, 8),
        },
    )
    outcomes = OutcomeSpace(
        ("nothing", "win", "loss"),
        {"nothing": Fraction(0), "win": Fraction(1), "loss": Fraction(-2)},
    )
    safe = Action("safe", {s: "nothing" for s in space})
    bet_a = Action(
        "bet-a", {s: ("win" if s.endswith("-a") else "loss") for s in space}
    )
    bet_b = Action(
        "bet-b", {s: ("win" if s.endswith("-b") else "loss") for s in space}
    )
    problem = DecisionProblem(space, outcomes, prior, ChoiceSet((safe, bet_a, bet_b)))
    partition = EvidencePartition(
        space,
        (
            Event(space, frozenset({"rain-a", "rain-b"})),
            Event(space, frozenset({"shine-a", "shine-b"})),
        ),
    )
    return Scenario(RACE, problem, conditionalization_policy(prior, partition))


def _second_flip_bet(id: str, face: str, win: str, loss: str) -> Action:
    """The bet on the second flip: ``win`` if it lands ``face``, else ``loss``."""
    return Action(id, {s: win if s[1] == face else loss for s in _TWO_FLIPS})


class _FallacyBase(NamedTuple):
    """A fallacy preset without its epsilon.

    ``deviant`` gives the deviant self's posterior on each cell.
    """

    problem: DecisionProblem
    partition: EvidencePartition
    deviant: dict[Event, Credence]


def _fallacy_base(
    masses: dict[str, Fraction],
    outcomes: OutcomeSpace,
    bets: tuple[Action, ...],
    repeat: Fraction,
) -> _FallacyBase:
    """Two flips, a look at the first, and a feared streak of the fallacy.

    The agent may decline (``safe`` pays ``nothing``) or take one of
    ``bets`` on the second flip, and learns the first flip.  With
    probability epsilon the deviant disposition fires and leaves them
    ``repeat`` sure that the second flip matches the first.
    """
    space = StateSpace(_TWO_FLIPS)
    safe = Action("safe", {s: "nothing" for s in space})
    problem = DecisionProblem(
        space, outcomes, Credence(space, masses), ChoiceSet((safe, *bets))
    )
    heads = Event(space, frozenset({"hh", "ht"}))
    tails = Event(space, frozenset({"th", "tt"}))
    deviant = {
        heads: Credence(space, {"hh": repeat, "ht": 1 - repeat}),
        tails: Credence(space, {"tt": repeat, "th": 1 - repeat}),
    }
    return _FallacyBase(problem, EvidencePartition(space, (heads, tails)), deviant)


def _gamblers_base() -> _FallacyBase:
    """Fair independent flips, losing bets, and a feared gambler's fallacy.

    States are the four outcomes of two fair independent flips; evidence
    is the first flip.  Bets on the second flip pay +1 right, -2 wrong —
    never worth it, with or without the news, so the news is classically
    worthless and a pure conditionalizer just declines everything.

    With probability epsilon (independent of the flips), seeing the
    first flip triggers the fallacy: 9/10 confidence that the second flip
    comes up the opposite face, which makes the matching bet look like a
    winner.  The expected cost of being offered the news is epsilon/2.
    """
    outcomes = OutcomeSpace(
        ("nothing", "win", "loss"),
        {"nothing": Fraction(0), "win": Fraction(1), "loss": Fraction(-2)},
    )
    return _fallacy_base(
        {s: Fraction(1, 4) for s in _TWO_FLIPS},
        outcomes,
        (
            _second_flip_bet("risky-heads", "h", "win", "loss"),
            _second_flip_bet("risky-tails", "t", "win", "loss"),
        ),
        Fraction(1, 10),
    )


def _unknown_bias_base(fallacy_confidence) -> _FallacyBase:
    """Correlated flips make the news valuable; the fallacy makes it costly.

    A coin of unknown bias is flipped twice: the joint distribution puts
    1/3 on each matching pair and 1/6 on each mismatch, so after seeing
    the first flip the second matches it with probability 2/3.  Modest
    +1/-1 bets on the second flip are the sensible play (worth 1/3 with
    the news in hand, so the news is classically worth 1/3), while the
    reckless +2/-10 bets only pay for the very confident.

    The feared deviation here is streak-chasing: with probability
    epsilon, seeing the first flip leaves the agent
    ``fallacy_confidence`` sure the second will match it.  At the default
    91/100 that tips the deviant self into the reckless matching bet
    (conditional expected utility -2), so the news nets
    (1 - epsilon)/3 - 2*epsilon: positive below epsilon = 1/7, negative
    above.

    The confidence's syntax is refused here, then its range, then a tie,
    found once on the base posteriors by decision's ``_probe_ties``: each
    cell's conditioned prior, then its deviant posterior.  A confidence at
    which the deviant self is exactly torn between two acts raises a
    :class:`ConfigError` naming the tied acts and their value.  A mixed
    credence prices every act exactly as its base credence does, so whether
    acts tie does not depend on epsilon.
    """
    confidence = as_fraction(fallacy_confidence)
    if not 0 <= confidence <= 1:
        raise ConfigError(
            f"fallacy confidence must lie in [0, 1], got {confidence}"
        )
    outcomes = OutcomeSpace(
        ("nothing", "small-win", "small-loss", "big-win", "big-loss"),
        {
            "nothing": Fraction(0),
            "small-win": Fraction(1),
            "small-loss": Fraction(-1),
            "big-win": Fraction(2),
            "big-loss": Fraction(-10),
        },
    )
    base = _fallacy_base(
        {
            "hh": Fraction(1, 3),
            "ht": Fraction(1, 6),
            "th": Fraction(1, 6),
            "tt": Fraction(1, 3),
        },
        outcomes,
        (
            _second_flip_bet("bet-heads", "h", "small-win", "small-loss"),
            _second_flip_bet("bet-tails", "t", "small-win", "small-loss"),
            _second_flip_bet("v-risky-heads", "h", "big-win", "big-loss"),
            _second_flip_bet("v-risky-tails", "t", "big-win", "big-loss"),
        ),
        confidence,
    )
    tie = _probe_ties(base.problem, base.partition, base.deviant)
    if tie is not None:
        tied, value = tie
        raise ConfigError(
            f"fallacy confidence {confidence} makes acts tie at "
            f"expected utility {value}: {', '.join(tied)}"
        )
    return base


def _mixture_base(name: str, confidence) -> _FallacyBase:
    """The base of a mixture preset, refusing its name, then its
    confidence, then a tie; every preset reads this before any epsilon."""
    if name == GAMBLERS:
        if confidence is not None:
            raise ConfigError(
                "the gamblers scenario has a fixed fallacy confidence of 9/10"
            )
        return _gamblers_base()
    if name == UNKNOWN_BIAS:
        return _unknown_bias_base(
            _UNKNOWN_BIAS_CONFIDENCE if confidence is None else confidence
        )
    raise ConfigError(
        f"unknown scenario {name!r}; expected one of {', '.join(SCENARIO_NAMES)}"
    )


def build_scenario(name: str, epsilon=None, confidence=None) -> Scenario:
    """The preset ``name``, rejecting parameters it does not take.

    ``race`` takes neither parameter.  ``gamblers`` takes ``epsilon``
    (default 0), and ``unknown-bias`` also a fallacy ``confidence``
    (default 91/100); both are read by :func:`as_fraction`.  The presets'
    worked examples are told in :func:`_race`, :func:`_gamblers_base` and
    :func:`_unknown_bias_base`.  Refusals come in :func:`sweep`'s order:
    the name, the confidence, a tie, then the epsilon.
    """
    if name == RACE:
        if epsilon is not None:
            raise ConfigError("the race scenario has no epsilon parameter")
        if confidence is not None:
            raise ConfigError("the race scenario has no confidence parameter")
        return _race()
    base = _mixture_base(name, confidence)
    spec = DeviationSpec(Fraction(0) if epsilon is None else epsilon, base.deviant)
    problem, policy = mixture_expand(base.problem, base.partition, spec, _MIXTURE_LABELS)
    return Scenario(name, problem, policy)


_SWEEP_HEADERS = ("epsilon", "val_good", "val_general", "decision")


@dataclass(frozen=True)
class SweepRow:
    epsilon: Fraction
    val_general: Fraction

    @property
    def decision(self) -> str:
        """``learn`` when ``val_general >= 0``, else ``decline``."""
        return "learn" if self.val_general >= 0 else "decline"


@dataclass(frozen=True)
class SweepTable:
    """Values of learning across epsilon, with the learn/decline verdict.

    ``val_good`` does not depend on epsilon, so the table holds it once and
    prints it on every row; a table with no rows holds it too.
    The verdict is ``learn`` whenever ``val_general >= 0``: an agent
    indifferent at exactly 0 is counted as accepting the evidence.
    """

    scenario: str
    val_good: Fraction
    rows: tuple[SweepRow, ...]

    def _cells(self) -> list[tuple[str, ...]]:
        good = str(self.val_good)
        return [(str(r.epsilon), good, str(r.val_general), r.decision) for r in self.rows]

    def format_table(self) -> str:
        cells = self._cells()
        widths = [max(map(len, column)) for column in zip(_SWEEP_HEADERS, *cells)]
        lines = [_SWEEP_HEADERS, ["-" * w for w in widths], *cells]
        return "\n".join(
            "  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() for line in lines
        )

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_SWEEP_HEADERS)
        writer.writerows(self._cells())
        return buffer.getvalue()


def _base_values(base: _FallacyBase) -> tuple[Fraction, Fraction, Fraction]:
    """``val_good``, and ``val_general`` when learning and when deviating.

    All three are read on the base problem.  The learning value conditions
    on each cell; the deviating value takes the deviant posterior on the
    cells that have one and the conditioned prior elsewhere.  At epsilon,
    the expanded preset's ``val_general`` is ``(1 - epsilon)`` times the
    first plus ``epsilon`` times the second (see :func:`mixture_expand`),
    and its ``val_good`` is the base's.
    """
    problem, partition = base.problem, base.partition
    learning = conditionalization_policy(problem.prior, partition)
    deviating = UpdatePolicy(partition, {
        s: base.deviant.get(partition.cell_of(s), posterior)
        for s, posterior in learning.posteriors.items()
    })
    return (
        val_good(problem, partition),
        val_general(problem, learning),
        val_general(problem, deviating),
    )


def sweep(name: str, epsilons, confidence=None) -> SweepTable:
    """Evaluate a mixture scenario at each epsilon, in the order given.

    The preset is built once per call, before any row, and its base
    problem is evaluated twice: learning by conditioning, and learning as
    the deviant self.  Each row mixes the two values at its epsilon, with
    no expansion; every row equals the preset expanded at its epsilon and
    evaluated alone, and the table's ``val_good`` is every expansion's.
    ``epsilons`` must be a sequence of values; a bare string, ``bytes`` or
    ``bytearray`` is refused, and so is anything that is not iterable.

    Refusals come in one order: the name (race's own refusal, then an
    unknown name), a bare string, an ``epsilons`` that is not iterable,
    the confidence, a tie, then each epsilon in the order given (its
    syntax, then its range).  So an empty ``epsilons`` still refuses a bad
    confidence, and its table still holds ``val_good``.
    """
    if name == RACE:
        raise ConfigError("the race scenario has no epsilon parameter to sweep")
    # an unknown name is refused first, by _mixture_base
    if name in SCENARIO_NAMES:
        epsilons = _sequence("epsilons", epsilons, "sequence of values")
    base = _mixture_base(name, confidence)
    epsilons = [_epsilon(raw) for raw in epsilons]
    good, learning, deviating = _base_values(base)
    slope = deviating - learning
    # (1 - epsilon) * learning + epsilon * deviating, with one product
    return SweepTable(
        name, good, tuple(SweepRow(eps, learning + eps * slope) for eps in epsilons)
    )


def threshold(name: str, confidence=None) -> Fraction | None:
    """The epsilon above which learning stops paying, exactly.

    ``val_general`` at epsilon is ``(1 - epsilon) * V_c + epsilon * V_d``,
    where ``V_c`` is the base problem's value of learning by conditioning
    and ``V_d`` its value as the deviant self (see :func:`sweep`).  When
    ``V_c >= 0 > V_d`` it falls through 0 at ``V_c / (V_c - V_d)``, the
    last epsilon :func:`sweep` labels ``learn``.  Otherwise learning never
    stops paying, and the answer is ``None``.  Refuses what :func:`sweep`
    refuses of its name and confidence, in the same order.
    """
    if name == RACE:
        raise ConfigError("the race scenario has no epsilon parameter to sweep")
    _, learning, deviating = _base_values(_mixture_base(name, confidence))
    if learning >= 0 > deviating:
        return learning / (learning - deviating)
    return None
