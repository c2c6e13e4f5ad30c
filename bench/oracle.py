"""Brute-force reference values, independent of the library.

Everything here works on the plain data of ``gen.Instance`` (dicts of
``Fraction``), with argmax as an explicit loop, in the style of
``tests/_oracles.py``.  No function calls into ``infovalue``, so the
benchmark's correctness gate shares no arithmetic with the code it times.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)


def conditioned(dist: dict[str, Fraction], members) -> dict[str, Fraction]:
    total = sum((dist.get(s, ZERO) for s in members), ZERO)
    if total == 0:
        raise ValueError("oracle asked to condition on a null event")
    return {s: dist[s] / total for s in members if dist.get(s)}


def mass(dist: dict[str, Fraction], members) -> Fraction:
    return sum((m for s, m in dist.items() if s in members), ZERO)


def payoff_table(inst) -> dict[str, dict[str, Fraction]]:
    """Action id -> state -> utility, in choice-set order."""
    return {a: {s: inst.utility[o] for s, o in m.items()} for a, m in inst.actions}


def expected(payoff: dict[str, dict[str, Fraction]], dist) -> list[tuple[str, Fraction]]:
    return [
        (a, sum((m * pay[s] for s, m in dist.items()), ZERO)) for a, pay in payoff.items()
    ]


def first_best(payoff, dist) -> tuple[str, Fraction]:
    """Earliest-listed maximizer and its value (first-by-order)."""
    best = None
    for a, value in expected(payoff, dist):
        if best is None or value > best[1]:
            best = (a, value)
    return best


def unique_best(payoff, dist) -> str | None:
    """The maximizer if it is unique, else ``None``."""
    values = expected(payoff, dist)
    top = max(v for _, v in values)
    winners = [a for a, v in values if v == top]
    return winners[0] if len(winners) == 1 else None


def tie_free(inst) -> bool:
    """Whether the prior and every posterior in play have a unique best act."""
    payoff = payoff_table(inst)
    if unique_best(payoff, inst.prior) is None:
        return False
    seen = set()
    for s in inst.states:
        post = inst.posterior(s)
        if id(post) not in seen:
            seen.add(id(post))
            if unique_best(payoff, post) is None:
                return False
    return True


@dataclass(frozen=True)
class Report:
    """The numbers ``voi.evaluate`` and ``infovalue eval`` must reproduce.

    ``cells`` holds, per cell in order: its members, probability, best
    conditional expected utility, and rows ``(action, choose_prob,
    cond_eu)`` in choice-set order.
    """

    baseline: Fraction
    val_good: Fraction
    val_general: Fraction
    chosen: dict[str, str]
    cells: tuple


def report(inst) -> Report:
    payoff = payoff_table(inst)
    baseline = first_best(payoff, inst.prior)[1]
    chosen: dict[str, str] = {}
    by_posterior: dict[int, str] = {}
    realized = ZERO
    for s in inst.states:
        if not inst.prior.get(s):
            continue
        post = inst.posterior(s)
        if id(post) not in by_posterior:
            by_posterior[id(post)] = first_best(payoff, post)[0]
        chosen[s] = by_posterior[id(post)]
        realized += inst.prior[s] * payoff[chosen[s]][s]
    informed = ZERO
    cells = []
    for cell in inst.cells:
        p_cell = mass(inst.prior, cell)
        cond = conditioned(inst.prior, cell)
        values = dict(expected(payoff, cond))
        best = max(values.values())
        informed += p_cell * best
        picked: dict[str, Fraction] = {}
        for s in cell:
            if s in chosen:
                picked[chosen[s]] = picked.get(chosen[s], ZERO) + inst.prior[s]
        rows = tuple(
            (a, picked[a] / p_cell, values[a]) for a in payoff if a in picked
        )
        cells.append((frozenset(cell), p_cell, best, rows))
    return Report(
        baseline=baseline,
        val_good=informed - baseline,
        val_general=realized - baseline,
        chosen=chosen,
        cells=tuple(cells),
    )


def midpoint_bet(q: Fraction, r: Fraction) -> tuple[Fraction, Fraction]:
    """Stakes (win, loss) whose break-even threshold is the midpoint of q and r."""
    if q < r:
        q, r = 1 - q, 1 - r
    m = (q + r) / 2
    return 1 - m, m


def bet_value(inst, cell, wins_on, win: Fraction, loss: Fraction) -> Fraction:
    """Realized value of learning when the only acts are safe (0) and the bet.

    The bet pays ``win`` on ``wins_on``, ``-loss`` on the rest of ``cell`` and
    0 elsewhere; safe is listed first, so a state indifferent declines.
    """
    pay = {s: (win if s in wins_on else -loss) if s in cell else ZERO for s in inst.states}
    payoff = {"safe": {s: ZERO for s in inst.states}, "risky": pay}
    realized = ZERO
    for s in inst.states:
        if inst.prior.get(s):
            action = first_best(payoff, inst.posterior(s))[0]
            realized += inst.prior[s] * payoff[action][s]
    return realized - first_best(payoff, inst.prior)[1]


def certificate_failure(
    inst, cell, state, event, q, r, wins_on, win, loss, value
) -> str | None:
    """Why a claimed aversion certificate for ``inst`` is wrong, or ``None``.

    Re-derives every claim from the instance's own plain data: the state
    deviates inside its cell, q and r are the posterior's and the
    conditioned prior's mass on the event, the stakes are the midpoint
    bet, the bet rides on the event (q > r) or on the rest of the cell, and
    the realized value of learning with only {safe, bet} on offer is the
    claimed value and strictly negative.
    """
    cell, event, wins_on = frozenset(cell), frozenset(event), frozenset(wins_on)
    if state not in cell:
        return f"state {state} is not in the certificate's cell"
    posterior = inst.posterior(state)
    cond = conditioned(inst.prior, cell)
    if posterior == cond:
        return f"state {state} does not deviate"
    if (q, r) != (mass(posterior, event), mass(cond, event)):
        return f"q, r = {q}, {r}; oracle {mass(posterior, event)}, {mass(cond, event)}"
    if (win, loss) != midpoint_bet(q, r):
        return f"stakes {win}/{loss} are not the midpoint bet for q={q}, r={r}"
    if wins_on != (event & cell if q > r else cell - event):
        return "the bet wins on the wrong states"
    truth = bet_value(inst, cell, wins_on, win, loss)
    if value != truth or truth >= 0:
        return f"val_general {value}; oracle {truth}"
    return None
