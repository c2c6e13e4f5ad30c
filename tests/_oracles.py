"""Brute-force reference computations, deliberately independent of the library.

Every function here works from raw dataclass fields — priors and posteriors
as plain dicts, utilities looked up directly, argmax as an explicit loop —
and never calls the library's own evaluation code.  Slow and obvious on
purpose: when a test compares the library against these, the two sides
share no arithmetic.
"""

from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace


def dist_of(credence):
    """A credence's probability mass as a plain dict (positive entries only)."""
    return {
        s: Fraction(n, credence.den)
        for s, n in zip(credence.space.states, credence.nums)
        if n > 0
    }


def payoff(problem, action, state):
    return problem.outcomes.utility[action.assignment[state]]


def eu(problem, action, dist):
    return sum(
        (mass * payoff(problem, action, state) for state, mass in dist.items()),
        Fraction(0),
    )


def best_value(problem, dist):
    return max(eu(problem, action, dist) for action in problem.choices.actions)


def first_best(problem, dist):
    """Earliest-listed expected-utility maximizer (first-by-order semantics)."""
    best = None
    best_value_seen = None
    for action in problem.choices.actions:
        value = eu(problem, action, dist)
        if best_value_seen is None or value > best_value_seen:
            best, best_value_seen = action, value
    return best


def conditioned(dist, members):
    total = sum((m for s, m in dist.items() if s in members), Fraction(0))
    assert total > 0, "oracle asked to condition on a null event"
    return {s: m / total for s, m in dist.items() if s in members}


def brute_mixture(base, partition, spec, labels=("stay", "deviate")):
    """The expanded prior and each expanded state's posterior, as plain dicts.

    Straight from the self-doubt model: the expanded prior puts
    ``prior(s) * (1 - eps)`` on ``s·stay`` and ``prior(s) * eps`` on
    ``s·deviate``.  A stay state's posterior is that prior conditioned on
    its lifted cell.  A deviate state's is the cell's deviant posterior
    spread the same way, or the stay posterior when the cell has none.
    """
    eps = spec.epsilon
    law = dict(zip(labels, (1 - eps, eps)))

    def spread(dist):
        return {
            f"{s}·{label}": m * p
            for s, m in dist.items()
            for label, p in law.items()
            if p
        }

    prior = spread(dist_of(base.prior))
    posteriors = {}
    for cell in partition.cells:
        lifted = {f"{s}·{label}" for s in cell.members for label in labels}
        correct = conditioned(prior, lifted)
        deviant = spec.deviant_posteriors.get(cell)
        distorted = correct if deviant is None else spread(dist_of(deviant))
        for s in cell.members:
            posteriors[f"{s}·{labels[0]}"] = correct
            posteriors[f"{s}·{labels[1]}"] = distorted
    return prior, posteriors


def brute_lifted(base, labels=("stay", "deviate")):
    """``base`` as the oracles read a problem, over :func:`brute_mixture`'s states.

    Each act pays in ``s·label`` what it pays in ``s``.  Only the fields
    the oracles read are kept: the outcomes, and each act's assignment.
    """
    actions = [
        SimpleNamespace(
            assignment={
                f"{s}·{label}": outcome
                for s, outcome in action.assignment.items()
                for label in labels
            }
        )
        for action in base.choices.actions
    ]
    return SimpleNamespace(outcomes=base.outcomes, choices=SimpleNamespace(actions=actions))


def brute_deviating_states(problem, policy):
    """Positive-prior states whose posterior is not their conditioned prior.

    In state order.  Each posterior and the prior conditioned on the
    state's cell are compared as plain dicts of their positive masses.
    """
    prior = dist_of(problem.prior)
    cell_of = {s: cell.members for cell in policy.partition.cells for s in cell.members}
    return tuple(
        s
        for s in problem.space.states
        if s in prior
        and dist_of(policy.posteriors[s]) != conditioned(prior, cell_of[s])
    )


def brute_val_good(problem, partition):
    """Definition of the classical value: cell-by-cell best, minus prior best."""
    prior = dist_of(problem.prior)
    informed = Fraction(0)
    for cell in partition.cells:
        mass = sum((m for s, m in prior.items() if s in cell.members), Fraction(0))
        informed += mass * best_value(problem, conditioned(prior, cell.members))
    return informed - best_value(problem, prior)


def brute_val_general(problem, policy, prior=None, posteriors=None):
    """Definitional state-by-state sum of realized payoffs, minus prior best.

    ``prior`` and ``posteriors`` default to the problem's prior and the
    policy's posteriors; pass plain dicts, such as :func:`brute_mixture`'s,
    to score them instead.  Ties resolve to the earliest-listed maximizer,
    as the library's choices do.
    """
    prior = dist_of(problem.prior) if prior is None else prior
    if posteriors is None:
        posteriors = {s: dist_of(p) for s, p in policy.posteriors.items()}
    realized = Fraction(0)
    for state, mass in prior.items():
        chosen = first_best(problem, posteriors[state])
        realized += mass * payoff(problem, chosen, state)
    return realized - best_value(problem, prior)


def brute_first_tie(problem, policy):
    """The first tie among positive-prior states in state order, or ``None``.

    States are walked in state order, however the cells are declared.  The
    first whose posterior gives two or more acts the best expected utility
    names them, in choice-set order, with that value.
    """
    return _first_tie(problem, policy, problem.space.states)


def brute_first_declared_tie(problem, policy):
    """As :func:`brute_first_tie`, but walking the policy's cells in declared
    order and each cell's states in state order."""
    states = [
        state
        for cell in policy.partition.cells
        for state in problem.space.states
        if state in cell.members
    ]
    return _first_tie(problem, policy, states)


def _first_tie(problem, policy, states):
    prior = dist_of(problem.prior)
    for state in states:
        if state not in prior:
            continue
        dist = dist_of(policy.posteriors[state])
        values = [eu(problem, action, dist) for action in problem.choices.actions]
        top = max(values)
        if values.count(top) > 1:
            tied = tuple(a.id for a, v in zip(problem.choices.actions, values) if v == top)
            return tied, top
    return None


def brute_reconstructs(report):
    """The message a report's per-cell table refuses its values with, or ``None``.

    ``report`` is anything with a ``VoiReport``'s ``baseline``,
    ``val_good``, ``val_general`` and ``per_cell``.  The identities are
    the ones ``VoiReport`` states, summed as Fractions in order: the
    cells' probabilities sum to 1; the probability-weighted cell maxima,
    less the baseline, are ``val_good``; and every row's cell probability
    times its choose probability times its conditional expected utility,
    summed and less the baseline, is ``val_general``.
    """
    cells = report.per_cell
    total = sum((c.prob for c in cells), Fraction(0))
    if total != 1:
        return f"cell probabilities must sum to 1, got {total}"
    classical = sum((c.prob * c.max_cond_eu for c in cells), Fraction(0)) - report.baseline
    if classical != report.val_good:
        return (
            f"per-cell table reconstructs val_good={classical}, "
            f"report claims {report.val_good}"
        )
    general = sum(
        (c.prob * r.choose_prob * r.cond_eu for c in cells for r in c.rows), Fraction(0)
    ) - report.baseline
    if general != report.val_general:
        return (
            f"per-cell table reconstructs val_general={general}, "
            f"report claims {report.val_general}"
        )
    return None


def brute_independence_witness(problem, policy):
    """The first choice that leaks payoff-relevant information, or ``None``.

    Within each positive-prior cell, in declared order, each state's act is
    its posterior's first-by-order best.  For each chosen act, then each
    probe act, both in choice-set order, the probe's expected utility under
    the prior conditioned on the states choosing that act is compared with
    its expected utility under the prior conditioned on the whole cell.
    Returns the first ``(cell, chosen, probe)`` that differ.
    """
    prior = dist_of(problem.prior)
    for cell in policy.partition.cells:
        members = {s for s in cell.members if s in prior}
        if not members:
            continue
        whole = conditioned(prior, members)
        picks = {
            s: first_best(problem, dist_of(policy.posteriors[s])).id for s in members
        }
        for chosen in problem.choices.actions:
            group = {s for s, pick in picks.items() if pick == chosen.id}
            if not group:
                continue
            given = conditioned(prior, group)
            for probe in problem.choices.actions:
                if eu(problem, probe, given) != eu(problem, probe, whole):
                    return cell, chosen, probe
    return None


def brute_bet(q, r):
    """Midpoint stakes ``(win, loss)`` for a disagreement, from the definition.

    With ``m = (q + r) / 2`` the stakes are ``(1 - m, m)`` when ``q > r``.
    Otherwise the bet is on the event's complement, which the two credences
    price at ``1 - q > 1 - r``, and the same rule applies there.
    """
    if q < r:
        q, r = 1 - q, 1 - r
    m = (q + r) / 2
    return 1 - m, m


def brute_deviation(prior, policy, state, event):
    """``(cell, q, r)`` for a state and an ``event``, a set of states.

    ``cell`` is the set of members of the partition cell holding ``state``,
    and ``q`` and ``r`` are the masses that the state's posterior and the
    prior conditioned on ``cell`` put on ``event``.  ``None`` when no cell
    holds the state, the event is not inside its cell, or the cell has
    prior 0.  The policy and prior are read through their raw fields.
    """
    cell = next((set(c.members) for c in policy.partition.cells if state in c.members), None)
    dist = dist_of(prior)
    if cell is None or not set(event) <= cell or not cell & dist.keys():
        return None
    q, r = (
        sum((m for s, m in d.items() if s in event), Fraction(0))
        for d in (dist_of(policy.posteriors[state]), conditioned(dist, cell))
    )
    return cell, q, r


def brute_bet_value(prior, policy, cell, event, q, r):
    """``(value, leaks)`` of the midpoint bet on a disagreement ``q != r``.

    The two-act problem is priced by :func:`brute_bet`: ``safe`` pays 0;
    ``risky`` wins on the bet (``event`` when ``q > r``, else the rest of
    ``cell``), loses on the rest of the cell and pays 0 outside it.
    ``value`` is its :func:`brute_val_general`, and ``leaks`` whether
    :func:`brute_independence_witness` finds a leak on it.
    """
    win, loss = brute_bet(q, r)
    bet = event if q > r else cell - event

    def pays(s):
        return "zero" if s not in cell else "win" if s in bet else "loss"

    states = prior.space.states
    problem = SimpleNamespace(
        prior=prior,
        outcomes=SimpleNamespace(utility={"zero": 0, "win": win, "loss": -loss}),
        choices=SimpleNamespace(
            actions=[
                SimpleNamespace(id="safe", assignment=dict.fromkeys(states, "zero")),
                SimpleNamespace(id="risky", assignment={s: pays(s) for s in states}),
            ]
        ),
    )
    leaks = brute_independence_witness(problem, policy) is not None
    return brute_val_general(problem, policy), leaks


def brute_certificate_holds(prior, policy, state, event, value):
    """Whether an aversion certificate's claims hold, from their definitions.

    They hold when ``state`` has positive prior, ``event`` lies inside the
    state's cell, the event's :func:`brute_deviation` masses ``q`` and
    ``r`` differ, and the bet priced from them leaks nothing and has a
    negative value equal to ``value`` (:func:`brute_bet_value`).
    """
    found = brute_deviation(prior, policy, state, event)
    if found is None or state not in dist_of(prior):
        return False
    cell, q, r = found
    if q == r:
        return False
    return brute_bet_value(prior, policy, cell, event, q, r) == (value, False) and value < 0


def _takers(prior, posteriors, members, bet, loss):
    """The positive-prior members whose posterior puts more than ``loss`` on ``bet``."""
    return {
        state
        for state in members
        if prior[state] > 0
        and sum((posteriors[state].get(s, 0) for s in bet), Fraction(0)) > loss
    }


def _choices_stay_uninformative(prior, takers, members, bet):
    """Within-cell independence of a bet, straight from its definition.

    The bet event's conditional probability must be the same among
    takers, among decliners, and over the whole cell.
    """
    mass = {True: Fraction(0), False: Fraction(0)}
    bet_mass = {True: Fraction(0), False: Fraction(0)}
    for state in members:
        if prior[state] == 0:
            continue
        takes = state in takers
        mass[takes] += prior[state]
        if state in bet:
            bet_mass[takes] += prior[state]
    overall = (bet_mass[True] + bet_mass[False]) / (mass[True] + mass[False])
    return all(bet_mass[k] / mass[k] == overall for k in (True, False) if mass[k])


def brute_certificate_walk(inst):
    """The certificate search, state by state over plain data.

    ``inst`` carries ``states`` (in order), ``prior`` (state to Fraction),
    ``cells`` (tuples of states, in declared order) and ``posteriors``
    (state to a dict of Fractions).  Cells are walked as declared,
    deviating positive-prior states in state order, events by size and
    then state order, each priced with midpoint stakes.  Returns
    ``("certificate", cell, state, event, q, r, bet, win, loss, value)``
    for the first bet whose takers leave the cell's odds unchanged, where
    ``bet`` is the bet's event within the cell and ``value`` sums each
    taker's prior times the stake it wins or loses; else ``("refused",
    cell, bet, win, loss)`` for the first rejected bet; else ``None`` when
    no state deviates.
    """
    prior = inst.prior
    first_rejected = None
    for cell in inst.cells:
        members = tuple(s for s in inst.states if s in cell)
        mass = sum((prior[s] for s in members), Fraction(0))
        if mass == 0:
            continue
        sober = {s: prior[s] / mass for s in members}
        for state in members:
            posterior = inst.posteriors[state]
            if prior[state] == 0 or all(posterior.get(s, 0) == sober[s] for s in members):
                continue
            for size in range(1, len(members)):
                for combo in combinations(members, size):
                    q = sum((posterior.get(s, 0) for s in combo), Fraction(0))
                    r = sum((sober[s] for s in combo), Fraction(0))
                    if q == r:
                        continue
                    if q > r:
                        bet, loss = frozenset(combo), (q + r) / 2
                    else:
                        bet, loss = frozenset(members) - set(combo), ((1 - q) + (1 - r)) / 2
                    win = 1 - loss
                    takers = _takers(prior, inst.posteriors, members, bet, loss)
                    if _choices_stay_uninformative(prior, takers, members, bet):
                        value = sum(
                            (prior[s] * (win if s in bet else -loss) for s in takers),
                            Fraction(0),
                        )
                        return (
                            "certificate", members, state, frozenset(combo), q, r,
                            bet, win, loss, value,
                        )
                    if first_rejected is None:
                        first_rejected = ("refused", members, bet, win, loss)
    return first_rejected
