"""Brute-force reference computations, deliberately independent of the library.

Every function here works from raw dataclass fields — priors and posteriors
as plain dicts, utilities looked up directly, argmax as an explicit loop —
and never calls the library's own evaluation code.  Slow and obvious on
purpose: when a test compares the library against these, the two sides
share no arithmetic.
"""

from fractions import Fraction


def dist_of(credence):
    """A credence's probability mass as a plain dict (positive entries only)."""
    return {s: m for s, m in zip(credence.space.states, credence.mass) if m > 0}


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


def brute_val_good(problem, partition):
    """Definition of the classical value: cell-by-cell best, minus prior best."""
    prior = dist_of(problem.prior)
    informed = Fraction(0)
    for cell in partition.cells:
        mass = sum((m for s, m in prior.items() if s in cell.members), Fraction(0))
        informed += mass * best_value(problem, conditioned(prior, cell.members))
    return informed - best_value(problem, prior)


def brute_val_general(problem, policy):
    """Definitional state-by-state sum of realized payoffs, minus prior best.

    Ties resolve first-by-order, which agrees with the library on tie-free
    instances and on problems whose declared tie policy is first-by-order.
    """
    prior = dist_of(problem.prior)
    realized = Fraction(0)
    for state, mass in prior.items():
        chosen = first_best(problem, dist_of(policy.posteriors[state]))
        realized += mass * payoff(problem, chosen, state)
    return realized - best_value(problem, prior)
