"""Seeded inputs for the benchmark, as plain Python data.

Every instance is generated here from ``random.Random`` streams derived
from the command-line seed, and never through ``infovalue.properties``, so
a change to the library's own generator cannot silently change a workload.
Instances are plain dicts and tuples of ``Fraction``; ``lib.py`` turns them
into library objects and ``oracle.py`` evaluates them without the library.

Sizes and counts are fixed per workload; only the drawn values depend on
the seed, so the work in one pass barely changes from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle

STAY, DEVIATE = "stay", "deviate"

CONDITIONALIZATION = "conditionalization"
MIXTURE = "mixture"
PERTURBED = "perturbed"
CLAIRVOYANT = "clairvoyant"


@dataclass
class Instance:
    """A problem plus update policy, in the shape of a problem file.

    ``posteriors`` is ``None`` for literal conditionalization.  Mixture
    instances also keep their base instance, epsilon and deviant posteriors
    (keyed by base cell index) so the library can build them with
    ``mixture_expand``; their own fields hold the expansion, worked out
    here independently of the library.
    """

    label: str
    kind: str
    states: tuple[str, ...]
    prior: dict[str, Fraction]
    utility: dict[str, Fraction]
    actions: tuple[tuple[str, dict[str, str]], ...]
    cells: tuple[tuple[str, ...], ...]
    posteriors: dict[str, dict[str, Fraction]] | None = None
    base: Instance | None = None
    epsilon: Fraction | None = None
    deviants: dict[int, dict[str, Fraction]] | None = None
    _conditioned: dict | None = field(default=None, repr=False, compare=False)

    def posterior(self, state: str) -> dict[str, Fraction]:
        """The posterior at ``state``; one shared dict per cell when conditioning."""
        if self.posteriors is not None:
            return self.posteriors[state]
        if self._conditioned is None:
            self._conditioned = {}
            for cell in self.cells:
                conditioned = oracle.conditioned(self.prior, cell)
                self._conditioned.update(dict.fromkeys(cell, conditioned))
        return self._conditioned[state]


def _problem(
    rng: random.Random, label: str, cell_sizes: list[int], n_actions: int
) -> Instance:
    """A conditionalization instance whose cells have the given sizes."""
    states = tuple(f"s{i + 1}" for i in range(sum(cell_sizes)))
    weights = [rng.randint(1, 9) for _ in states]
    total = sum(weights)
    prior = {s: Fraction(w, total) for s, w in zip(states, weights)}
    outcome_ids = tuple(f"o{i + 1}" for i in range(5))
    utility = {o: Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for o in outcome_ids}
    actions = tuple(
        (f"a{i + 1}", {s: rng.choice(outcome_ids) for s in states})
        for i in range(n_actions)
    )
    order = list(states)
    rng.shuffle(order)
    cells, start = [], 0
    for size in cell_sizes:
        chosen = set(order[start:start + size])
        cells.append(tuple(s for s in states if s in chosen))
        start += size
    return Instance(label, CONDITIONALIZATION, states, prior, utility, actions, tuple(cells))


def _expand(base: Instance, epsilon: Fraction, deviants: dict[int, dict]) -> Instance:
    """The mixture expansion of ``base``, worked out without the library.

    Each base state ``s`` splits into ``s·stay`` (prior scaled by 1 - eps,
    posterior the conditioned prior) and ``s·deviate`` (prior scaled by eps,
    posterior the cell's deviant posterior spread over both halves).
    """

    def lift(dist: dict[str, Fraction]) -> dict[str, Fraction]:
        out = {}
        for s, m in dist.items():
            for label, share in ((STAY, 1 - epsilon), (DEVIATE, epsilon)):
                if m * share:
                    out[f"{s}·{label}"] = m * share
        return out

    states = tuple(f"{s}·{label}" for s in base.states for label in (STAY, DEVIATE))
    prior = lift(base.prior)
    actions = tuple(
        (a, {f"{s}·{label}": o for s, o in m.items() for label in (STAY, DEVIATE)})
        for a, m in base.actions
    )
    cells = tuple(
        tuple(f"{s}·{label}" for s in cell for label in (STAY, DEVIATE))
        for cell in base.cells
    )
    posteriors = {}
    for index, (base_cell, cell) in enumerate(zip(base.cells, cells)):
        correct = oracle.conditioned(prior, cell)
        distorted = lift(deviants[index]) if index in deviants else correct
        for s in base_cell:
            posteriors[f"{s}·{STAY}"] = correct
            posteriors[f"{s}·{DEVIATE}"] = distorted
    return Instance(
        base.label, MIXTURE, states, prior, base.utility, actions, cells,
        posteriors, base, epsilon, dict(deviants),
    )


def _mixture(
    rng: random.Random, label: str, base_cell_sizes: list[int], n_actions: int
) -> Instance:
    """A mixture instance: every multi-state cell gets a deviant posterior."""
    base = _problem(rng, label, base_cell_sizes, n_actions)
    den = rng.randint(3, 16)
    epsilon = Fraction(rng.randint(1, den - 1), den)
    deviants = {}
    for index, cell in enumerate(base.cells):
        if len(cell) < 2:
            continue
        conditioned = oracle.conditioned(base.prior, cell)
        deviant = conditioned
        while deviant == conditioned:
            weights = [rng.randint(0, 9) for _ in cell]
            if sum(weights):
                deviant = {s: Fraction(w, sum(weights)) for s, w in zip(cell, weights) if w}
        deviants[index] = deviant
    return _expand(base, epsilon, deviants)


def _perturbed(
    rng: random.Random, label: str, cell_sizes: list[int], n_actions: int
) -> Instance | None:
    """A distinct posterior in every state, each picking its cell's best act.

    State ``t`` believes ``(1 - d) * conditioned + d * [t]``; ``d`` shrinks
    until the act chosen is the conditioned prior's unique best, so choices
    stay constant within a cell and reveal nothing.  ``None`` when the
    conditioned prior itself has a tie.
    """
    inst = _problem(rng, label, cell_sizes, n_actions)
    payoff = oracle.payoff_table(inst)
    posteriors = {}
    for cell in inst.cells:
        conditioned = oracle.conditioned(inst.prior, cell)
        target = oracle.unique_best(payoff, conditioned)
        if target is None:
            return None
        for t in cell:
            d = Fraction(1, rng.randint(8, 16))
            while True:
                post = {s: (1 - d) * m for s, m in conditioned.items()}
                post[t] += d
                if oracle.unique_best(payoff, post) == target:
                    break
                d /= 4
            posteriors[t] = post
    inst.kind = PERTURBED
    inst.posteriors = posteriors
    return inst


_BUILDERS = {CONDITIONALIZATION: _problem, MIXTURE: _mixture, PERTURBED: _perturbed}


def draw(
    rng: random.Random, kind: str, label: str, cell_sizes: list[int], n_actions: int
) -> Instance:
    """Draw until every posterior in play has a unique best act.

    For mixtures ``cell_sizes`` are the base cells; the expansion doubles them.
    """
    while True:
        inst = _BUILDERS[kind](rng, label, cell_sizes, n_actions)
        if inst is not None and oracle.tie_free(inst):
            return inst


# ---------------------------------------------------------------- eval_ladder

EVAL_SIZES = ((16, 6), (32, 4), (64, 3), (128, 1), (256, 1))
"""(states, instances per policy kind) in one ``eval_ladder`` pass."""

EVAL_KINDS = (CONDITIONALIZATION, MIXTURE, PERTURBED)
EVAL_KINDS_AT_256 = (MIXTURE,)
"""A 256-state ``evaluate`` takes about five times as long as a 128-state
one.  With all three kinds there, a pass would take about twice as long,
and a run of ``run_seconds`` would hold too few passes for a steady median."""

EVAL_CELLS = 2
EVAL_ACTIONS = 3
"""The shape of ``properties.random_problem`` on average, with the sizes
fixed so every seed asks for the same work.  That generator draws 2 to 4
cells at random cut points and 2 to 4 actions.  An ``evaluate`` costs about
``actions * sum(len(cell) ** 2)`` credence lookups, each scanning the
state tuple.  Random cuts into 2, 3 or 4 cells give a mean
``sum(len(cell) ** 2)`` of about ``0.52 * n ** 2``.  Two equal cells give
``0.5 * n ** 2``.  The outcome count, 5, does not change the number of
operations."""


def eval_ladder(seed: int) -> list[Instance]:
    rng = random.Random(f"{seed}:eval_ladder")
    out = []
    for n, count in EVAL_SIZES:
        for kind in EVAL_KINDS_AT_256 if n == 256 else EVAL_KINDS:
            states = n // 2 if kind == MIXTURE else n
            sizes = [states // EVAL_CELLS] * EVAL_CELLS
            for i in range(count):
                out.append(draw(rng, kind, f"{kind}-{n}-{i}", sizes, EVAL_ACTIONS))
    return out


# ---------------------------------------------------------------- cert_search

STREAM_LENGTH = 112
CLAIRVOYANT_SIZES = (6, 8, 10)


def cert_stream(seed: int) -> list[Instance]:
    """Mixture instances with two lifted cells of 8 to 14 states each.

    The base cell sizes run through all sixteen pairs from 4 to 7 in turn,
    so every seed asks for the same amount of search.
    """
    rng = random.Random(f"{seed}:cert_stream")
    return [
        _mixture(rng, f"stream-{i}", [4 + i % 4, 4 + i // 4 % 4], 3)
        for i in range(STREAM_LENGTH)
    ]


def clairvoyant(seed: int, n_states: int) -> Instance:
    """One cell; every state's posterior is a point mass on itself."""
    rng = random.Random(f"{seed}:clairvoyant:{n_states}")
    inst = _problem(rng, f"clairvoyant-{n_states}", [n_states], 2)
    inst.kind = CLAIRVOYANT
    inst.posteriors = {s: {s: Fraction(1)} for s in inst.states}
    return inst


# ---------------------------------------------------------------- cli_mix

CLI_FILES = 36
CHECK_TRIALS = 12
CHECK_SEED = 0
"""``check`` draws its own instances from this seed; fixing it keeps that
op's work the same whatever the benchmark's seed."""
SWEEP_EPSILONS = tuple(Fraction(k, 40) for k in range(41))


def cli_instances(seed: int) -> list[Instance]:
    """Small files of 2 to 16 states: conditionalization and mixture in turn."""
    rng = random.Random(f"{seed}:cli_mix")
    out = []
    for i in range(CLI_FILES):
        if i % 2 == 0:
            n = 2 + (i // 2) % 15
            sizes = [n // 2, n - n // 2] if n > 3 else [n]
            out.append(draw(rng, CONDITIONALIZATION, f"cond-{i}", sizes, 3))
        else:
            n = 2 + (i // 2) % 7
            sizes = [n // 2 + 1, n - n // 2 - 1] if n > 3 else [n]
            out.append(draw(rng, MIXTURE, f"mix-{i}", sizes, 3))
    return out


def scenario_epsilons(seed: int) -> list[Fraction]:
    rng = random.Random(f"{seed}:scenarios")
    return [Fraction(rng.randint(1, 19), 20) for _ in range(2)]


# ---------------------------------------------------------------- problem files

def to_document(inst: Instance) -> str:
    """The problem file for ``inst``, written without the library."""
    if inst.posteriors is None:
        policy = CONDITIONALIZATION
    else:
        policy = [
            {"state": s, "posterior": {t: str(m) for t, m in inst.posteriors[s].items() if m}}
            for s in inst.states
        ]
    doc = {
        "states": [{"id": s, "prob": str(inst.prior.get(s, 0))} for s in inst.states],
        "outcomes": [{"id": o, "utility": str(u)} for o, u in inst.utility.items()],
        "actions": [{"id": a, "map": m} for a, m in inst.actions],
        "partition": [list(cell) for cell in inst.cells],
        "policy": policy,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def from_document(doc: dict, label: str = "file") -> Instance:
    """An instance read back from a problem-file document the CLI wrote."""
    states = tuple(entry["id"] for entry in doc["states"])
    policy = doc["policy"]
    posteriors = None
    if policy != CONDITIONALIZATION:
        posteriors = {
            entry["state"]: {t: Fraction(m) for t, m in entry["posterior"].items()}
            for entry in policy
        }
    return Instance(
        label=label,
        kind="file",
        states=states,
        prior={e["id"]: Fraction(e["prob"]) for e in doc["states"] if Fraction(e["prob"])},
        utility={e["id"]: Fraction(e["utility"]) for e in doc["outcomes"]},
        actions=tuple((e["id"], dict(e["map"])) for e in doc["actions"]),
        cells=tuple(tuple(cell) for cell in doc["partition"]),
        posteriors=posteriors,
    )
