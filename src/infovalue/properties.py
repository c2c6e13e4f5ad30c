"""Seeded random instances and the property suite.

Instances come in two kinds.  Even trials draw a plain problem and pair it
with literal conditionalization; odd trials draw a problem plus a random
self-doubt disposition and run it through :func:`mixture_expand`, yielding
a genuinely modest policy.  Both kinds are resampled until no posterior's
choice ties, so every property failure is a real counterexample rather
than an artifact of tie-breaking.  Ties are found by updating's
``_probe_ties`` on each draw's base credences, before anything is built:
each cell's conditioned prior and its deviant posterior, which choose as
the built policy's posteriors do.  The probe only scores those credences,
so a broken property is reported as a counterexample instead of escaping
the suite as an error, and a draw that ties is thrown away unexpanded and
unevaluated.

The suite checks, on every instance it can:

- choices reveal nothing payoff-relevant (the decomposition precondition);
- the classical value is non-negative, and positive exactly when the
  evidence could change the best choice;
- the realized value never exceeds the classical value;
- wherever choices are independent, the cellwise table reproduces both
  values exactly (:class:`VoiReport`'s own check, so one :func:`evaluate`
  call probes this and independence, and its report gives both values,
  which are computed on their own only when it refuses);
- when the policy conditionalizes everywhere possible, the two values
  coincide.

Failures carry the full instance as a problem-file document, so any
counterexample can be replayed with the CLI.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .decision import (
    Action,
    ChoiceSet,
    DecisionProblem,
    OutcomeSpace,
    is_relevant,
)
from .errors import IndependenceBrokenError, InfoValueError, ValidationError
from .prob import Credence, Event, StateSpace, as_fraction, condition
from .problemfile import problem_document
from .updating import (
    DeviationSpec,
    EvidencePartition,
    UpdatePolicy,
    _probe_ties,
    conditionalization_policy,
    deviating_states,
    mixture_expand,
)
from .voi import evaluate, val_general, val_good

__all__ = [
    "PropertyFailure",
    "PropertyReport",
    "PROPERTY_NAMES",
    "property_suite",
]

PROPERTY_NAMES = (
    "evidential-independence",
    "classical-nonnegative",
    "strict-iff-relevant",
    "cellwise-reconstruction",
    "general-le-classical",
    "immodest-equality",
)

_RESAMPLE_CAP = 200


@dataclass(frozen=True)
class _Instance:
    """One generated problem/policy pair, tagged by how it was built."""

    kind: str
    problem: DecisionProblem
    policy: UpdatePolicy

    @property
    def partition(self) -> EvidencePartition:
        return self.policy.partition

    def document(self) -> dict:
        return problem_document(self.problem, self.policy)


def _random_partition(
    rng: random.Random, space: StateSpace, *, need_wide_cell: bool
) -> EvidencePartition:
    n = len(space)
    count = rng.randint(2, min(4, n)) if n > 1 else 1
    order = list(space)
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), count - 1)) if count > 1 else []
    chunks = [
        order[start:stop]
        for start, stop in zip([0] + cuts, cuts + [n])
    ]
    if need_wide_cell and all(len(c) == 1 for c in chunks):
        merged = chunks[-2] + chunks[-1]
        chunks = chunks[:-2] + [merged]
    return EvidencePartition(
        space, tuple(Event(space, frozenset(chunk)) for chunk in chunks)
    )


def _random_problem(
    rng: random.Random,
    min_states: int = 2,
    max_states: int = 8,
    *,
    need_wide_cell: bool = False,
) -> tuple[DecisionProblem, EvidencePartition]:
    """A small random decision problem with a random evidence partition.

    Every state gets positive prior mass.  Acts may tie; the generators
    that call this throw such draws away, as updating's ``_probe_ties``
    finds them.  With ``need_wide_cell`` the partition is
    guaranteed at least one cell of two or more states — required when a
    deviation is to be grafted on, since certainty pins posteriors on
    singleton cells.
    """
    n = rng.randint(min_states, max_states)
    space = StateSpace(tuple(f"s{i + 1}" for i in range(n)))
    prior = Credence._from_weights(space, [rng.randint(1, 9) for _ in range(n)])

    outcome_count = rng.randint(2, 5)
    outcome_ids = tuple(f"o{i + 1}" for i in range(outcome_count))
    outcomes = OutcomeSpace(
        outcome_ids,
        {
            o: Fraction(rng.randint(-12, 12), rng.randint(1, 4))
            for o in outcome_ids
        },
    )
    actions = tuple(
        Action(f"a{i + 1}", {s: rng.choice(outcome_ids) for s in space})
        for i in range(rng.randint(2, 4))
    )
    problem = DecisionProblem(space, outcomes, prior, ChoiceSet(actions))
    return problem, _random_partition(rng, space, need_wide_cell=need_wide_cell)


def _random_deviation_spec(
    rng: random.Random, prior: Credence, partition: EvidencePartition
) -> DeviationSpec:
    """A random self-doubt disposition that genuinely deviates somewhere.

    Epsilon is strictly between 0 and 1 and at least one multi-state cell
    gets a deviant posterior different from the conditioned prior, so the
    expanded policy is guaranteed modest.
    """
    den = rng.randint(3, 16)
    epsilon = Fraction(rng.randint(1, den - 1), den)
    eligible = [cell for cell in partition.cells if len(cell) >= 2]
    if not eligible:
        raise InfoValueError(
            "every cell is a singleton; certainty leaves no room to deviate"
        )
    forced = rng.choice(eligible)
    deviants: dict[Event, Credence] = {}
    for cell in eligible:
        if cell != forced and rng.randint(1, 10) > 7:
            continue
        conditioned = condition(prior, cell)
        for _ in range(_RESAMPLE_CAP):
            weights = [0] * len(prior.space)
            for i in cell._positions:
                weights[i] = rng.randint(0, 9)
            if not any(weights):
                continue
            candidate = Credence._from_weights(prior.space, weights)
            if candidate != conditioned:
                deviants[cell] = candidate
                break
        else:  # pragma: no cover - astronomically unlikely
            raise InfoValueError("could not draw a deviant posterior")
    return DeviationSpec(epsilon, deviants)


def _random_conditionalization_instance(rng: random.Random) -> _Instance:
    """A random problem paired with literal conditionalization."""
    for _ in range(_RESAMPLE_CAP):
        problem, partition = _random_problem(rng)
        if _probe_ties(problem, partition, {}) is None:
            policy = conditionalization_policy(problem.prior, partition)
            return _Instance("conditionalization", problem, policy)
    raise InfoValueError("could not draw a tie-free instance")  # pragma: no cover


def _random_mixture_instance(
    rng: random.Random, max_base_states: int = 8
) -> _Instance:
    """A random expanded problem with a modest policy, via mixture expansion."""
    for _ in range(_RESAMPLE_CAP):
        base, partition = _random_problem(rng, 2, max_base_states, need_wide_cell=True)
        spec = _random_deviation_spec(rng, base.prior, partition)
        if _probe_ties(base, partition, spec.deviant_posteriors) is None:
            return _Instance("mixture", *mixture_expand(base, partition, spec))
    raise InfoValueError("could not draw a tie-free instance")  # pragma: no cover


@dataclass(frozen=True)
class PropertyFailure:
    """A counterexample: which property broke, on which instance."""

    trial: int
    kind: str
    property_name: str
    detail: str
    document: dict = field(hash=False)


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of a property run: per-property counts plus counterexamples."""

    seed: int
    trials: int
    checked: Mapping[str, int] = field(hash=False)
    failures: tuple[PropertyFailure, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "checked", dict(self.checked))

    @property
    def ok(self) -> bool:
        return not self.failures

    def failed(self, property_name: str) -> int:
        return sum(1 for f in self.failures if f.property_name == property_name)

    def format_table(self) -> str:
        name_width = max(len(n) for n in PROPERTY_NAMES)
        lines = [f"{'property'.ljust(name_width)}  checked  failed"]
        for name in PROPERTY_NAMES:
            lines.append(
                f"{name.ljust(name_width)}  "
                f"{str(self.checked.get(name, 0)).rjust(7)}  "
                f"{str(self.failed(name)).rjust(6)}"
            )
        verdict = "all properties held" if self.ok else "COUNTEREXAMPLES FOUND"
        lines.append(f"{self.trials} trials from seed {self.seed}: {verdict}")
        return "\n".join(lines)


def _check_instance(
    trial: int, instance: _Instance, checked: dict[str, int], failures: list
) -> None:
    problem, policy = instance.problem, instance.policy
    try:
        report = evaluate(problem, policy)
        good, general, broken = report.val_good, report.val_general, None
    except (IndependenceBrokenError, ValidationError) as exc:
        broken = exc  # a leak, or a per-cell table that misses a value
        good = val_good(problem, policy.partition)
        general = val_general(problem, policy)

    def run(name: str, passed: bool, detail: str) -> None:
        checked[name] = checked.get(name, 0) + 1
        if not passed:
            failures.append(
                PropertyFailure(trial, instance.kind, name, detail, instance.document())
            )

    leak = isinstance(broken, IndependenceBrokenError)
    detail = f"choices reveal payoff-relevant information: {broken}"
    run("evidential-independence", not leak, detail)
    run(
        "classical-nonnegative",
        good >= 0,
        f"val_good={good} is negative",
    )
    relevant = is_relevant(problem, policy.partition)
    run(
        "strict-iff-relevant",
        (good > 0) == relevant,
        f"val_good={good} but is_relevant={relevant}",
    )
    if not leak:  # the decomposition needs independence
        run(
            "cellwise-reconstruction",
            broken is None,
            f"cellwise and definitional routes disagree: {broken}",
        )
    run(
        "general-le-classical",
        general <= good,
        f"val_general={general} exceeds val_good={good}",
    )
    if not deviating_states(policy, problem.prior):
        run(
            "immodest-equality",
            general == good,
            f"immodest policy but val_general={general} != val_good={good}",
        )


def _integer(name: str, value) -> int:
    """``value`` read by :func:`as_fraction`, refused unless it is an integer."""
    number = as_fraction(value)
    if number.denominator != 1:
        raise ValidationError(f"{name} must be an integer, got {number}")
    return number.numerator


def property_suite(generator_seed: int, trials: int) -> PropertyReport:
    """Run all property checks over ``trials`` seeded random instances.

    Even trials pair a random problem with conditionalization; odd trials
    build a modest policy by mixture expansion.  The stream of instances
    is fully determined by ``generator_seed``.  Both arguments are read
    in :func:`as_fraction`'s grammar and must be integers (``"12"``, ``12``).
    """
    trials = _integer("trials", trials)
    if trials < 1:
        raise InfoValueError(f"trials must be at least 1, got {trials}")
    generator_seed = _integer("seed", generator_seed)
    rng = random.Random(generator_seed)
    checked: dict[str, int] = {}
    failures: list[PropertyFailure] = []
    for trial in range(trials):
        if trial % 2 == 0:
            instance = _random_conditionalization_instance(rng)
        else:
            instance = _random_mixture_instance(rng)
        _check_instance(trial, instance, checked, failures)
    return PropertyReport(
        seed=generator_seed,
        trials=trials,
        checked=checked,
        failures=tuple(failures),
    )
