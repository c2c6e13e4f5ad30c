"""Acceptance gate: the package's headline guarantees, one verdict line each.

Every comparison below is an exact rational equality or inequality — there
are no tolerances anywhere.  Randomized suites run from fixed seeds, so a
failure is reproducible by rerunning the same test.
"""

import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from infovalue.adversary import demonstrate_aversion
from infovalue.decision import is_relevant
from infovalue import properties
from infovalue.problemfile import dumps, loads
from infovalue.properties import (
    _random_conditionalization_instance,
    _random_mixture_instance,
)
from infovalue.scenarios import GAMBLERS, RACE, UNKNOWN_BIAS, build_scenario
from infovalue.voi import evaluate, val_general, val_good

from _oracles import brute_val_general, conditioned, dist_of

SUITE_4_SEED = 1009  # shared by criteria 4 and 7: same instance stream
SUITE_5_SEED = 1013
SUITE_6_SEED = 1021
SUITE_8_SEED = 1031
SUITE_9_SEED = 1033


def _verdict(capsys, number: int, label: str, passed: bool) -> None:
    with capsys.disabled():
        print(f"acceptance {number} ({label}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"acceptance criterion {number} ({label}) failed"


@pytest.fixture(scope="module")
def conditionalization_instances():
    """The 1,000-instance stream shared by criteria 4 and 7."""
    rng = random.Random(SUITE_4_SEED)
    return [_random_conditionalization_instance(rng) for _ in range(1000)]


def test_criterion_1_race_preset(capsys):
    scenario = build_scenario(RACE)
    report = evaluate(scenario.problem, scenario.policy)
    passed = report.val_good == Fraction(1, 4) and report.baseline == 0
    _verdict(capsys, 1, "race: val_good = 1/4, best prior EU = 0", passed)


def test_criterion_2_gamblers_preset(capsys):
    passed = True
    for epsilon in (0, "1/100", "1/10", "1/2", 1):
        eps = Fraction(epsilon)
        scenario = build_scenario(GAMBLERS, epsilon=eps)
        report = evaluate(scenario.problem, scenario.policy)
        passed = (
            passed
            and report.val_general == -eps / 2
            and report.val_good == 0
            and not is_relevant(scenario.problem, scenario.policy.partition)
        )
    _verdict(
        capsys, 2, "gamblers: val_general = -eps/2, val_good = 0, irrelevant", passed
    )


def test_criterion_3_unknown_bias_preset(capsys):
    break_even = Fraction(1, 7)
    passed = True
    for epsilon in ("0", "1/100", "1/10", "1/7", "1/5", "1/2", "1"):
        eps = Fraction(epsilon)
        scenario = build_scenario(UNKNOWN_BIAS, epsilon=eps)
        report = evaluate(scenario.problem, scenario.policy)
        expected = Fraction(1, 3) * (1 - eps) - 2 * eps
        passed = (
            passed
            and report.val_general == expected
            and report.val_good == Fraction(1, 3)
        )
        if eps == break_even:
            passed = passed and report.val_general == 0
        if eps > break_even:
            passed = passed and report.val_general < 0
    _verdict(
        capsys,
        3,
        "unknown-bias: val_general = (1-eps)/3 - 2*eps, zero at 1/7",
        passed,
    )


def test_criterion_4_conditionalization_equality_suite(
    capsys, conditionalization_instances
):
    passed = all(
        val_general(inst.problem, inst.policy)
        == val_good(inst.problem, inst.partition)
        for inst in conditionalization_instances
    )
    _verdict(
        capsys,
        4,
        "1000 conditionalization instances: val_general = val_good",
        passed,
    )


def test_criterion_5_mixture_inequality_suite(capsys):
    rng = random.Random(SUITE_5_SEED)
    passed = True
    for _ in range(1000):
        inst = _random_mixture_instance(rng)
        passed = passed and val_general(inst.problem, inst.policy) <= val_good(
            inst.problem, inst.partition
        )
    _verdict(capsys, 5, "1000 mixture instances: val_general <= val_good", passed)


def test_criterion_6_aversion_certificate_suite(capsys):
    """Every modest policy gets a bet that certifiably makes learning costly."""
    rng = random.Random(SUITE_6_SEED)
    passed = True
    for _ in range(200):
        inst = _random_mixture_instance(rng)
        certificate = demonstrate_aversion(inst.problem, inst.policy)
        independent = brute_val_general(certificate.problem, certificate.policy)
        passed = (
            passed
            and certificate.val_general < 0
            and independent == certificate.val_general
        )
    _verdict(
        capsys,
        6,
        "200 modest policies: certified val_general < 0, independently recomputed",
        passed,
    )


def test_criterion_7_classical_value_sign_suite(capsys, conditionalization_instances):
    passed = True
    for inst in conditionalization_instances:
        good = val_good(inst.problem, inst.partition)
        passed = (
            passed
            and good >= 0
            and (good > 0) == is_relevant(inst.problem, inst.partition)
        )
    _verdict(
        capsys,
        7,
        "same 1000 instances: val_good >= 0, strict iff evidence is relevant",
        passed,
    )


def _cellwise_val_general(inst):
    """val_general rebuilt from the per-cell rows alone."""
    report = evaluate(inst.problem, inst.policy)
    informed = sum((c.prob * c.realized_eu() for c in report.per_cell), Fraction(0))
    return informed - report.baseline


def test_criterion_8_cellwise_equals_definitional_suite(
    capsys, monkeypatch, conditionalization_instances
):
    """Cellwise and brute per-state computations agree on every small instance."""
    rng = random.Random(SUITE_8_SEED)
    instances = list(conditionalization_instances)
    monkeypatch.setattr(properties, "_MAX_BASE_STATES", 6)
    for _ in range(200):
        instances.append(_random_mixture_instance(rng))
    small = [inst for inst in instances if len(inst.problem.space) <= 12]
    passed = bool(small) and all(
        _cellwise_val_general(inst) == brute_val_general(inst.problem, inst.policy)
        for inst in small
    )
    _verdict(
        capsys,
        8,
        f"{len(small)} instances with <= 12 states: cellwise = definitional",
        passed,
    )


def test_criterion_9_serialization_round_trip_suite(capsys):
    rng = random.Random(SUITE_9_SEED)
    passed = True
    for trial in range(100):
        if trial % 2 == 0:
            inst = _random_conditionalization_instance(rng)
        else:
            inst = _random_mixture_instance(rng)
        first = dumps(inst.problem, inst.policy)
        problem, _, policy = loads(first)
        second = dumps(problem, policy)
        passed = passed and first.encode("utf-8") == second.encode("utf-8")
    _verdict(capsys, 9, "100 instances: save-load-save is byte-identical", passed)


TRUST_FILE = Path(__file__).parent / "golden" / "event-trust-counterexample" / "in" / "trust.json"


def test_event_form_total_trust_does_not_make_learning_safe():
    """Trusting one's posteriors event by event is too weak to keep learning
    from hurting.  On one cell over a, b, c, d, every event E passes
    P(E | P'(E) >= t) >= t at every positive t some posterior gives E, yet
    learning costs 1/14 where conditioning would cost nothing."""
    problem, partition, policy = loads(TRUST_FILE.read_text(encoding="utf-8"))
    assert val_general(problem, policy) == Fraction(-1, 14)
    assert brute_val_general(problem, policy) == Fraction(-1, 14)
    assert val_good(problem, partition) == 0
    prior = dist_of(problem.prior)
    posteriors = {s: dist_of(p) for s, p in policy.posteriors.items()}
    states = problem.space.states
    for size in range(len(states) + 1):
        for event in combinations(states, size):

            def mass(dist):
                return sum((dist.get(s, 0) for s in event), Fraction(0))

            for t in {mass(p) for p in posteriors.values()} - {0}:
                trusting = {s for s in states if mass(posteriors[s]) >= t}
                assert mass(conditioned(prior, trusting)) >= t, (event, t)
