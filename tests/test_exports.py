"""Every exported name resolves, in the package and in each submodule, the
package exports exactly the pinned list, and its entry functions refuse a
wrong-typed argument."""

import importlib
import pkgutil

import pytest

import infovalue
from infovalue import (
    best_action,
    build_scenario,
    condition,
    conditionalization_policy,
    demonstrate_aversion,
    deviating_states,
    dumps,
    errors,
    evaluate,
    expected_utility,
    is_partition,
    is_relevant,
    mixture_expand,
    probability,
    problem_document,
    val_general,
    val_good,
)
from infovalue.errors import ValidationError

from _refusals import refusal

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(infovalue.__path__))

# The public surface, sorted.  A name stays public if the CLI or the README
# needs it, or if a user needs it to build an input, read a result or catch
# an error.  One name a line, so adding or removing one is a one-line diff.
PUBLIC = [
    "Action",
    "AversionCertificate",
    "CONDITIONALIZATION",
    "CertaintyError",
    "ChoiceSet",
    "ConfigError",
    "Credence",
    "DecisionProblem",
    "Deviation",
    "DeviationSpec",
    "Event",
    "EvidencePartition",
    "GAMBLERS",
    "IndependenceBrokenError",
    "InfoValueError",
    "LemmaOneRow",
    "MalformedDocumentError",
    "MissingPosteriorError",
    "NoDeviationError",
    "NormalizationError",
    "OutcomeSpace",
    "PROPERTY_NAMES",
    "PartitionError",
    "PerCell",
    "PolicyError",
    "ProblemFileError",
    "PropertyFailure",
    "PropertyReport",
    "RACE",
    "RISKY_ID",
    "RationalFormatError",
    "SAFE_ID",
    "SCENARIO_NAMES",
    "Scenario",
    "SpaceMismatchError",
    "StateSpace",
    "SweepRow",
    "SweepTable",
    "UNKNOWN_BIAS",
    "UpdatePolicy",
    "ValidationError",
    "VoiReport",
    "ZeroProbabilityError",
    "__version__",
    "as_fraction",
    "best_action",
    "build_scenario",
    "canonical_json",
    "condition",
    "conditionalization_policy",
    "construct_bet",
    "demonstrate_aversion",
    "deviating_states",
    "dumps",
    "evaluate",
    "expected_utility",
    "is_partition",
    "is_relevant",
    "load_problem",
    "loads",
    "mixture_expand",
    "probability",
    "problem_document",
    "property_suite",
    "save_problem",
    "sweep",
    "threshold",
    "val_general",
    "val_good",
]


def test_package_exports_resolve():
    missing = [n for n in infovalue.__all__ if not hasattr(infovalue, n)]
    assert not missing


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"infovalue.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_exports_are_its_modules_exports():
    """A public name is declared once, in its module; the package adds only
    ``__version__``."""
    declared = ["__version__"]
    for name in SUBMODULES:
        declared += getattr(importlib.import_module(f"infovalue.{name}"), "__all__", [])
    assert len(set(infovalue.__all__)) == len(infovalue.__all__)
    assert len(set(declared)) == len(declared)
    assert set(infovalue.__all__) == set(declared)


def test_every_error_class_is_exported():
    defined = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type)
        and issubclass(value, errors.InfoValueError)
        and value.__module__ == errors.__name__
    }
    assert defined <= set(errors.__all__)


def test_the_public_surface_is_the_pinned_list():
    assert sorted(infovalue.__all__) == PUBLIC


def test_updating_still_names_the_partition_class():
    """``EvidencePartition`` is declared in ``prob``; the benchmark builds
    partitions through ``infovalue.updating.EvidencePartition``."""
    assert infovalue.updating.EvidencePartition is infovalue.prob.EvidencePartition
    assert "EvidencePartition" in infovalue.prob.__all__


GAMBLERS = build_scenario("gamblers", "1/10")
P, Q = GAMBLERS.problem, GAMBLERS.policy


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: evaluate(None, Q), "problem must be of type DecisionProblem, not NoneType"),
        (lambda: evaluate(P, None), "policy must be of type UpdatePolicy, not NoneType"),
        (
            lambda: val_general(P, Q.partition),
            "policy must be of type UpdatePolicy, not EvidencePartition",
        ),
        (
            lambda: val_good(P, Q),
            "partition must be of type EvidencePartition, not UpdatePolicy",
        ),
        (
            lambda: is_relevant(P, Q),
            "partition must be of type EvidencePartition, not UpdatePolicy",
        ),
        (
            lambda: is_relevant(Q, Q.partition),
            "problem must be of type DecisionProblem, not UpdatePolicy",
        ),
        (
            lambda: deviating_states(Q.partition, P.prior),
            "policy must be of type UpdatePolicy, not EvidencePartition",
        ),
        (
            lambda: deviating_states(Q, P),
            "prior must be of type Credence, not DecisionProblem",
        ),
        (
            lambda: demonstrate_aversion(P, Q.partition),
            "policy must be of type UpdatePolicy, not EvidencePartition",
        ),
        (
            lambda: problem_document(Q, P),
            "problem must be of type DecisionProblem, not UpdatePolicy",
        ),
        (lambda: dumps(P, None), "policy must be of type UpdatePolicy, not NoneType"),
        (
            lambda: best_action(None, P),
            "credence must be of type Credence, not NoneType",
        ),
        (
            lambda: expected_utility(P, None),
            "action must be of type Action, not NoneType",
        ),
        (
            lambda: best_action(P.prior, None),
            "problem must be of type DecisionProblem, not NoneType",
        ),
        (lambda: probability(P.prior, None), "event must be of type Event, not NoneType"),
        (lambda: condition(P.prior, None), "event must be of type Event, not NoneType"),
        (
            lambda: is_partition(P.space, None),
            "cells must be of type Iterable, not NoneType",
        ),
        (
            lambda: is_partition(P.space, [Q.partition.cells[0], None]),
            "cells[1] must be of type Event, not NoneType",
        ),
        (
            lambda: mixture_expand(P, Q.partition, None),
            "spec must be of type DeviationSpec, not NoneType",
        ),
        (
            lambda: conditionalization_policy(P.prior, None),
            "partition must be of type EvidencePartition, not NoneType",
        ),
    ],
    ids=[
        "evaluate-no-problem",
        "evaluate-no-policy",
        "val-general-partition-for-policy",
        "val-good-policy-for-partition",
        "is-relevant-policy-for-partition",
        "is-relevant-policy-for-problem",
        "deviating-states-partition-for-policy",
        "deviating-states-problem-for-prior",
        "demonstrate-aversion-partition-for-policy",
        "problem-document-arguments-swapped",
        "dumps-no-policy",
        "best-action-no-credence",
        "expected-utility-no-action",
        "best-action-no-problem",
        "probability-no-event",
        "condition-no-event",
        "is-partition-no-cells",
        "is-partition-no-cell",
        "mixture-expand-no-spec",
        "conditionalization-policy-no-partition",
    ],
)
def test_entry_functions_refuse_wrong_typed_arguments(build, message):
    """Each refuses before it reads an attribute of the argument."""
    assert refusal(build) == (ValidationError, "_check_types", message)
