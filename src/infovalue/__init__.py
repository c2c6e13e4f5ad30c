"""Exact value-of-information analysis under distrust of one's own updating.

Finite decision problems, exact rational arithmetic end to end.  The
classical value of evidence (:func:`val_good`) assumes the agent will
condition on what they learn; the generalized value (:func:`val_general`)
prices the evidence by the agent's actual update policy, deviations and
all — and can come out negative.  When it does, :func:`demonstrate_aversion`
builds the explicit bet that proves it.
"""

from .adversary import (
    AversionCertificate,
    Deviation,
    construct_bet,
    demonstrate_aversion,
)
from .decision import (
    ERROR_ON_TIE,
    FIRST_BY_ORDER,
    Action,
    ChoiceSet,
    DecisionProblem,
    OutcomeSpace,
    best_action,
    expected_utility,
    is_relevant,
    max_expected_utility,
)
from .errors import (
    CertaintyError,
    ConfigError,
    IndependenceBrokenError,
    InfoValueError,
    MalformedDocumentError,
    MissingPosteriorError,
    NoDeviationError,
    NormalizationError,
    PartitionError,
    PolicyError,
    ProblemFileError,
    RationalFormatError,
    SpaceMismatchError,
    TieError,
    ValidationError,
    ZeroProbabilityError,
)
from .prob import (
    Credence,
    Event,
    StateSpace,
    as_fraction,
    condition,
    is_partition,
    probability,
)
from .problemfile import (
    canonical_json,
    dumps,
    load_problem,
    loads,
    problem_document,
    save_problem,
)
from .properties import (
    Instance,
    PropertyFailure,
    PropertyReport,
    property_suite,
    random_conditionalization_instance,
    random_mixture_instance,
)
from .scenarios import (
    GAMBLERS,
    RACE,
    SCENARIO_NAMES,
    UNKNOWN_BIAS,
    Scenario,
    SweepRow,
    SweepTable,
    build_scenario,
    scenario_gamblers,
    scenario_race,
    scenario_unknown_bias,
    sweep,
    threshold,
)
from .updating import (
    CONDITIONALIZATION,
    DeviationSpec,
    EvidencePartition,
    UpdatePolicy,
    conditionalization_policy,
    deviating_states,
    find_independence_violation,
    is_immodest,
    mixture_expand,
    modesty_degree,
)
from .voi import (
    LemmaOneRow,
    PerCell,
    VoiReport,
    evaluate,
    cellwise_decomposition,
    val_general,
    val_good,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # prob
    "StateSpace",
    "Event",
    "Credence",
    "as_fraction",
    "probability",
    "condition",
    "is_partition",
    # decision
    "FIRST_BY_ORDER",
    "ERROR_ON_TIE",
    "OutcomeSpace",
    "Action",
    "ChoiceSet",
    "DecisionProblem",
    "expected_utility",
    "best_action",
    "max_expected_utility",
    "is_relevant",
    # updating
    "CONDITIONALIZATION",
    "EvidencePartition",
    "UpdatePolicy",
    "DeviationSpec",
    "conditionalization_policy",
    "mixture_expand",
    "deviating_states",
    "is_immodest",
    "modesty_degree",
    "find_independence_violation",
    # voi
    "LemmaOneRow",
    "PerCell",
    "VoiReport",
    "val_good",
    "val_general",
    "cellwise_decomposition",
    "evaluate",
    # adversary
    "Deviation",
    "AversionCertificate",
    "construct_bet",
    "demonstrate_aversion",
    # scenarios
    "RACE",
    "GAMBLERS",
    "UNKNOWN_BIAS",
    "SCENARIO_NAMES",
    "Scenario",
    "SweepRow",
    "SweepTable",
    "scenario_race",
    "scenario_gamblers",
    "scenario_unknown_bias",
    "build_scenario",
    "sweep",
    "threshold",
    # properties
    "Instance",
    "PropertyFailure",
    "PropertyReport",
    "property_suite",
    "random_conditionalization_instance",
    "random_mixture_instance",
    # problem files
    "problem_document",
    "canonical_json",
    "dumps",
    "loads",
    "save_problem",
    "load_problem",
    # errors
    "InfoValueError",
    "ValidationError",
    "SpaceMismatchError",
    "ZeroProbabilityError",
    "TieError",
    "MissingPosteriorError",
    "NoDeviationError",
    "IndependenceBrokenError",
    "ConfigError",
    "ProblemFileError",
    "MalformedDocumentError",
    "RationalFormatError",
    "NormalizationError",
    "PartitionError",
    "PolicyError",
    "CertaintyError",
]
