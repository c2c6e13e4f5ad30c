"""The benchmark's only bridge to ``infovalue``: import it, build objects.

``load`` imports the package afresh each time it is called, so a run can
time its set-up more than once.  Objects built from one load must only be
used with the modules of that same load.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from types import ModuleType

import gen
import oracle

LAYERS = (
    "prob", "decision", "updating", "voi", "adversary",
    "problemfile", "properties", "scenarios", "cli",
)
"""The package's modules that do work; ``errors`` does none."""


@dataclass(frozen=True)
class Lib:
    prob: ModuleType
    decision: ModuleType
    updating: ModuleType
    voi: ModuleType
    adversary: ModuleType
    problemfile: ModuleType
    properties: ModuleType
    scenarios: ModuleType
    cli: ModuleType
    errors: ModuleType


def load() -> Lib:
    for name in [m for m in sys.modules if m == "infovalue" or m.startswith("infovalue.")]:
        del sys.modules[name]
    importlib.import_module("infovalue")
    modules = {m: importlib.import_module(f"infovalue.{m}") for m in LAYERS + ("errors",)}
    return Lib(**modules)


def build(L: Lib, inst: gen.Instance):
    """The library's (problem, policy) for a generated instance."""
    if inst.kind == gen.MIXTURE:
        problem, partition = _problem(L, inst.base)
        spec = L.updating.DeviationSpec(
            inst.epsilon,
            {
                partition.cells[i]: L.prob.Credence(problem.space, dist)
                for i, dist in inst.deviants.items()
            },
        )
        return L.updating.mixture_expand(problem, partition, spec)
    problem, partition = _problem(L, inst)
    if inst.posteriors is None:
        return problem, L.updating.conditionalization_policy(problem.prior, partition)
    posteriors = {
        s: L.prob.Credence(problem.space, dist) for s, dist in inst.posteriors.items()
    }
    return problem, L.updating.UpdatePolicy(partition, posteriors)


def _problem(L: Lib, inst: gen.Instance):
    space = L.prob.StateSpace(inst.states)
    outcomes = L.decision.OutcomeSpace(tuple(inst.utility), inst.utility)
    choices = L.decision.ChoiceSet(
        tuple(L.decision.Action(a, m) for a, m in inst.actions)
    )
    problem = L.decision.DecisionProblem(
        space, outcomes, L.prob.Credence(space, inst.prior), choices
    )
    partition = L.updating.EvidencePartition(
        space, tuple(L.prob.Event(space, frozenset(c)) for c in inst.cells)
    )
    return problem, partition


def plain_report(report) -> oracle.Report:
    """A ``VoiReport`` in the oracle's shape, read from its public fields."""
    return oracle.Report(
        baseline=report.baseline,
        val_good=report.val_good,
        val_general=report.val_general,
        chosen=dict(report.chosen_by_state),
        cells=tuple(
            (
                frozenset(c.cell.members),
                c.prob,
                c.max_cond_eu,
                tuple((r.action_id, r.choose_prob, r.cond_eu) for r in c.rows),
            )
            for c in report.per_cell
        ),
    )
