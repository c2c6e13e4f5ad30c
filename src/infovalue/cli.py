"""Command-line interface.

Subcommands:

- ``eval``       evaluate a problem file (value of learning, per-cell table)
- ``scenario``   build and evaluate a named preset
- ``sweep``      tabulate a preset across epsilon values
- ``adversary``  synthesize a bet that makes a deviating policy pay to stay ignorant
- ``check``      run the seeded property suite

Exit codes: 0 success, 1 validation or configuration error, 2 property
counterexample found, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .adversary import demonstrate_aversion
from .errors import ConfigError, InfoValueError
from .problemfile import (
    _overwrite,
    canonical_json,
    load_problem,
    problem_document,
    save_problem,
)
from .properties import property_suite
from .scenarios import SCENARIO_NAMES, build_scenario, sweep
from .updating import CONDITIONALIZATION, conditionalization_policy
from .voi import VoiReport, evaluate


def _print_report(report: VoiReport) -> None:
    print(f"baseline (best acting on the prior): {report.baseline}")
    print(f"val_good (conditionalizer's value of learning): {report.val_good}")
    print(f"val_general (this policy's value of learning): {report.val_general}")
    print()
    for cell in report.per_cell:
        print(
            f"cell {cell.cell.describe()}: p={cell.prob}, "
            f"best conditional EU={cell.max_cond_eu}"
        )
        for row in cell.rows:
            print(
                f"    chooses {row.action_id}: p={row.choose_prob}, "
                f"conditional EU={row.cond_eu}"
            )
    print()
    print("chosen by state:")
    for state, action_id in report.chosen_by_state.items():
        print(f"    {state}: {action_id}")


def _load_with_policy(problem_path: str, policy_arg: str | None):
    problem, partition, policy = load_problem(problem_path)
    if policy_arg is None:
        return problem, policy
    if policy_arg == CONDITIONALIZATION:
        return problem, conditionalization_policy(problem.prior, partition)
    _, _, override = load_problem(policy_arg)
    if override.space != problem.space:
        raise ConfigError(
            f"policy file {policy_arg!r} is over a different state space"
        )
    return problem, override


def _cmd_eval(args: argparse.Namespace) -> int:
    problem, policy = _load_with_policy(args.problem, args.policy)
    _print_report(evaluate(problem, policy))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    scenario = build_scenario(args.name, epsilon=args.epsilon, confidence=args.confidence)
    report = evaluate(scenario.problem, scenario.policy)
    if args.out:
        save_problem(args.out, scenario.problem, scenario.policy)
    _print_report(report)
    if args.out:
        print()
        print(f"problem file written to {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    table = sweep(args.name, args.epsilons.split(","), confidence=args.confidence)
    if args.format == "csv":
        sys.stdout.write(table.to_csv())
    else:
        print(table.format_table())
    return 0


def _cmd_adversary(args: argparse.Namespace) -> int:
    problem, policy = _load_with_policy(args.problem, args.policy)
    certificate = demonstrate_aversion(problem, policy)
    deviation = certificate.deviation
    doc = {
        "problem": problem_document(certificate.problem, certificate.policy),
        "certificate": {
            "cell": list(deviation.cell.sorted_members()),
            "state": deviation.state,
            "event": list(deviation.event.sorted_members()),
            "q": str(deviation.q),
            "r": str(deviation.r),
            "bet_wins_on": list(
                deviation.cell.intersection(certificate.bet_event).sorted_members()
            ),
            "bet_win": str(certificate.bet_win),
            "bet_loss": str(certificate.bet_loss),
            "val_general": str(certificate.val_general),
        },
    }
    text = canonical_json(doc) + "\n"
    if args.out:
        _overwrite(args.out, text)
        print(
            f"learning is worth {certificate.val_general} under this policy; "
            f"certificate written to {args.out}"
        )
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    report = property_suite(args.seed, args.trials)
    print(report.format_table())
    if report.ok:
        return 0
    print()
    for failure in report.failures:
        print(
            f"counterexample (trial {failure.trial}, {failure.kind}, "
            f"{failure.property_name}): {failure.detail}"
        )
        print(canonical_json(failure.document))
    return 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared after that.

    Parsing leaves no state in the parser, and argparse looks up
    ``sys.stdout`` and ``sys.stderr`` only when it prints, so one parser
    serves every :func:`main` call in a process.  Every caller gets that same
    parser, so none may change it.
    """
    parser = argparse.ArgumentParser(
        prog="infovalue",
        description=(
            "Exact value-of-information analysis for agents who may not "
            "trust their own updating."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a problem file")
    p_eval.set_defaults(func=_cmd_eval)

    p_scenario = sub.add_parser("scenario", help="build and evaluate a preset")
    p_scenario.add_argument("name", choices=SCENARIO_NAMES)
    p_scenario.add_argument(
        "--epsilon", help="probability of the deviant disposition, e.g. '1/10'"
    )
    p_scenario.add_argument(
        "--confidence",
        help="fallacy confidence for unknown-bias (default 91/100)",
    )
    p_scenario.add_argument("--out", help="also write the problem file here")
    p_scenario.set_defaults(func=_cmd_scenario)

    p_sweep = sub.add_parser("sweep", help="tabulate a preset across epsilons")
    p_sweep.add_argument("name", choices=SCENARIO_NAMES)
    p_sweep.add_argument(
        "--epsilons", required=True, help="comma-separated list, e.g. '0,1/10,1/2'"
    )
    p_sweep.add_argument(
        "--confidence",
        help="fallacy confidence for unknown-bias (default 91/100)",
    )
    p_sweep.add_argument("--format", choices=("table", "csv"), default="table")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_adversary = sub.add_parser(
        "adversary", help="synthesize a certificate that learning hurts"
    )
    for p_loader in (p_eval, p_adversary):
        p_loader.add_argument("--problem", required=True, help="path to a problem file")
        p_loader.add_argument(
            "--policy",
            help=(
                "override the file's update policy: 'conditionalization' or the "
                "path of another problem file whose policy section to use"
            ),
        )
    p_adversary.add_argument("--out", help="write the certificate here instead of stdout")
    p_adversary.set_defaults(func=_cmd_adversary)

    p_check = sub.add_parser("check", help="run the seeded property suite")
    p_check.add_argument("--trials", default=100)
    p_check.add_argument("--seed", default=0)
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfoValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
