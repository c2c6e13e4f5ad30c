"""The three workloads: each turns a seed into a fixed list of checked ops.

An op is one call into the library's public API.  Its ``check`` runs
outside the timed region and compares the result with values the oracle
computed from the generated inputs, returning ``None`` when the result is
exactly right and a description of the mismatch otherwise.  Ops marked
``refusal`` expect the library to refuse; a correct refusal is not a
failure.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

import gen
import lib
import oracle


@dataclass
class Op:
    label: str
    group: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    refusal: bool = False


@dataclass
class CliResult:
    code: int
    out: str
    err: str


# ---------------------------------------------------------------- eval_ladder

def eval_ladder(L: lib.Lib, seed: int, workdir: Path) -> list[Op]:
    """``voi.evaluate`` on 16- to 256-state instances of three policy kinds."""
    ops = []
    for inst in gen.eval_ladder(seed):
        expected = oracle.report(inst)
        problem, policy = lib.build(L, inst)

        def check(report, expected=expected):
            if lib.plain_report(report) != expected:
                return "evaluate differs from the oracle"
            return None

        ops.append(Op(
            inst.label, inst.label.rsplit("-", 1)[0],
            lambda p=problem, q=policy: L.voi.evaluate(p, q), check,
        ))
    return ops


# ---------------------------------------------------------------- cert_search

def cert_search(L: lib.Lib, seed: int, workdir: Path) -> list[Op]:
    """Certificates on a stream of mixtures, then exhaustive clairvoyant refusals."""
    ops = []
    for inst in gen.cert_stream(seed):
        problem, policy = lib.build(L, inst)

        def check(cert, inst=inst):
            d = cert.deviation
            return oracle.certificate_failure(
                inst, d.cell.members, d.state, d.event.members, d.q, d.r,
                d.cell.members & cert.bet_event.members,
                cert.bet_win, cert.bet_loss, cert.val_general,
            )

        ops.append(Op(
            inst.label, "stream",
            lambda p=problem, q=policy: L.adversary.demonstrate_aversion(p, q),
            check,
        ))
    for n in gen.CLAIRVOYANT_SIZES:
        inst = gen.clairvoyant(seed, n)
        problem, policy = lib.build(L, inst)

        def refuse(p=problem, q=policy):
            try:
                return L.adversary.demonstrate_aversion(p, q)
            except L.errors.IndependenceBrokenError as exc:
                return exc

        ops.append(Op(inst.label, inst.label, refuse, _clairvoyant_check(L, inst), refusal=True))
    return ops


def _clairvoyant_check(L: lib.Lib, inst: gen.Instance):
    """The refusal a one-cell clairvoyant policy must get.

    Every state puts all its mass on itself, so whatever event the bet is
    on, exactly the states inside it take the bet; takers always learn
    the event happened, and every candidate leaks.  The witness comes from
    the first candidate, the bet on the first state alone: its decliners
    (``safe``) are exactly the states where ``risky`` always loses, so
    ``risky`` is the probe whose conditional value shifts.
    """

    def check(result):
        if not isinstance(result, L.errors.IndependenceBrokenError):
            return f"expected IndependenceBrokenError, got {type(result).__name__}"
        witness = (frozenset(result.cell.members), result.chosen_action, result.probe_action)
        if witness != (frozenset(inst.states), "safe", "risky"):
            return f"witness {witness} is not (whole space, safe, risky)"
        return None

    return check


# ---------------------------------------------------------------- cli_mix

_SCENARIO_VALUES = {
    "race": lambda eps: (Fraction(1, 4), Fraction(1, 4)),
    "gamblers": lambda eps: (Fraction(0), -eps / 2),
    "unknown-bias": lambda eps: (Fraction(1, 3), (1 - eps) / 3 - 2 * eps),
}
"""Closed forms of (val_good, val_general) for each preset at epsilon."""

ADVERSARY_REFUSALS = 4


def cli_mix(L: lib.Lib, seed: int, workdir: Path) -> list[Op]:
    """In-process ``infovalue.cli.main`` calls on small files it writes first."""
    ops = []
    refusals = 0
    for inst in gen.cli_instances(seed):
        path = workdir / f"{inst.label}.json"
        path.write_text(gen.to_document(inst), encoding="utf-8")
        own = oracle.report(inst)
        conditioned = oracle.report(replace(inst, posteriors=None, _conditioned=None))
        ops.append(Op(
            f"eval-{inst.label}", "eval",
            _cli(L, "eval", "--problem", str(path)), _eval_check(own),
        ))
        ops.append(Op(
            f"eval-cond-{inst.label}", "eval-cond",
            _cli(L, "eval", "--problem", str(path), "--policy", "conditionalization"),
            _eval_check(conditioned),
        ))
        out = workdir / f"cert-{inst.label}.json"
        argv = ("adversary", "--problem", str(path), "--out", str(out))
        if inst.kind == gen.MIXTURE:
            ops.append(Op(
                f"adversary-{inst.label}", "adversary", _cli(L, *argv), _adversary_check(inst, out),
            ))
        elif refusals < ADVERSARY_REFUSALS:
            refusals += 1
            ops.append(Op(
                f"adversary-{inst.label}", "adversary-refusal", _cli(L, *argv),
                _no_deviation_check, refusal=True,
            ))
    epsilons = gen.scenario_epsilons(seed)
    presets = [("race", None)] + [
        (name, eps) for name in ("gamblers", "unknown-bias") for eps in epsilons
    ]
    for i, (name, eps) in enumerate(presets):
        out = workdir / f"scenario-{i}.json"
        argv = ["scenario", name, "--out", str(out)]
        if eps is not None:
            argv += ["--epsilon", str(eps)]
        ops.append(Op(
            f"scenario-{name}-{i}", "scenario", _cli(L, *argv), _scenario_check(name, eps, out),
        ))
    grid = ",".join(str(e) for e in gen.SWEEP_EPSILONS)
    ops.append(Op(
        "sweep-gamblers", "sweep", _cli(L, "sweep", "gamblers", "--epsilons", grid),
        _sweep_check("gamblers", _table_rows),
    ))
    ops.append(Op(
        "sweep-unknown-bias", "sweep",
        _cli(L, "sweep", "unknown-bias", "--epsilons", grid, "--format", "csv"),
        _sweep_check("unknown-bias", _csv_rows),
    ))
    ops.append(Op(
        "check", "check",
        _cli(L, "check", "--trials", str(gen.CHECK_TRIALS), "--seed", str(gen.CHECK_SEED)),
        _property_check(gen.CHECK_TRIALS, gen.CHECK_SEED),
    ))
    return ops


def _cli(L: lib.Lib, *argv: str):
    def call() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = L.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return CliResult(code, out.getvalue(), err.getvalue())

    return call


_CELL = re.compile(r"^cell \{(.*)\}: p=(\S+), best conditional EU=(\S+)$")
_ROW = re.compile(r"^    chooses (\S+): p=(\S+), conditional EU=(\S+)$")
_CHOSEN = re.compile(r"^    (\S+): (\S+)$")


def parse_report(text: str) -> oracle.Report:
    """The report ``infovalue eval`` and ``scenario`` print, read back."""
    headline = {}
    cells, chosen = [], {}
    in_chosen = False
    for line in text.splitlines():
        if not line:
            continue
        if in_chosen:
            match = _CHOSEN.match(line)
            if match is None:
                break
            chosen[match[1]] = match[2]
        elif line == "chosen by state:":
            in_chosen = True
        elif match := _CELL.match(line):
            cells.append((frozenset(match[1].split(", ")), Fraction(match[2]), Fraction(match[3]), []))
        elif match := _ROW.match(line):
            cells[-1][3].append((match[1], Fraction(match[2]), Fraction(match[3])))
        elif line.split(" ", 1)[0] in ("baseline", "val_good", "val_general"):
            headline[line.split(" ", 1)[0]] = Fraction(line.rsplit(": ", 1)[1])
    return oracle.Report(
        baseline=headline["baseline"],
        val_good=headline["val_good"],
        val_general=headline["val_general"],
        chosen=chosen,
        cells=tuple((m, p, best, tuple(rows)) for m, p, best, rows in cells),
    )


def _eval_check(expected: oracle.Report):
    def check(result: CliResult):
        if result.code != 0:
            return f"exit {result.code}: {result.err.strip()}"
        if parse_report(result.out) != expected:
            return "eval output differs from the oracle"
        return None

    return check


def _adversary_check(inst: gen.Instance, out: Path):
    def check(result: CliResult):
        if result.code != 0:
            return f"exit {result.code}: {result.err.strip()}"
        doc = json.loads(out.read_text(encoding="utf-8"))
        cert = doc["certificate"]
        value = Fraction(cert["val_general"])
        if result.out != f"learning is worth {value} under this policy; certificate written to {out}\n":
            return f"unexpected stdout {result.out!r}"
        failure = oracle.certificate_failure(
            inst, cert["cell"], cert["state"], cert["event"],
            Fraction(cert["q"]), Fraction(cert["r"]), cert["bet_wins_on"],
            Fraction(cert["bet_win"]), Fraction(cert["bet_loss"]), value,
        )
        if failure:
            return failure
        written = gen.from_document(doc["problem"])
        if (written.prior, written.posteriors) != (inst.prior, inst.posteriors):
            return "certificate file changes the prior or the policy"
        if oracle.report(written).val_general != value:
            return "certificate file's problem does not reproduce val_general"
        return None

    return check


def _no_deviation_check(result: CliResult):
    if result.code == 1 and result.err.startswith("error:") and "conditionalizes" in result.err:
        return None
    return f"expected a no-deviation refusal, got exit {result.code}: {result.err.strip()}"


def _scenario_check(name: str, eps: Fraction | None, out: Path):
    def check(result: CliResult):
        if result.code != 0:
            return f"exit {result.code}: {result.err.strip()}"
        if not result.out.endswith(f"\nproblem file written to {out}\n"):
            return "scenario did not report the file it wrote"
        printed = parse_report(result.out)
        if (printed.val_good, printed.val_general) != _SCENARIO_VALUES[name](eps):
            return f"{name} at {eps}: {printed.val_good}, {printed.val_general}"
        written = gen.from_document(json.loads(out.read_text(encoding="utf-8")))
        if oracle.report(written) != printed:
            return "scenario output differs from the oracle on the file it wrote"
        return None

    return check


def _table_rows(text: str) -> list[list[str]]:
    return [line.split() for line in text.splitlines()[2:]]


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))[1:]


def _sweep_check(name: str, rows_of):
    expected = []
    for eps in gen.SWEEP_EPSILONS:
        good, general = _SCENARIO_VALUES[name](eps)
        expected.append([str(eps), str(good), str(general), "learn" if general >= 0 else "decline"])

    def check(result: CliResult):
        if result.code != 0:
            return f"exit {result.code}: {result.err.strip()}"
        if rows_of(result.out) != expected:
            return f"sweep {name} differs from its closed form"
        return None

    return check


def _property_check(trials: int, seed: int):
    def check(result: CliResult):
        verdict = f"{trials} trials from seed {seed}: all properties held"
        if result.code != 0 or result.out.splitlines()[-1] != verdict:
            return f"exit {result.code}: {result.out.splitlines()[-1:]}"
        return None

    return check


WORKLOADS = {"eval_ladder": eval_ladder, "cert_search": cert_search, "cli_mix": cli_mix}
