"""Benchmark for infovalue: one workload, one process, one caller.

    python3 bench/run.py --workload eval_ladder --seed 1 --seconds 30 --trace 0

Sets the workload up from ``--seed`` several times (reporting the median
as ``setup_s``), then runs passes over its fixed list of operations in a
closed loop until ``--seconds`` have gone by.  Every result is checked
against the benchmark's own oracle outside the timed region.  Times are
reported in seconds at a reference speed (see ``SpeedProbe``).  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
spends half the time on untraced passes and half on traced ones, and
reports the per-layer metrics and the tracing overhead.

Standard output ends with a run-record line and then one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 when the run completed, whatever the checks found.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_ROUNDS = 3
PROBE_EVERY_S = 0.25
PROBE_REFERENCE_S = 0.001
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10
MAX_FAILURES_SHOWN = 5


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "infovalue" / "__init__.py").is_file():
        print(f"error: no infovalue package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    probe = SpeedProbe()
    probe.start()
    try:
        record, metrics = run(args, workdir, probe)
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


class SpeedProbe:
    """How fast the machine runs, sampled through every timed region.

    The machines this runs on change speed by up to 1.7x for seconds at a
    time (other tenants share the cores), which moves a wall-clock median
    far more than the code under test does.  While started, an interval
    timer interrupts the process every ``PROBE_EVERY_S`` and times
    ``_probe_work`` (exact-rational arithmetic and dict updates, like the
    library's own work), taking the best of three.

    ``clock`` is ``time.perf_counter`` with the probes' own time taken out.
    ``timed`` runs a call and converts each stretch of it between two
    probes into seconds at the reference speed, where the probe takes
    ``PROBE_REFERENCE_S``, using the mean of the probes at its two ends.
    """

    def __init__(self) -> None:
        self.spent = 0.0
        self.marks: list[tuple[float, float]] = []  # (clock() at the probe, probe seconds)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no probe ran in between
                return now - spent

    def _tick(self, *_) -> None:
        start = time.perf_counter()
        best = math.inf
        for _ in range(3):
            begin = time.perf_counter()
            _probe_work()
            best = min(best, time.perf_counter() - begin)
        self.marks.append((start - self.spent, best))
        self.spent += time.perf_counter() - start

    def timed(self, call):
        """``(result, error, wall seconds, reference seconds)`` of ``call()``."""
        first = len(self.marks)
        start = self.clock()
        result = error = None
        try:
            result = call()
        except Exception as exc:  # the caller judges the failure
            error = exc
        end = self.clock()
        previous = None
        scaled, at = 0.0, start
        for mark, best in self.marks[max(first - 1, 0):]:
            if mark <= start:
                previous = best
            elif mark <= end:
                scaled += (mark - at) * 2 * PROBE_REFERENCE_S / (previous + best)
                previous, at = best, mark
        scaled += (end - at) * PROBE_REFERENCE_S / previous
        return result, error, end - start, scaled


def _probe_work():
    total = Fraction(0)
    table = {}
    for i in range(1, 250):
        table[i % 13] = Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
        total += table[i % 13]
    return total


def run(args, workdir: Path, probe: SpeedProbe) -> tuple[dict, dict]:
    tally = Tally()
    budget = args.seconds / 2 if args.trace else args.seconds
    setup_times: list[float] = []

    def rebuild():
        gc.collect()
        L, ops, elapsed = build(args, workdir, len(setup_times), tally, probe)
        setup_times.append(elapsed)
        return L, ops

    L, ops = rebuild()
    plain = Passes(len(ops))
    while not plain.pass_s or plain.measured_s < budget:
        # Later set-up rounds are spread over the measuring time, so the
        # median set-up time samples the machine across the whole run.
        if len(setup_times) < SETUP_ROUNDS and (
            plain.measured_s >= budget * len(setup_times) / SETUP_ROUNDS
        ):
            L = ops = None  # free the last round's objects before the next
            L, ops = rebuild()
        run_pass(ops, plain, tally, probe)
    while len(setup_times) < SETUP_ROUNDS:
        L = ops = None
        L, ops = rebuild()

    traced = None
    if args.trace:
        import tracing

        traced = Passes(len(ops))
        tracer = tracing.Tracer(L, probe.clock)
        tracer.install()
        try:
            while not traced.pass_s or traced.measured_s < budget:
                run_pass(ops, traced, tally, probe, tracer)
        finally:
            tracer.uninstall()
        metrics, undefined = layer_metrics(plain, traced)
    else:
        metrics, undefined = end_to_end_metrics(plain, setup_times), []

    medians = [statistics.median(samples) for samples in plain.latencies]
    groups: dict[str, dict] = {}
    for op, m in zip(ops, medians):
        group = groups.setdefault(op.group, {"ops": 0, "median_ms_sum": 0.0})
        group["ops"] += 1
        group["median_ms_sum"] += 1000 * m
    if traced:
        for name, counts in traced.layers[-1]["by_group"].items():
            groups[name]["per_op_calls"] = {
                k: v / counts["ops"] for k, v in sorted(counts.items()) if k != "ops"
            }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        **source_identity(),
        "ops_per_pass": len(ops),
        "passes": len(plain.pass_s),
        "traced_passes": len(traced.pass_s) if traced else 0,
        "op_tail_percentile": tail_percentile(len(ops)),
        "op_tail_samples": sum(len(samples) for samples in plain.latencies),
        "setup_s_rounds": setup_times,
        "pass_s": plain.pass_s,
        "pass_wall_s": plain.pass_wall_s,
        "traced_pass_s": traced.pass_s if traced else [],
        "probe_reference_s": PROBE_REFERENCE_S,
        "probe_s_quartiles": statistics.quantiles([m[1] for m in probe.marks], n=4),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_ratio": tally.failed / tally.attempted,
        "refused": tally.refused,
        "failures": tally.failures[:MAX_FAILURES_SHOWN],
        "undefined_ratios": undefined,
        "groups": groups,
        "op_median_ms": {op.label: 1000 * m for op, m in zip(ops, medians)},
    }, metrics


def build(args, workdir: Path, round_: int, tally: "Tally", probe: SpeedProbe):
    """One set-up round: import, generate, compute oracle values, warm up.

    Returns the library, the ops and the round's time at reference speed.
    """
    import lib
    import workloads

    def setup():
        L = lib.load()
        round_dir = workdir / f"setup-{round_}"
        round_dir.mkdir(parents=True)
        ops = workloads.WORKLOADS[args.workload](L, args.seed, round_dir)
        run_op(ops[0], tally, probe)
        return L, ops

    built, error, _, scaled = probe.timed(setup)
    if error is not None:
        raise error
    return (*built, scaled)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.failures: list[str] = []


class Passes:
    def __init__(self, n_ops: int) -> None:
        self.latencies: list[list[float]] = [[] for _ in range(n_ops)]
        self.pass_s: list[float] = []
        self.pass_wall_s: list[float] = []
        self.layers: list[dict] = []
        self.measured_s = 0.0


def run_op(op, tally: Tally, probe: SpeedProbe, tracer=None):
    """Time one op, then check its result outside the timed region.

    Returns the op's wall time, its time at reference speed, and its result.
    """
    result, error, wall, scaled = probe.timed(
        (lambda: tracer.run_op(op.call)) if tracer else op.call
    )
    tally.attempted += 1
    if error is not None:
        problem = f"raised {type(error).__name__}: {error}"
    else:
        try:
            problem = op.check(result)
        except Exception as exc:  # an unreadable result is a wrong result
            problem = f"check raised {type(exc).__name__}: {exc}"
    if problem:
        tally.failed += 1
        tally.failures.append(f"{op.label}: {problem}")
    elif op.refusal:
        tally.refused += 1
    return wall, scaled, result


def run_pass(ops, passes: Passes, tally: Tally, probe: SpeedProbe, tracer=None) -> None:
    """One pass over ``ops``; its time is the sum of the ops' timed regions."""
    import workloads

    began = time.perf_counter()
    gc.collect()
    total = total_wall = 0.0
    stdout_bytes = 0
    for i, op in enumerate(ops):
        wall, scaled, result = run_op(op, tally, probe, tracer)
        if tracer:
            tracer.fold(op.group, scaled / wall)
            if isinstance(result, workloads.CliResult):
                stdout_bytes += len(result.out.encode())
        passes.latencies[i].append(scaled)
        total += scaled
        total_wall += wall
    passes.pass_s.append(total)
    passes.pass_wall_s.append(total_wall)
    if tracer:
        layers = tracer.take()
        layers["counts"]["cli.stdout_bytes"] = stdout_bytes
        passes.layers.append(layers)
    passes.measured_s += time.perf_counter() - began


def tail_percentile(ops_per_pass: int) -> float:
    """The highest ladder percentile that leaves ten ops of one pass beyond it.

    It depends only on the workload's op list, so every run and every
    commit reports the same percentile.
    """
    best = 50
    for p in TAIL_LADDER:
        if ops_per_pass - math.ceil(p * ops_per_pass / 100) >= TAIL_BEYOND:
            best = p
    return best


def percentile(samples: list[float], p: float) -> float:
    """Nearest rank: the ceil(p n / 100)-th smallest of n samples."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def end_to_end_metrics(plain: Passes, setup_times: list[float]) -> dict:
    """``op_p50_ms`` pools every op of every pass.

    ``op_tail_ms`` is the median over passes of each pass's tail
    percentile, so one pass that the speed probe scaled badly cannot move it.
    """
    samples = [s for per_op in plain.latencies for s in per_op]
    tail = tail_percentile(len(plain.latencies))
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "run_s": _metric(statistics.median(plain.pass_s), "s"),
        "op_p50_ms": _metric(1000 * statistics.median(samples), "ms"),
        "op_tail_ms": _metric(1000 * statistics.median(
            percentile(list(one_pass), tail) for one_pass in zip(*plain.latencies)
        ), "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(plain: Passes, traced: Passes) -> tuple[dict, list[str]]:
    """The per-layer metrics, and the names of the ratios that are 0 / 0.

    A ratio whose denominator is 0 belongs to a layer that is idle on this
    workload.  The result line must still give it as a number, so it reads
    0 there and the run record lists its name.
    """
    import lib
    import tracing

    def count(name: str) -> float:
        return statistics.median(p["counts"][name] for p in traced.layers)

    def self_s(prefix: str) -> float:
        return statistics.median(
            sum(v for k, v in p["self_s"].items() if k == prefix or k.startswith(prefix + "."))
            for p in traced.layers
        )

    def outcomes(name: str, *kinds: str) -> float:
        return statistics.median(
            sum(p["outcomes"][(name, kind)] for kind in kinds) for p in traced.layers
        )

    undefined: list[str] = []

    def ratio(name: str, numerator: float, denominator: float) -> None:
        if not denominator:
            undefined.append(name)
        out[name] = _metric(numerator / denominator if denominator else 0.0, "ratio")

    out = {}
    for name in COUNTED:
        out[f"{name}.calls"] = _metric(count(f"{name}.calls"), "count")
    for name in TIMED:
        out[f"{name}.self_s"] = _metric(self_s(name), "s")
    for layer in lib.LAYERS:
        out[f"{layer}.self_s"] = _metric(self_s(layer), "s")
    out["bench.self_s"] = _metric(self_s(tracing.ROOT), "s")
    for name in (
        "prob.credence_lookup.calls", "prob.credence_new.calls",
        "decision.best_action.distinct_posteriors", "adversary.candidates",
        "problemfile.loads.bytes", "problemfile.dumps.bytes", "cli.stdout_bytes",
    ):
        out[name] = _metric(count(name), "bytes" if name.endswith("bytes") else "count")
    ratio(
        "decision.best_action.useful_ratio",
        count("decision.best_action.distinct_posteriors"), count("decision.best_action.calls"),
    )
    certificates = outcomes("adversary.demonstrate_aversion", tracing.SUCCESS)
    ratio("adversary.accept_ratio", certificates, count("adversary.candidates"))
    out["adversary.refusals"] = _metric(outcomes(
        "adversary.demonstrate_aversion", "IndependenceBrokenError", "NoDeviationError",
    ), "count")
    instances = outcomes("properties.random_conditionalization_instance", tracing.SUCCESS) + \
        outcomes("properties.random_mixture_instance", tracing.SUCCESS)
    attempts = count("properties.evaluate_attempts")
    ratio("properties.accept_ratio", instances, attempts)
    out["properties.tie_resamples"] = _metric(attempts - instances, "count")

    traced_run_s = statistics.median(traced.pass_s)
    plain_run_s = statistics.median(plain.pass_s)
    layers_s = sum(self_s(layer) for layer in lib.LAYERS)
    out["trace.run_s"] = _metric(traced_run_s, "s")
    out["trace.untraced_run_s"] = _metric(plain_run_s, "s")
    out["trace.overhead"] = _metric(traced_run_s / plain_run_s, "ratio")
    out["trace.layers_share"] = _metric(layers_s / traced_run_s, "ratio")
    out["trace.spans"] = _metric(count("spans"), "count")
    return out, undefined


COUNTED = (
    "decision.expected_utility", "decision.best_action",
    "updating.find_independence_violation", "voi.evaluate",
    "prob.probability", "prob.condition", "adversary.demonstrate_aversion",
    "problemfile.loads", "problemfile.dumps", "scenarios.build_scenario", "cli.main",
)
"""Functions whose call counts are reported."""

TIMED = COUNTED + (
    "decision.max_expected_utility", "decision.is_relevant",
    "updating.mixture_expand", "voi.val_good", "voi.val_general",
    "voi.cellwise_decomposition", "properties.property_suite", "scenarios.sweep",
)
"""Functions whose self times are reported."""


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def source_identity() -> dict:
    """The commit, if the tree is a git checkout, and a digest of ``src``."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    identity = {"src_sha256": digest.hexdigest(), "commit": None, "dirty": None}
    try:
        top = _git("rev-parse", "--show-toplevel")
        if Path(top).resolve() == ROOT:
            identity["commit"] = _git("rev-parse", "HEAD")
            identity["dirty"] = bool(_git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        pass
    return identity


def _git(*args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(ROOT), *args],
        capture_output=True, text=True, timeout=30, check=True,
    )
    return done.stdout.strip()


if __name__ == "__main__":
    sys.exit(main())
