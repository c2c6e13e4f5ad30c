"""Seeded instance generators and the randomized property suite."""

import random
from fractions import Fraction

import pytest

from infovalue import properties, updating, voi
from infovalue.cli import main
from infovalue.decision import (
    Action,
    ChoiceSet,
    DecisionProblem,
    OutcomeSpace,
)
from infovalue.errors import InfoValueError, ValidationError
from infovalue.prob import Credence, Event, StateSpace, condition
from infovalue.problemfile import dumps, loads
from infovalue.properties import (
    PROPERTY_NAMES,
    PropertyFailure,
    PropertyReport,
    _check_instance,
    _Instance,
    _random_conditionalization_instance,
    _random_deviation_spec,
    _random_mixture_instance,
    _random_problem,
    property_suite,
)
from infovalue.updating import (
    EvidencePartition,
    UpdatePolicy,
    _probe_ties,
    conditionalization_policy,
    deviating_states,
    mixture_expand,
)
from infovalue.voi import evaluate

from _oracles import (
    brute_first_declared_tie,
    brute_first_tie,
    brute_val_general,
    brute_val_good,
)


class TestPropertyNames:
    def test_the_six_checked_properties_in_report_order(self):
        assert PROPERTY_NAMES == (
            "evidential-independence",
            "classical-nonnegative",
            "strict-iff-relevant",
            "cellwise-reconstruction",
            "general-le-classical",
            "immodest-equality",
        )


class TestRandomProblem:
    def test_generated_problems_are_well_formed(self):
        """A spread of seeds: state bounds, positive prior, a partition."""
        for seed in range(20):
            problem, partition = _random_problem(random.Random(seed))
            n = len(problem.space)
            assert 2 <= n <= 8
            assert tuple(problem.space) == tuple(f"s{i + 1}" for i in range(n))
            assert all(problem.prior(s) > 0 for s in problem.space)
            assert sum(problem.prior(s) for s in problem.space) == 1
            covered = [s for cell in partition.cells for s in cell.sorted_members()]
            assert sorted(covered) == sorted(problem.space)
            assert len(covered) == len(set(covered))

    def test_state_bounds_are_respected(self):
        rng = random.Random(3)
        for _ in range(10):
            problem, _ = _random_problem(rng, 4, 4)
            assert len(problem.space) == 4

    def test_wide_cell_guarantee(self):
        for seed in range(30):
            _, partition = _random_problem(random.Random(seed), need_wide_cell=True)
            assert any(len(cell) >= 2 for cell in partition.cells)

    def test_same_seed_same_problem(self):
        a = _random_problem(random.Random(99))
        b = _random_problem(random.Random(99))
        assert a == b


class TestRandomDeviationSpec:
    def test_spec_deviates_somewhere(self):
        for seed in range(15):
            rng = random.Random(seed)
            problem, partition = _random_problem(rng, need_wide_cell=True)
            spec = _random_deviation_spec(rng, problem.prior, partition)
            assert 0 < spec.epsilon < 1
            assert spec.deviant_posteriors
            for cell, posterior in spec.deviant_posteriors.items():
                assert len(cell) >= 2
                assert posterior != condition(problem.prior, cell)

    def test_singleton_only_partition_is_rejected(self):
        rng = random.Random(0)
        while True:
            problem, partition = _random_problem(rng, 2, 3)
            if all(len(cell) == 1 for cell in partition.cells):
                break
        with pytest.raises(InfoValueError, match="singleton"):
            _random_deviation_spec(rng, problem.prior, partition)


class TestInstanceGenerators:
    def test_conditionalization_instance(self):
        instance = _random_conditionalization_instance(random.Random(5))
        assert instance.kind == "conditionalization"
        prior, partition = instance.problem.prior, instance.partition
        assert instance.policy == conditionalization_policy(prior, partition)
        assert deviating_states(instance.policy, instance.problem.prior) == ()
        assert instance.partition is instance.policy.partition
        evaluate(instance.problem, instance.policy)  # tie-free by construction

    def test_mixture_instance_is_modest(self):
        instance = _random_mixture_instance(random.Random(5))
        assert instance.kind == "mixture"
        assert deviating_states(instance.policy, instance.problem.prior)
        evaluate(instance.problem, instance.policy)

    def test_mixture_states_are_disposition_products(self):
        instance = _random_mixture_instance(random.Random(8))
        for state in instance.problem.space:
            assert state.endswith("·stay") or state.endswith("·deviate")

    def test_mixture_base_size_cap(self):
        for seed in range(10):
            instance = _random_mixture_instance(random.Random(seed), max_base_states=4)
            assert len(instance.problem.space) <= 8

    def test_instance_documents_round_trip(self):
        """Each generated instance can be saved, reloaded, and re-dumped."""
        for builder, seed in (
            (_random_conditionalization_instance, 2),
            (_random_mixture_instance, 2),
        ):
            instance = builder(random.Random(seed))
            text = dumps(instance.problem, instance.policy)
            problem, _, policy = loads(text)
            assert dumps(problem, policy) == text

    def test_same_seed_same_documents(self):
        docs_a = [
            _random_mixture_instance(random.Random(41)).document() for _ in range(1)
        ]
        docs_b = [
            _random_mixture_instance(random.Random(41)).document() for _ in range(1)
        ]
        assert docs_a == docs_b


@pytest.fixture(scope="module")
def clean_report():
    return property_suite(11, 30)


@pytest.fixture()
def forced_leak(monkeypatch):
    """Every cell's leak test reports its first group leaking through itself."""
    cell_pass = updating._cell_pass

    def leaking(problem, groups):
        cell_eus, weights, _ = cell_pass(problem, groups)
        chosen = next(iter(groups))
        return cell_eus, weights, (chosen, chosen)

    for module in (updating, voi):
        monkeypatch.setattr(module, "_cell_pass", leaking)


PROBE_DRAWS = 500


def conditionalization_draws():
    """Each seeded draw's probe result, and the instance built from it."""
    rng = random.Random(37)
    for _ in range(PROBE_DRAWS):
        problem, partition = _random_problem(rng)
        policy = conditionalization_policy(problem.prior, partition)
        yield _probe_ties(problem, partition, {}), problem, policy


def mixture_draws():
    """Each seeded draw's probe result, on the base, and the expansion."""
    rng = random.Random(37)
    for _ in range(PROBE_DRAWS):
        base, partition = _random_problem(rng, need_wide_cell=True)
        spec = _random_deviation_spec(rng, base.prior, partition)
        problem, policy = mixture_expand(base, partition, spec)
        yield _probe_ties(base, partition, spec.deviant_posteriors), problem, policy


class TestTieProbe:
    """The generators keep a draw when its base credences do not tie; that is
    sound only if no posterior of the built instance ties either, and
    complete only if a tie in the base always shows in the instance.  The
    oracle walks the built instance's positive-prior states."""

    def test_probe_decides_conditionalization_ties(self):
        outcomes = set()
        for tie, problem, policy in conditionalization_draws():
            probed = tie is not None
            assert probed == (brute_first_tie(problem, policy) is not None)
            outcomes.add(probed)
        assert outcomes == {True, False}

    def test_probe_decides_mixture_ties(self):
        outcomes = set()
        for tie, problem, policy in mixture_draws():
            probed = tie is not None
            assert probed == (brute_first_tie(problem, policy) is not None)
            outcomes.add(probed)
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "draws", [conditionalization_draws, mixture_draws], ids=["conditionalization", "mixture"]
    )
    def test_probe_returns_the_built_instances_first_declared_tie(self, draws):
        """The tie returned, acts and value, is the built instance's first,
        cells in declared order: the base's cell prior prices each act as
        the instance's stay states do, and its deviant as the deviate states."""
        outcomes = set()
        for tie, problem, policy in draws():
            assert tie == brute_first_declared_tie(problem, policy)
            outcomes.add(tie is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "order, tied, value",
        [
            ("cd ab", ("on-a", "on-b", "on-c"), Fraction(0)),
            ("ab cd", ("on-a", "on-b"), Fraction(1, 2)),
        ],
    )
    def test_probe_raises_the_first_declared_cells_tie(self, order, tied, value):
        """Cells in declared order, not state order, each on its conditioned
        prior and then on its deviant posterior.  Cell ab's prior ties on-a
        with on-b; cell cd's prior picks on-c, its deviant, sure of d, ties
        all three acts at 0."""
        space = StateSpace(("a", "b", "c", "d"))
        prior = Credence._from_weights(space, [1, 1, 1, 1])
        outcomes = OutcomeSpace(("zero", "one"), {"zero": 0, "one": 1})
        actions = tuple(
            Action(f"on-{x}", {s: "one" if s == x else "zero" for s in space}) for x in "abc"
        )
        problem = DecisionProblem(space, outcomes, prior, ChoiceSet(actions))
        cells = {name: Event(space, frozenset(name)) for name in ("ab", "cd")}
        partition = EvidencePartition(space, tuple(cells[name] for name in order.split()))
        deviant = {cells["cd"]: Credence._from_weights(space, [0, 0, 0, 1])}
        assert _probe_ties(problem, partition, deviant) == (tied, value)


class TestPropertySuite:
    def test_rejects_empty_runs(self):
        with pytest.raises(InfoValueError, match="at least 1"):
            property_suite(0, 0)

    @pytest.mark.parametrize(
        "seed, trials, message",
        [
            (0, True, "expected an exact rational, got bool True"),
            (0, 2.5, "expected an exact rational, got float 2.5; "
             "pass a Fraction, an int, or a string like '1/10'"),
            (0, "1/2", "trials must be an integer, got 1/2"),
            (0, "1_2", "expected an exact rational string like '3/4' or '-2', got '1_2'"),
            (Fraction(3, 2), 2, "seed must be an integer, got 3/2"),
            ("1.5", 2, "expected an exact rational string like '3/4' or '-2', got '1.5'"),
        ],
    )
    def test_arguments_are_integers_in_the_rational_grammar(self, seed, trials, message):
        with pytest.raises(ValidationError) as exc:
            property_suite(seed, trials)
        assert str(exc.value) == message

    def test_integer_strings_and_fractions_are_read_exactly(self):
        report = property_suite("-3", Fraction(4, 2))
        assert report == property_suite(-3, 2)
        assert type(report.seed) is type(report.trials) is int

    def test_all_properties_hold_on_random_instances(self, clean_report):
        assert clean_report.ok
        assert clean_report.failures == ()
        assert clean_report.seed == 11
        assert clean_report.trials == 30

    def test_checked_counts(self, clean_report):
        """Five properties run everywhere; the equality only on immodest policies.

        Even trials draw conditionalization (immodest), odd trials a mixture
        (guaranteed modest), so exactly half the instances get the sixth check.
        """
        for name in PROPERTY_NAMES[:-1]:
            assert clean_report.checked[name] == 30
        assert clean_report.checked["immodest-equality"] == 15

    def test_suite_is_deterministic(self, clean_report):
        assert property_suite(11, 30) == clean_report

    def test_different_seeds_differ(self, clean_report):
        other = property_suite(12, 30)
        assert other != clean_report

    def test_report_agrees_with_brute_oracle_on_a_small_run(self):
        """Re-generate the same stream and check the headline numbers directly."""
        report = property_suite(23, 6)
        assert report.ok
        rng = random.Random(23)
        for trial in range(6):
            if trial % 2 == 0:
                instance = _random_conditionalization_instance(rng)
            else:
                instance = _random_mixture_instance(rng)
            full = evaluate(instance.problem, instance.policy)
            assert full.val_good == brute_val_good(instance.problem, instance.partition)
            assert full.val_general == brute_val_general(
                instance.problem, instance.policy
            )
            assert full.val_general <= full.val_good

    def test_leaking_instance_is_reported_not_raised(self):
        """x1 alone is certain of itself and bets: choices leak, and the
        realized value 3/32 beats the classical 0."""
        space = StateSpace(("x1", "x2", "y"))
        prior = Credence(
            space,
            {"x1": Fraction(1, 4), "x2": Fraction(1, 4), "y": Fraction(1, 2)},
        )
        x_cell = Event(space, frozenset({"x1", "x2"}))
        y_cell = Event(space, frozenset({"y"}))
        outcomes = OutcomeSpace(
            ("zero", "one", "steady"),
            {"zero": 0, "one": 1, "steady": Fraction(5, 8)},
        )
        actions = (
            Action("bet1", {"x1": "one", "x2": "zero", "y": "zero"}),
            Action("keep", {s: "steady" for s in space}),
        )
        policy = UpdatePolicy(
            EvidencePartition(space, (x_cell, y_cell)),
            {
                "x1": Credence(space, {"x1": Fraction(1)}),
                "x2": condition(prior, x_cell),
                "y": condition(prior, y_cell),
            },
        )
        instance = _Instance(
            "leaking", DecisionProblem(space, outcomes, prior, ChoiceSet(actions)), policy
        )
        checked, failures = {}, []
        _check_instance(7, instance, checked, failures)
        assert [f.property_name for f in failures] == [
            "evidential-independence",
            "general-le-classical",
        ]
        assert failures[0].detail == (
            "choices reveal payoff-relevant information: choosing 'bet1' within "
            "cell {x1, x2} shifts the conditional expected utility of 'bet1'"
        )
        assert failures[1].detail == "val_general=3/32 exceeds val_good=0"
        assert failures[0].document == instance.document()
        assert "cellwise-reconstruction" not in checked
        assert checked["evidential-independence"] == 1

    def test_a_misfiring_leak_test_is_reported_not_raised(self, forced_leak):
        """Drawing an instance does not run the leak test, so its misfire
        shows as a counterexample on every trial."""
        report = property_suite(0, 4)
        assert [(f.trial, f.property_name) for f in report.failures] == [
            (trial, "evidential-independence") for trial in range(4)
        ]

    def test_check_exits_2_on_a_misfiring_leak_test(self, forced_leak, capsys):
        assert main(["check", "--trials", "4", "--seed", "0"]) == 2
        out = capsys.readouterr().out
        assert "4 trials from seed 0: COUNTEREXAMPLES FOUND" in out
        assert "counterexample (trial 0, conditionalization, evidential-independence)" in out

    def test_a_misreported_val_good_fails_the_reconstruction(self, monkeypatch, capsys):
        """evaluate's val_good off by one: the report's cell maxima no longer
        reproduce it, on every trial, while the suite's own val_good, read
        from the oracle, is right."""
        informed = voi._informed
        monkeypatch.setattr(voi, "_informed", lambda p, partition: informed(p, partition) + 1)
        monkeypatch.setattr(properties, "val_good", brute_val_good)
        report = property_suite(0, 4)
        assert [(f.trial, f.property_name) for f in report.failures] == [
            (trial, "cellwise-reconstruction") for trial in range(4)
        ]
        assert report.failures[0].detail.startswith(
            "cellwise and definitional routes disagree: per-cell table reconstructs "
            "val_good="
        )
        assert main(["check", "--trials", "4", "--seed", "0"]) == 2
        out = capsys.readouterr().out
        assert "4 trials from seed 0: COUNTEREXAMPLES FOUND" in out
        assert "counterexample (trial 0, conditionalization, cellwise-reconstruction)" in out

    def test_two_choice_maps_per_instance(self, monkeypatch):
        """val_general and evaluate each group states by chosen act once;
        nothing else the suite calls builds a choice map."""
        rng = random.Random(0)
        instances = [
            _random_conditionalization_instance(rng) if trial % 2 == 0
            else _random_mixture_instance(rng)
            for trial in range(12)
        ]
        build, calls = updating._choice_groups, []

        def counted(problem, policy):
            calls.append(problem)
            return build(problem, policy)

        for module in (updating, voi):
            monkeypatch.setattr(module, "_choice_groups", counted)
        for trial, instance in enumerate(instances):
            calls.clear()
            checked, failures = {}, []
            _check_instance(trial, instance, checked, failures)
            assert failures == []
            assert len(calls) <= 2, (trial, len(calls))

    def test_one_choice_map_per_instance_and_one_expansion_per_mixture(self, monkeypatch):
        """Ties are probed on each draw's base credences, so a draw that is
        thrown away is never expanded or evaluated: the suite's only choice
        map is each instance's evaluate."""
        choice_groups, expand = updating._choice_groups, properties.mixture_expand
        built = {"choice maps": 0, "expansions": 0}

        def counted_choice_groups(problem, policy):
            built["choice maps"] += 1
            return choice_groups(problem, policy)

        def counted_expand(*args):
            built["expansions"] += 1
            return expand(*args)

        for module in (updating, voi):
            monkeypatch.setattr(module, "_choice_groups", counted_choice_groups)
        monkeypatch.setattr(properties, "mixture_expand", counted_expand)
        assert property_suite(0, 12).ok
        assert built == {"choice maps": 12, "expansions": 6}


class TestPropertyReport:
    def test_format_table_shape(self, clean_report):
        lines = clean_report.format_table().splitlines()
        assert lines[0].split() == ["property", "checked", "failed"]
        assert len(lines) == len(PROPERTY_NAMES) + 2
        for name, line in zip(PROPERTY_NAMES, lines[1:-1]):
            assert line.startswith(name)
            assert line.split()[-1] == "0"
        assert lines[-1] == "30 trials from seed 11: all properties held"

    def test_failure_accounting(self):
        doc = {"states": []}
        failure = PropertyFailure(
            trial=3,
            kind="mixture",
            property_name="general-le-classical",
            detail="val_general=1 exceeds val_good=0",
            document=doc,
        )
        report = PropertyReport(
            seed=1, trials=4, checked={n: 4 for n in PROPERTY_NAMES}, failures=(failure,)
        )
        assert not report.ok
        assert report.failed("general-le-classical") == 1
        assert report.failed("classical-nonnegative") == 0
        assert report.format_table().endswith(
            "4 trials from seed 1: COUNTEREXAMPLES FOUND"
        )
