"""The three worked presets and the epsilon sweep around them."""

from fractions import Fraction
from pathlib import Path

import pytest

from infovalue import scenarios, updating
from infovalue.errors import ConfigError, InfoValueError, ValidationError
from infovalue.problemfile import dumps
from infovalue.scenarios import (
    GAMBLERS,
    RACE,
    SCENARIO_NAMES,
    UNKNOWN_BIAS,
    SweepRow,
    SweepTable,
    build_scenario,
    scenario_gamblers,
    scenario_race,
    scenario_unknown_bias,
    sweep,
    threshold,
)
from infovalue.updating import (
    CONDITIONALIZATION,
    deviating_states,
    is_immodest,
)
from infovalue.voi import evaluate, val_general, val_good

from _oracles import brute_val_general, brute_val_good


class TestRace:
    def test_learning_the_weather_is_worth_a_quarter(self):
        scenario = scenario_race()
        report = evaluate(scenario.problem, scenario.policy)
        assert report.baseline == 0
        assert report.val_good == Fraction(1, 4)
        assert report.val_general == Fraction(1, 4)

    def test_the_bettor_conditionalizes(self):
        scenario = scenario_race()
        assert scenario.policy.kind == CONDITIONALIZATION
        assert is_immodest(scenario.policy, scenario.problem.prior)

    def test_report_chooses_the_favored_horse_per_cell(self):
        scenario = scenario_race()
        report = evaluate(scenario.problem, scenario.policy)
        assert report.chosen_by_state == {
            "rain-a": "bet-a",
            "rain-b": "bet-a",
            "shine-a": "bet-b",
            "shine-b": "bet-b",
        }

    def test_oracle_agreement(self):
        scenario = scenario_race()
        assert brute_val_good(
            scenario.problem, scenario.policy.partition
        ) == Fraction(1, 4)


class TestGamblers:
    @pytest.mark.parametrize(
        "eps",
        [Fraction(0), Fraction(1, 100), Fraction(1, 10), Fraction(1, 2), Fraction(1)],
    )
    def test_value_of_learning_is_minus_half_epsilon(self, eps):
        scenario = scenario_gamblers(eps)
        assert val_good(scenario.problem, scenario.policy.partition) == 0
        assert val_general(scenario.problem, scenario.policy) == -eps / 2
        assert brute_val_general(scenario.problem, scenario.policy) == -eps / 2

    def test_modesty_degree_is_epsilon(self):
        """The deviating states' prior mass is the chance of the fallacy."""
        eps = Fraction(3, 7)
        scenario = scenario_gamblers(eps)
        prior = scenario.problem.prior
        assert sum(prior(s) for s in deviating_states(scenario.policy, prior)) == eps

    def test_epsilon_zero_is_immodest(self):
        scenario = scenario_gamblers(Fraction(0))
        assert is_immodest(scenario.policy, scenario.problem.prior)

    def test_fallacy_states_chase_the_opposite_face(self):
        scenario = scenario_gamblers(Fraction(1, 10))
        report = evaluate(scenario.problem, scenario.policy)
        assert report.chosen_by_state["hh·fallacy"] == "risky-tails"
        assert report.chosen_by_state["th·fallacy"] == "risky-heads"
        assert report.chosen_by_state["hh·bayes"] == "safe"

    def test_heads_cell_decomposition(self):
        scenario = scenario_gamblers(Fraction(1, 10))
        report = evaluate(scenario.problem, scenario.policy)
        heads = report.per_cell[0]
        assert heads.prob == Fraction(1, 2)
        assert heads.max_cond_eu == 0
        assert [(r.action_id, r.choose_prob, r.cond_eu) for r in heads.rows] == [
            ("safe", Fraction(9, 10), Fraction(0)),
            ("risky-tails", Fraction(1, 10), Fraction(-1, 2)),
        ]

    def test_value_is_affine_in_epsilon_with_slope_minus_half(self):
        samples = [Fraction(1, 8), Fraction(1, 3), Fraction(5, 6)]
        values = [
            val_general(s.problem, s.policy)
            for s in (scenario_gamblers(e) for e in samples)
        ]
        slope = (values[1] - values[0]) / (samples[1] - samples[0])
        assert slope == Fraction(-1, 2)
        # affine: the third point lies on the same line
        assert values[2] == values[0] + slope * (samples[2] - samples[0])


class TestUnknownBias:
    @pytest.mark.parametrize(
        "eps", [Fraction(0), Fraction(1, 10), Fraction(1, 7), Fraction(1, 2), Fraction(1)]
    )
    def test_closed_form_value(self, eps):
        scenario = scenario_unknown_bias(eps)
        assert val_good(scenario.problem, scenario.policy.partition) == Fraction(1, 3)
        expected = Fraction(1, 3) * (1 - eps) - 2 * eps
        assert val_general(scenario.problem, scenario.policy) == expected
        assert brute_val_general(scenario.problem, scenario.policy) == expected

    def test_break_even_point_is_one_seventh(self):
        at = scenario_unknown_bias(Fraction(1, 7))
        assert val_general(at.problem, at.policy) == 0
        below = scenario_unknown_bias(Fraction(1, 7) - Fraction(1, 1000))
        assert val_general(below.problem, below.policy) > 0
        above = scenario_unknown_bias(Fraction(1, 7) + Fraction(1, 1000))
        assert val_general(above.problem, above.policy) < 0

    def test_heads_cell_decomposition_at_the_break_even(self):
        scenario = scenario_unknown_bias(Fraction(1, 7))
        report = evaluate(scenario.problem, scenario.policy)
        heads = report.per_cell[0]
        assert [(r.action_id, r.choose_prob, r.cond_eu) for r in heads.rows] == [
            ("bet-heads", Fraction(6, 7), Fraction(1, 3)),
            ("v-risky-heads", Fraction(1, 7), Fraction(-2)),
        ]

    def test_slope_is_minus_seven_thirds(self):
        samples = [Fraction(0), Fraction(1, 4), Fraction(3, 4)]
        values = [
            val_general(s.problem, s.policy)
            for s in (scenario_unknown_bias(e) for e in samples)
        ]
        slope = (values[1] - values[0]) / (samples[1] - samples[0])
        assert slope == Fraction(-7, 3)
        assert values[2] == values[0] + slope * (samples[2] - samples[0])

    def test_tying_confidence_is_rejected(self):
        # at confidence 9/10 the reckless bet exactly ties the modest one
        with pytest.raises(ConfigError, match="tie at expected\\s+utility"):
            scenario_unknown_bias(Fraction(1, 7), Fraction(9, 10))

    def test_out_of_range_confidence_is_rejected(self):
        with pytest.raises(ConfigError, match="lie in"):
            scenario_unknown_bias(Fraction(1, 7), Fraction(11, 10))

    def test_alternative_confidence_changes_the_deviant_pick(self):
        # below the tie the fallacy self still prefers the modest bet, so
        # learning never hurts more than it helps
        mild = scenario_unknown_bias(Fraction(1, 2), Fraction(8, 10))
        assert val_general(mild.problem, mild.policy) == Fraction(1, 3)


class TestBuildScenario:
    def test_names_dispatch(self):
        assert build_scenario(RACE).name == RACE
        assert build_scenario(GAMBLERS, epsilon=Fraction(1, 2)).name == GAMBLERS
        assert build_scenario(UNKNOWN_BIAS, epsilon=Fraction(1, 7)).name == UNKNOWN_BIAS
        assert set(SCENARIO_NAMES) == {RACE, GAMBLERS, UNKNOWN_BIAS}

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            build_scenario("lottery")

    def test_race_takes_no_parameters(self):
        with pytest.raises(ConfigError, match="no epsilon"):
            build_scenario(RACE, epsilon=Fraction(1, 2))
        with pytest.raises(ConfigError, match="no confidence"):
            build_scenario(RACE, confidence=Fraction(1, 2))

    def test_gamblers_confidence_is_fixed(self):
        with pytest.raises(ConfigError, match="fixed fallacy confidence"):
            build_scenario(GAMBLERS, epsilon=Fraction(1, 2), confidence=Fraction(1, 2))

    def test_epsilon_defaults_to_zero(self):
        scenario = build_scenario(GAMBLERS)
        assert is_immodest(scenario.policy, scenario.problem.prior)

    def test_confidence_passes_through(self):
        scenario = build_scenario(
            UNKNOWN_BIAS, epsilon=Fraction(1, 2), confidence=Fraction(8, 10)
        )
        assert val_general(scenario.problem, scenario.policy) == Fraction(1, 3)


TESTS = Path(__file__).parent
PRESETS = TESTS / "presets"


class TestPresetFiles:
    """Each fallacy preset's problem file, pinned byte for byte to the
    text under ``tests/presets``, or for unknown-bias at ε = 1/5 to the
    file the ``unknown-bias-round-trip`` golden case writes."""

    @pytest.mark.parametrize(
        "name, epsilon, pinned",
        [
            (GAMBLERS, Fraction(1, 10), PRESETS / "gamblers-1_10.json"),
            (GAMBLERS, Fraction(0), PRESETS / "gamblers-0.json"),
            (
                UNKNOWN_BIAS,
                Fraction(1, 5),
                TESTS / "golden/unknown-bias-round-trip/out/unknown-bias.json",
            ),
            (UNKNOWN_BIAS, Fraction(0), PRESETS / "unknown-bias-0.json"),
        ],
        ids=lambda value: value.name if isinstance(value, Path) else None,
    )
    def test_dumps_matches_the_pinned_file(self, name, epsilon, pinned):
        scenario = build_scenario(name, epsilon=epsilon)
        text = pinned.read_text(encoding="utf-8")
        assert dumps(scenario.problem, scenario.policy) == text


class TestSweep:
    def test_rows_follow_the_requested_epsilons(self):
        table = sweep(GAMBLERS, [Fraction(0), Fraction(1, 2), Fraction(1)])
        assert table.scenario == GAMBLERS
        assert [r.epsilon for r in table.rows] == [
            Fraction(0),
            Fraction(1, 2),
            Fraction(1),
        ]
        assert [r.val_general for r in table.rows] == [
            Fraction(0),
            Fraction(-1, 4),
            Fraction(-1, 2),
        ]
        assert [r.decision for r in table.rows] == ["learn", "decline", "decline"]

    def test_break_even_counts_as_learn(self):
        table = sweep(UNKNOWN_BIAS, [Fraction(1, 7)])
        assert table.rows[0].val_general == 0
        assert table.rows[0].decision == "learn"

    def test_race_cannot_be_swept(self):
        with pytest.raises(ConfigError, match="no epsilon"):
            sweep(RACE, [Fraction(1, 2)])

    def test_string_epsilons_are_accepted(self):
        table = sweep(GAMBLERS, ["1/10"])
        assert table.rows[0].val_general == Fraction(-1, 20)

    def test_format_table_lines_up(self):
        table = sweep(GAMBLERS, [Fraction(0), Fraction(1, 10)])
        text = table.format_table()
        lines = text.splitlines()
        assert lines[0].split() == ["epsilon", "val_good", "val_general", "decision"]
        assert set(lines[1]) == {"-", " "}
        assert lines[2].split() == ["0", "0", "0", "learn"]
        assert lines[3].split() == ["1/10", "0", "-1/20", "decline"]

    def test_csv_output(self):
        table = sweep(GAMBLERS, [Fraction(1, 10)])
        assert table.to_csv() == (
            "epsilon,val_good,val_general,decision\n" "1/10,0,-1/20,decline\n"
        )


def outcome(call):
    """``call()``, or the type and text of the library error it raises."""
    try:
        return call()
    except InfoValueError as exc:
        return type(exc), str(exc)


def row_by_row(name, epsilons, confidence):
    """The sweep table built one scenario per epsilon, as the parent built it."""
    goods, rows = set(), []
    for epsilon in epsilons:
        scenario = build_scenario(name, epsilon=epsilon, confidence=confidence)
        goods.add(val_good(scenario.problem, scenario.policy.partition))
        rows.append(SweepRow(epsilon, val_general(scenario.problem, scenario.policy)))
    assert len(goods) <= 1  # val_good does not depend on epsilon
    return SweepTable(name, goods.pop() if goods else None, tuple(rows))


GRID = [Fraction(0), Fraction(1, 14), Fraction(1, 7), Fraction(1, 2), Fraction(1)]
BAD_RATIONAL = "expected an exact rational string like '3/4' or '-2', got 'x'"
TIE = "fallacy confidence 9/10 makes acts tie at expected utility 4/5: bet-heads, v-risky-heads"


class TestSweepBuildsOnce:
    @pytest.mark.parametrize(
        "name, confidence",
        [
            (GAMBLERS, None),
            (GAMBLERS, "1/2"),
            (UNKNOWN_BIAS, None),
            (UNKNOWN_BIAS, "1/2"),
            (UNKNOWN_BIAS, "1"),
        ],
    )
    def test_each_row_is_the_scenario_built_alone(self, name, confidence):
        assert outcome(lambda: sweep(name, GRID, confidence)) == outcome(
            lambda: row_by_row(name, GRID, confidence)
        )

    def test_a_sweep_expands_no_row(self, monkeypatch):
        """Rows come from two base evaluations; building one scenario
        still expands once, through the same counter."""
        expansions = []

        def counted(*args, **kwargs):
            expansions.append(args)
            return expand(*args, **kwargs)

        expand = scenarios.mixture_expand
        monkeypatch.setattr(scenarios, "mixture_expand", counted)
        monkeypatch.setattr(updating, "mixture_expand", counted)
        for name in (GAMBLERS, UNKNOWN_BIAS):
            assert len(sweep(name, GRID).rows) == len(GRID)
        assert expansions == []
        build_scenario(UNKNOWN_BIAS, epsilon=Fraction(1, 2))
        assert len(expansions) == 1

    @pytest.mark.parametrize(
        "name, epsilons, confidence, error, message",
        [
            (UNKNOWN_BIAS, ["x"], None, ValidationError, BAD_RATIONAL),
            (UNKNOWN_BIAS, ["2"], None, ValidationError, "epsilon must lie in [0, 1], got 2"),
            (
                UNKNOWN_BIAS, ["0"], "11/10", ConfigError,
                "fallacy confidence must lie in [0, 1], got 11/10",
            ),
            (UNKNOWN_BIAS, ["0"], "9/10", ConfigError, TIE),
            (UNKNOWN_BIAS, ["x"], "11/10", ValidationError, BAD_RATIONAL),
            (UNKNOWN_BIAS, ["x"], "9/10", ValidationError, BAD_RATIONAL),
            (
                UNKNOWN_BIAS, ["2"], "11/10", ConfigError,
                "fallacy confidence must lie in [0, 1], got 11/10",
            ),
            (UNKNOWN_BIAS, ["2"], "9/10", ValidationError, "epsilon must lie in [0, 1], got 2"),
            (UNKNOWN_BIAS, ["0", "2"], "9/10", ConfigError, TIE),
            (UNKNOWN_BIAS, ["1/2", "x"], "9/10", ConfigError, TIE),
            (
                UNKNOWN_BIAS, ["1/2", "2"], None, ValidationError,
                "epsilon must lie in [0, 1], got 2",
            ),
            (
                UNKNOWN_BIAS, ["1/2", "x"], "11/10", ConfigError,
                "fallacy confidence must lie in [0, 1], got 11/10",
            ),
            (UNKNOWN_BIAS, ["0"], "x", ValidationError, BAD_RATIONAL),
            (GAMBLERS, ["2"], None, ValidationError, "epsilon must lie in [0, 1], got 2"),
            (GAMBLERS, ["x"], "9/10", ValidationError, BAD_RATIONAL),
            (
                GAMBLERS, ["2"], "9/10", ConfigError,
                "the gamblers scenario has a fixed fallacy confidence of 9/10",
            ),
            (
                "lottery", ["0"], None, ConfigError,
                "unknown scenario 'lottery'; expected one of race, gamblers, unknown-bias",
            ),
            (
                RACE, ["x"], "9/10", ConfigError,
                "the race scenario has no epsilon parameter to sweep",
            ),
        ],
    )
    def test_refusals_name_the_first_fault(self, name, epsilons, confidence, error, message):
        """Rows are read in order; within a row the epsilon's syntax comes
        first, then the confidence, then the epsilon's range, then a tie."""
        with pytest.raises(error) as exc:
            sweep(name, epsilons, confidence)
        assert (type(exc.value), str(exc.value)) == (error, message)

    @pytest.mark.parametrize("name", [GAMBLERS, UNKNOWN_BIAS])
    def test_an_empty_grid_builds_nothing_and_refuses_nothing(self, name):
        assert sweep(name, [], confidence="2") == SweepTable(name, None, ())

    @pytest.mark.parametrize("epsilons", ["01", "1/2"])
    def test_a_bare_string_of_epsilons_is_refused(self, epsilons):
        with pytest.raises(ValidationError) as exc:
            sweep(GAMBLERS, epsilons)
        assert str(exc.value) == (
            f"epsilons must be a sequence of values, not the string {epsilons!r}"
        )


class TestThreshold:
    @pytest.mark.parametrize(
        "name, confidence, expected",
        [
            (UNKNOWN_BIAS, None, Fraction(1, 7)),
            (GAMBLERS, None, Fraction(0)),
            (UNKNOWN_BIAS, "1", Fraction(1, 7)),
            (UNKNOWN_BIAS, "0", Fraction(1, 19)),
            (UNKNOWN_BIAS, "91/100", Fraction(1, 7)),
        ],
    )
    def test_the_expansion_at_the_threshold_is_worth_exactly_nothing(
        self, name, confidence, expected
    ):
        epsilon = threshold(name, confidence)
        assert epsilon == expected
        scenario = build_scenario(name, epsilon=epsilon, confidence=confidence)
        assert val_general(scenario.problem, scenario.policy) == 0
        [row] = sweep(name, [epsilon], confidence).rows
        assert (row.val_general, row.decision) == (0, "learn")

    def test_learning_that_never_stops_paying_has_no_threshold(self):
        assert threshold(UNKNOWN_BIAS, "3/5") is None
        rows = sweep(UNKNOWN_BIAS, GRID, "3/5").rows
        assert all(row.decision == "learn" for row in rows)

    @pytest.mark.parametrize(
        "name, confidence, error, message",
        [
            (UNKNOWN_BIAS, "1/2", ConfigError, (
                "fallacy confidence 1/2 makes acts tie at expected utility 0: "
                "safe, bet-heads, bet-tails"
            )),
            (UNKNOWN_BIAS, "9/10", ConfigError, TIE),
            (UNKNOWN_BIAS, "11/10", ConfigError, "fallacy confidence must lie in [0, 1], got 11/10"),
            (UNKNOWN_BIAS, "x", ValidationError, BAD_RATIONAL),
            (GAMBLERS, "9/10", ConfigError, "the gamblers scenario has a fixed fallacy confidence of 9/10"),
            ("lottery", None, ConfigError, (
                "unknown scenario 'lottery'; expected one of race, gamblers, unknown-bias"
            )),
            (RACE, None, ConfigError, "the race scenario has no epsilon parameter to sweep"),
        ],
    )
    def test_refuses_what_sweep_refuses(self, name, confidence, error, message):
        assert outcome(lambda: threshold(name, confidence)) == (error, message)
        assert outcome(lambda: sweep(name, [Fraction(1, 2)], confidence)) == (error, message)
