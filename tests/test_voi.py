"""The two value functionals, the per-cell decomposition, and the report."""

import dataclasses
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from infovalue import decision, prob, updating, voi
from infovalue.decision import (
    Action,
    ChoiceSet,
    DecisionProblem,
    OutcomeSpace,
    best_action,
    is_relevant,
)
from infovalue.errors import (
    IndependenceBrokenError,
    InfoValueError,
    SpaceMismatchError,
    ValidationError,
    ZeroProbabilityError,
)
from infovalue.prob import Credence, Event, EvidencePartition, StateSpace, condition
from infovalue.scenarios import GAMBLERS, build_scenario
from infovalue.updating import (
    DeviationSpec,
    UpdatePolicy,
    conditionalization_policy,
    deviating_states,
    mixture_expand,
)
from infovalue.voi import (
    LemmaOneRow,
    PerCell,
    VoiReport,
    evaluate,
    val_general,
    val_good,
)

from _oracles import (
    brute_deviating_states,
    brute_independence_witness,
    brute_reconstructs,
    brute_val_general,
    brute_val_good,
    dist_of,
    first_best,
)
from _refusals import refusal

SPACE = StateSpace(("a", "b", "c", "d"))
LEFT = Event(SPACE, frozenset({"a", "b"}))
RIGHT = Event(SPACE, frozenset({"c", "d"}))
PARTITION = EvidencePartition(SPACE, (LEFT, RIGHT))


def four_state_problem():
    """Left cell wants the bet, right cell wants to pass: val_good is 1/2."""
    prior = Credence(SPACE, {s: Fraction(1, 4) for s in SPACE})
    outcomes = OutcomeSpace(
        ("nil", "good", "bad"), {"nil": 0, "good": 1, "bad": -1}
    )
    actions = (
        Action("pass", {s: "nil" for s in SPACE}),
        Action("bet-left", {"a": "good", "b": "good", "c": "bad", "d": "bad"}),
        Action("bet-a", {"a": "good", "b": "bad", "c": "bad", "d": "bad"}),
    )
    return DecisionProblem(SPACE, outcomes, prior, ChoiceSet(actions))


def trap_problem():
    """Two states, one cell: a distorted posterior walks into a losing bet.

    Learning carries no classical value here (the single cell is the whole
    space) but an agent who would adopt the skewed posterior pays for it.
    """
    space = StateSpace(("g", "h"))
    whole = Event(space, frozenset({"g", "h"}))
    partition = EvidencePartition(space, (whole,))
    prior = Credence(space, {"g": Fraction(1, 2), "h": Fraction(1, 2)})
    outcomes = OutcomeSpace(("nil", "win", "lose"), {"nil": 0, "win": 1, "lose": -2})
    actions = (
        Action("safe", {"g": "nil", "h": "nil"}),
        Action("bet", {"g": "win", "h": "lose"}),
    )
    problem = DecisionProblem(space, outcomes, prior, ChoiceSet(actions))
    skewed = Credence(space, {"g": Fraction(9, 10), "h": Fraction(1, 10)})
    policy = UpdatePolicy(partition, {"g": skewed, "h": skewed})
    return problem, policy, whole


def perturbed_instance():
    """:func:`four_state_problem` with every state holding its own posterior.

    State ``t`` believes ``9/10`` of the prior conditioned on its cell plus
    ``1/10`` on ``t`` itself.  Each cell still chooses one act (bet-left on
    the left, pass on the right), so choices carry no information.
    """
    posteriors = {
        t: Credence(
            SPACE,
            {s: Fraction(9, 20) + (Fraction(1, 10) if s == t else 0) for s in cell.members},
        )
        for cell in PARTITION.cells
        for t in cell.members
    }
    return four_state_problem(), UpdatePolicy(PARTITION, posteriors)


class TestValGood:
    def test_four_state_problem_by_hand(self):
        problem = four_state_problem()
        # left cell: bet-left pays 1; right cell: pass pays 0; the prior's
        # best is bet-left breaking even at 0, so the whole gain is 1/2
        assert val_good(problem, PARTITION) == Fraction(1, 2)

    def test_agrees_with_the_brute_oracle(self):
        problem = four_state_problem()
        assert val_good(problem, PARTITION) == brute_val_good(problem, PARTITION)

    def test_trivial_partition_is_worthless(self):
        problem = four_state_problem()
        whole = EvidencePartition(SPACE, (Event(SPACE, frozenset(SPACE.states)),))
        assert val_good(problem, whole) == 0

    def test_zero_when_irrelevant_positive_when_relevant(self):
        problem = four_state_problem()
        assert is_relevant(problem, PARTITION)
        assert val_good(problem, PARTITION) > 0

    def test_space_mismatch(self):
        problem, _, _ = trap_problem()
        with pytest.raises(ValidationError):
            val_good(problem, PARTITION)

    def test_space_mismatch_has_its_own_type(self):
        problem, _, _ = trap_problem()
        assert refusal(lambda: val_good(problem, PARTITION)) == (
            SpaceMismatchError, "val_good", "partition is not over the problem's space"
        )

    def test_cell_scores_refuse_as_conditioning_would(self):
        """The cells are scored on the prior's own columns, and refuse what
        conditioning the prior on them would: another space, or a cell of
        prior probability 0.  The refusal comes from the one reader of the
        prior on a cell, which conditioning also calls."""
        problem, _, _ = trap_problem()
        assert refusal(lambda: voi._informed(problem, PARTITION)) == (
            SpaceMismatchError, "_cell_weights", "event and credence live on different spaces"
        )
        lopsided = dataclasses.replace(
            four_state_problem(), prior=Credence(SPACE, {"a": 1})
        )
        assert refusal(lambda: val_good(lopsided, PARTITION)) == (
            ZeroProbabilityError,
            "_cell_weights",
            "cannot condition on zero-probability event {c, d}",
        )


class TestSophisticatedChoice:
    def test_follows_the_posterior_not_the_prior(self):
        problem, policy, _ = trap_problem()
        assert evaluate(problem, policy).chosen_by_state == {"g": "bet", "h": "bet"}


class TestValGeneral:
    def test_trap_policy_loses_half(self):
        problem, policy, _ = trap_problem()
        # the skewed posterior takes the bet everywhere: EU -1/2 against baseline 0
        assert val_general(problem, policy) == Fraction(-1, 2)
        assert val_good(problem, policy.partition) == 0

    def test_conditionalization_matches_val_good(self):
        problem = four_state_problem()
        policy = conditionalization_policy(problem.prior, PARTITION)
        assert val_general(problem, policy) == val_good(problem, PARTITION)

    def test_agrees_with_the_brute_oracle(self):
        problem, policy, _ = trap_problem()
        assert val_general(problem, policy) == brute_val_general(problem, policy)


class TestLemmaOneDecomposition:
    def test_conditionalization_gives_one_full_weight_row(self):
        problem = four_state_problem()
        policy = conditionalization_policy(problem.prior, PARTITION)
        rows = evaluate(problem, policy).per_cell[0].rows
        assert len(rows) == 1
        (row,) = rows
        assert row.action_id == "bet-left"
        assert row.choose_prob == 1
        assert row.cond_eu == 1
        assert row.states == ("a", "b")

    def test_trap_cell_rows(self):
        problem, policy, _ = trap_problem()
        (cell,) = evaluate(problem, policy).per_cell
        rows = cell.rows
        assert [(r.action_id, r.choose_prob, r.cond_eu, r.states) for r in rows] == [
            ("bet", Fraction(1), Fraction(-1, 2), ("g", "h"))
        ]

    def test_zero_probability_cell_is_an_error(self):
        space = StateSpace(("g", "h"))
        cells = (
            Event(space, frozenset({"g"})),
            Event(space, frozenset({"h"})),
        )
        partition = EvidencePartition(space, cells)
        prior = Credence(space, {"g": Fraction(1)})
        outcomes = OutcomeSpace(("nil",), {"nil": 0})
        problem = DecisionProblem(
            space,
            outcomes,
            prior,
            ChoiceSet((Action("safe", {"g": "nil", "h": "nil"}),)),
        )
        point = {
            "g": Credence(space, {"g": Fraction(1)}),
            "h": Credence(space, {"h": Fraction(1)}),
        }
        policy = UpdatePolicy(partition, point)
        with pytest.raises(ZeroProbabilityError, match="zero-probability event"):
            evaluate(problem, policy)
        with pytest.raises(ZeroProbabilityError):
            val_good(problem, partition)
        # the definitional value sums over states that can obtain
        assert val_general(problem, policy) == 0

    def test_broken_independence_raises_with_witness(self):
        space = StateSpace(("x1", "x2", "y"))
        prior = Credence(
            space,
            {"x1": Fraction(1, 4), "x2": Fraction(1, 4), "y": Fraction(1, 2)},
        )
        x_cell = Event(space, frozenset({"x1", "x2"}))
        y_cell = Event(space, frozenset({"y"}))
        partition = EvidencePartition(space, (x_cell, y_cell))
        outcomes = OutcomeSpace(
            ("zero", "one", "steady"),
            {"zero": 0, "one": 1, "steady": Fraction(5, 8)},
        )
        actions = (
            Action("bet1", {"x1": "one", "x2": "zero", "y": "zero"}),
            Action("keep", {s: "steady" for s in space}),
        )
        problem = DecisionProblem(space, outcomes, prior, ChoiceSet(actions))
        policy = UpdatePolicy(
            partition,
            {
                "x1": Credence(space, {"x1": Fraction(1)}),
                "x2": condition(prior, x_cell),
                "y": condition(prior, y_cell),
            },
        )
        with pytest.raises(IndependenceBrokenError) as exc:
            evaluate(problem, policy)
        assert exc.value.cell == x_cell
        assert exc.value.chosen_action == "bet1"

    def test_cellwise_covers_the_partition_in_order(self):
        problem = four_state_problem()
        policy = conditionalization_policy(problem.prior, PARTITION)
        cells = evaluate(problem, policy).per_cell
        assert [c.cell for c in cells] == [LEFT, RIGHT]
        assert [c.prob for c in cells] == [Fraction(1, 2), Fraction(1, 2)]
        assert [c.max_cond_eu for c in cells] == [Fraction(1), Fraction(0)]

    def test_via_cells_route_matches_the_definitional_route(self):
        problem, policy, _ = trap_problem()
        cells = evaluate(problem, policy).per_cell
        informed = sum((c.prob * c.realized_eu() for c in cells), Fraction(0))
        baseline = best_action(problem.prior, problem)[1]
        assert informed - baseline == val_general(problem, policy)


def one_row_cell(cell, prob=1):
    """A cell whose one row, for act ``x``, names all of its members."""
    return PerCell(cell, prob, 0, [LemmaOneRow("x", 1, 0, cell.sorted_members())])


OTHER_SPACE = StateSpace(("c", "d"))
MIDDLE = Event(SPACE, frozenset({"b", "c"}))


class TestRowAndCellValidation:
    def test_choose_prob_bounds(self):
        with pytest.raises(ValidationError, match="choose_prob"):
            LemmaOneRow("pass", Fraction(0), Fraction(0), ("a",))
        with pytest.raises(ValidationError, match="choose_prob"):
            LemmaOneRow("pass", Fraction(3, 2), Fraction(0), ("a",))

    def test_cell_rows_must_sum_to_one(self):
        row = LemmaOneRow("pass", Fraction(1, 2), Fraction(0), ("a",))
        with pytest.raises(ValidationError, match="sum"):
            PerCell(LEFT, Fraction(1, 2), Fraction(0), (row,))

    def test_rows_cannot_beat_the_recorded_maximum(self):
        row = LemmaOneRow("pass", Fraction(1), Fraction(2), ("a", "b"))
        with pytest.raises(ValidationError, match="beats"):
            PerCell(LEFT, Fraction(1, 2), Fraction(1), (row,))

    def test_cell_probability_must_be_positive(self):
        row = LemmaOneRow("pass", Fraction(1), Fraction(0), ("a", "b"))
        with pytest.raises(ValidationError, match="positive"):
            PerCell(LEFT, Fraction(0), Fraction(0), (row,))

    def test_fields_read_the_rational_grammar(self):
        row = LemmaOneRow("x", "1/2", 0, ["a"])
        assert (row.choose_prob, row.cond_eu, row.states) == (Fraction(1, 2), 0, ("a",))
        rows = (row, LemmaOneRow("y", "1/2", "-1/3", ("b",)))
        cell = PerCell(LEFT, "1", "0", rows)
        assert (cell.prob, cell.max_cond_eu) == (1, 0)
        assert cell.realized_eu() == Fraction(-1, 6)
        report = VoiReport("1/6", "-1/6", "-1/3", (cell,))
        assert (report.baseline, report.val_good, report.val_general) == (
            Fraction(1, 6), Fraction(-1, 6), Fraction(-1, 3)
        )
        for value in (
            row.choose_prob, row.cond_eu, cell.prob, cell.max_cond_eu,
            report.baseline, report.val_good, report.val_general,
        ):
            assert type(value) is Fraction

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LemmaOneRow("x", 1.0, Fraction(1, 4), ("a",)),
            lambda: PerCell(LEFT, 1.0, Fraction(1, 4), (LemmaOneRow("x", 1, 0, ("a",)),)),
            lambda: VoiReport(1.0, 0, 0, ()),
        ],
        ids=["row", "cell", "report"],
    )
    def test_floats_are_refused(self, build):
        assert refusal(build) == (
            ValidationError,
            "_ratio",
            "expected an exact rational, got float 1.0; "
            "pass a Fraction, an int, or a string like '1/10'",
        )

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: LemmaOneRow(5, 1, 0, ("a",)), "action_id must be of type str, not int"),
            (
                lambda: LemmaOneRow("x", 1, 0, 5),
                "states must be of type Iterable, not int",
            ),
            (
                lambda: PerCell(None, 1, 0, [LemmaOneRow("x", 1, 0, ("a",))]),
                "cell must be of type Event, not NoneType",
            ),
            (lambda: PerCell(LEFT, 1, 0, 5), "rows must be of type Iterable, not int"),
            (
                lambda: PerCell(LEFT, 1, 0, ["x"]),
                "rows[0] must be of type LemmaOneRow, not str",
            ),
            (lambda: VoiReport(0, 0, 0, 5), "per_cell must be of type Iterable, not int"),
            (
                lambda: VoiReport(0, 0, 0, ["x"]),
                "per_cell[0] must be of type PerCell, not str",
            ),
        ],
        ids=[
            "row-action-id", "row-states-not-iterable", "cell-no-cell",
            "cell-rows-not-iterable", "cell-non-row", "report-cells-not-iterable",
            "report-non-cell",
        ],
    )
    def test_wrong_typed_fields_are_refused(self, build, message):
        assert refusal(build) == (ValidationError, "_check_types", message)

    @pytest.mark.parametrize(
        "build, location, message",
        [
            (
                lambda: LemmaOneRow("y", "1/2", 0, ()),
                "LemmaOneRow.__post_init__",
                "row for 'y' names no state",
            ),
            (
                lambda: PerCell(
                    LEFT, 1, 0,
                    [LemmaOneRow("x", "1/2", 0, ("a",)), LemmaOneRow("x", "1/2", 0, ("b",))],
                ),
                "PerCell.__post_init__",
                "cell {a, b} has two rows for action 'x'",
            ),
            (
                lambda: PerCell(LEFT, 1, 0, [LemmaOneRow("x", 1, 0, ("a", "zz", 7))]),
                "PerCell.__post_init__",
                "rows in cell {a, b} name states outside it or twice: ['zz', 7]",
            ),
            (
                lambda: PerCell(LEFT, 1, 0, [LemmaOneRow("x", 1, 0, ("a", ["b"]))]),
                "PerCell.__post_init__",
                "rows in cell {a, b} name states outside it or twice: [['b']]",
            ),
            (
                lambda: PerCell(
                    LEFT, 1, 0,
                    [LemmaOneRow("x", "1/2", 0, ("a", "b")), LemmaOneRow("y", "1/2", 0, ("b",))],
                ),
                "PerCell.__post_init__",
                "rows in cell {a, b} name states outside it or twice: ['b']",
            ),
            (
                lambda: PerCell(LEFT, 1, 0, [LemmaOneRow("x", 1, 0, ("a", "a"))]),
                "PerCell.__post_init__",
                "rows in cell {a, b} name states outside it or twice: ['a']",
            ),
            (
                lambda: VoiReport(
                    0, 0, 0, [one_row_cell(LEFT, "1/2"), one_row_cell(LEFT, "1/2")]
                ),
                "VoiReport.__post_init__",
                "report cell {a, b} overlaps an earlier cell",
            ),
            (
                lambda: VoiReport(
                    0, 0, 0, [one_row_cell(LEFT, "1/2"), one_row_cell(MIDDLE, "1/2")]
                ),
                "VoiReport.__post_init__",
                "report cell {b, c} overlaps an earlier cell",
            ),
            (
                lambda: VoiReport(
                    0, 0, 0,
                    [
                        one_row_cell(LEFT, "1/2"),
                        one_row_cell(Event(OTHER_SPACE, {"c", "d"}), "1/2"),
                    ],
                ),
                "VoiReport.__post_init__",
                "report cell {c, d} is not on the first cell's space",
            ),
        ],
        ids=[
            "row-names-no-state", "cell-two-rows-one-act", "row-states-outside-cell",
            "row-state-unhashable", "cell-state-in-two-rows", "row-names-state-twice",
            "report-cell-listed-twice", "report-cells-overlap", "report-cells-two-spaces",
        ],
    )
    def test_tables_that_disagree_are_refused(self, build, location, message):
        """A row names at least one state, a cell names each act and each
        state at most once and only its own states, and a report's cells
        are disjoint events on one space."""
        assert refusal(build) == (ValidationError, location, message)

    def test_realized_eu_weights_rows(self):
        rows = (
            LemmaOneRow("pass", Fraction(3, 4), Fraction(0), ("a",)),
            LemmaOneRow("bet-left", Fraction(1, 4), Fraction(1), ("b",)),
        )
        cell = PerCell(LEFT, Fraction(1, 2), Fraction(1), rows)
        assert cell.realized_eu() == Fraction(1, 4)


class TestVoiReport:
    def test_evaluate_cross_checks_and_reports(self):
        problem, policy, whole = trap_problem()
        report = evaluate(problem, policy)
        assert report.baseline == 0
        assert report.val_good == 0
        assert report.val_general == Fraction(-1, 2)
        assert report.chosen_by_state == {"g": "bet", "h": "bet"}
        assert len(report.per_cell) == 1
        assert report.per_cell[0].cell == whole

    def test_tampered_headline_numbers_are_rejected(self):
        problem, policy, _ = trap_problem()
        report = evaluate(problem, policy)
        with pytest.raises(ValidationError, match="val_good"):
            dataclasses.replace(report, val_good=report.val_good + 1)
        with pytest.raises(ValidationError, match="val_general"):
            dataclasses.replace(report, val_general=Fraction(0))
        # a shifted baseline breaks the val_good reconstruction first
        with pytest.raises(ValidationError, match="val_good"):
            dataclasses.replace(report, baseline=report.baseline + 1)

    def test_the_prior_is_scored_once(self, monkeypatch):
        """The baseline is the one expected-utility maximum evaluate takes,
        and it is the prior's, scored once by ``_scores``: no credence is
        conditioned and no probability, expected utility or maximum is
        taken, so val_good's cells are scored on the prior's own columns.
        Gamblers, and a policy whose every state holds its own posterior,
        still evaluate to the oracle's values."""
        gamblers = build_scenario(GAMBLERS, epsilon=Fraction(1, 10))
        instances = [(gamblers.problem, gamblers.policy), perturbed_instance()]
        expected = [evaluate(problem, policy) for problem, policy in instances]
        scores = []

        def counted_scores(problem, credence):
            scores.append(credence)
            return score(problem, credence)

        def forbidden(*args, **kwargs):
            raise AssertionError("evaluate conditioned or priced a credence")

        score = DecisionProblem._scores
        names = ("condition", "probability", "expected_utility", "best_action")
        for module in (prob, decision, updating, voi):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(DecisionProblem, "_scores", counted_scores)
        for (problem, policy), report in zip(instances, expected):
            scores.clear()
            assert evaluate(problem, policy) == report
            assert scores == [problem.prior]
            assert scores[0] is problem.prior
        for (problem, policy), report in zip(instances, expected):
            assert report.val_good == brute_val_good(problem, policy.partition)
            assert report.val_general == brute_val_general(problem, policy)

    def test_values_stay_integers_until_the_report(self, monkeypatch):
        """evaluate, val_good and val_general add, subtract, multiply, divide
        and negate no Fraction, and voi builds one Fraction per reported
        number: each value, the baseline, and each cell's prob, max_cond_eu
        and rows' choose_prob and cond_eu, where a row at the cell's maximum
        shares the maximum's Fraction."""
        gamblers = build_scenario(GAMBLERS, epsilon=Fraction(1, 10))
        instances = [
            (gamblers.problem, gamblers.policy), perturbed_instance(), trap_problem()[:2]
        ]
        expected = [
            (evaluate(problem, policy), val_good(problem, policy.partition),
             val_general(problem, policy))
            for problem, policy in instances
        ]

        def forbidden(*args):
            raise AssertionError("Fraction arithmetic")

        for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__"):
            monkeypatch.setattr(Fraction, name, forbidden)
        built = []

        def counted(*args):
            built.append(Fraction(*args))
            return built[-1]

        monkeypatch.setattr(voi, "Fraction", counted)
        for (problem, policy), (report, good, general) in zip(instances, expected):
            built.clear()
            assert evaluate(problem, policy) == report
            reported = [report.baseline, report.val_good, report.val_general]
            for cell in report.per_cell:
                reported += [cell.prob, cell.max_cond_eu]
                for row in cell.rows:
                    reported.append(row.choose_prob)
                    if row.cond_eu != cell.max_cond_eu:
                        reported.append(row.cond_eu)
            assert sorted(built) == sorted(reported)
            built.clear()
            assert val_good(problem, policy.partition) == good
            assert built == [good]
            built.clear()
            assert val_general(problem, policy) == general
            assert built == [general]

    def test_equality_and_hash_follow_the_fields(self):
        problem, policy, _ = trap_problem()
        report = evaluate(problem, policy)
        again = evaluate(problem, policy)
        assert report == again
        assert hash(report) == hash(again)
        (cell,) = report.per_cell
        (row,) = cell.rows
        narrowed = dataclasses.replace(row, states=("g",))
        relabeled = dataclasses.replace(
            report, per_cell=(dataclasses.replace(cell, rows=(narrowed,)),)
        )
        assert relabeled != report
        assert hash(relabeled) != hash(report)
        assert relabeled.chosen_by_state == {"g": "bet"}

    def test_rows_and_cells_are_stored_as_tuples(self):
        """A list of rows or of cells is stored as a tuple, as ChoiceSet does."""
        rows = [LemmaOneRow("x", 1, 0, ["a", "b"])]
        cell = PerCell(LEFT, 1, 0, rows)
        assert cell == PerCell(LEFT, 1, 0, tuple(rows))
        assert hash(cell) == hash(PerCell(LEFT, 1, 0, tuple(rows)))
        report = VoiReport(0, 0, 0, [cell])
        assert report == VoiReport(0, 0, 0, (cell,))
        assert hash(report) == hash(VoiReport(0, 0, 0, (cell,)))
        assert type(cell.rows) is type(report.per_cell) is type(rows[0].states) is tuple

    def test_cell_probabilities_must_cover_everything(self):
        problem = four_state_problem()
        policy = conditionalization_policy(problem.prior, PARTITION)
        report = evaluate(problem, policy)
        with pytest.raises(ValidationError, match="sum to 1"):
            dataclasses.replace(report, per_cell=report.per_cell[:1])


@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=4, max_size=4),
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
        min_size=1,
        max_size=4,
    ),
)
def test_conditionalization_never_beats_or_trails_val_good(weights, tables):
    """Theorem-1 shape on random instances: immodesty means the values agree."""
    total = sum(weights)
    prior = Credence(SPACE, {s: Fraction(w, total) for s, w in zip(SPACE, weights)})
    outcomes = sorted({v for row in tables for v in row})
    outcome_space = OutcomeSpace(
        tuple(f"o{v}" for v in outcomes), {f"o{v}": Fraction(v) for v in outcomes}
    )
    actions = tuple(
        Action(f"a{i}", {s: f"o{v}" for s, v in zip(SPACE, row)})
        for i, row in enumerate(tables)
    )
    problem = DecisionProblem(SPACE, outcome_space, prior, ChoiceSet(actions))
    policy = conditionalization_policy(prior, PARTITION)
    classical = val_good(problem, PARTITION)
    assert val_general(problem, policy) == classical
    assert classical == brute_val_good(problem, PARTITION)
    assert classical >= 0


@st.composite
def tied_mixtures(draw):
    """Mixture instances whose choice sets repeat acts under fresh ids.

    A repeated act ties with its original under every posterior, and
    small payoffs make chance ties between distinct acts common too.
    Every expanded cell holds four states but only two posteriors, so
    states share posteriors and so share choices.
    """
    weights = draw(st.lists(st.integers(1, 9), min_size=4, max_size=4))
    total = sum(weights)
    prior = Credence(SPACE, {s: Fraction(w, total) for s, w in zip(SPACE, weights)})
    tables = draw(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=4, max_size=4), min_size=1, max_size=3
        )
    )
    order = draw(
        st.lists(st.integers(0, len(tables) - 1), min_size=len(tables) + 1, max_size=6)
    )
    outcomes = OutcomeSpace(
        tuple(f"o{v}" for v in range(-2, 3)), {f"o{v}": v for v in range(-2, 3)}
    )
    actions = tuple(
        Action(f"a{i}-t{t}", {s: f"o{v}" for s, v in zip(SPACE, tables[t])})
        for i, t in enumerate(order)
    )
    problem = DecisionProblem(SPACE, outcomes, prior, ChoiceSet(actions))
    skew = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2).filter(any))
    deviant = Credence(
        SPACE, {s: Fraction(w, sum(skew)) for s, w in zip(LEFT.sorted_members(), skew)}
    )
    epsilon = Fraction(draw(st.integers(1, 15)), 16)
    return mixture_expand(problem, PARTITION, DeviationSpec(epsilon, {LEFT: deviant}))


def held_apart(base, law, cell_of, pools, payoffs):
    """A policy whose every state holds its own posterior object.

    A state ``b{i}d{j}`` pairs base state ``i`` with disposition ``j``, and
    the prior is the product of the weights ``base[i] * law[j]``.  Base
    state ``i`` lies in cell ``cell_of[i]``; the cells are declared against
    state order, the one holding the last base state first.  Act ``k`` pays
    ``payoffs[k][i]`` at every state of base state ``i``.  In cell ``c``,
    disposition ``j`` holds the posterior ``pools[c][j % len(pools[c])]``:
    integer weights over the cell's base states in state order, each
    spread evenly over that base state's dispositions.  Choices depend on
    the disposition and payoffs on the base state, and the two are
    independent, so choices never leak.  Equal weights give equal
    posteriors, each state its own object.
    """
    pairs = [(i, j) for i in range(len(base)) for j in range(len(law))]
    name = {(i, j): f"b{i}d{j}" for i, j in pairs}
    space = StateSpace([name[p] for p in pairs])
    total = sum(base) * sum(law)
    prior = Credence(
        space, {name[i, j]: Fraction(base[i] * law[j], total) for i, j in pairs}
    )
    labels = sorted(set(cell_of), key=cell_of.index, reverse=True)
    bases = {c: [i for i, label in enumerate(cell_of) if label == c] for c in labels}
    partition = EvidencePartition(
        space,
        tuple(
            Event(space, frozenset(name[i, j] for i in bases[c] for j in range(len(law))))
            for c in labels
        ),
    )
    posteriors = {}
    for c in labels:
        for j in range(len(law)):
            weights = pools[c][j % len(pools[c])]
            spread = sum(weights) * len(law)
            for i in bases[c]:
                posteriors[name[i, j]] = Credence(
                    space,
                    {
                        name[b, d]: Fraction(w, spread)
                        for b, w in zip(bases[c], weights)
                        for d in range(len(law))
                    },
                )
    values = sorted({v for row in payoffs for v in row})
    outcomes = OutcomeSpace(tuple(f"o{v}" for v in values), {f"o{v}": v for v in values})
    actions = tuple(
        Action(f"a{k}", {name[i, j]: f"o{row[i]}" for i, j in pairs})
        for k, row in enumerate(payoffs)
    )
    problem = DecisionProblem(space, outcomes, prior, ChoiceSet(actions))
    return problem, UpdatePolicy(partition, posteriors)


def _some_weight(weights):
    """``weights``, with the first raised to 1 if all are 0."""
    return weights if any(weights) else [1] + weights[1:]


@st.composite
def held_apart_instances(draw):
    """:func:`held_apart` instances with small payoffs and repeated acts.

    The states of a cell that share a disposition hold equal posteriors
    as distinct objects, and each cell has a pool of one to three distinct
    posteriors for its dispositions.  Every cell has positive prior
    weight; single states may have none.
    """
    base = draw(st.lists(st.integers(0, 3), min_size=2, max_size=5))
    law = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3).map(_some_weight))
    cell_of = draw(st.lists(st.integers(0, 1), min_size=len(base), max_size=len(base)))
    cell_weights = [sum(w for w, c in zip(base, cell_of) if c == label) for label in cell_of]
    assume(all(cell_weights))
    pools = {
        c: draw(
            st.lists(
                st.lists(
                    st.integers(0, 3), min_size=cell_of.count(c), max_size=cell_of.count(c)
                ).map(_some_weight),
                min_size=1, max_size=3, unique_by=tuple,
            )
        )
        for c in set(cell_of)
    }
    rows = draw(
        st.lists(st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base)),
                 min_size=2, max_size=3)
    )
    repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=2))
    return held_apart(base, law, cell_of, pools, rows + [rows[k] for k in repeats])


@given(tied_mixtures())
def test_val_good_agrees_on_three_routes(instance):
    """evaluate's val_good, the public loop and the oracle share no sum."""
    problem, policy = instance
    report = evaluate(problem, policy)
    assert report.val_good == val_good(problem, policy.partition)
    assert report.val_good == brute_val_good(problem, policy.partition)


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=12)
NINE_STATES = StateSpace(tuple(f"s{i}" for i in range(9)))


@st.composite
def drawn_report_fields(draw):
    """``VoiReport`` fields from drawn rationals, consistent or nudged.

    Each cell's rows get drawn choose weights and conditional expected
    utilities, and a maximum at or above them; the cells get drawn
    weights.  Each row names one state of its own, and each cell holds its
    rows' states, so the cells are disjoint.  The headline values are summed from that table.  Then one
    thing may change: the baseline or a headline value moves by a drawn
    rational (possibly 0), a cell's probability is redrawn, or the cells'
    probabilities are reversed, which keeps their sum.
    """
    weights = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    cells = []
    for i, weight in enumerate(weights):
        shares = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
        eus = draw(st.lists(_RATIONALS, min_size=len(shares), max_size=len(shares)))
        states = [f"s{3 * i + k}" for k in range(len(shares))]
        rows = tuple(
            LemmaOneRow(f"a{k}", Fraction(share, sum(shares)), eu, (state,))
            for k, (share, eu, state) in enumerate(zip(shares, eus, states))
        )
        top = max(eus) + draw(st.sampled_from([0, Fraction(1, 5)]))
        cell = Event(NINE_STATES, states)
        cells.append(PerCell(cell, Fraction(weight, sum(weights)), top, rows))
    baseline = draw(_RATIONALS)
    fields = {
        "baseline": baseline,
        "val_good": sum(c.prob * c.max_cond_eu for c in cells) - baseline,
        "val_general": sum(
            c.prob * r.choose_prob * r.cond_eu for c in cells for r in c.rows
        ) - baseline,
    }
    change = draw(st.sampled_from([None, "baseline", "val_good", "val_general", "prob", "swap"]))
    if change == "prob":
        i = draw(st.integers(0, len(cells) - 1))
        prob = draw(st.fractions(min_value=Fraction(1, 12), max_value=2, max_denominator=12))
        cells[i] = dataclasses.replace(cells[i], prob=prob)
    elif change == "swap":
        cells = [
            dataclasses.replace(c, prob=other.prob) for c, other in zip(cells, cells[::-1])
        ]
    elif change is not None:
        fields[change] += draw(_RATIONALS)
    return {**fields, "per_cell": tuple(cells)}


@st.composite
def tampered_report_fields(draw):
    """An evaluated report's fields, with one headline value moved by a drawn rational."""
    problem, policy = draw(tied_mixtures())
    report = evaluate(problem, policy)
    fields = {
        name: getattr(report, name)
        for name in ("baseline", "val_good", "val_general", "per_cell")
    }
    name = draw(st.sampled_from(["baseline", "val_good", "val_general"]))
    fields[name] += draw(_RATIONALS)
    return fields


@given(st.one_of(drawn_report_fields(), tampered_report_fields()))
def test_integer_reconstruction_is_the_definition(fields):
    """VoiReport's integer checks accept exactly the tables whose Fraction
    sums reproduce both headline values, and refuse the rest with the
    message the first failing sum gives."""
    expected = brute_reconstructs(SimpleNamespace(**fields))

    def build():
        return VoiReport(**fields)

    if expected is None:
        report = build()
        assert (report.val_good, report.val_general) == (
            fields["val_good"], fields["val_general"]
        )
    else:
        assert refusal(build) == (ValidationError, "VoiReport.__post_init__", expected)


_UTILITIES = (Fraction(-2), Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(1))


def shuffled_cells(weights, cell_of, order, posteriors, rows):
    """A problem and policy over states ``s0, s1, ...`` from plain data.

    State ``s{i}`` has prior weight ``weights[i]`` and lies in cell
    ``cell_of[i]``, and the cells are declared in ``order``.
    ``posteriors[c]`` holds integer weights over cell ``c``'s members in
    state order: one list, which all of them hold as one object, or one
    list per member, each held as its own object.  Act ``a{k}`` pays
    ``_UTILITIES[rows[k][i]]`` at ``s{i}``.
    """
    space = StateSpace(tuple(f"s{i}" for i in range(len(weights))))
    states = space.states
    prior = Credence(space, {s: Fraction(w, sum(weights)) for s, w in zip(states, weights)})
    members = {c: [s for s, label in zip(states, cell_of) if label == c] for c in order}
    partition = EvidencePartition(
        space, tuple(Event(space, frozenset(members[c])) for c in order)
    )
    held = {}
    for c in order:
        built = [
            Credence(space, {s: Fraction(w, sum(ws)) for s, w in zip(members[c], ws)})
            for ws in posteriors[c]
        ]
        for k, state in enumerate(members[c]):
            held[state] = built[k % len(built)]
    names = tuple(f"u{v}" for v in range(len(_UTILITIES)))
    outcomes = OutcomeSpace(names, dict(zip(names, _UTILITIES)))
    actions = tuple(
        Action(f"a{k}", {s: names[v] for s, v in zip(states, row)})
        for k, row in enumerate(rows)
    )
    problem = DecisionProblem(space, outcomes, prior, ChoiceSet(actions))
    return problem, UpdatePolicy(partition, held)


@st.composite
def shuffled_cell_instances(draw):
    """:func:`shuffled_cells` instances whose choice map is easy to get wrong.

    One to four acts drawn from a pool of at most three rows, so rows
    often repeat and small utilities tie.  Up to three cells, declared in
    a drawn order.  In one drawn cell every state holds its own
    posterior; in each other cell, maybe.  Every cell has positive prior
    weight; single states may have none.
    """
    n = draw(st.integers(2, 7))
    cell_of = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    labels = sorted(set(cell_of))
    size = {c: cell_of.count(c) for c in labels}
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    for c in labels:
        if not any(w for w, label in zip(weights, cell_of) if label == c):
            weights[cell_of.index(c)] = 1
    order = draw(st.permutations(labels))
    own = draw(st.sampled_from(labels))
    posteriors = {}
    for c in labels:
        count = size[c] if c == own or draw(st.booleans()) else 1
        over_cell = st.lists(st.integers(0, 3), min_size=size[c], max_size=size[c])
        posteriors[c] = draw(
            st.lists(over_cell.map(_some_weight), min_size=count, max_size=count)
        )
    pool = draw(
        st.lists(
            st.lists(st.integers(0, len(_UTILITIES) - 1), min_size=n, max_size=n),
            min_size=1, max_size=3,
        )
    )
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    return shuffled_cells(weights, cell_of, order, posteriors, rows)


def _outcome(call, *args):
    """What ``call(*args)`` returns, or the type and text of what it raises."""
    try:
        return call(*args)
    except InfoValueError as error:
        return type(error), str(error)


class TestChoiceMapAgainstTheOracle:
    """The choice map against the oracle, on cells declared out of state order."""

    @given(shuffled_cell_instances())
    @example(  # cells {s1, s2} then {s0}; s0 and s1 tie a0 and a1, and {s1, s2} leaks
        shuffled_cells(
            [1, 1, 1], [1, 0, 0], [0, 1], {0: [[1, 0], [0, 1]], 1: [[1]]},
            [[2, 4, 0], [2, 4, 4]],
        )
    )
    @example(  # only the zero-prior s0 ties, and no cell leaks
        shuffled_cells(
            [0, 2, 1, 3], [0, 0, 1, 1], [1, 0], {0: [[1, 0], [1, 3]], 1: [[1, 1]]},
            [[2, 4, 4, 2], [2, 0, 0, 0]],
        )
    )
    def test_first_by_order_chooses_as_the_oracle(self, instance):
        problem, policy = instance
        states, prior = problem.space.states, dist_of(problem.prior)
        expected = {
            s: first_best(problem, dist_of(policy.posterior(s))).id
            for s in states
            if s in prior
        }
        ids = problem.choices.ids()
        chosen = sorted(
            (i, ids[k])
            for groups in voi._choice_groups(problem, policy)
            for k, group in groups.items()
            for i in group
        )
        assert [(states[i], a) for i, a in chosen] == list(expected.items())
        assert val_general(problem, policy) == brute_val_general(problem, policy)
        witness = brute_independence_witness(problem, policy)
        groups = voi._choice_groups(problem, policy)
        leak = voi._first_leak(problem, policy, groups)
        if witness is None:
            assert leak is None
            report = evaluate(problem, policy)
            assert list(report.chosen_by_state.items()) == list(expected.items())
            for row in (r for c in report.per_cell for r in c.rows):
                assert list(row.states) == [s for s in states if s in row.states]
            assert report.val_good == brute_val_good(problem, policy.partition)
        else:
            cell, action, probe = witness
            assert (leak.cell, leak.chosen_action, leak.probe_action) == (
                cell, action.id, probe.id
            )
            assert _outcome(evaluate, problem, policy) == (IndependenceBrokenError, str(leak))


class TestFirstByOrderTies:
    @given(tied_mixtures())
    def test_choices_and_value_match_the_oracle(self, instance):
        problem, policy = instance
        support = problem.prior.support()
        assert len(set(policy.posteriors.values())) < len(support)
        expected = {
            s: first_best(problem, dist_of(policy.posterior(s))).id for s in support
        }
        report = evaluate(problem, policy)
        assert report.chosen_by_state == expected
        assert report.val_general == brute_val_general(problem, policy)
        assert val_general(problem, policy) == report.val_general

    @given(held_apart_instances())
    @example(  # a one-state cell, {b0d0}, declared last
        held_apart(
            [2, 1, 1], [1], [0, 1, 1], {0: [[1]], 1: [[1, 3]]}, [[1, 0, 2], [0, 2, 1]]
        )
    )
    @example(  # zero-prior states: base state b1 and disposition d1
        held_apart(
            [1, 0, 2], [1, 0], [0, 0, 1], {0: [[0, 1]], 1: [[1]]},
            [[2, 0, -1], [0, 1, 1], [2, 0, -1]],
        )
    )
    @example(  # one cell in which the two dispositions choose differently
        held_apart([1, 1], [1, 1], [0, 0], {0: [[1, 0], [0, 1]]}, [[1, 0], [0, 1]])
    )
    def test_equal_posteriors_held_apart_choose_alike(self, instance):
        """Equal posteriors that are distinct objects choose as the oracle does."""
        problem, policy = instance
        support = problem.prior.support()
        expected = {
            s: first_best(problem, dist_of(policy.posterior(s))).id for s in support
        }
        report = evaluate(problem, policy)
        assert report.chosen_by_state == expected
        assert report.val_general == brute_val_general(problem, policy)
        assert deviating_states(policy, problem.prior) == brute_deviating_states(
            problem, policy
        )
