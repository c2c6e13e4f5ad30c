"""Decision problems, expected utility, and deterministic optimal choice."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from infovalue.decision import (
    Action,
    ChoiceSet,
    DecisionProblem,
    OutcomeSpace,
    best_action,
    expected_utility,
    is_relevant,
)
from infovalue.errors import (
    SpaceMismatchError,
    ValidationError,
    ZeroProbabilityError,
)
from infovalue.prob import Credence, Event, StateSpace
from infovalue.updating import EvidencePartition

from _oracles import best_value, conditioned, dist_of, eu, first_best
from _refusals import refusal

SPACE = StateSpace(("s1", "s2", "s3"))
OUTCOMES = OutcomeSpace(
    ("lo", "mid", "hi"),
    {"lo": Fraction(-1), "mid": Fraction(0), "hi": Fraction(2)},
)


def uniform():
    return Credence(SPACE, {s: Fraction(1, 3) for s in SPACE})


def problem(actions, prior=None):
    return DecisionProblem(SPACE, OUTCOMES, prior or uniform(), ChoiceSet(tuple(actions)))


def act(id, *outcomes):
    return Action(id, dict(zip(SPACE, outcomes)))


FLAT = act("flat", "mid", "mid", "mid")
SPIKE = act("spike", "hi", "lo", "lo")  # EU 0 under the uniform prior
GREEDY = act("greedy", "hi", "hi", "lo")  # EU 1 under the uniform prior


class TestConstruction:
    def test_outcome_space_validates(self):
        with pytest.raises(ValidationError, match="duplicate outcome"):
            OutcomeSpace(("x", "x"), {"x": 0})
        with pytest.raises(ValidationError, match="no utility"):
            OutcomeSpace(("x", "y"), {"x": 0})
        with pytest.raises(ValidationError, match="unknown outcome"):
            OutcomeSpace(("x",), {"x": 0, "y": 1})
        with pytest.raises(ValidationError, match="float"):
            OutcomeSpace(("x",), {"x": 0.5})

    def test_actions_must_be_total(self):
        partial = Action("partial", {"s1": "mid", "s2": "mid"})
        with pytest.raises(ValidationError, match="assigns no outcome to state 's3'"):
            problem([partial])

    def test_actions_must_use_known_outcomes(self):
        bad = act("bad", "mid", "mid", "jackpot")
        with pytest.raises(ValidationError, match="unknown outcome 'jackpot'"):
            problem([bad])

    def test_actions_must_not_mention_stray_states(self):
        stray = Action(
            "stray", {"s1": "mid", "s2": "mid", "s3": "mid", "s9": "mid"}
        )
        with pytest.raises(ValidationError, match="unknown states"):
            problem([stray])

    def test_duplicate_action_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate action"):
            ChoiceSet((FLAT, act("flat", "lo", "lo", "lo")))

    def test_choice_set_lookup(self):
        choices = ChoiceSet((FLAT, SPIKE))
        assert choices.ids() == ("flat", "spike")
        assert choices.by_id("spike") is SPIKE
        with pytest.raises(ValidationError):
            choices.by_id("nope")

    def test_prior_must_match_space(self):
        other = Credence(StateSpace(("x",)), {"x": Fraction(1)})
        with pytest.raises(ValidationError, match="prior"):
            problem([FLAT], prior=other)

    def test_outcome_space_equality_and_hash_follow_the_fields(self):
        built = OutcomeSpace(("x", "y"), {"y": 1, "x": "0"})
        again = OutcomeSpace(("x", "y"), {"x": Fraction(0), "y": Fraction(1)})
        assert built == again
        assert hash(built) == hash(again)
        assert built != OutcomeSpace(("x", "y"), {"x": 0, "y": 2})

    def test_action_equality_and_hash_follow_the_fields(self):
        built = Action("a", {"s2": "lo", "s1": "hi"})
        again = Action("a", {"s1": "hi", "s2": "lo"})
        assert built == again
        assert hash(built) == hash(again)
        assert built != Action("a", {"s1": "hi", "s2": "hi"})


class TestExpectedUtility:
    def test_against_hand_computation(self):
        p = problem([FLAT, SPIKE, GREEDY])
        assert expected_utility(p, FLAT) == 0
        assert expected_utility(p, SPIKE) == 0
        assert expected_utility(p, GREEDY) == 1

    def test_explicit_credence_argument(self):
        p = problem([SPIKE])
        sure_s1 = Credence(SPACE, {"s1": Fraction(1)})
        assert expected_utility(p, SPIKE, sure_s1) == 2

    def test_agrees_with_oracle(self):
        p = problem([FLAT, SPIKE, GREEDY])
        for a in p.choices:
            assert expected_utility(p, a) == eu(p, a, dist_of(p.prior))


class TestBestAction:
    def test_picks_the_strict_maximizer(self):
        p = problem([FLAT, SPIKE, GREEDY])
        chosen, value = best_action(p.prior, p)
        assert chosen.id == "greedy"
        assert value == 1

    def test_first_by_order_prefers_the_earlier_listing(self):
        tied = problem([FLAT, SPIKE])  # both EU 0 under the uniform prior
        chosen, value = best_action(tied.prior, tied)
        assert (chosen.id, value) == ("flat", 0)
        reordered = problem([SPIKE, FLAT])
        assert best_action(reordered.prior, reordered)[0].id == "spike"

    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=-6, max_value=6),
    )
    def test_maximizers_are_invariant_under_positive_affine_rescaling(
        self, tables, scale, shift
    ):
        """Rescaling utilities by u -> scale*u + shift preserves the argmax set."""
        outcomes = sorted({v for row in tables for v in row})
        base = OutcomeSpace(
            tuple(f"o{v}" for v in outcomes), {f"o{v}": Fraction(v) for v in outcomes}
        )
        moved = OutcomeSpace(
            tuple(f"o{v}" for v in outcomes),
            {f"o{v}": Fraction(v) * scale + shift for v in outcomes},
        )
        actions = tuple(
            Action(f"a{i}", {s: f"o{v}" for s, v in zip(SPACE, row)})
            for i, row in enumerate(tables)
        )
        before = DecisionProblem(SPACE, base, uniform(), ChoiceSet(actions))
        after = DecisionProblem(SPACE, moved, uniform(), ChoiceSet(actions))

        def maximizers(p):
            top = best_action(p.prior, p)[1]
            return {a.id for a in p.choices if expected_utility(p, a) == top}

        assert maximizers(before) == maximizers(after)
        assert best_action(before.prior, before)[0].id == best_action(
            after.prior, after
        )[0].id

    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        )
    )
    def test_best_value_agrees_with_oracle(self, tables):
        outcomes = sorted({v for row in tables for v in row})
        space = OutcomeSpace(
            tuple(f"o{v}" for v in outcomes), {f"o{v}": Fraction(v) for v in outcomes}
        )
        actions = tuple(
            Action(f"a{i}", {s: f"o{v}" for s, v in zip(SPACE, row)})
            for i, row in enumerate(tables)
        )
        p = DecisionProblem(space=SPACE, outcomes=space, prior=uniform(), choices=ChoiceSet(actions))
        assert best_action(p.prior, p)[1] == best_value(p, dist_of(p.prior))


class TestIsRelevant:
    def two_cell_partition(self):
        return EvidencePartition(
            SPACE,
            (
                Event(SPACE, frozenset({"s1"})),
                Event(SPACE, frozenset({"s2", "s3"})),
            ),
        )

    def test_singleton_choice_set_is_never_relevant(self):
        p = problem([SPIKE])
        assert not is_relevant(p, self.two_cell_partition())

    def test_relevant_when_cells_want_different_actions(self):
        p = problem([SPIKE, FLAT])
        # conditioned on {s1} spike pays 2; on {s2,s3} flat's 0 beats -1
        assert is_relevant(p, self.two_cell_partition())

    def test_irrelevant_when_one_action_ties_for_best_everywhere(self):
        # greedy dominates in both cells, so learning the cell changes nothing
        clone = act("clone", "hi", "hi", "lo")
        p = problem([GREEDY, clone])
        assert not is_relevant(p, self.two_cell_partition())


# ---------------------------------------------------------------- integer kernels

fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


@st.composite
def drawn_choices(draw):
    """A problem and a credence over 1-5 states, for differential checks.

    Utilities have mixed denominators and either sign, so the problem's
    scale ``U`` is rarely 1.  Acts are drawn from a few tables and may
    repeat under fresh ids, so ties are common; the
    credence may leave states at zero.
    """
    n = draw(st.integers(1, 5))
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    utilities = draw(st.lists(fractions, min_size=1, max_size=5))
    outcomes = OutcomeSpace(
        tuple(f"o{i}" for i in range(len(utilities))),
        {f"o{i}": u for i, u in enumerate(utilities)},
    )
    tables = draw(
        st.lists(
            st.lists(st.integers(0, len(utilities) - 1), min_size=n, max_size=n),
            min_size=1,
            max_size=3,
        )
    )
    order = draw(st.lists(st.integers(0, len(tables) - 1), min_size=1, max_size=5))
    actions = tuple(
        Action(f"a{i}-t{t}", {s: f"o{k}" for s, k in zip(space, tables[t])})
        for i, t in enumerate(order)
    )
    weights = draw(
        st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(any)
    )
    prior = Credence(space, {s: Fraction(w, sum(weights)) for s, w in zip(space, weights)})
    masses = draw(st.lists(fractions.map(abs), min_size=n, max_size=n).filter(any))
    credence = Credence(
        space, {s: m / sum(masses) for s, m in zip(space, masses)}
    )
    problem = DecisionProblem(space, outcomes, prior, ChoiceSet(actions))
    return problem, credence


def assert_choice_matches_oracle(problem, credence):
    """Every integer kernel against the Fraction-only oracle, under ``credence``."""
    dist = dist_of(credence)
    values = [eu(problem, a, dist) for a in problem.choices]
    for action, value in zip(problem.choices, values):
        assert expected_utility(problem, action, credence) == value
    top = best_value(problem, dist)
    chosen, value = best_action(credence, problem)
    assert chosen is first_best(problem, dist)
    assert type(value) is Fraction and value == top


class TestIntegerKernels:
    @given(drawn_choices())
    def test_choice_matches_the_oracle(self, drawn):
        assert_choice_matches_oracle(*drawn)

    @given(drawn_choices())
    def test_replaced_problem_rebuilds_its_table(self, drawn):
        problem, credence = drawn
        assert_choice_matches_oracle(dataclasses.replace(problem), credence)
        doubled = OutcomeSpace(
            problem.outcomes.outcomes,
            {o: 2 * u - Fraction(1, 7) for o, u in problem.outcomes.utility.items()},
        )
        assert_choice_matches_oracle(
            dataclasses.replace(problem, outcomes=doubled), credence
        )

    @given(drawn_choices(), st.lists(st.integers(0, 4), min_size=5, max_size=5))
    def test_action_outside_the_choice_set(self, drawn, picks):
        problem, credence = drawn
        outcomes = problem.outcomes.outcomes
        outside = Action(
            "outside",
            {s: outcomes[k % len(outcomes)] for s, k in zip(problem.space, picks)},
        )
        assert expected_utility(problem, outside, credence) == eu(
            problem, outside, dist_of(credence)
        )
        assert expected_utility(problem, outside) == eu(
            problem, outside, dist_of(problem.prior)
        )

    def test_outside_action_errors(self):
        p = problem([FLAT])
        with pytest.raises(ValidationError, match="unknown outcome 'jackpot'"):
            expected_utility(p, act("bad", "mid", "jackpot", "mid"))
        with pytest.raises(ValidationError, match="assigns no outcome to state 's3'"):
            expected_utility(p, Action("partial", {"s1": "mid", "s2": "mid"}))
        foreign = Credence(StateSpace(("x",)), {"x": 1})
        with pytest.raises(ValidationError, match="not over the problem's space"):
            expected_utility(p, FLAT, foreign)
        with pytest.raises(ValidationError, match="not over the problem's space"):
            best_action(foreign, p)

    def test_equality_ignores_the_derived_table(self):
        a = problem([FLAT, SPIKE])
        b = problem([FLAT, SPIKE])
        assert a == b and hash(a) == hash(b)
        assert [f.name for f in dataclasses.fields(a)] == [
            "space", "outcomes", "prior", "choices"
        ]


def brute_is_relevant(problem, partition):
    """Whether no act is best in every cell under the cell's conditioned prior."""
    prior = dist_of(problem.prior)
    best_everywhere = set(problem.choices.ids())
    for cell in partition.cells:
        dist = conditioned(prior, cell.members)
        values = {a.id: eu(problem, a, dist) for a in problem.choices}
        top = max(values.values())
        best_everywhere &= {id for id, value in values.items() if value == top}
    return not best_everywhere


class TestIsRelevantAgainstTheOracle:
    @given(drawn_choices(), st.data())
    def test_matches_the_oracle(self, drawn, data):
        """Cells are declared in a drawn order, and zero-prior states (and
        whole zero-probability cells) are common; the first such cell in
        declared order is refused as conditioning on it would be."""
        problem, _ = drawn
        space = problem.space
        labels = data.draw(
            st.lists(st.integers(0, len(space) - 1), min_size=len(space), max_size=len(space))
        )
        members = {}
        for state, label in zip(space.states, labels):
            members.setdefault(label, set()).add(state)
        cells = data.draw(st.permutations([Event(space, m) for m in members.values()]))
        partition = EvidencePartition(space, tuple(cells))
        support = dist_of(problem.prior)
        empty = [cell for cell in cells if not cell.members & support.keys()]
        if empty:
            assert refusal(lambda: is_relevant(problem, partition)) == (
                ZeroProbabilityError,
                "_cell_weights",
                f"cannot condition on zero-probability event {empty[0].describe()}",
            )
        else:
            assert is_relevant(problem, partition) == brute_is_relevant(problem, partition)


class TestTheOracleCatchesMutants:
    """The differential check above fails on a broken kernel."""

    caught = (AssertionError, pytest.fail.Exception)

    def tied(self):
        outcomes = OutcomeSpace(
            ("lo", "mid", "hi"),
            {"lo": Fraction(-2, 3), "mid": Fraction(1, 4), "hi": Fraction(5, 2)},
        )
        actions = (
            act("spike", "hi", "lo", "lo"),
            act("spike-again", "hi", "lo", "lo"),
            act("flat", "mid", "mid", "mid"),
        )
        prior = Credence(SPACE, {"s1": Fraction(1, 2), "s2": Fraction(1, 2)})
        return DecisionProblem(SPACE, outcomes, prior, ChoiceSet(actions))

    def test_the_unmutated_kernels_pass(self):
        p = self.tied()
        assert_choice_matches_oracle(p, p.prior)

    def test_a_wrong_scale_fails(self):
        p = self.tied()
        object.__setattr__(p, "_scale", 2 * p._scale)
        with pytest.raises(self.caught):
            assert_choice_matches_oracle(p, p.prior)


@pytest.mark.parametrize(
    "build, location, message",
    [
        (
            lambda: OutcomeSpace((), {}),
            "_distinct_ids", "an outcome space needs at least one outcome",
        ),
        (
            lambda: OutcomeSpace(("x", ""), {"x": 0, "": 1}),
            "_distinct_ids", "outcome ids must be non-empty strings, got ''",
        ),
        (
            lambda: OutcomeSpace(("x", 3), {"x": 0}),
            "_distinct_ids", "outcome ids must be non-empty strings, got 3",
        ),
        (lambda: OUTCOMES.u("jackpot"), "OutcomeSpace.u", "unknown outcome 'jackpot'"),
        (
            lambda: Action("", {"s1": "mid"}),
            "Action.__post_init__", "action ids must be non-empty strings, got ''",
        ),
        (
            lambda: FLAT.outcome_in("s4"),
            "Action.outcome_in", "action 'flat' assigns no outcome to state 's4'",
        ),
        (
            lambda: ChoiceSet(()),
            "_distinct_ids", "a choice set needs at least one action",
        ),
        (
            lambda: ChoiceSet(("flat",)),
            "ChoiceSet.__post_init__", "choice set entries must be Actions, not str",
        ),
        (
            lambda: ChoiceSet((FLAT, FLAT, "flat")),
            "ChoiceSet.__post_init__", "choice set entries must be Actions, not str",
        ),
        (
            lambda: DecisionProblem(SPACE.states, OUTCOMES, uniform(), ChoiceSet((FLAT,))),
            "_check_types", "space must be of type StateSpace, not tuple",
        ),
        (
            lambda: DecisionProblem(SPACE, OUTCOMES.utility, uniform(), ChoiceSet((FLAT,))),
            "_check_types", "outcomes must be of type OutcomeSpace, not dict",
        ),
        (
            lambda: DecisionProblem(SPACE, OUTCOMES, "uniform", ChoiceSet((FLAT,))),
            "_check_types", "prior must be of type Credence, not str",
        ),
        (
            lambda: DecisionProblem(SPACE, OUTCOMES, uniform(), (FLAT, SPIKE)),
            "_check_types", "choices must be of type ChoiceSet, not tuple",
        ),
        (
            lambda: OutcomeSpace(("x",), [0]),
            "_check_types", "utility must be of type Mapping, not list",
        ),
        (
            lambda: OutcomeSpace(5, {}),
            "_check_types", "outcomes must be of type Iterable, not int",
        ),
        (
            lambda: Action("a", [("s1", "mid")]),
            "_check_types", "assignment must be of type Mapping, not list",
        ),
        (
            lambda: ChoiceSet(5),
            "_check_types", "actions must be of type Iterable, not int",
        ),
        (
            lambda: problem([Action("x", {"s1": ["mid"], "s2": "mid", "s3": "mid"})]),
            "DecisionProblem._utility_row",
            "action 'x' maps state 's1' to unknown outcome ['mid']",
        ),
    ],
    ids=[
        "no-outcomes",
        "empty-outcome-id",
        "non-string-outcome-id",
        "unknown-outcome",
        "empty-action-id",
        "unknown-state",
        "no-actions",
        "action-not-an-action",
        "action-not-an-action-after-a-duplicate",
        "space-not-a-state-space",
        "outcomes-not-an-outcome-space",
        "prior-not-a-credence",
        "choices-not-a-choice-set",
        "utility-not-a-mapping",
        "outcomes-not-iterable",
        "assignment-not-a-mapping",
        "actions-not-iterable",
        "outcome-unhashable",
    ],
)
def test_refusals(build, location, message):
    assert refusal(build) == (ValidationError, location, message)


FOREIGN = Credence(StateSpace(("x",)), {"x": 1})


@pytest.mark.parametrize(
    "build, location, message",
    [
        (
            lambda: problem([FLAT], prior=FOREIGN),
            "DecisionProblem.__post_init__",
            "prior is not a credence over the problem's space",
        ),
        (
            lambda: best_action(FOREIGN, problem([FLAT])),
            "DecisionProblem._scores", "credence is not over the problem's space",
        ),
        (
            lambda: expected_utility(problem([FLAT]), FLAT, FOREIGN),
            "expected_utility", "credence is not over the problem's space",
        ),
    ],
    ids=["prior-over-another-space", "choice-over-two-spaces", "score-over-two-spaces"],
)
def test_space_mismatch_refusals(build, location, message):
    assert refusal(build) == (SpaceMismatchError, location, message)
