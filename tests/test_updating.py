"""Partitions, update policies, mixtures, modesty, and independence checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infovalue.decision import (
    Action,
    ChoiceSet,
    DecisionProblem,
    OutcomeSpace,
)
from infovalue.errors import (
    IndependenceBrokenError,
    MissingPosteriorError,
    SpaceMismatchError,
    ValidationError,
)
from infovalue.prob import (
    Credence,
    Event,
    EvidencePartition,
    StateSpace,
    condition,
    probability,
)
from infovalue.updating import (
    DeviationSpec,
    UpdatePolicy,
    conditionalization_policy,
    deviating_states,
    mixture_expand,
)
from infovalue.properties import _random_deviation_spec, _random_problem
from infovalue.voi import (
    LemmaOneRow,
    PerCell,
    VoiReport,
    _choice_groups,
    _first_leak,
    evaluate,
    val_general,
)

from _oracles import (
    best_value,
    brute_deviating_states,
    brute_independence_witness,
    brute_lifted,
    brute_mixture,
    brute_val_general,
    conditioned,
    dist_of,
    eu,
)
from _refusals import refusal
from test_adversary import Plain, build_plain, plain_instances

BASE = StateSpace(("u1", "u2", "v1", "v2"))
U = Event(BASE, frozenset({"u1", "u2"}))
V = Event(BASE, frozenset({"v1", "v2"}))
PARTITION = EvidencePartition(BASE, (U, V))

PRIOR = Credence(
    BASE,
    {
        "u1": Fraction(1, 2),
        "u2": Fraction(1, 6),
        "v1": Fraction(1, 6),
        "v2": Fraction(1, 6),
    },
)

OUTCOMES = OutcomeSpace(("zero", "one"), {"zero": 0, "one": 1})


def base_problem():
    actions = (
        Action("never", {s: "zero" for s in BASE}),
        Action("u-bet", {"u1": "one", "u2": "one", "v1": "zero", "v2": "zero"}),
    )
    return DecisionProblem(BASE, OUTCOMES, PRIOR, ChoiceSet(actions))


class TestEvidencePartition:
    def test_cell_lookup(self):
        assert PARTITION.cell_of("u2") is U
        assert PARTITION.cell_of("v1") is V
        assert len(PARTITION) == 2
        assert tuple(PARTITION) == (U, V)

    def test_unknown_state(self):
        with pytest.raises(ValidationError, match="unknown state"):
            PARTITION.cell_of("w")

    def test_rejects_non_partitions(self):
        with pytest.raises(ValidationError, match="disjoint"):
            EvidencePartition(BASE, (U, Event(BASE, frozenset({"u2", "v1", "v2"}))))
        with pytest.raises(ValidationError):
            EvidencePartition(BASE, (U,))  # does not cover


class TestUpdatePolicy:
    def test_certainty_constraint_is_enforced(self):
        leaky = Credence(BASE, {"u1": Fraction(1, 2), "v1": Fraction(1, 2)})
        posteriors = {s: condition(PRIOR, PARTITION.cell_of(s)) for s in BASE}
        posteriors["u1"] = leaky
        with pytest.raises(
            ValidationError, match="probability exactly 1 to its partition cell"
        ):
            UpdatePolicy(PARTITION, posteriors)

    def test_a_shared_posterior_is_checked_in_each_cell(self):
        in_u = condition(PRIOR, U)
        posteriors = {"u1": in_u, "u2": in_u, "v1": in_u, "v2": condition(PRIOR, V)}
        with pytest.raises(ValidationError) as exc:
            UpdatePolicy(PARTITION, posteriors)
        assert str(exc.value) == (
            "posterior for state 'v1' must assign probability exactly 1 "
            "to its partition cell (got 0)"
        )

    def test_must_cover_every_state(self):
        posteriors = {s: condition(PRIOR, PARTITION.cell_of(s)) for s in ("u1", "u2")}
        with pytest.raises(MissingPosteriorError, match="v1"):
            UpdatePolicy(PARTITION, posteriors)

    def test_rejects_foreign_posteriors(self):
        other = StateSpace(("x",))
        posteriors = {s: condition(PRIOR, PARTITION.cell_of(s)) for s in BASE}
        posteriors["u1"] = Credence(other, {"x": Fraction(1)})
        with pytest.raises(SpaceMismatchError):
            UpdatePolicy(PARTITION, posteriors)

    def test_posterior_lookup(self):
        policy = conditionalization_policy(PRIOR, PARTITION)
        assert policy.posterior("u1") == condition(PRIOR, U)
        with pytest.raises(MissingPosteriorError):
            policy.posterior("missing")

    def test_a_missing_posterior_is_a_bad_argument(self):
        policy = conditionalization_policy(PRIOR, PARTITION)
        with pytest.raises(ValidationError) as caught:
            policy.posterior("missing")
        assert type(caught.value) is MissingPosteriorError
        assert isinstance(caught.value, ValueError)

    def test_equality_and_hash_follow_the_fields(self):
        built = conditionalization_policy(PRIOR, PARTITION)
        again = UpdatePolicy(
            EvidencePartition(BASE, (U, V)),
            {s: condition(PRIOR, PARTITION.cell_of(s)) for s in reversed(BASE.states)},
        )
        assert built == again
        assert hash(built) == hash(again)
        posteriors = dict(built.posteriors)
        posteriors["u1"] = Credence(BASE, {"u1": Fraction(1)})
        assert built != UpdatePolicy(PARTITION, posteriors)


class TestConditionalizationPolicy:
    def test_every_state_gets_its_cells_conditioned_prior(self):
        policy = conditionalization_policy(PRIOR, PARTITION)
        for s in BASE:
            assert policy.posterior(s) == condition(PRIOR, PARTITION.cell_of(s))

    def test_conditionalization_is_immodest(self):
        policy = conditionalization_policy(PRIOR, PARTITION)
        assert deviating_states(policy, PRIOR) == ()

    def test_zero_probability_cell_is_an_error(self):
        thin = Credence(BASE, {"u1": Fraction(1, 2), "u2": Fraction(1, 2)})
        with pytest.raises(Exception, match="zero-probability"):
            conditionalization_policy(thin, PARTITION)

    def test_space_mismatch(self):
        other = Credence(StateSpace(("x",)), {"x": Fraction(1)})
        with pytest.raises(SpaceMismatchError):
            conditionalization_policy(other, PARTITION)


class TestDeviationSpec:
    def test_epsilon_bounds(self):
        with pytest.raises(ValidationError, match="epsilon"):
            DeviationSpec(Fraction(-1, 10), {})
        with pytest.raises(ValidationError, match="epsilon"):
            DeviationSpec(Fraction(11, 10), {})
        with pytest.raises(ValidationError, match="float"):
            DeviationSpec(0.1, {})

    def test_deviant_posterior_must_respect_the_cell(self):
        outside = Credence(BASE, {"u1": Fraction(1, 2), "v1": Fraction(1, 2)})
        with pytest.raises(ValidationError, match="exactly 1 to the cell"):
            DeviationSpec(Fraction(1, 4), {U: outside})

    def test_equality_and_hash_follow_the_fields(self):
        built = DeviationSpec(Fraction(1, 4), {U: Credence(BASE, {"u2": Fraction(1)})})
        again = DeviationSpec("1/4", {U: Credence(BASE, {"u1": 0, "u2": 1})})
        assert built == again
        assert hash(built) == hash(again)
        assert built != DeviationSpec("1/4", {U: Credence(BASE, {"u1": Fraction(1)})})


def u_deviant():
    return Credence(BASE, {"u1": Fraction(1, 5), "u2": Fraction(4, 5)})


def expanded_fixture(epsilon=Fraction(1, 4)):
    spec = DeviationSpec(epsilon, {U: u_deviant()})
    return mixture_expand(base_problem(), PARTITION, spec)


class TestMixtureExpand:
    """The disposition-product construction, checked field by field."""

    def test_state_order_interleaves_dispositions(self):
        expanded, _ = expanded_fixture()
        assert tuple(expanded.space) == (
            "u1·stay",
            "u1·deviate",
            "u2·stay",
            "u2·deviate",
            "v1·stay",
            "v1·deviate",
            "v2·stay",
            "v2·deviate",
        )

    def test_prior_is_the_independent_product(self):
        expanded, _ = expanded_fixture()
        assert expanded.prior("u1·stay") == Fraction(3, 8)
        assert expanded.prior("u1·deviate") == Fraction(1, 8)
        assert expanded.prior("u2·deviate") == Fraction(1, 24)
        # disposition marginal is exactly epsilon
        deviate_mass = sum(
            expanded.prior(s) for s in expanded.space if s.endswith("·deviate")
        )
        assert deviate_mass == Fraction(1, 4)

    def test_actions_ignore_the_disposition(self):
        expanded, _ = expanded_fixture()
        (u_bet,) = [a for a in expanded.choices if a.id == "u-bet"]
        assert u_bet.assignment["u1·stay"] == "one"
        assert u_bet.assignment["u1·deviate"] == "one"
        assert u_bet.assignment["v2·deviate"] == "zero"

    def test_cells_are_lifted_wholesale(self):
        _, policy = expanded_fixture()
        first = policy.partition.cells[0]
        assert first.members == {"u1·stay", "u1·deviate", "u2·stay", "u2·deviate"}

    def test_stay_states_condition_on_the_lifted_cell(self):
        expanded, policy = expanded_fixture()
        lifted_u = policy.partition.cells[0]
        assert policy.posterior("u1·stay") == condition(expanded.prior, lifted_u)
        assert policy.posterior("u2·stay") == policy.posterior("u1·stay")

    def test_deviate_states_get_the_distorted_posterior(self):
        _, policy = expanded_fixture()
        distorted = policy.posterior("u1·deviate")
        # base marginal follows the deviant credence, disposition marginal stays 1/4
        assert distorted("u1·stay") == Fraction(3, 20)
        assert distorted("u1·deviate") == Fraction(1, 20)
        assert distorted("u2·stay") == Fraction(3, 5)
        assert distorted("u2·deviate") == Fraction(1, 5)

    def test_uncovered_cells_update_correctly_even_when_deviating(self):
        expanded, policy = expanded_fixture()
        lifted_v = policy.partition.cells[1]
        assert policy.posterior("v1·deviate") == condition(expanded.prior, lifted_v)

    def test_every_posterior_is_certain_of_its_cell(self):
        _, policy = expanded_fixture()
        for state in policy.space:
            cell = policy.partition.cell_of(state)
            assert probability(policy.posterior(state), cell) == 1

    def test_deviating_states_and_modesty_degree(self):
        expanded, policy = expanded_fixture()
        assert deviating_states(policy, expanded.prior) == (
            "u1·deviate",
            "u2·deviate",
        )
        # deviant disposition has mass 1/4 but only the U cell is distorted
        deviating_mass = sum(expanded.prior(s) for s in deviating_states(policy, expanded.prior))
        assert deviating_mass == Fraction(1, 4) * Fraction(2, 3)

    def test_epsilon_zero_collapses_to_conditionalization(self):
        expanded, policy = expanded_fixture(epsilon=Fraction(0))
        assert deviating_states(policy, expanded.prior) == ()

    def test_custom_labels(self):
        spec = DeviationSpec(Fraction(1, 4), {U: u_deviant()})
        expanded, _ = mixture_expand(
            base_problem(), PARTITION, spec, labels=("ok", "oops")
        )
        assert "u1·ok" in expanded.space and "u1·oops" in expanded.space

    def test_equal_or_empty_labels_rejected(self):
        spec = DeviationSpec(Fraction(1, 4), {U: u_deviant()})
        with pytest.raises(ValidationError, match="labels"):
            mixture_expand(base_problem(), PARTITION, spec, labels=("x", "x"))
        with pytest.raises(ValidationError, match="labels"):
            mixture_expand(base_problem(), PARTITION, spec, labels=("", "y"))
        for labels in (("a", "b", "c"), (1, 2), "ab"):
            with pytest.raises(ValidationError, match="^labels must be "):
                mixture_expand(base_problem(), PARTITION, spec, labels=labels)

    def test_colliding_expanded_ids_rejected(self):
        space = StateSpace(("a", "a·y"))
        prior = Credence(space, {"a": Fraction(1, 2), "a·y": Fraction(1, 2)})
        cell = Event(space, frozenset({"a", "a·y"}))
        partition = EvidencePartition(space, (cell,))
        actions = (Action("idle", {"a": "zero", "a·y": "zero"}),)
        problem = DecisionProblem(space, OUTCOMES, prior, ChoiceSet(actions))
        deviant = Credence(space, {"a": Fraction(1, 4), "a·y": Fraction(3, 4)})
        spec = DeviationSpec(Fraction(1, 2), {cell: deviant})
        with pytest.raises(ValidationError, match="collide"):
            mixture_expand(problem, partition, spec, labels=("x", "y·x"))

    def test_zero_probability_cell_rejected(self):
        space = StateSpace(("a", "b", "c"))
        prior = Credence(space, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
        cells = (Event(space, frozenset({"a", "b"})), Event(space, frozenset({"c"})))
        idle = Action("idle", {s: "zero" for s in space})
        problem = DecisionProblem(space, OUTCOMES, prior, ChoiceSet((idle,)))
        spec = DeviationSpec(Fraction(1, 4), {})
        with pytest.raises(ValidationError, match=r"cell \{c\} has zero prior probability"):
            mixture_expand(problem, EvidencePartition(space, cells), spec)

    def test_deviant_for_a_non_cell_rejected(self):
        stray = Event(BASE, frozenset({"u1", "v1"}))
        bad = DeviationSpec(
            Fraction(1, 4),
            {stray: Credence(BASE, {"u1": Fraction(1, 2), "v1": Fraction(1, 2)})},
        )
        with pytest.raises(ValidationError, match="not a\\s+cell"):
            mixture_expand(base_problem(), PARTITION, bad)

    @given(
        st.lists(st.integers(min_value=1, max_value=9), min_size=4, max_size=4),
        st.integers(min_value=0, max_value=16),
    )
    def test_base_marginals_are_preserved(self, weights, sixteenths):
        total = sum(weights)
        prior = Credence(
            BASE, {s: Fraction(w, total) for s, w in zip(BASE, weights)}
        )
        problem = DecisionProblem(BASE, OUTCOMES, prior, base_problem().choices)
        spec = DeviationSpec(Fraction(sixteenths, 16), {U: u_deviant()})
        expanded, _ = mixture_expand(problem, PARTITION, spec)
        for s in BASE:
            lifted = expanded.prior(f"{s}·stay") + expanded.prior(f"{s}·deviate")
            assert lifted == prior(s)


@st.composite
def mixture_inputs(draw):
    """A base problem of 2 to 6 states, its partition, and a deviation spec.

    Every cell has positive prior mass, though single states may have
    none.  Epsilon is often 0 or 1, and some cells get no deviant.
    """
    n = draw(st.integers(2, 6))
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=2)))
    bounds = [0, *cuts, n]
    cells = [space.states[a:b] for a, b in zip(bounds, bounds[1:])]
    mass = {}
    for cell in cells:
        weights = draw(st.lists(st.integers(0, 6), min_size=len(cell), max_size=len(cell)))
        weights[draw(st.integers(0, len(cell) - 1))] += 1
        mass.update(zip(cell, weights))
    total = sum(mass.values())
    prior = Credence(space, {s: Fraction(w, total) for s, w in mass.items()})
    partition = EvidencePartition(space, tuple(Event(space, frozenset(c)) for c in cells))
    deviants = {}
    for cell in partition.cells:
        if draw(st.booleans()):
            members = cell.sorted_members()
            weights = draw(st.lists(st.integers(0, 5), min_size=len(members), max_size=len(members)))
            weights[0] += 1
            deviants[cell] = Credence(
                space, {s: Fraction(w, sum(weights)) for s, w in zip(members, weights)}
            )
    epsilon = draw(
        st.sampled_from((Fraction(0), Fraction(1)))
        | st.fractions(min_value=0, max_value=1, max_denominator=12)
    )
    actions = (Action("idle", {s: "zero" for s in space}),)
    problem = DecisionProblem(space, OUTCOMES, prior, ChoiceSet(actions))
    return problem, partition, DeviationSpec(epsilon, deviants)


class TestMixtureAgainstTheDefinition:
    @given(mixture_inputs())
    def test_every_expanded_credence_matches_the_oracle(self, drawn):
        problem, partition, spec = drawn
        expanded, policy = mixture_expand(problem, partition, spec)
        prior, posteriors = brute_mixture(problem, partition, spec)
        assert dist_of(expanded.prior) == prior
        for state in expanded.space:
            assert dist_of(policy.posterior(state)) == posteriors[state]


@st.composite
def affine_inputs(draw):
    """A generated base problem and deviation, ties allowed, at epsilon 0,
    1 or a drawn value in between."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    problem, partition = _random_problem(rng, 2, 6, need_wide_cell=True)
    spec = _random_deviation_spec(rng, problem.prior, partition)
    epsilon = draw(
        st.sampled_from((Fraction(0), Fraction(1)))
        | st.fractions(min_value=0, max_value=1, max_denominator=16)
    )
    return problem, partition, DeviationSpec(epsilon, spec.deviant_posteriors)


class TestMixtureIsAffineInEpsilon:
    @settings(max_examples=300, deadline=None)
    @given(affine_inputs())
    def test_the_expanded_value_is_the_mix_of_two_base_values(self, drawn):
        """``val_general`` of the expansion is ``(1 - eps) * V_c + eps * V_d``,
        with ``V_c`` the base value under conditioning and ``V_d`` under the
        deviant posteriors (the conditioned prior on cells without one).  A
        side of zero weight has no positive-prior state, so it chooses
        nowhere and is not evaluated."""
        problem, partition, spec = drawn
        eps = spec.epsilon
        learning = conditionalization_policy(problem.prior, partition)
        deviating = UpdatePolicy(partition, {
            s: spec.deviant_posteriors.get(partition.cell_of(s), posterior)
            for s, posterior in learning.posteriors.items()
        })
        sides = [(1 - eps, learning), (eps, deviating)]
        expanded = val_general(*mixture_expand(problem, partition, spec))
        affine = sum(
            (weight * val_general(problem, policy) for weight, policy in sides if weight),
            Fraction(0),
        )
        assert expanded == affine
        brute = brute_val_general(
            brute_lifted(problem), None, *brute_mixture(problem, partition, spec)
        )
        assert expanded == brute


class TestListBuiltContainers:
    def test_lists_build_what_tuples_build(self):
        space = StateSpace(list(BASE.states))
        outcomes = OutcomeSpace(list(OUTCOMES.outcomes), OUTCOMES.utility)
        choices = ChoiceSet(list(base_problem().choices))
        partition = EvidencePartition(space, [U, V])
        for listed, built in (
            (space, BASE),
            (outcomes, OUTCOMES),
            (choices, base_problem().choices),
            (partition, PARTITION),
        ):
            assert listed == built
            assert hash(listed) == hash(built)
        problem = DecisionProblem(space, outcomes, PRIOR, choices)
        policy = conditionalization_policy(PRIOR, partition)
        assert evaluate(problem, policy) == evaluate(
            base_problem(), conditionalization_policy(PRIOR, PARTITION)
        )

    @pytest.mark.parametrize(
        "build, field, value",
        [
            pytest.param(build, field, value, id=name + suffix)
            for name, build, field in [
                ("StateSpace", StateSpace, "states must be a sequence of ids"),
                (
                    "OutcomeSpace", lambda v: OutcomeSpace(v, {}),
                    "outcomes must be a sequence of ids",
                ),
                ("ChoiceSet", ChoiceSet, "actions must be a sequence of Actions"),
                (
                    "Event", lambda v: Event(BASE, v),
                    "members must be a collection of ids",
                ),
                (
                    "EvidencePartition", lambda v: EvidencePartition(BASE, v),
                    "cells must be a sequence of Events",
                ),
                (
                    "LemmaOneRow", lambda v: LemmaOneRow("x", 1, 0, v),
                    "states must be a sequence of ids",
                ),
                (
                    "PerCell", lambda v: PerCell(U, 1, 0, v),
                    "rows must be a sequence of LemmaOneRows",
                ),
                (
                    "VoiReport", lambda v: VoiReport(0, 0, 0, v),
                    "per_cell must be a sequence of PerCells",
                ),
            ]
            for suffix, value in [
                ("", "u1"), ("-bytes", b"u1"), ("-bytearray", bytearray(b"u1"))
            ]
        ],
    )
    def test_a_bare_string_is_refused(self, build, field, value):
        with pytest.raises(ValidationError) as exc:
            build(value)
        assert str(exc.value) == f"{field}, not the string {value!r}"


@st.composite
def deviation_instances(draw):
    """A ``plain_instances`` policy, its cells declared in reverse half the time."""
    plain, share = draw(plain_instances())
    if draw(st.booleans()):
        plain = plain._replace(cells=plain.cells[::-1])
    return build_plain(plain, share)


F = Fraction
# cells declared against state order, each with one deviating state, so
# cell order would give (d, a); a's posterior matches the conditioned
# prior on a itself but puts mass on the zero-prior c
REVERSED_ZERO_PRIOR = Plain(
    tuple("abcde"),
    {"a": F(1, 4), "b": F(1, 4), "c": F(0), "d": F(1, 4), "e": F(1, 4)},
    (("d", "e"), ("a", "b", "c")),
    {
        "a": {"a": F(1, 2), "c": F(1, 2)},
        "b": {"a": F(1, 2), "b": F(1, 2)},
        "c": {"c": F(1)},
        "d": {"d": F(1)},
        "e": {"d": F(1, 2), "e": F(1, 2)},
    },
)


class TestDeviationAgainstTheDefinition:
    """The cell table's deviation answers against plain Fraction dicts."""

    @given(deviation_instances())
    @example(build_plain(REVERSED_ZERO_PRIOR, share=False))
    def test_deviation_answers_match_the_oracle(self, drawn):
        problem, policy = drawn
        expected = brute_deviating_states(problem, policy)
        prior = dist_of(problem.prior)
        deviating = deviating_states(policy, problem.prior)
        assert deviating == expected
        assert sum(problem.prior(s) for s in deviating) == sum(
            (prior[s] for s in expected), Fraction(0)
        )


def clairvoyant_setup():
    """A policy that deviates exactly in the state a bet pays off in."""
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
    posteriors = {
        "x1": Credence(space, {"x1": Fraction(1)}),  # foresees the payoff
        "x2": condition(prior, x_cell),
        "y": condition(prior, y_cell),
    }
    policy = UpdatePolicy(partition, posteriors)
    return problem, policy, x_cell


def first_leak(problem, policy):
    """The first leak witness as ``(cell, chosen id, probe id)``, or ``None``."""
    leak = _first_leak(problem, policy, _choice_groups(problem, policy))
    return None if leak is None else (leak.cell, leak.chosen_action, leak.probe_action)


class TestEvidentialIndependence:
    def test_conditionalization_never_violates(self):
        policy = conditionalization_policy(PRIOR, PARTITION)
        assert first_leak(base_problem(), policy) is None

    def test_mixture_with_blind_actions_never_violates(self):
        expanded, policy = expanded_fixture()
        assert first_leak(expanded, policy) is None

    def test_clairvoyant_policy_is_caught_with_a_witness(self):
        problem, policy, x_cell = clairvoyant_setup()
        with pytest.raises(IndependenceBrokenError) as exc:
            evaluate(problem, policy)
        assert exc.value.cell == x_cell
        # choosing bet1 happens exactly on {x1}, where bet1's payoff differs
        assert exc.value.chosen_action == "bet1"
        assert exc.value.probe_action == "bet1"


@st.composite
def choice_instances(draw):
    """A drawn certificate-search instance with 2 or 3 drawn acts.

    The policies come from ``test_adversary.plain_instances``.  States whose
    posteriors pick different acts mostly make choices leak, as in its
    clairvoyant and miscalibrated cells.  Half the draws instead fold
    self-doubt into the same problem with :func:`mixture_expand`, each
    cell's deviant posterior being its first state's: there the choice
    tracks only the disposition, which is independent of the payoff, so a
    cell with two chosen acts leaks nothing.  Only problems without a
    zero-probability cell can be folded.
    """
    plain, share = draw(plain_instances())
    _, policy = build_plain(plain, share)
    space = policy.space
    utility = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    outcomes = OutcomeSpace(("lo", "mid", "hi"), {o: draw(utility) for o in ("lo", "mid", "hi")})
    actions = tuple(
        Action(f"act{k}", {s: draw(st.sampled_from(outcomes.outcomes)) for s in space})
        for k in range(draw(st.integers(2, 3)))
    )
    problem = DecisionProblem(space, outcomes, Credence(space, plain.prior), ChoiceSet(actions))
    cells = policy.partition.cells
    if any(probability(problem.prior, c) == 0 for c in cells) or draw(st.booleans()):
        return problem, policy
    spec = DeviationSpec(
        draw(st.sampled_from((Fraction(1, 4), Fraction(1, 2)))),
        {cell: policy.posterior(cell.sorted_members()[0]) for cell in cells},
    )
    return mixture_expand(problem, policy.partition, spec)


class TestIntegerLeakTest:
    """The cell pass's cross-multiplied leak test against plain Fractions."""

    @settings(deadline=None)
    @given(choice_instances())
    @example(clairvoyant_setup()[:2])
    def test_witness_and_cell_values_match_the_oracle(self, drawn):
        problem, policy = drawn
        expected = brute_independence_witness(problem, policy)
        if expected is not None:
            cell, chosen, probe = expected
            expected = (cell, chosen.id, probe.id)
        assert first_leak(problem, policy) == expected
        prior = dist_of(problem.prior)
        if any(probability(problem.prior, c) == 0 for c in policy.partition.cells):
            return  # evaluate refuses a zero-probability cell
        if expected is not None:
            with pytest.raises(IndependenceBrokenError) as exc:
                evaluate(problem, policy)
            leak = exc.value
            assert (leak.cell, leak.chosen_action, leak.probe_action) == expected
            return
        for per_cell in evaluate(problem, policy).per_cell:
            given_cell = conditioned(prior, per_cell.cell.members)
            assert per_cell.max_cond_eu == best_value(problem, given_cell)
            for row in per_cell.rows:
                (action,) = [a for a in problem.choices if a.id == row.action_id]
                assert row.cond_eu == eu(problem, action, given_cell)


ELSEWHERE = StateSpace(("x",))
SURE_X = Credence(ELSEWHERE, {"x": Fraction(1)})
ELSEWHERE_PARTITION = EvidencePartition(ELSEWHERE, (Event(ELSEWHERE, {"x"}),))
ELSEWHERE_POLICY = conditionalization_policy(SURE_X, ELSEWHERE_PARTITION)


@pytest.mark.parametrize(
    "build, error, location, message",
    [
        (
            lambda: UpdatePolicy(
                PARTITION,
                {**conditionalization_policy(PRIOR, PARTITION).posteriors, "w": SURE_X},
            ),
            ValidationError, "UpdatePolicy.__post_init__",
            "posterior assigned to unknown state 'w'",
        ),
        (
            lambda: DeviationSpec(Fraction(1, 2), {U: SURE_X}),
            SpaceMismatchError, "DeviationSpec.__post_init__",
            "deviant posterior for cell {u1, u2} is over a different space",
        ),
        (
            lambda: DeviationSpec(Fraction(1, 2), {"u1": PRIOR}),
            ValidationError, "DeviationSpec.__post_init__",
            "deviant posteriors must map cell Events to Credences, not str to Credence",
        ),
        (
            lambda: DeviationSpec(Fraction(1, 2), {U: "x"}),
            ValidationError, "DeviationSpec.__post_init__",
            "deviant posteriors must map cell Events to Credences, not Event to str",
        ),
        (
            lambda: DeviationSpec(Fraction(1, 2), {frozenset({"u1", "u2"}): PRIOR}),
            ValidationError, "DeviationSpec.__post_init__",
            "deviant posteriors must map cell Events to Credences, "
            "not frozenset to Credence",
        ),
        (
            lambda: mixture_expand(base_problem(), ELSEWHERE_PARTITION, DeviationSpec(0, {})),
            SpaceMismatchError, "mixture_expand", "partition is not over the problem's space",
        ),
        (
            lambda: deviating_states(ELSEWHERE_POLICY, PRIOR),
            SpaceMismatchError, "deviating_states",
            "prior and policy live on different spaces",
        ),
        (
            lambda: sum(PRIOR(s) for s in deviating_states(ELSEWHERE_POLICY, PRIOR)),
            SpaceMismatchError, "deviating_states",
            "prior and policy live on different spaces",
        ),
        (
            lambda: evaluate(base_problem(), ELSEWHERE_POLICY),
            SpaceMismatchError, "_choice_groups", "policy is not over the problem's space",
        ),
        (
            lambda: UpdatePolicy(PARTITION, {s: 1 for s in BASE}),
            ValidationError, "UpdatePolicy.__post_init__",
            "posterior for state 'u1' must be a Credence, not int",
        ),
        (
            lambda: EvidencePartition(BASE, ("u1", "u2")),
            ValidationError, "_check_types", "cells[0] must be of type Event, not str",
        ),
        (
            lambda: EvidencePartition(BASE.states, (U, V)),
            ValidationError, "_check_types", "space must be of type StateSpace, not tuple",
        ),
        (
            lambda: UpdatePolicy(("x",), {}),
            ValidationError, "_check_types",
            "partition must be of type EvidencePartition, not tuple",
        ),
        (
            lambda: UpdatePolicy(PARTITION, list(BASE)),
            ValidationError, "_check_types", "posteriors must be of type Mapping, not list",
        ),
        (
            lambda: DeviationSpec(Fraction(1, 2), [1]),
            ValidationError, "_check_types",
            "deviant_posteriors must be of type Mapping, not list",
        ),
        (
            lambda: EvidencePartition(BASE, 5),
            ValidationError, "_check_types", "cells must be of type Iterable, not int",
        ),
    ],
    ids=[
        "posterior-for-unknown-state",
        "deviant-over-another-space",
        "deviant-keyed-by-a-state-id",
        "deviant-posterior-not-a-credence",
        "deviant-keyed-by-a-frozenset",
        "mixture-over-two-spaces",
        "deviation-over-two-spaces",
        "modesty-over-two-spaces",
        "choice-over-two-spaces",
        "posterior-not-a-credence",
        "cell-not-an-event",
        "partition-space-not-a-state-space",
        "policy-partition-not-a-partition",
        "policy-posteriors-not-a-mapping",
        "deviant-posteriors-not-a-mapping",
        "cells-not-iterable",
    ],
)
def test_refusals(build, error, location, message):
    assert refusal(build) == (error, location, message)
