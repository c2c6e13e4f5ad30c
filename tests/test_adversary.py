"""Locating deviations, pricing bets, and certifying information aversion."""

import dataclasses
import random
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infovalue import adversary, decision, prob, updating, voi
from infovalue.adversary import (
    RISKY_ID,
    SAFE_ID,
    AversionCertificate,
    Deviation,
    construct_bet,
    demonstrate_aversion,
)
from infovalue.decision import (
    Action,
    ChoiceSet,
    DecisionProblem,
    OutcomeSpace,
)
from infovalue.errors import (
    IndependenceBrokenError,
    NoDeviationError,
    SpaceMismatchError,
    ValidationError,
    ZeroProbabilityError,
)
from infovalue.prob import Credence, Event, StateSpace, condition, probability
from infovalue.properties import _random_mixture_instance
from infovalue.scenarios import GAMBLERS, UNKNOWN_BIAS, build_scenario
from infovalue.updating import EvidencePartition, UpdatePolicy, conditionalization_policy
from infovalue.voi import val_general

from _oracles import (
    brute_bet,
    brute_bet_value,
    brute_certificate_holds,
    brute_certificate_walk,
    brute_deviation,
    brute_independence_witness,
    brute_val_general,
)
from _refusals import refusal

TWO = StateSpace(("g", "h"))
WHOLE = Event(TWO, frozenset({"g", "h"}))
TWO_PARTITION = EvidencePartition(TWO, (WHOLE,))
TWO_PRIOR = Credence(TWO, {"g": Fraction(1, 2), "h": Fraction(1, 2)})


def two_state_problem():
    outcomes = OutcomeSpace(("nil", "up", "down"), {"nil": 0, "up": 1, "down": -1})
    actions = (
        Action("idle", {"g": "nil", "h": "nil"}),
        Action("tilt", {"g": "up", "h": "down"}),
    )
    return DecisionProblem(TWO, outcomes, TWO_PRIOR, ChoiceSet(actions))


def skewed_policy():
    """Both states adopt the same over-confident posterior after 'learning'."""
    skewed = Credence(TWO, {"g": Fraction(9, 10), "h": Fraction(1, 10)})
    return UpdatePolicy(TWO_PARTITION, {"g": skewed, "h": skewed})


def clairvoyant_policy():
    """Deviates exactly in the state where deviating pays: inadmissible."""
    return UpdatePolicy(
        TWO_PARTITION,
        {
            "g": Credence(TWO, {"g": Fraction(1)}),
            "h": condition(TWO_PRIOR, WHOLE),
        },
    )


class TestFindDeviation:
    """Locating the disagreement a certificate bets on."""

    def test_conditionalization_has_none(self):
        policy = conditionalization_policy(TWO_PRIOR, TWO_PARTITION)
        with pytest.raises(NoDeviationError, match="conditionalizes"):
            demonstrate_aversion(two_state_problem(), policy)

    def test_first_disagreeing_singleton_wins(self):
        deviation = demonstrate_aversion(two_state_problem(), skewed_policy()).deviation
        assert deviation.cell == WHOLE
        assert deviation.state == "g"
        assert deviation.event == Event(TWO, frozenset({"g"}))
        assert deviation.q == Fraction(9, 10)
        assert deviation.r == Fraction(1, 2)

    def test_space_mismatch(self):
        other = StateSpace(("x",))
        problem = DecisionProblem(
            other,
            OutcomeSpace(("nil",), {"nil": 0}),
            Credence(other, {"x": Fraction(1)}),
            ChoiceSet((Action("idle", {"x": "nil"}),)),
        )
        with pytest.raises(ValidationError):
            demonstrate_aversion(problem, skewed_policy())


class TestConstructBet:
    def test_worked_examples(self):
        assert construct_bet(Fraction(9, 10), Fraction(1, 2)) == (
            Fraction(3, 10),
            Fraction(7, 10),
        )
        assert construct_bet(Fraction(2, 3), Fraction(1, 2)) == (
            Fraction(5, 12),
            Fraction(7, 12),
        )
        assert construct_bet(Fraction(1), Fraction(0)) == (
            Fraction(1, 2),
            Fraction(1, 2),
        )

    def test_reads_rational_strings(self):
        assert construct_bet("1/2", "1/4") == (Fraction(5, 8), Fraction(3, 8))

    def test_mirrored_disagreements_use_the_complement_stakes(self):
        assert construct_bet(Fraction(1, 10), Fraction(1, 2)) == construct_bet(
            Fraction(9, 10), Fraction(1, 2)
        )

    def test_rejects_agreement_and_out_of_range(self):
        with pytest.raises(ValidationError, match="agree"):
            construct_bet(Fraction(1, 3), Fraction(1, 3))
        with pytest.raises(ValidationError, match="lie in"):
            construct_bet(Fraction(2), Fraction(1, 3))

    @given(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=60),
    )
    def test_stakes_split_every_disagreement(self, qn, rn):
        q, r = Fraction(qn, 60), Fraction(rn, 60)
        if q == r:
            return
        win, loss = construct_bet(q, r)
        assert win + loss == 1
        assert 0 < win < 1 and 0 < loss < 1
        # whichever side of the disagreement holds the bet's event, the
        # believer profits and the conditioned prior expects a loss
        high, low = (q, r) if q > r else (1 - q, 1 - r)
        assert high * win - (1 - high) * loss > 0
        assert low * win - (1 - low) * loss < 0

    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=40),
        st.fractions(min_value=0, max_value=1, max_denominator=40),
    )
    @example(Fraction(1), Fraction(0))
    @example(Fraction(0), Fraction(1))
    @example(Fraction(0), Fraction(2, 7))
    @example(Fraction(1), Fraction(5, 9))
    @example(Fraction(3, 8), Fraction(1))
    @example(Fraction(4, 11), Fraction(0))
    def test_matches_the_midpoint_definition(self, q, r):
        """Integer pricing against the Fraction definition, on either side."""
        if q == r:
            return
        assert construct_bet(q, r) == brute_bet(q, r)
        assert construct_bet(str(q), str(r)) == brute_bet(q, r)


class TestDemonstrateAversion:
    def test_skewed_policy_yields_a_losing_bet(self):
        problem, policy = two_state_problem(), skewed_policy()
        cert = demonstrate_aversion(problem, policy)
        assert cert.deviation.state == "g"
        assert cert.deviation.q == Fraction(9, 10)
        assert cert.deviation.r == Fraction(1, 2)
        assert (cert.bet_win, cert.bet_loss) == (Fraction(3, 10), Fraction(7, 10))
        assert cert.bet_event == Event(TWO, frozenset({"g"}))
        # both states hold the same posterior, so both take the bet
        assert cert.val_general == Fraction(-1, 5)

    def test_certificate_problem_is_the_two_action_replacement(self):
        cert = demonstrate_aversion(two_state_problem(), skewed_policy())
        assert cert.problem.space == TWO
        assert cert.problem.prior == TWO_PRIOR
        assert cert.problem.choices.ids() == (SAFE_ID, RISKY_ID)
        risky = cert.problem.choices.by_id(RISKY_ID)
        assert risky.outcome_in("g") == "win"
        assert risky.outcome_in("h") == "loss"

    def test_value_matches_the_brute_oracle(self):
        cert = demonstrate_aversion(two_state_problem(), skewed_policy())
        assert brute_val_general(cert.problem, cert.policy) == cert.val_general

    def test_immodest_policy_is_refused(self):
        policy = conditionalization_policy(TWO_PRIOR, TWO_PARTITION)
        with pytest.raises(NoDeviationError):
            demonstrate_aversion(two_state_problem(), policy)

    def test_clairvoyant_policy_is_refused_with_a_witness(self):
        with pytest.raises(IndependenceBrokenError) as exc:
            demonstrate_aversion(two_state_problem(), clairvoyant_policy())
        assert exc.value.cell == WHOLE
        assert exc.value.chosen_action == SAFE_ID
        assert exc.value.probe_action == RISKY_ID

    def test_gamblers_certificate_frozen_values(self):
        scenario = build_scenario("gamblers", epsilon=Fraction(1, 10))
        cert = demonstrate_aversion(scenario.problem, scenario.policy)
        assert cert.deviation.state == "hh·fallacy"
        # the first admissible event is "first flip came up heads twice",
        # blind to the disposition coordinate
        assert cert.deviation.event.members == {"hh·bayes", "hh·fallacy"}
        assert (cert.deviation.q, cert.deviation.r) == (
            Fraction(1, 10),
            Fraction(1, 2),
        )
        assert (cert.bet_win, cert.bet_loss) == (Fraction(3, 10), Fraction(7, 10))
        # q < r, so the bet rides on the complement: second flip tails
        risky = cert.problem.choices.by_id(RISKY_ID)
        wins_on = {s for s in cert.problem.space if risky.outcome_in(s) == "win"}
        assert wins_on == {"ht·bayes", "ht·fallacy"}
        assert cert.val_general == Fraction(-1, 100)

    def test_unknown_bias_certificate_frozen_values(self):
        scenario = build_scenario("unknown-bias", epsilon=Fraction(1, 7))
        cert = demonstrate_aversion(scenario.problem, scenario.policy)
        assert (cert.deviation.q, cert.deviation.r) == (
            Fraction(91, 100),
            Fraction(2, 3),
        )
        assert (cert.bet_win, cert.bet_loss) == (
            Fraction(127, 600),
            Fraction(473, 600),
        )
        assert cert.val_general == Fraction(-73, 8400)
        assert val_general(cert.problem, cert.policy) == Fraction(-73, 8400)

    def test_space_mismatch(self):
        scenario = build_scenario("gamblers", epsilon=Fraction(1, 10))
        with pytest.raises(ValidationError):
            demonstrate_aversion(two_state_problem(), scenario.policy)

    def test_space_mismatch_has_its_own_type(self):
        policy = build_scenario("gamblers", epsilon=Fraction(1, 10)).policy
        assert refusal(lambda: demonstrate_aversion(two_state_problem(), policy)) == (
            SpaceMismatchError, "demonstrate_aversion", "policy is not over the problem's space"
        )


class TestAversionCertificate:
    def build(self):
        return demonstrate_aversion(two_state_problem(), skewed_policy())

    def test_tampered_value_is_rejected(self):
        cert = self.build()
        with pytest.raises(ValidationError, match="recomputation"):
            dataclasses.replace(cert, val_general=cert.val_general - 1)

    @pytest.mark.parametrize("field, text", [("val_general", "-1/5")])
    def test_stakes_and_value_read_rational_strings(self, field, text):
        cert = self.build()
        read = dataclasses.replace(cert, **{field: text})
        assert read == cert
        assert type(getattr(read, field)) is Fraction

    def test_checks_build_no_credence_or_expected_utility(self, monkeypatch):
        """The checks read integer rows, ``nums`` and prior weights: nothing
        conditions a credence or prices an expected utility or probability,
        and the checks build four Fractions, q, r and the stakes
        construct_bet prices from them, unless a check fails: the recomputed
        value, summed in voi, stays an integer."""
        gamblers = build_scenario("gamblers", epsilon=Fraction(1, 10))
        certs = [
            self.build(),
            demonstrate_aversion(gamblers.problem, gamblers.policy),
        ]

        def forbidden(*args, **kwargs):
            raise AssertionError("a certificate check left the integers")

        names = ("condition", "expected_utility", "best_action", "probability")
        for module in (prob, decision, updating, voi, adversary):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        built = []

        def counted(*args):
            built.append(Fraction(*args))
            return built[-1]

        for module in (adversary, voi):
            monkeypatch.setattr(module, "Fraction", counted)
        for cert in certs:
            built.clear()
            assert dataclasses.replace(cert) == cert
            d = cert.deviation
            assert built == [d.q, d.r, cert.bet_win, cert.bet_loss]

    @settings(deadline=None)
    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=12),
        st.fractions(min_value=0, max_value=1, max_denominator=12),
    )
    @example(Fraction(9, 10), Fraction(1, 2))
    @example(Fraction(1, 10), Fraction(1, 2))  # mirrored
    @example(Fraction(1), Fraction(0))
    @example(Fraction(0), Fraction(1))
    def test_every_true_disagreement_certifies_at_its_midpoint(self, q, r):
        """Both states hold one posterior that puts q on {g}, where the prior
        puts r.  The certificate of that true deviation derives q and r and
        prices the midpoint stakes itself, the deviant posterior takes the
        bet and the conditioned prior declines it, so no stakes need
        checking.  The deviant is g, or h when g never occurs."""
        if q == r:
            return
        state = "g" if r else "h"
        prior = Credence(TWO, {"g": r, "h": 1 - r})
        posterior = Credence(TWO, {"g": q, "h": 1 - q})
        policy = UpdatePolicy(TWO_PARTITION, {"g": posterior, "h": posterior})
        event = Event(TWO, frozenset({"g"}))
        cert = AversionCertificate(
            state=state,
            event=event,
            prior=prior,
            policy=policy,
            val_general=-abs(q - r) / 2,  # everyone takes a bet the prior prices at r
        )
        assert cert.deviation == Deviation(WHOLE, state, event, q, r)
        assert (cert.bet_win, cert.bet_loss) == brute_bet(q, r)
        assert cert.bet_event == (event if q > r else event.complement())
        # win + loss = 1, so a credence takes the bet iff its mass there exceeds loss
        _, deviant, sober = brute_deviation(prior, policy, state, cert.bet_event.members)
        assert deviant > cert.bet_loss > sober
        assert brute_val_general(cert.problem, policy) == cert.val_general

    def test_derived_attributes_are_not_fields(self):
        """The deviation, the stakes, ``bet_event`` and ``problem`` follow
        from the inputs, so equality, hashing and ``dataclasses.replace``
        see only the inputs."""
        cert = self.build()
        assert [f.name for f in dataclasses.fields(cert)] == [
            "state", "event", "prior", "policy", "val_general"
        ]
        assert "__post_init__" not in vars(Deviation)
        twin = dataclasses.replace(cert)
        assert twin == cert and hash(twin) == hash(cert)
        derived = ("deviation", "bet_win", "bet_loss", "bet_event", "problem")
        assert [getattr(twin, name) for name in derived] == [
            getattr(cert, name) for name in derived
        ]

    def test_prior_over_another_space_is_refused_as_conditioning(self):
        """The problem is laid out on the prior's states, so a prior over
        another space than the cell's reaches the cell's own refusal."""
        larger = StateSpace(("g", "h", "k"))
        prior = Credence(larger, {"g": Fraction(1, 2), "h": Fraction(1, 2)})
        assert refusal(lambda: dataclasses.replace(self.build(), prior=prior)) == (
            SpaceMismatchError, "_cell_weights", "event and credence live on different spaces"
        )

    def test_one_choice_map_per_certificate(self, monkeypatch):
        """The value recomputation and the independence check share one map."""
        cert = self.build()
        calls = []
        choice_groups = updating._choice_groups

        def counted(*args):
            calls.append(args)
            return choice_groups(*args)

        for module in (adversary, updating, voi):
            monkeypatch.setattr(module, "_choice_groups", counted)
        assert dataclasses.replace(cert) == cert
        assert calls == [(cert.problem, cert.policy)]

    def test_profitable_deviation_cannot_be_certified(self):
        """A policy that deviates exactly when deviating pays would make the
        'certificate' claim a positive value.  The recomputation agrees with
        that claim, and the leak test refuses it: only the knowing state
        takes the bet, so taking it reveals g."""
        policy = clairvoyant_policy()
        event = Event(TWO, frozenset({"g"}))
        win, loss = construct_bet(Fraction(1), Fraction(1, 2))
        problem = bet_problem(two_state_problem(), WHOLE.members, event.members, win, loss)
        # only the knowing state takes the bet, so learning *gains* 1/8
        assert val_general(problem, policy) == Fraction(1, 8)
        with pytest.raises(ValidationError, match="takers leak"):
            AversionCertificate(
                state="g",
                event=event,
                prior=TWO_PRIOR,
                policy=policy,
                val_general=Fraction(1, 8),
            )

    def test_leaking_takers_cannot_be_certified(self):
        """a and b are both certain of b, so both take a bet on {b} that c
        declines: taking it reveals b is likelier, and the -1/9 value the
        bet seems to cost is not the price of misjudging the world."""
        space = StateSpace(("a", "b", "c"))
        cell = Event(space, frozenset(space.states))
        prior = Credence(space, {s: Fraction(1, 3) for s in space})
        certain_of_b = Credence(space, {"b": Fraction(1)})
        policy = UpdatePolicy(
            EvidencePartition(space, (cell,)),
            {"a": certain_of_b, "b": certain_of_b, "c": condition(prior, cell)},
        )
        bet_event = Event(space, frozenset({"b"}))
        outcomes = OutcomeSpace(
            ("zero", "win", "loss"),
            {"zero": 0, "win": Fraction(1, 3), "loss": Fraction(-2, 3)},
        )
        actions = (
            Action(SAFE_ID, {s: "zero" for s in space}),
            Action(RISKY_ID, {"a": "loss", "b": "win", "c": "loss"}),
        )
        problem = DecisionProblem(space, outcomes, prior, ChoiceSet(actions))
        assert val_general(problem, policy) == Fraction(-1, 9)
        with pytest.raises(ValidationError, match="takers leak") as exc:
            AversionCertificate(
                state="a",
                event=bet_event,
                prior=prior,
                policy=policy,
                val_general=Fraction(-1, 9),
            )
        assert str(exc.value) == (
            f"the bet's takers leak: choosing {SAFE_ID!r} within cell {{a, b, c}} "
            f"shifts the conditional expected utility of {RISKY_ID!r}"
        )


class Plain(NamedTuple):
    """A one-action problem and its policy as plain data, for the oracle."""

    states: tuple[str, ...]
    prior: dict[str, Fraction]
    cells: tuple[tuple[str, ...], ...]
    posteriors: dict[str, dict[str, Fraction]]


def build_plain(plain, share):
    """The library's (problem, policy) for ``plain``.

    States whose plain posterior is one dict get one shared credence when
    ``share`` is set, and equal but distinct credences otherwise.
    """
    space = StateSpace(plain.states)
    built = {}
    posteriors = {}
    for state in plain.states:
        dist = plain.posteriors[state]
        if not share or id(dist) not in built:
            built[id(dist)] = Credence(space, dist)
        posteriors[state] = built[id(dist)]
    partition = EvidencePartition(
        space, tuple(Event(space, frozenset(c)) for c in plain.cells)
    )
    problem = DecisionProblem(
        space,
        OutcomeSpace(("nil",), {"nil": 0}),
        Credence(space, plain.prior),
        ChoiceSet((Action("idle", {s: "nil" for s in plain.states}),)),
    )
    return problem, UpdatePolicy(partition, posteriors)


def normalized(states, weights):
    total = sum(weights)
    return {s: Fraction(w, total) for s, w in zip(states, weights) if w}


DRAWN, CLAIRVOYANT, CALIBRATED, PARTLY_CALIBRATED, MISCALIBRATED = (
    "drawn", "clairvoyant", "calibrated", "partly calibrated", "miscalibrated"
)
CELL_KINDS = (DRAWN,) * 4 + (CLAIRVOYANT, CALIBRATED, PARTLY_CALIBRATED, MISCALIBRATED)


def draw_cell_posteriors(draw, cell, cell_weights):
    """The posterior of each of the cell's states, for one drawn kind of cell.

    *drawn*: up to 3 drawn posteriors, one of which may be the cell's
    conditioned prior, so some states need not deviate.  *clairvoyant*:
    each state is certain of itself.  *calibrated*: the positive-prior
    states fall into up to 3 groups, each holding the prior conditioned on
    the group.  *partly calibrated*: two groups, the first calibrated and
    the second holding a drawn posterior.  *miscalibrated*: clairvoyant,
    except that the first state is half on itself and half on the second.
    Zero-prior states of a (partly) calibrated cell hold a drawn posterior,
    and a cell with no positive-prior state is drawn whatever its kind.
    """
    size = len(cell)

    def drawn():
        return normalized(
            cell, draw(st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any))
        )

    kind = draw(st.sampled_from(CELL_KINDS))
    if kind in (CLAIRVOYANT, MISCALIBRATED):
        posteriors = {s: {s: Fraction(1)} for s in cell}
        if kind == MISCALIBRATED and size > 1:
            posteriors[cell[0]] = {cell[0]: Fraction(1, 2), cell[1]: Fraction(1, 2)}
        return posteriors
    weight = dict(zip(cell, cell_weights))
    positive = [s for s in cell if weight[s]]
    if kind != DRAWN and positive:
        top = 2 if kind == CALIBRATED else 1
        groups = {}
        for state in positive:
            groups.setdefault(draw(st.integers(0, top)), []).append(state)
        posteriors = dict.fromkeys(cell, drawn())  # zero-prior states keep this one
        for g, members in groups.items():
            if kind == CALIBRATED or g == 0:
                held = normalized(members, [weight[s] for s in members])
            else:
                held = drawn()
            posteriors.update(dict.fromkeys(members, held))
        return posteriors
    classes = []
    for _ in range(draw(st.integers(1, 3))):
        if positive and draw(st.integers(0, 3)) == 0:
            classes.append(normalized(cell, cell_weights))
        else:
            classes.append(drawn())
    return {s: classes[draw(st.integers(0, len(classes) - 1))] for s in cell}


@st.composite
def plain_instances(draw):
    """One or two cells of at most 6 states, each of a drawn kind.

    Prior weights may be 0, so zero-prior members can carry posterior
    mass.  Most cells hold drawn posteriors; the others are clairvoyant,
    calibrated, partly calibrated or miscalibrated
    (:func:`draw_cell_posteriors`), which is how refusals arise.
    """
    sizes = [draw(st.integers(2, 6))] + draw(st.lists(st.integers(1, 6), max_size=1))
    states = tuple(f"s{i}" for i in range(sum(sizes)))
    weights = draw(
        st.lists(st.integers(0, 3), min_size=len(states), max_size=len(states)).filter(any)
    )
    prior = {s: Fraction(w, sum(weights)) for s, w in zip(states, weights)}
    cells, posteriors, start = [], {}, 0
    for size in sizes:
        cell = states[start:start + size]
        cells.append(cell)
        posteriors |= draw_cell_posteriors(draw, cell, weights[start:start + size])
        start += size
    return Plain(states, prior, tuple(cells), posteriors), draw(st.booleans())


def bet_problem(problem, cell, bet, win, loss):
    """``problem`` with its acts replaced by a bet's two: ``safe`` pays 0
    everywhere; ``risky`` pays ``win`` on ``bet``, ``-loss`` on the rest of
    ``cell`` and 0 outside it."""

    def risky(state):
        if state not in cell:
            return "zero"
        return "win" if state in bet else "loss"

    outcomes = OutcomeSpace(("zero", "win", "loss"), {"zero": 0, "win": win, "loss": -loss})
    actions = (
        Action(SAFE_ID, {s: "zero" for s in problem.space}),
        Action(RISKY_ID, {s: risky(s) for s in problem.space}),
    )
    return DecisionProblem(problem.space, outcomes, problem.prior, ChoiceSet(actions))


def assert_matches_the_walk(plain, share):
    problem, policy = build_plain(plain, share)
    expected = brute_certificate_walk(plain)
    if expected is None:
        with pytest.raises(NoDeviationError):
            demonstrate_aversion(problem, policy)
    elif expected[0] == "refused":
        with pytest.raises(IndependenceBrokenError) as exc:
            demonstrate_aversion(problem, policy)
        _, members, bet, win, loss = expected
        cell = exc.value.cell
        assert cell.sorted_members() == members
        assert (exc.value.chosen_action, exc.value.probe_action) == (SAFE_ID, RISKY_ID)
        # the definitional route: the first rejected bet's own problem leaks
        # at the refused cell, from safe's group through risky
        leak = brute_independence_witness(bet_problem(problem, cell, bet, win, loss), policy)
        assert (leak[0], leak[1].id, leak[2].id) == (cell, SAFE_ID, RISKY_ID)
    else:
        cert = demonstrate_aversion(problem, policy)
        d = cert.deviation
        assert (
            "certificate",
            d.cell.sorted_members(),
            d.state,
            d.event.members,
            d.q,
            d.r,
            cert.bet_event.members & d.cell.members,
            cert.bet_win,
            cert.bet_loss,
            cert.val_general,
        ) == expected
        assert brute_val_general(cert.problem, cert.policy) == cert.val_general < 0


F = Fraction
# a and b hold one point mass on a: every bet it prices is rejected, so b
# is skipped and the certificate comes from c's posterior
CLASS_SKIP = Plain(
    ("a", "b", "c"),
    {"a": F(1, 7), "b": F(3, 7), "c": F(3, 7)},
    (("a", "b", "c"),),
    {
        "a": {"a": F(1)},
        "b": {"a": F(1)},
        "c": {"a": F(1, 4), "b": F(1, 2), "c": F(1, 4)},
    },
)
# b's posterior puts exactly a's bet threshold 3/4 on {a}, so b declines
# a's bets (ties go to safe) and the certificate comes from b
TIE_AT_THRESHOLD = Plain(
    ("a", "b"),
    {"a": F(1, 2), "b": F(1, 2)},
    (("a", "b"),),
    {"a": {"a": F(1)}, "b": {"a": F(3, 4), "b": F(1, 4)}},
)
CLAIRVOYANT_3 = Plain(
    ("a", "b", "c"),
    {"a": F(1, 2), "b": F(1, 3), "c": F(1, 6)},
    (("a", "b", "c"),),
    {s: {s: F(1)} for s in "abc"},
)
CLAIRVOYANT_8 = Plain(
    tuple(f"s{i}" for i in range(1, 9)),
    normalized(tuple(f"s{i}" for i in range(1, 9)), (3, 1, 4, 1, 5, 9, 2, 6)),
    (tuple(f"s{i}" for i in range(1, 9)),),
    {f"s{i}": {f"s{i}": F(1)} for i in range(1, 9)},
)
# two cells; the zero-prior y carries posterior mass in both x's and z's
# posteriors, which are equal but built as distinct objects unless shared
ZERO_PRIOR_MASS = Plain(
    ("w", "x", "y", "z"),
    {"w": F(1, 4), "x": F(1, 4), "y": F(0), "z": F(1, 2)},
    (("w",), ("x", "y", "z")),
    {
        "w": {"w": F(1)},
        "x": {"x": F(1, 3), "y": F(1, 3), "z": F(1, 3)},
        "y": {"y": F(1)},
        "z": {"x": F(1, 3), "y": F(1, 3), "z": F(1, 3)},
    },
)

HALF_A = {"a": F(1, 2), "b": F(1, 4), "c": F(1, 4)}
# a holds the prior conditioned on {a} and b, c hold a drawn posterior: the
# cell is only partly calibrated, so it is walked in full and b certifies
PARTLY_CALIBRATED_3 = Plain(
    ("a", "b", "c"),
    {s: F(1, 3) for s in "abc"},
    (("a", "b", "c"),),
    {"a": {"a": F(1)}, "b": HALF_A, "c": HALF_A},
)
# {a, c} and {b, d} each hold the prior conditioned on themselves, so the
# first cell gives the witness at once; the clairvoyant second cell, also
# calibrated, comes after it and is skipped
AC, BD = {"a": F(1, 4), "c": F(3, 4)}, {"b": F(1, 2), "d": F(1, 2)}
CALIBRATED_TWO_CELLS = Plain(
    tuple("abcdef"),
    normalized(tuple("abcdef"), (1, 2, 3, 2, 1, 1)),
    (tuple("abcd"), ("e", "f")),
    {"a": AC, "b": BD, "c": AC, "d": BD, "e": {"e": F(1)}, "f": {"f": F(1)}},
)


def miscalibrated(states, weights):
    """One cell, clairvoyant but for the first state, which is half on
    itself and half on the second: not calibrated, so every bet is walked,
    and every one leaks.  A state certain of itself always bets on the side
    of a candidate that holds it, at stake (1 + r) / 2 for that side's r, so
    every such state in a bet's event reaches the same (bet, stake) pair."""
    first, second = states[:2]
    return Plain(
        states,
        normalized(states, weights),
        (states,),
        {first: {first: F(1, 2), second: F(1, 2)}} | {s: {s: F(1)} for s in states[1:]},
    )


MISCALIBRATED_4 = miscalibrated(tuple("abcd"), (1, 2, 3, 4))
MISCALIBRATED_6 = miscalibrated(tuple("abcdef"), (1,) * 6)
MISCALIBRATED_8 = miscalibrated(tuple("abcdefgh"), (3, 1, 4, 1, 5, 9, 2, 6))
# a (den 4) certifies on {b} with q = 1/2 < r = 3/4, so the bet is the
# rest of the cell, {a, c}, at stake 3/8.  b (den 2) puts half its mass on
# that bet, all of it at the zero-prior c: only den less b's mass on {b}
# makes b a taker
QUARTER_C = {"a": F(1, 4), "b": F(1, 2), "c": F(1, 4)}
MIRRORED_ZERO_PRIOR = Plain(
    ("a", "b", "c"),
    {"a": F(1, 4), "b": F(3, 4), "c": F(0)},
    (("a", "b", "c"),),
    {"a": QUARTER_C, "b": {"b": F(1, 2), "c": F(1, 2)}, "c": QUARTER_C},
)


def priced_bets(monkeypatch):
    """The ``(q, r)`` of every bet the search prices from here on."""
    calls = []

    def counted(q, r):
        calls.append((q, r))
        return construct_bet(q, r)

    monkeypatch.setattr(adversary, "construct_bet", counted)
    return calls


class TestCertificateWalk:
    """The search against a state-by-state Fraction walk of the same order."""

    @settings(deadline=None)
    @given(plain_instances())
    @example((CLASS_SKIP, False))
    @example((ZERO_PRIOR_MASS, False))
    @example((CLAIRVOYANT_3, True))
    @example((TIE_AT_THRESHOLD, True))
    @example((PARTLY_CALIBRATED_3, True))
    @example((CALIBRATED_TWO_CELLS, False))
    @example((MISCALIBRATED_4, True))
    @example((MIRRORED_ZERO_PRIOR, False))
    @example((MISCALIBRATED_6, True))
    @example((MISCALIBRATED_8, False))
    def test_agrees_with_the_brute_walk(self, drawn):
        assert_matches_the_walk(*drawn)

    def test_calibrated_refusal_prices_no_bet(self, monkeypatch):
        """A one-cell clairvoyant policy is calibrated: its refusal walks
        none of the 2**16 - 2 events, prices no bet, and names the cell."""
        states = tuple(f"s{i}" for i in range(16))
        plain = Plain(
            states,
            normalized(states, [i % 3 + 1 for i in range(16)]),
            (states,),
            {s: {s: F(1)} for s in states},
        )
        calls = priced_bets(monkeypatch)
        problem, policy = build_plain(plain, share=True)
        with pytest.raises(IndependenceBrokenError) as exc:
            demonstrate_aversion(problem, policy)
        assert calls == []
        witness = exc.value.cell.members, exc.value.chosen_action, exc.value.probe_action
        assert witness == (set(states), SAFE_ID, RISKY_ID)

    def test_walked_refusal_prices_no_bet(self, monkeypatch):
        """A miscalibrated cell is walked in full, every bet is rejected in
        integers, and the refusal names the cell without pricing one."""
        calls = priced_bets(monkeypatch)
        problem, policy = build_plain(MISCALIBRATED_4, share=True)
        with pytest.raises(IndependenceBrokenError) as exc:
            demonstrate_aversion(problem, policy)
        assert calls == []
        witness = exc.value.cell, exc.value.chosen_action, exc.value.probe_action
        assert witness == (policy.partition.cells[0], SAFE_ID, RISKY_ID)

    @pytest.mark.parametrize("share", [True, False])
    def test_later_posterior_class_certifies(self, share, monkeypatch):
        """a's bets are all rejected, and only c's certificate is priced."""
        calls = priced_bets(monkeypatch)
        cert = demonstrate_aversion(*build_plain(CLASS_SKIP, share))
        assert calls == [(F(1, 4), F(1, 7))]
        assert cert.deviation.state == "c"
        assert cert.deviation.event.members == {"a"}
        assert (cert.deviation.q, cert.deviation.r) == (F(1, 4), F(1, 7))
        assert (cert.bet_win, cert.bet_loss) == (F(45, 56), F(11, 56))

    def test_clairvoyant_eight_state_witness(self):
        assert brute_certificate_walk(CLAIRVOYANT_8)[:2] == (
            "refused",
            CLAIRVOYANT_8.states,
        )
        problem, policy = build_plain(CLAIRVOYANT_8, share=True)
        with pytest.raises(IndependenceBrokenError) as exc:
            demonstrate_aversion(problem, policy)
        assert exc.value.cell == policy.partition.cells[0]
        assert exc.value.cell.members == set(problem.space.states)
        assert exc.value.chosen_action == SAFE_ID
        assert exc.value.probe_action == RISKY_ID


def outside_cell_gamblers_certificate():
    """A certificate whose event lies outside its state's cell.  The
    gamblers policy learns the first flip, so hh·bayes's cell is the four
    h· states.  hh·bayes conditionalizes on that cell, and only on the
    whole space, which is no cell of the policy, would its 0 on the
    second half's tt states pass for a deviation from the prior's 1/4."""
    gamblers = build_scenario("gamblers", epsilon=Fraction(1, 2))
    space = gamblers.problem.space
    return AversionCertificate(
        state="hh·bayes",
        event=Event(space, frozenset({"tt·bayes", "tt·fallacy"})),
        prior=gamblers.problem.prior,
        policy=gamblers.policy,
        val_general=Fraction(-1, 32),
    )


def never_occurring_state_certificate():
    """A certificate whose deviant state has prior mass 0.  On the one
    cell (a, b, z) with prior (1/2, 1/2, 0), every state holds (9/10, 1/10,
    0); the search certifies at a, and z holds the same posterior, so
    every check before the state's passes, and so would every check after
    it."""
    space = StateSpace(("a", "b", "z"))
    whole = Event(space, frozenset(space.states))
    prior = Credence(space, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
    outcomes = OutcomeSpace(("nil", "up", "down"), {"nil": 0, "up": 1, "down": -1})
    actions = (
        Action("idle", {s: "nil" for s in space}),
        Action("tilt", {"a": "up", "b": "down", "z": "nil"}),
    )
    skewed = Credence(space, {"a": Fraction(9, 10), "b": Fraction(1, 10)})
    policy = UpdatePolicy(EvidencePartition(space, (whole,)), {s: skewed for s in space})
    problem = DecisionProblem(space, outcomes, prior, ChoiceSet(actions))
    cert = demonstrate_aversion(problem, policy)
    assert (cert.state, cert.val_general) == ("a", Fraction(-1, 5))
    return dataclasses.replace(cert, state="z")


def zero_cell_certificate():
    """A certificate whose state lies in a cell of prior 0: the prior is
    on {a, b} and the state is c, of the cell {c, d}.  Its prior weights
    are refused as conditioning on the cell would be, before the state's
    own prior mass is read."""
    space = StateSpace(("a", "b", "c", "d"))
    cells = (Event(space, frozenset({"a", "b"})), Event(space, frozenset({"c", "d"})))
    prior = Credence(space, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
    certain_of_c = Credence(space, {"c": Fraction(1)})
    policy = UpdatePolicy(
        EvidencePartition(space, cells),
        {"a": prior, "b": prior, "c": certain_of_c, "d": certain_of_c},
    )
    return AversionCertificate(
        state="c",
        event=Event(space, frozenset({"c"})),
        prior=prior,
        policy=policy,
        val_general=Fraction(-1, 4),
    )


def skewed_certificate(**changes):
    """The two-state skewed certificate, with ``changes`` to its inputs."""
    return dataclasses.replace(
        demonstrate_aversion(two_state_problem(), skewed_policy()), **changes
    )


FLOAT_HALF = (
    "expected an exact rational, got float 0.5; "
    "pass a Fraction, an int, or a string like '1/10'"
)


@pytest.mark.parametrize(
    "build, error, location, message",
    [
        (lambda: skewed_certificate(val_general=0.5), ValidationError, "_ratio", FLOAT_HALF),
        (lambda: construct_bet(0.5, Fraction(1, 4)), ValidationError, "_ratio", FLOAT_HALF),
        (
            lambda: construct_bet(True, False),
            ValidationError,
            "_ratio",
            "expected an exact rational, got bool True",
        ),
        (
            lambda: construct_bet("1/2", "0.25"),
            ValidationError,
            "_ratio",
            "expected an exact rational string like '3/4' or '-2', got '0.25'",
        ),
        (
            lambda: skewed_certificate(state=["g"]),
            ValidationError,
            "_check_types",
            "state must be of type str, not list",
        ),
        (
            lambda: skewed_certificate(event=frozenset({"g"})),
            ValidationError,
            "_check_types",
            "event must be of type Event, not frozenset",
        ),
        (
            lambda: skewed_certificate(prior=two_state_problem()),
            ValidationError,
            "_check_types",
            "prior must be of type Credence, not DecisionProblem",
        ),
        (
            lambda: skewed_certificate(policy=TWO_PARTITION),
            ValidationError,
            "_check_types",
            "policy must be of type UpdatePolicy, not EvidencePartition",
        ),
        (
            lambda: skewed_certificate(state="k"),
            ValidationError,
            "EvidencePartition.cell_of",
            "unknown state 'k'",
        ),
        (
            outside_cell_gamblers_certificate,
            ValidationError,
            "AversionCertificate.__post_init__",
            "event {tt·bayes, tt·fallacy} is not inside cell "
            "{hh·bayes, hh·fallacy, ht·bayes, ht·fallacy}",
        ),
        (
            lambda: skewed_certificate(
                event=Event(StateSpace(("g", "h", "k")), frozenset({"g"}))
            ),
            SpaceMismatchError,
            "AversionCertificate.__post_init__",
            "event and cell live on different spaces",
        ),
        (
            zero_cell_certificate,
            ZeroProbabilityError,
            "_cell_weights",
            "cannot condition on zero-probability event {c, d}",
        ),
        (
            never_occurring_state_certificate,
            ValidationError,
            "AversionCertificate.__post_init__",
            "state 'z' has prior probability 0, so it never occurs",
        ),
        (
            lambda: skewed_certificate(event=WHOLE),
            ValidationError,
            "AversionCertificate.__post_init__",
            "q and r agree; a deviation must disagree about its event",
        ),
    ],
    ids=[
        "certificate-float-value",
        "bet-float-q",
        "bet-bool-q",
        "bet-decimal-string-r",
        "certificate-state-not-a-string",
        "certificate-event-not-an-event",
        "certificate-prior-not-a-credence",
        "certificate-policy-not-a-policy",
        "certificate-unknown-state",
        "certificate-event-outside-the-cell",
        "certificate-event-on-another-space",
        "certificate-cell-never-occurs",
        "certificate-state-never-occurs",
        "certificate-q-equals-r",
    ],
)
def test_refusals(build, error, location, message):
    assert refusal(build) == (error, location, message)


# a fixed stream: the presets, then mixture draws until MUTANT_DRAWS
# certificates, every other one on a prior with zero-prior states; sized
# to about 3 s (Python 3.11 on a 2-vCPU x86-64 VM) from a timing run that
# discarded the verdicts, it makes 3,037 mutants
MUTANT_SEED = 36
MUTANT_DRAWS = 140
PRESETS = [(GAMBLERS, e) for e in ("1/10", "1/2", "1")] + [
    (UNKNOWN_BIAS, e) for e in ("1/10", "1/7", "1/2", "1")
]


def with_zero_prior_states(problem, rng):
    """``problem`` on a prior that gives about a third of its states 0.

    Those states keep their posteriors, which then deviate from their
    cells' conditioned priors, and one may share the posterior a
    certificate's own state holds.  At least one state keeps its weight.
    """
    nums = [0 if rng.random() < 1 / 3 else n for n in problem.prior.nums]
    if not any(nums):
        return problem
    return dataclasses.replace(problem, prior=Credence._from_weights(problem.space, nums))


def certificate_stream():
    """Certificates of the presets, then of seeded mixture draws."""
    for name, epsilon in PRESETS:
        scenario = build_scenario(name, epsilon=epsilon)
        yield demonstrate_aversion(scenario.problem, scenario.policy)
    rng = random.Random(MUTANT_SEED)
    drawn = 0
    while drawn < MUTANT_DRAWS:
        instance = _random_mixture_instance(rng)
        problem = instance.problem
        if drawn % 2:
            problem = with_zero_prior_states(problem, rng)
        try:
            yield demonstrate_aversion(problem, instance.policy)
        except (NoDeviationError, IndependenceBrokenError):
            continue
        drawn += 1


def mutants(cert, rng):
    """Changes to a certificate's claims, each replacing one claim: near
    misses and claims that may hold.  States are drawn from the whole space
    and taken from the whole cell, zero-prior members included.  A replaced
    state or event also comes with the value restated for the bet it
    prices, as :func:`brute_deviation` and :func:`brute_bet_value` find
    it, so the checks after the replaced claim's are reached too."""
    prior, policy, cell = cert.prior, cert.policy, cert.deviation.cell
    space = prior.space

    def subset(states):
        return Event(space, frozenset(s for s in states if rng.random() < 0.5))

    lost = Fraction(rng.randint(1, 12), rng.randint(1, 12))
    for value in (cert.val_general + Fraction(1, 97), 0, -cert.val_general, -lost):
        yield {"val_general": value}
    for claim, replacements in (
        ("state", rng.sample(space.states, min(2, len(space))) + list(cell.sorted_members())),
        ("event", (subset(cell.members), subset(space.states), cell.complement(), cell)),
    ):
        for replacement in replacements:
            change = {claim: replacement}
            yield change
            claims = {"state": cert.state, "event": cert.event} | change
            members = claims["event"].members
            found = brute_deviation(prior, policy, claims["state"], members)
            if found is None:
                continue
            states, q, r = found
            if q != r:
                value, _ = brute_bet_value(prior, policy, states, members, q, r)
                yield change | {"val_general": value}


def test_certificate_accepts_exactly_the_claims_the_oracle_finds_valid():
    """Each certificate of the stream, with one claim replaced, constructs
    exactly when the plain-data oracle finds every claim true, with the
    oracle's cell, q, r and midpoint stakes, and is refused with
    ValidationError otherwise."""
    rng = random.Random(MUTANT_SEED + 1)
    wrong, verdicts = [], []
    for cert in certificate_stream():
        for change in mutants(cert, rng):
            claims = {"state": cert.state, "event": cert.event, "val_general": cert.val_general}
            claims |= change
            state, members = claims["state"], claims["event"].members
            holds = brute_certificate_holds(
                cert.prior, cert.policy, state, members, claims["val_general"]
            )
            try:
                built = AversionCertificate(prior=cert.prior, policy=cert.policy, **claims)
                d = built.deviation
                got = (d.cell.members, d.q, d.r, built.bet_win, built.bet_loss)
            except ValidationError:
                got = None
            expected = None
            if holds:
                cell, q, r = brute_deviation(cert.prior, cert.policy, state, members)
                expected = (cell, q, r, *brute_bet(q, r))
            verdicts.append(holds)
            if got != expected:
                wrong.append((change, cert.state, cert.event, holds))
    assert wrong == []
    assert any(verdicts) and not all(verdicts)
