"""Exact probability primitives: spaces, events, credences, conditioning."""

import copy
import dataclasses
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from infovalue.decision import (
    Action,
    ChoiceSet,
    DecisionProblem,
    OutcomeSpace,
    expected_utility,
)
from infovalue.errors import (
    SpaceMismatchError,
    ValidationError,
    ZeroProbabilityError,
)
from infovalue.prob import (
    Credence,
    Event,
    StateSpace,
    as_fraction,
    condition,
    is_partition,
    probability,
)

from _oracles import conditioned, dist_of
from _refusals import refusal

SPACE = StateSpace(("a", "b", "c", "d"))
ABC = StateSpace(("a", "b", "c"))


def credence(**mass):
    return Credence(SPACE, {s: Fraction(v) for s, v in mass.items()})


def event(*members):
    return Event(SPACE, frozenset(members))


# Weights over the four states of SPACE, at least one positive.
weights = st.lists(
    st.integers(min_value=0, max_value=30), min_size=4, max_size=4
).filter(lambda w: sum(w) > 0)


@st.composite
def credences(draw):
    w = draw(weights)
    total = sum(w)
    return Credence(
        SPACE, {s: Fraction(x, total) for s, x in zip(SPACE, w) if x}
    )


@st.composite
def mass_texts(draw):
    """A credence over SPACE spelled as rational strings in every way the
    grammar allows: unreduced masses over mixed denominators, leading
    zeros, a ``+`` sign, and zero masses written out (``"-0"``, ``"0/7"``)
    or left out."""
    w = draw(weights)
    total = sum(w)
    texts = {}
    for s, x in zip(SPACE, w):
        if not x:
            zero = draw(st.sampled_from(["0", "-0", "+0", "00", "0/7", "-0/03", None]))
            if zero is not None:
                texts[s] = zero
            continue
        factor = draw(st.integers(min_value=1, max_value=6))
        num, den = x * factor, total * factor
        pad = "0" * draw(st.integers(min_value=0, max_value=2))
        sign = draw(st.sampled_from(["", "+"]))
        if den == 1 and draw(st.booleans()):
            texts[s] = f"{sign}{pad}{num}"
        else:
            texts[s] = f"{sign}{pad}{num}/{pad}{den}"
    return texts


def payoff(values):
    """A one-action problem over SPACE whose act pays ``values`` state by state."""
    outcomes = OutcomeSpace(
        tuple(f"o{s}" for s in SPACE), {f"o{s}": v for s, v in zip(SPACE, values)}
    )
    action = Action("act", {s: f"o{s}" for s in SPACE})
    prior = Credence(SPACE, {s: Fraction(1, len(SPACE)) for s in SPACE})
    return DecisionProblem(SPACE, outcomes, prior, ChoiceSet((action,))), action


payoffs = st.lists(
    st.integers(min_value=-20, max_value=20), min_size=4, max_size=4
).map(payoff)


class TestAsFraction:
    def test_accepts_int_fraction_and_string(self):
        assert as_fraction(3) == 3
        assert as_fraction(Fraction(2, 6)) == Fraction(1, 3)
        assert as_fraction("7/2") == Fraction(7, 2)
        assert as_fraction("-4") == -4

    def test_rejects_floats(self):
        with pytest.raises(ValidationError, match="float"):
            as_fraction(0.1)

    def test_rejects_bools(self):
        # bool is an int subclass; it must not sneak through as 0 or 1
        with pytest.raises(ValidationError, match="bool"):
            as_fraction(True)

    def test_rejects_garbage_strings(self):
        with pytest.raises(ValidationError):
            as_fraction("one half")
        with pytest.raises(ValidationError):
            as_fraction("1/0")
        # one grammar with problem files: no decimals, exponents or spaces
        # ... and ASCII digits only: "١/٢" and "٣" are Arabic-Indic digits
        for text in ("0.1", "1e-3", " 1/2 ", "\u0661/\u0662", "\u0663"):
            with pytest.raises(ValidationError, match="exact rational"):
                as_fraction(text)

    def test_rejects_other_types(self):
        with pytest.raises(ValidationError):
            as_fraction(None)

    @pytest.mark.parametrize(
        "text",
        ["1" + "0" * 5000, "-" + "7" * 5001, "1/" + "0" * 5000 + "3", "0" * 5001],
        ids=["numerator", "signed", "denominator", "leading-zeros"],
    )
    def test_numerals_past_the_int_digit_limit_are_refused_with_their_length(
        self, text
    ):
        """Python reads at most ``sys.get_int_max_str_digits()`` digits into an
        int; a longer numeral is a ValidationError naming its length, not
        the ValueError ``int()`` raises."""
        with pytest.raises(ValidationError) as exc:
            as_fraction(text)
        assert type(exc.value) is ValidationError
        assert str(exc.value) == (
            "a 5001-digit numeral is longer than the "
            f"{sys.get_int_max_str_digits()} digits Python reads into an int"
        )

    def test_numerals_at_the_int_digit_limit_are_read(self):
        limit = sys.get_int_max_str_digits()
        assert as_fraction("9" * limit + "/1") == 10**limit - 1


class TestStateSpace:
    def test_ordered_and_iterable(self):
        assert tuple(SPACE) == ("a", "b", "c", "d")
        assert len(SPACE) == 4
        assert "c" in SPACE
        assert SPACE.index("b") == 1

    def test_unknown_ids_are_absent_and_have_no_index(self):
        assert "e" not in SPACE
        with pytest.raises(ValueError):
            SPACE.index("e")

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError, match="duplicate"):
            StateSpace(("a", "a"))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            StateSpace(())

    def test_rejects_blank_ids(self):
        with pytest.raises(ValidationError):
            StateSpace(("a", ""))


class TestEvent:
    def test_members_and_order(self):
        e = event("c", "a")
        assert "a" in e and "b" not in e
        assert e.sorted_members() == ("a", "c")
        assert e.describe() == "{a, c}"

    def test_complement(self):
        assert event("a", "c").complement() == event("b", "d")
        assert event("a", "b", "c", "d").complement().members == frozenset()

    def test_intersection(self):
        assert event("a", "b").intersection(event("b", "c")) == event("b")
        other = Event(StateSpace(("a", "b")), frozenset({"a"}))
        with pytest.raises(SpaceMismatchError):
            event("a").intersection(other)

    def test_rejects_stray_members(self):
        for space, members, strays in [
            (SPACE, {"a", "zzz"}, "['zzz']"),
            (SPACE, {"zz", "a", "x"}, "['x', 'zz']"),
            (ABC, {1, "x"}, "[1, 'x']"),  # sorted by str, not by <
        ]:
            assert refusal(lambda: Event(space, members)) == (
                ValidationError,
                "Event.__post_init__",
                f"event members not in the state space: {strays}",
            )


class TestCredence:
    def test_lookup_and_support(self):
        p = credence(a=Fraction(1, 2), c=Fraction(1, 2))
        assert p("a") == Fraction(1, 2)
        assert p("b") == 0
        assert p.support() == ("a", "c")

    def test_zero_entries_are_dropped_for_equality(self):
        explicit = Credence(SPACE, {"a": Fraction(1), "b": Fraction(0)})
        implicit = Credence(SPACE, {"a": Fraction(1)})
        assert explicit == implicit
        assert hash(explicit) == hash(implicit)

    def test_mass_is_a_tuple_in_state_order(self):
        p = Credence(SPACE, {"c": Fraction(3, 4), "a": Fraction(1, 4)})
        assert p.mass == (Fraction(1, 4), Fraction(0), Fraction(3, 4), Fraction(0))

    def test_stores_reduced_numerators_over_one_denominator(self):
        p = Credence(ABC, {"a": "1/6", "b": "1/3", "c": "1/2"})
        assert p.nums == (1, 2, 3)
        assert p.den == 6

    def test_equal_distributions_store_equal_integers(self):
        written = Credence(ABC, {"a": "1/4", "c": "2/4", "b": "1/4"})
        built = Credence(
            ABC, {"a": Fraction(1, 4), "b": Fraction(1, 4), "c": Fraction(1, 2)}
        )
        assert (written.nums, written.den) == (built.nums, built.den) == ((1, 1, 2), 4)
        assert written == built
        assert hash(written) == hash(built)
        assert written.mass == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))

    def test_conditioning_stores_the_renormalized_integers(self):
        p = Credence(ABC, {"a": "1/6", "b": "1/3", "c": "1/2"})
        q = condition(p, Event(ABC, frozenset({"a", "b"})))
        assert q.nums == (1, 2, 0)
        assert q.den == 3

    @given(weights, st.integers(min_value=1, max_value=12))
    def test_from_weights_stores_what_init_stores(self, w, factor):
        """Common factors and zeros in the weights reduce away."""
        scaled = [x * factor for x in w]
        total = sum(scaled)
        built = Credence._from_weights(SPACE, scaled)
        expected = Credence(SPACE, {s: Fraction(x, total) for s, x in zip(SPACE, scaled)})
        assert (built.nums, built.den) == (expected.nums, expected.den)
        assert built == expected
        assert hash(built) == hash(expected)

    @given(mass_texts())
    def test_strings_store_what_their_fractions_store(self, texts):
        """Integer pairs read from any spelling in the grammar reduce to the
        credence the same masses as Fractions give."""
        written = Credence(SPACE, texts)
        built = Credence(SPACE, {s: Fraction(t) for s, t in texts.items()})
        assert (written.nums, written.den) == (built.nums, built.den)
        assert written == built
        assert hash(written) == hash(built)
        assert dist_of(written) == {
            s: Fraction(t) for s, t in texts.items() if Fraction(t)
        }

    @given(mass_texts(), st.sampled_from(SPACE.states), st.integers(1, 3))
    def test_strings_are_refused_as_their_fractions_are(self, texts, state, extra):
        """A mass pushed off a sum of 1 is refused with the Fraction route's text."""
        texts = {**texts, state: f"{Fraction(texts.get(state, '0')) + extra}"}
        with pytest.raises(ValidationError) as written:
            Credence(SPACE, texts)
        with pytest.raises(ValidationError) as built:
            Credence(SPACE, {s: Fraction(t) for s, t in texts.items()})
        assert str(written.value) == str(built.value)

    def test_unreduced_strings_report_reduced_values(self):
        with pytest.raises(ValidationError, match=r"negative mass -1/2 on state 'a'"):
            Credence(SPACE, {"a": "-2/4", "b": "6/4"})
        with pytest.raises(ValidationError, match=r"sum to exactly 1, got 5/6"):
            Credence(SPACE, {"a": "02/4", "b": "2/6"})

    def test_rejects_bad_total(self):
        with pytest.raises(ValidationError, match="sum to exactly 1"):
            credence(a=Fraction(1, 2), b=Fraction(1, 3))

    def test_rejects_negative_mass(self):
        with pytest.raises(ValidationError, match="negative"):
            credence(a=Fraction(3, 2), b=Fraction(-1, 2))

    def test_rejects_unknown_state(self):
        with pytest.raises(ValidationError, match="unknown state"):
            Credence(SPACE, {"nope": Fraction(1)})

    def test_rejects_floats(self):
        with pytest.raises(ValidationError, match="float"):
            Credence(SPACE, {"a": 0.5, "b": 0.5})

    def test_unknown_state_lookup_is_an_error(self):
        with pytest.raises(ValidationError):
            credence(a=1)("nope")


class TestProbabilityAndConditioning:
    def test_probability_sums_member_masses(self):
        p = credence(a=Fraction(1, 6), b=Fraction(1, 3), c=Fraction(1, 2))
        assert probability(p, event("a", "b")) == Fraction(1, 2)
        assert probability(p, event("d")) == 0

    def test_condition_restricts_and_renormalizes(self):
        p = credence(a=Fraction(1, 6), b=Fraction(1, 3), c=Fraction(1, 2))
        q = condition(p, event("a", "b"))
        assert q("a") == Fraction(1, 3)
        assert q("b") == Fraction(2, 3)
        assert q("c") == 0

    def test_condition_on_null_event_raises(self):
        p = credence(a=1)
        with pytest.raises(ZeroProbabilityError, match="zero-probability"):
            condition(p, event("b", "c"))

    def test_a_null_event_is_a_bad_argument(self):
        with pytest.raises(ValidationError) as caught:
            condition(credence(a=1), event("b"))
        assert type(caught.value) is ZeroProbabilityError
        assert isinstance(caught.value, ValueError)

    def test_space_mismatch_raises(self):
        p = credence(a=1)
        foreign = Event(StateSpace(("a", "b")), frozenset({"a"}))
        with pytest.raises(SpaceMismatchError):
            probability(p, foreign)
        with pytest.raises(SpaceMismatchError):
            condition(p, foreign)

    @given(credences(), st.sets(st.sampled_from(SPACE.states), min_size=1))
    def test_condition_stores_what_fractions_would(self, p, members):
        """The integer route stores the credence the Fraction oracle describes."""
        e = Event(SPACE, frozenset(members))
        dist = dist_of(p)
        if not any(s in members for s in dist):
            with pytest.raises(ZeroProbabilityError):
                condition(p, e)
            return
        expected = Credence(SPACE, conditioned(dist, members))
        q = condition(p, e)
        assert (q.nums, q.den) == (expected.nums, expected.den)
        assert hash(q) == hash(expected)
        assert dist_of(q) == conditioned(dist, members)

    @given(credences(), st.sets(st.sampled_from(SPACE.states), min_size=1))
    def test_condition_makes_the_event_certain(self, p, members):
        e = Event(SPACE, frozenset(members))
        if probability(p, e) == 0:
            with pytest.raises(ZeroProbabilityError):
                condition(p, e)
        else:
            assert probability(condition(p, e), e) == 1

    @given(credences(), st.sets(st.sampled_from(SPACE.states), min_size=1))
    def test_condition_is_idempotent(self, p, members):
        e = Event(SPACE, frozenset(members))
        if probability(p, e) > 0:
            once = condition(p, e)
            assert condition(once, e) == once

    @given(
        credences(),
        st.sets(st.sampled_from(SPACE.states), min_size=1),
        st.sets(st.sampled_from(SPACE.states)),
    )
    def test_condition_matches_the_ratio_formula(self, p, members, others):
        e = Event(SPACE, frozenset(members))
        a = Event(SPACE, frozenset(others))
        if probability(p, e) > 0:
            assert probability(condition(p, e), a) == probability(
                p, a.intersection(e)
            ) / probability(p, e)


class TestExpectation:
    def test_weighted_sum(self):
        p = credence(a=Fraction(1, 4), b=Fraction(3, 4))
        problem, action = payoff([8, 0, 100, -100])
        assert expected_utility(problem, action, p) == 2  # c and d carry no mass

    @given(credences(), payoffs)
    def test_law_of_total_expectation(self, p, problem_and_action):
        problem, action = problem_and_action
        cells = [event("a", "b"), event("c", "d")]
        total = Fraction(0)
        for cell in cells:
            mass = probability(p, cell)
            if mass > 0:
                total += mass * expected_utility(problem, action, condition(p, cell))
        assert total == expected_utility(problem, action, p)


class TestIsPartition:
    def test_accepts_a_partition(self):
        assert is_partition(SPACE, [event("a", "b"), event("c"), event("d")])

    def test_rejects_overlap_gap_and_empties(self):
        assert not is_partition(SPACE, [event("a", "b"), event("b", "c", "d")])
        assert not is_partition(SPACE, [event("a"), event("b")])
        assert not is_partition(SPACE, [event("a", "b", "c", "d"), Event(SPACE, frozenset())])

    def test_rejects_foreign_cells(self):
        foreign = Event(StateSpace(("a", "b")), frozenset({"a", "b"}))
        assert not is_partition(SPACE, [foreign, event("c", "d")])


@st.composite
def spaced_events(draw):
    """A space of 1-12 states in a shuffled id order, a credence on it, and
    one member list per event, each in a shuffled order."""
    states = draw(st.permutations([f"s{i}" for i in range(draw(st.integers(1, 12)))]))
    space = StateSpace(states)
    w = draw(st.lists(st.integers(0, 5), min_size=len(states), max_size=len(states)))
    w[draw(st.integers(0, len(states) - 1))] += 1
    prior = Credence(space, {s: Fraction(x, sum(w)) for s, x in zip(states, w)})
    cell_of = draw(st.lists(st.integers(0, 3), min_size=len(states), max_size=len(states)))
    lists = [
        draw(st.permutations([s for s, c in zip(states, cell_of) if c == label]))
        for label in sorted(set(cell_of))
    ]
    return space, prior, lists


def plain_is_partition(space, cells):
    """The definition, on member sets: non-empty, disjoint, covering, same space."""
    listed = [s for cell in cells for s in cell.members]
    return (
        all(cell.space == space and cell.members for cell in cells)
        and len(listed) == len(set(listed))
        and set(listed) == set(space.states)
    )


class TestStoredPositions:
    """Every walk over an event's stored positions agrees with a plain
    recomputation in state order."""

    @given(spaced_events())
    def test_walks_match_a_state_order_recomputation(self, drawn):
        space, prior, lists = drawn
        dist = dist_of(prior)
        for members in lists:
            e = Event(space, members)
            in_order = tuple(s for s in space.states if s in members)
            assert e.sorted_members() == in_order
            assert e.complement().sorted_members() == tuple(
                s for s in space.states if s not in members
            )
            assert probability(prior, e) == sum((dist.get(s, 0) for s in members), Fraction(0))
            if probability(prior, e):
                assert dist_of(condition(prior, e)) == conditioned(dist, set(members))
            else:
                with pytest.raises(ZeroProbabilityError):
                    condition(prior, e)

    @given(spaced_events())
    def test_member_order_and_copies_keep_the_event(self, drawn):
        space, _, lists = drawn
        for members in lists:
            built = [
                Event(space, members),
                Event(space, reversed(members)),
                Event(space, (s for s in members)),
                Event(space, frozenset(members)),
            ]
            e = built[0]
            assert all(b == e and hash(b) == hash(e) for b in built)
            assert len({b.sorted_members() for b in built}) == 1
            for twin in (dataclasses.replace(e), copy.copy(e)):
                assert twin == e and twin.sorted_members() == e.sorted_members()

    @given(spaced_events(), st.data())
    def test_is_partition_matches_the_definition(self, drawn, data):
        space, _, lists = drawn
        cells = [Event(space, members) for members in lists]
        foreign = StateSpace(space.states + ("extra",))
        empty = Event(space, ())
        cases = {
            "partition": (cells, True),
            "with an empty cell": (cells + [empty], False),
            "without a cell": (cells[1:], False),
            "without a state": ([Event(space, lists[0][1:])] + cells[1:], False),
            "foreign": ([Event(foreign, members) for members in lists], False),
        }
        if len(cells) > 1:
            shared = data.draw(st.sampled_from(lists[1]))
            cases["overlapping"] = ([Event(space, lists[0] + [shared])] + cells[1:], False)
        if len(space) > 1:
            reordered = StateSpace(space.states[::-1])
            cases["reordered space"] = ([Event(reordered, m) for m in lists], False)
        for name, (candidate, expected) in cases.items():
            assert is_partition(space, candidate) == plain_is_partition(space, candidate)
            assert is_partition(space, candidate) is expected, name


@pytest.mark.parametrize(
    "build, location, message",
    [
        (
            lambda: Event(("a", "b"), frozenset({"a"})),
            "_check_types", "space must be of type StateSpace, not tuple",
        ),
        (
            lambda: Credence(("a", "b"), {"a": 1}),
            "_check_types", "space must be of type StateSpace, not tuple",
        ),
        (
            lambda: Credence(StateSpace(("a", "b")), [("a", 1)]),
            "_check_types", "mass must be of type Mapping, not list",
        ),
        (lambda: StateSpace(5), "_check_types", "states must be of type Iterable, not int"),
        (
            lambda: Event(StateSpace(("a", "b")), 5),
            "_check_types", "members must be of type Iterable, not int",
        ),
        (
            lambda: Event(StateSpace(("a", "b")), [["a"]]),
            "Event.__post_init__", "event members not in the state space: [['a']]",
        ),
    ],
    ids=["event-space-not-a-state-space", "credence-space-not-a-state-space",
         "credence-mass-not-a-mapping", "states-not-iterable", "members-not-iterable",
         "member-unhashable"],
)
def test_wrong_typed_fields_are_refused(build, location, message):
    assert refusal(build) == (ValidationError, location, message)
