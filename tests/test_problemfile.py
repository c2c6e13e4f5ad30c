"""Canonical JSON problem files: serialization, parsing, located errors."""

import json
import os
import stat
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from infovalue import cli, prob
from infovalue.decision import (
    Action,
    ChoiceSet,
    DecisionProblem,
    OutcomeSpace,
)
from infovalue.errors import (
    CertaintyError,
    InfoValueError,
    MalformedDocumentError,
    NormalizationError,
    PartitionError,
    PolicyError,
    ProblemFileError,
    RationalFormatError,
    SpaceMismatchError,
    ValidationError,
    ZeroProbabilityError,
)
from infovalue.prob import Credence, Event, StateSpace, condition, probability
from infovalue.problemfile import (
    _overwrite,
    canonical_json,
    dumps,
    format_rational,
    load_problem,
    loads,
    parse_rational,
    problem_document,
    save_problem,
)
from infovalue.properties import PROPERTY_NAMES, PropertyFailure, PropertyReport
from infovalue.scenarios import GAMBLERS, build_scenario
from infovalue.updating import (
    CONDITIONALIZATION,
    EvidencePartition,
    UpdatePolicy,
    conditionalization_policy,
)

from _refusals import refusal

SPACE = StateSpace(("a", "b", "c"))
AB = Event(SPACE, frozenset({"a", "b"}))
C = Event(SPACE, frozenset({"c"}))
PARTITION = EvidencePartition(SPACE, (AB, C))
PRIOR = Credence(
    SPACE, {"a": Fraction(1, 2), "b": Fraction(1, 4), "c": Fraction(1, 4)}
)


def fixture_problem():
    outcomes = OutcomeSpace(("nil", "win"), {"nil": 0, "win": Fraction(3, 2)})
    actions = (
        Action("hold", {"a": "nil", "b": "nil", "c": "nil"}),
        Action("push", {"a": "win", "b": "nil", "c": "win"}),
    )
    return DecisionProblem(SPACE, outcomes, PRIOR, ChoiceSet(actions))


def explicit_policy():
    distorted = Credence(SPACE, {"a": Fraction(3, 4), "b": Fraction(1, 4)})
    sure_c = Credence(SPACE, {"c": Fraction(1)})
    return UpdatePolicy(PARTITION, {"a": distorted, "b": distorted, "c": sure_c})


# the fixture's canonical file, byte for byte
FIXTURE_TEXT = """\
{
  "actions": [
    {
      "id": "hold",
      "map": {
        "a": "nil",
        "b": "nil",
        "c": "nil"
      }
    },
    {
      "id": "push",
      "map": {
        "a": "win",
        "b": "nil",
        "c": "win"
      }
    }
  ],
  "outcomes": [
    {
      "id": "nil",
      "utility": "0"
    },
    {
      "id": "win",
      "utility": "3/2"
    }
  ],
  "partition": [
    [
      "a",
      "b"
    ],
    [
      "c"
    ]
  ],
  "policy": [
    {
      "posterior": {
        "a": "3/4",
        "b": "1/4"
      },
      "state": "a"
    },
    {
      "posterior": {
        "a": "3/4",
        "b": "1/4"
      },
      "state": "b"
    },
    {
      "posterior": {
        "c": "1"
      },
      "state": "c"
    }
  ],
  "states": [
    {
      "id": "a",
      "prob": "1/2"
    },
    {
      "id": "b",
      "prob": "1/4"
    },
    {
      "id": "c",
      "prob": "1/4"
    }
  ]
}
"""


def wide_explicit_problem(n_states, cell_size):
    """``n_states`` equiprobable states in cells of ``cell_size``, two acts
    over three outcomes, and an explicit policy whose posterior in each
    state doubles the weight of that state within its cell."""
    space = StateSpace(tuple(f"s{i}" for i in range(n_states)))
    prior = Credence(space, {s: Fraction(1, n_states) for s in space})
    outcomes = OutcomeSpace(
        ("low", "mid", "high"), {"low": -1, "mid": Fraction(1, 3), "high": 2}
    )
    actions = (
        Action("hold", {s: "mid" for s in space}),
        Action("bet", {s: ("low", "high")[i % 2] for i, s in enumerate(space)}),
    )
    problem = DecisionProblem(space, outcomes, prior, ChoiceSet(actions))
    cells = tuple(
        Event(space, frozenset(space.states[i : i + cell_size]))
        for i in range(0, n_states, cell_size)
    )
    partition = EvidencePartition(space, cells)
    posteriors = {}
    for state in space:
        cell = partition.cell_of(state)
        weight = Fraction(1, cell_size + 1)
        posteriors[state] = Credence(
            space, {t: weight * (2 if t == state else 1) for t in cell.members}
        )
    return problem, UpdatePolicy(partition, posteriors)


def mutated_text(mutate):
    doc = problem_document(fixture_problem(), explicit_policy())
    mutate(doc)
    return json.dumps(doc)


class TestRationals:
    def test_format_is_lowest_terms(self):
        assert format_rational(Fraction(2, 4)) == "1/2"
        assert format_rational(Fraction(-6, 3)) == "-2"
        assert format_rational(Fraction(0)) == "0"

    def test_parse_round_trips(self):
        for text in ("0", "1", "-2", "3/4", "-7/3", "+5/10"):
            assert format_rational(parse_rational(text, "here")) == format_rational(
                Fraction(text)
            )

    def test_decimals_are_rejected(self):
        with pytest.raises(RationalFormatError, match="exact rational"):
            parse_rational("0.5", "here")
        with pytest.raises(RationalFormatError):
            parse_rational(0.5, "here")
        with pytest.raises(RationalFormatError):
            parse_rational("1e3", "here")

    def test_zero_denominator(self):
        with pytest.raises(RationalFormatError, match="zero denominator"):
            parse_rational("1/0", "here")

    def test_error_carries_its_location(self):
        with pytest.raises(RationalFormatError) as exc:
            parse_rational("oops", "states[2].prob")
        assert exc.value.location == "states[2].prob"
        assert str(exc.value).startswith("states[2].prob: ")


# One mass entry: rationals that may be unreduced, zero or negative, and
# entries every reader refuses ("1/0", decimals, non-strings).  Python ints
# are left out: Credence reads them exactly, and a problem file only strings.
_MASSES = st.one_of(
    st.builds("{}/{}".format, st.integers(-3, 6), st.integers(0, 9)),
    st.integers(-2, 3).map(str),
    st.sampled_from(
        ["1/0", "0.5", "1e0", "1/-2", " 1", "+1", "-0", 0.5, True, None, [1]]
    ),
)


@st.composite
def mass_tables(draw):
    """A space of 3 or 4 states and a table with an entry for each: drawn
    weights written unreduced over their sum, then some entries redrawn."""
    states = ("a", "b", "c", "d")[: draw(st.integers(3, 4))]
    n = len(states)
    weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    total = sum(weights) or 1
    table = {}
    for state, weight in zip(states, weights):
        k = draw(st.integers(1, 3))
        table[state] = f"{weight * k}/{total * k}"
    for state in draw(st.lists(st.sampled_from(states), unique=True)):
        table[state] = draw(_MASSES)
    return states, table


def one_cell_file(states, prior, policy):
    """A problem file over ``states`` with one cell, one outcome and one act."""
    if policy != CONDITIONALIZATION:
        policy = [{"state": s, "posterior": policy} for s in states]
    return json.dumps({
        "states": [{"id": s, "prob": prior[s]} for s in states],
        "outcomes": [{"id": "o", "utility": "0"}],
        "actions": [{"id": "x", "map": {s: "o" for s in states}}],
        "partition": [list(states)],
        "policy": policy,
    })


def stored(build):
    """``(nums, den)`` of the credence ``build()`` returns, or None if refused."""
    try:
        credence = build()
    except InfoValueError:
        return None
    return credence.nums, credence.den


class TestMassReaders:
    @given(mass_tables())
    @example((("a", "b", "c"), {"a": "2/4", "b": "003/12", "c": "1/4"}))
    @example((("a", "b", "c"), {"a": "1/0", "b": "1", "c": "0"}))
    @example((("a", "b", "c"), {"a": "-1/2", "b": "1", "c": "1/2"}))
    @example((("a", "b", "c"), {"a": "1/2", "b": "1/2", "c": "1/2"}))
    @example((("a", "b", "c", "d"), {"a": "1", "b": "0", "c": 0.5, "d": "0"}))
    def test_credence_posterior_and_prior_agree(self, drawn):
        """A table is accepted or refused alike as a Credence, as a
        one-cell file's posterior and as its states, and stores one
        ``nums``/``den`` when accepted."""
        states, table = drawn
        sure = {s: "1" if s == states[0] else "0" for s in states}
        as_posterior = one_cell_file(states, sure, table)
        as_prior = one_cell_file(states, table, CONDITIONALIZATION)
        readings = {
            stored(lambda: Credence(StateSpace(states), table)),
            stored(lambda: loads(as_posterior)[2].posterior(states[0])),
            stored(lambda: loads(as_prior)[0].prior),
        }
        assert len(readings) == 1, (table, readings)


class TestDocumentShape:
    def test_states_follow_space_order(self):
        doc = problem_document(fixture_problem(), explicit_policy())
        assert [s["id"] for s in doc["states"]] == ["a", "b", "c"]
        assert doc["states"][0]["prob"] == "1/2"

    def test_partition_cells_list_members_in_state_order(self):
        doc = problem_document(fixture_problem(), explicit_policy())
        assert doc["partition"] == [["a", "b"], ["c"]]

    def test_conditionalization_policy_serializes_as_the_keyword(self):
        policy = conditionalization_policy(PRIOR, PARTITION)
        doc = problem_document(fixture_problem(), policy)
        assert doc["policy"] == CONDITIONALIZATION

    def test_explicit_policy_lists_positive_masses_only(self):
        doc = problem_document(fixture_problem(), explicit_policy())
        entries = {e["state"]: e["posterior"] for e in doc["policy"]}
        assert entries["a"] == {"a": "3/4", "b": "1/4"}
        assert entries["c"] == {"c": "1"}

    def test_dumps_ends_with_a_newline(self):
        assert dumps(fixture_problem(), explicit_policy()).endswith("}\n")

    def test_states_sharing_a_posterior_get_their_own_tables(self):
        """a and b share one credence; each entry still owns its table."""
        policy = explicit_policy()
        assert policy.posterior("a") is policy.posterior("b")
        doc = problem_document(fixture_problem(), policy)
        doc["policy"][0]["posterior"]["a"] = "0"
        assert doc["policy"][1]["posterior"] == {"a": "3/4", "b": "1/4"}
        assert dumps(fixture_problem(), policy) == FIXTURE_TEXT


# strings json must escape: quotes, backslashes, control and non-ASCII
# characters, and lone surrogates
_TEXT = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600')
    | st.characters(exclude_categories=())
)
_DOCUMENTS = st.recursive(
    _TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24,
)


class TestCanonicalJson:
    @given(_DOCUMENTS)
    @example({"b": ["", {}], "a": {"\ud800": []}, "": "\\\"\x00\u00e9"})
    @example([[], {}, [[]], {"z": {}, "y": []}])
    def test_matches_json_dumps_sorted_with_indent_two(self, document):
        assert canonical_json(document) == json.dumps(document, sort_keys=True, indent=2)

    def test_keys_are_written_sorted_whatever_their_insertion_order(self):
        assert canonical_json({"b": "1", "a": {"d": "2", "c": "3"}}) == (
            '{\n  "a": {\n    "c": "3",\n    "d": "2"\n  },\n  "b": "1"\n}'
        )

    @pytest.mark.parametrize(
        "document", [1, Fraction(1, 2), None, ["a", 1], {"a": Fraction(1, 2)}, {"a": None}]
    )
    def test_other_values_are_refused(self, document):
        with pytest.raises(TypeError, match="only str, list and dict"):
            canonical_json(document)

    def test_a_property_failure_document_prints_as_the_canonical_file(
        self, monkeypatch, capsys
    ):
        """``check`` prints a counterexample's document with the writer:
        the fixture's instance prints as the fixture's file, byte for byte."""
        failure = PropertyFailure(
            3,
            "mixture",
            "general-le-classical",
            "val_general=1 exceeds val_good=0",
            problem_document(fixture_problem(), explicit_policy()),
        )
        report = PropertyReport(0, 4, {n: 4 for n in PROPERTY_NAMES}, (failure,))
        monkeypatch.setattr(cli, "property_suite", lambda seed, trials: report)
        assert cli.main(["check", "--trials", "4", "--seed", "0"]) == 2
        assert capsys.readouterr().out.endswith(
            "4 trials from seed 0: COUNTEREXAMPLES FOUND\n\n"
            "counterexample (trial 3, mixture, general-le-classical): "
            "val_general=1 exceeds val_good=0\n" + FIXTURE_TEXT
        )


class TestRoundTrips:
    def test_explicit_policy_round_trips_byte_identical(self):
        text = dumps(fixture_problem(), explicit_policy())
        problem, partition, policy = loads(text)
        assert dumps(problem, policy) == text
        assert policy == explicit_policy()
        assert partition == PARTITION

    def test_conditionalization_round_trips_byte_identical(self):
        policy = conditionalization_policy(PRIOR, PARTITION)
        text = dumps(fixture_problem(), policy)
        problem, _, parsed = loads(text)
        assert parsed == policy
        assert dumps(problem, parsed) == text

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "problem.json"
        save_problem(path, fixture_problem(), explicit_policy())
        problem, partition, policy = load_problem(path)
        assert problem == fixture_problem()
        assert policy == explicit_policy()

    def test_a_zero_probability_cell_is_refused_whatever_the_policy(self):
        """``loads`` refuses a zero-probability cell, so ``dumps`` refuses an
        explicit policy over one too, as conditioning on the cell would,
        instead of writing a file that cannot be read back."""
        space = StateSpace(("a", "b", "z"))
        prior = Credence(space, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
        skewed = Credence(space, {"a": Fraction(9, 10), "b": Fraction(1, 10)})
        partition = EvidencePartition(space, (Event(space, {"a", "b"}), Event(space, {"z"})))
        posteriors = {"a": skewed, "b": skewed, "z": Credence(space, {"z": 1})}
        policy = UpdatePolicy(partition, posteriors)
        assert refusal(lambda: dumps(keyword_problem(prior), policy)) == (
            ZeroProbabilityError, "_cell_weights", "cannot condition on zero-probability event {z}"
        )

    def test_unreduced_masses_are_written_reduced(self):
        """Masses are read as unreduced integer pairs and written in lowest terms."""

        def unreduce(d):
            for entry, text in zip(d["states"], ("2/4", "003/12", "+1/4")):
                entry["prob"] = text
            d["outcomes"][1]["utility"] = "06/4"
            d["policy"][0]["posterior"] = {"a": "6/8", "b": "002/8"}
            d["policy"][1]["posterior"] = {"a": "+3/4", "b": "1/4", "c": "-0/5"}
            d["policy"][2]["posterior"] = {"c": "3/3"}

        problem, partition, policy = loads(mutated_text(unreduce))
        assert dumps(problem, policy) == FIXTURE_TEXT
        assert problem == fixture_problem()
        assert partition == PARTITION
        assert policy == explicit_policy()

    def test_loading_builds_a_fraction_per_outcome_and_no_other(self):
        """A 64-state file with a distinct posterior table for every state:
        the prior, the 512 posterior entries, and the cell and certainty
        checks are all integer work, so ``Fraction.__new__`` runs once per
        outcome utility.  A count, not a timing."""
        text = dumps(*wide_explicit_problem(64, 8))
        calls = []
        code = Fraction.__new__.__code__

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls.append(frame)

        sys.setprofile(profile)
        try:
            problem, _, policy = loads(text)
        finally:
            sys.setprofile(None)
        assert len(problem.space) == 64
        assert len(set(map(id, policy.posteriors.values()))) == 64
        assert len(calls) == len(problem.outcomes.outcomes) == 3

    def test_certainty_is_checked_once_per_posterior_and_cell(self):
        """A 64-state file: the first four cells give each state its own
        table, the last four share one table per cell.  Loading weighs each
        distinct (posterior, cell) pair once, and the prior once per cell
        for the zero-probability check.  A count, not a timing."""
        problem, policy = wide_explicit_problem(64, 8)
        doc = problem_document(problem, policy)
        for i in range(32, 64):
            doc["policy"][i]["posterior"] = dict(doc["policy"][i - i % 8]["posterior"])
        calls = []
        code = prob._weight.__code__

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls.append((frame.f_locals["credence"], frame.f_locals["event"]))

        sys.setprofile(profile)
        try:
            problem, partition, policy = loads(json.dumps(doc))
        finally:
            sys.setprofile(None)
        pairs = {(id(policy.posterior(s)), id(partition.cell_of(s))) for s in problem.space}
        weighed = [(id(c), id(cell)) for c, cell in calls if c is not problem.prior]
        assert len(pairs) == 32 + 4
        assert sorted(weighed) == sorted(pairs)
        assert len(calls) - len(weighed) == len(partition.cells) == 8

        doc["policy"][63]["posterior"] = {"s0": "1"}
        with pytest.raises(CertaintyError) as exc:
            loads(json.dumps(doc))
        assert (exc.value.location, exc.value.message) == (
            "policy[63]",
            "posterior for state 's63' must assign probability exactly 1 to its "
            "partition cell {s56, s57, s58, s59, s60, s61, s62, s63} (got 0)",
        )
        with pytest.raises(ValidationError, match="exactly 1 to its partition cell"):
            UpdatePolicy(partition, {**policy.posteriors, "s63": policy.posterior("s0")})

    def test_tie_policy_is_not_part_of_the_format(self):
        # ties are found from the inputs, not configured: a round trip gives
        # back the same problem, and a document that names a tie rule is refused
        problem = fixture_problem()
        assert loads(dumps(problem, explicit_policy()))[0] == problem
        doc = problem_document(problem, explicit_policy())
        doc["tie_policy"] = "error-on-tie"
        with pytest.raises(MalformedDocumentError) as exc:
            loads(json.dumps(doc))
        assert (exc.value.location, exc.value.message) == (
            "document", "unknown keys: tie_policy"
        )


def old_keyword_rule(problem, policy):
    """Whether the keyword is written, decided by building the prior's
    conditionalization policy and comparing; a refusal as (type, message).
    The prior's conditionalization policy is always built, so a
    zero-probability cell, which a file may not declare, refuses every
    policy."""
    try:
        built = conditionalization_policy(problem.prior, policy.partition)
        return policy == built
    except InfoValueError as exc:
        return type(exc), str(exc)


def keyword_written(problem, policy):
    try:
        return problem_document(problem, policy)["policy"] == CONDITIONALIZATION
    except InfoValueError as exc:
        return type(exc), str(exc)


def keyword_problem(prior):
    outcomes = OutcomeSpace(("nil",), {"nil": 0})
    action = Action("hold", dict.fromkeys(prior.space.states, "nil"))
    return DecisionProblem(prior.space, outcomes, prior, ChoiceSet((action,)))


def cell_certain(space, masses):
    """The credence proportional to ``masses``, integer weights by state id."""
    total = sum(masses.values())
    return Credence(space, {s: Fraction(w, total) for s, w in masses.items()})


@st.composite
def keyword_cases(draw):
    """A prior, some of it 0, and a policy over a partition declared out of
    state order.

    The policy is this prior's conditionalization, another prior's, or one
    drawn state by state: each state holds its cell's conditioned prior
    (shared, or as an equal copy of its own) or another posterior certain
    of the cell.  A zero-probability cell has no conditioned prior, so its
    states hold a drawn posterior, and cells of either kind may come first.
    """
    n = draw(st.integers(1, 6))
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    prior = cell_certain(space, dict(zip(space.states, weights)))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    members = {}
    for state, label in zip(space.states, labels):
        members.setdefault(label, []).append(state)
    cells = draw(st.permutations([Event(space, m) for m in members.values()]))
    partition = EvidencePartition(space, tuple(cells))
    route = draw(st.sampled_from(("this prior", "another prior", "by state")))
    support = set(prior.support())
    if route == "this prior" and all(cell.members & support for cell in cells):
        return keyword_problem(prior), conditionalization_policy(prior, partition)
    if route == "another prior":
        masses = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        other = cell_certain(space, dict(zip(space.states, masses)))
        return keyword_problem(prior), conditionalization_policy(other, partition)
    posteriors = {}
    for cell in cells:
        states = cell.sorted_members()
        shared = (
            condition(prior, cell)
            if cell.members & support
            else cell_certain(space, dict.fromkeys(states, 1))
        )
        for state in states:
            held = draw(st.sampled_from(("shared", "copy", "drawn")))
            if held == "shared":
                posteriors[state] = shared
            elif held == "copy":
                posteriors[state] = Credence(space, dict(zip(space.states, shared.mass)))
            else:
                drawn = draw(
                    st.lists(st.integers(0, 2), min_size=len(states), max_size=len(states))
                    .filter(any)
                )
                posteriors[state] = cell_certain(space, dict(zip(states, drawn)))
    return keyword_problem(prior), UpdatePolicy(partition, posteriors)


class TestConditionalizationKeyword:
    """The keyword is decided on the prior's integer weights per cell, with
    the outcome, refusals included, of comparing against the prior's
    conditionalization policy."""

    @given(keyword_cases())
    def test_agrees_with_building_the_policy(self, case):
        assert keyword_written(*case) == old_keyword_rule(*case)

    def test_hand_picked_corners(self):
        """A differing cell before and after a zero-probability cell, a
        zero-prior state holding another posterior, equal posteriors held as
        distinct objects, and a policy that conditions while holding only
        posteriors spelled out by hand."""
        space = StateSpace(("a", "b", "c", "z"))
        prior = Credence(space, {"a": Fraction(1, 4), "b": Fraction(1, 2), "c": Fraction(1, 4)})
        ab, c, z = (Event(space, m) for m in ({"a", "b"}, {"c"}, {"z"}))
        cz = Event(space, {"c", "z"})
        conditioned = condition(prior, ab)
        copy = Credence(space, {"a": Fraction(1, 3), "b": Fraction(2, 3)})
        skewed = Credence(space, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
        sure_c, sure_z = Credence(space, {"c": 1}), Credence(space, {"z": 1})
        problem = keyword_problem(prior)

        def policy(cells, held):
            partition = EvidencePartition(space, cells)
            return UpdatePolicy(partition, {"c": sure_c, "z": sure_z, **held})

        cases = [
            policy((ab, c, z), {"a": skewed, "b": skewed}),
            policy((z, ab, c), {"a": skewed, "b": skewed}),
            policy((c, z, ab), {"a": conditioned, "b": conditioned}),
            policy((cz, ab), {"a": conditioned, "b": conditioned, "z": sure_c}),
            policy((cz, ab), {"a": conditioned, "b": conditioned}),
            policy((ab, cz), {"a": conditioned, "b": copy, "z": sure_c}),
            policy((ab, cz), {"a": copy, "b": copy, "z": sure_c}),
            policy((ab, cz), {"a": skewed, "b": skewed, "z": sure_c}),
        ]
        refused = (ZeroProbabilityError, "cannot condition on zero-probability event {z}")
        expected = [refused, refused, refused, True, False, True, True, False]
        assert [old_keyword_rule(problem, each) for each in cases] == expected
        assert [keyword_written(problem, each) for each in cases] == expected


def spelled_out(problem, policy):
    """The problem file of ``problem`` and ``policy`` with every posterior
    written as a table, as :func:`dumps` writes a policy that does not
    condition the prior."""
    doc = problem_document(problem, policy)
    doc["policy"] = [
        {
            "state": s,
            "posterior": {
                t: format_rational(m) for t, m in zip(problem.space, p.mass) if m
            },
        }
        for s, p in policy.posteriors.items()
    ]
    return json.dumps(doc)


class TestEqualPoliciesAreOnePolicy:
    """A policy is its partition and its posteriors: however equal
    posteriors are put together, the policies compare and hash equal and
    write one file, which reads back as the same policy."""

    @given(keyword_cases())
    def test_every_route_to_equal_posteriors_gives_one_policy(self, case):
        problem, policy = case
        partition, space = policy.partition, problem.space
        assume(all(probability(problem.prior, cell) for cell in partition.cells))
        copies = {
            s: Credence(space, dict(zip(space.states, p.mass)))
            for s, p in policy.posteriors.items()
        }
        routes = [
            policy,
            UpdatePolicy(partition, policy.posteriors),
            UpdatePolicy(partition, copies),
            loads(spelled_out(problem, policy))[2],
        ]
        built = conditionalization_policy(problem.prior, partition)
        conditions = policy == built
        if conditions:
            keyword = {**problem_document(problem, built), "policy": CONDITIONALIZATION}
            routes += [built, loads(json.dumps(keyword))[2]]
        assert all(each == policy for each in routes)
        assert {hash(each) for each in routes} == {hash(policy)}
        texts = {dumps(problem, each) for each in routes}
        assert len(texts) == 1
        text = texts.pop()
        assert loads(text)[2] == policy
        assert (json.loads(text)["policy"] == CONDITIONALIZATION) is conditions


class TestFileWriter:
    """Every file is rewritten in place and cut to length, never truncated first."""

    def test_a_shorter_document_over_a_longer_file_leaves_exactly_its_bytes(
        self, tmp_path
    ):
        scenario = build_scenario(GAMBLERS, epsilon=Fraction(1, 10))
        fresh, reused = tmp_path / "fresh.json", tmp_path / "reused.json"
        save_problem(fresh, scenario.problem, scenario.policy)
        reused.write_bytes(b"\xff" * (2 * fresh.stat().st_size))
        save_problem(reused, scenario.problem, scenario.policy)
        assert reused.read_bytes() == fresh.read_bytes()
        assert load_problem(reused)[0].space.states[0] == "hh·bayes"

    def test_the_file_is_cut_at_the_encoded_length_not_the_character_count(
        self, tmp_path
    ):
        path = tmp_path / "text"
        path.write_bytes(b"x" * 64)
        _overwrite(path, "hh·bayes\n")
        assert path.read_bytes() == "hh·bayes\n".encode("utf-8")

    def test_a_symlink_stays_a_link_and_its_target_gets_the_bytes(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_bytes(b"x" * 4096)
        link.symlink_to(target)
        save_problem(link, fixture_problem(), explicit_policy())
        assert link.is_symlink()
        assert target.read_text(encoding="utf-8") == FIXTURE_TEXT

    def test_an_old_file_keeps_its_mode_and_a_new_one_gets_the_umask(self, tmp_path):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_bytes(b"x" * 4096)
        old.chmod(0o640)
        save_problem(old, fixture_problem(), explicit_policy())
        save_problem(new, fixture_problem(), explicit_policy())
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(old.stat().st_mode) == 0o640
        assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
        assert old.read_text(encoding="utf-8") == FIXTURE_TEXT

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_is_written_without_asking_its_position(self):
        read_end, write_end = os.pipe()
        try:
            save_problem(f"/dev/fd/{write_end}", fixture_problem(), explicit_policy())
        finally:
            os.close(write_end)
        with open(read_end, encoding="utf-8") as handle:
            assert handle.read() == FIXTURE_TEXT


class TestParseErrors:
    def test_invalid_json_points_at_the_parse_failure(self):
        with pytest.raises(MalformedDocumentError) as exc:
            loads("{not json")
        assert exc.value.location.startswith("line 1 column")

    def test_deep_nesting_is_refused_at_the_document(self):
        with pytest.raises(MalformedDocumentError) as exc:
            loads("[" * 100_000)
        assert (exc.value.location, exc.value.message) == (
            "document", "JSON nested too deeply"
        )

    @pytest.mark.parametrize(
        "data, location, message",
        [
            (b"\xff", "byte 1", "not UTF-8: invalid start byte"),
            (
                '{"states": "\u00b7"}'.encode() + b"\xc3(",
                "byte 17",
                "not UTF-8: invalid continuation byte",
            ),
            (b" " * 20_000 + b"\xe2\x80", "byte 20001", "not UTF-8: unexpected end of data"),
            (b"[" * 100_000, "document", "JSON nested too deeply"),
            (
                b"9" * (sys.get_int_max_str_digits() + 1),
                "document",
                f"a JSON integer is longer than the {sys.get_int_max_str_digits()} "
                "digits Python reads into an int",
            ),
            pytest.param(
                FIXTURE_TEXT.replace('"a"', '"\\ud800"').encode(),
                "states[0].id",
                "'\\ud800' holds a lone surrogate, which is not text",
                id="lone-surrogate-id",
            ),
        ],
    )
    def test_a_hostile_file_is_located(self, tmp_path, data, location, message):
        """Bytes count from 1 over the whole file, past the first read buffer too."""
        path = tmp_path / "hostile.json"
        path.write_bytes(data)
        with pytest.raises(MalformedDocumentError) as exc:
            load_problem(path)
        assert (exc.value.location, exc.value.message) == (location, message)

    def test_top_level_keys_are_checked(self):
        with pytest.raises(MalformedDocumentError, match="missing keys"):
            loads('{"states": []}')
        text = mutated_text(lambda d: d.update(comment="hi"))
        with pytest.raises(MalformedDocumentError, match="unknown keys: comment"):
            loads(text)
        with pytest.raises(MalformedDocumentError, match="expected an object"):
            loads("[]")

    def test_duplicate_state_ids(self):
        text = mutated_text(lambda d: d["states"].__setitem__(1, d["states"][0]))
        with pytest.raises(MalformedDocumentError, match="duplicate state"):
            loads(text)

    def test_negative_mass_is_a_normalization_error(self):
        def mutate(d):
            d["states"][0]["prob"] = "-1/2"
            d["states"][1]["prob"] = "5/4"

        with pytest.raises(NormalizationError) as exc:
            loads(mutated_text(mutate))
        assert exc.value.location == "states[0].prob"

    def test_masses_must_sum_to_one(self):
        text = mutated_text(lambda d: d["states"][0].update(prob="1/3"))
        with pytest.raises(NormalizationError, match="masses sum to"):
            loads(text)

    def test_decimal_probability_is_rejected_with_location(self):
        text = mutated_text(lambda d: d["states"][2].update(prob="0.25"))
        with pytest.raises(RationalFormatError) as exc:
            loads(text)
        assert exc.value.location == "states[2].prob"

    def test_non_ascii_digits_are_rejected_with_location(self):
        # "٣" is ARABIC-INDIC DIGIT THREE: a Unicode decimal, not one of 0-9
        text = mutated_text(lambda d: d["outcomes"][0].update(utility="\u0663"))
        with pytest.raises(RationalFormatError, match="exact rational") as exc:
            loads(text)
        assert exc.value.location == "outcomes[0].utility"

    def test_action_map_errors_are_located(self):
        text = mutated_text(lambda d: d["actions"][1]["map"].update(zz="nil"))
        with pytest.raises(MalformedDocumentError) as exc:
            loads(text)
        assert exc.value.location == "actions[1].map"
        assert "unknown state" in exc.value.message

        text = mutated_text(lambda d: d["actions"][0]["map"].update(a="gold"))
        with pytest.raises(MalformedDocumentError, match="unknown outcome"):
            loads(text)

        text = mutated_text(lambda d: d["actions"][0]["map"].pop("b"))
        with pytest.raises(MalformedDocumentError, match="no outcome for states: b"):
            loads(text)

    def test_partition_errors(self):
        with pytest.raises(PartitionError, match="empty cell"):
            loads(mutated_text(lambda d: d["partition"].__setitem__(0, [])))
        with pytest.raises(PartitionError, match="unknown state"):
            loads(mutated_text(lambda d: d["partition"][0].append("zz")))
        with pytest.raises(PartitionError, match="appears in two cells"):
            loads(mutated_text(lambda d: d["partition"][1].append("a")))
        with pytest.raises(
            PartitionError, match=r"partition\[0\]: state 'a' is listed twice in this cell"
        ):
            loads(mutated_text(lambda d: d["partition"][0].insert(1, "a")))
        with pytest.raises(PartitionError, match="not covered"):
            loads(mutated_text(lambda d: d["partition"].__setitem__(1, ["c"]) or d["partition"][0].remove("b")))

    def test_zero_probability_cell_is_refused(self):
        # shift all of c's mass onto b: c's cell could never be learned
        def mutate(d):
            d["states"][1]["prob"] = "1/2"
            d["states"][2]["prob"] = "0"
            d["policy"] = CONDITIONALIZATION

        with pytest.raises(PartitionError, match="zero prior probability"):
            loads(mutated_text(mutate))

    def test_policy_errors(self):
        with pytest.raises(PolicyError, match="expected 'conditionalization'"):
            loads(mutated_text(lambda d: d.update(policy="jeffrey")))
        with pytest.raises(PolicyError, match="unknown state"):
            loads(
                mutated_text(
                    lambda d: d["policy"][0].update(state="zz")
                )
            )
        with pytest.raises(PolicyError, match="duplicate posterior"):
            loads(
                mutated_text(
                    lambda d: d["policy"].__setitem__(1, d["policy"][0])
                )
            )
        with pytest.raises(PolicyError, match="no posterior for states"):
            loads(mutated_text(lambda d: d["policy"].pop()))

    def test_posterior_normalization_is_located(self):
        text = mutated_text(
            lambda d: d["policy"][0]["posterior"].update(a="1/3")
        )
        with pytest.raises(NormalizationError) as exc:
            loads(text)
        assert exc.value.location == "policy[0].posterior"

    def test_certainty_violations_are_certainty_errors(self):
        text = mutated_text(
            lambda d: d["policy"][2].update(
                posterior={"a": "1/2", "c": "1/2"}
            )
        )
        with pytest.raises(CertaintyError) as exc:
            loads(text)
        assert exc.value.location == "policy[2]"
        assert "exactly 1" in exc.value.message

    @pytest.mark.parametrize(
        "table, error, location, message",
        [
            (
                {"zz": "1", "a": "x"},
                PolicyError,
                "policy[0].posterior",
                "unknown state 'zz'",
            ),
            (
                {"a": 1, "b": "zz"},
                RationalFormatError,
                "policy[0].posterior['a']",
                "expected an exact rational string like '3/4' or '-2', got 1",
            ),
            (
                {"a": "1/2", "b": ["1/2"]},
                RationalFormatError,
                "policy[0].posterior['b']",
                "expected an exact rational string like '3/4' or '-2', got ['1/2']",
            ),
            (
                {"a": "1/2", "b": None},
                RationalFormatError,
                "policy[0].posterior['b']",
                "expected an exact rational string like '3/4' or '-2', got None",
            ),
            (
                {"a": "1/0", "b": "1"},
                RationalFormatError,
                "policy[0].posterior['a']",
                "zero denominator in '1/0'",
            ),
            (
                {"a": "0.5", "b": "1/2"},
                RationalFormatError,
                "policy[0].posterior['a']",
                "expected an exact rational string like '3/4' or '-2', got '0.5'",
            ),
            (
                {"a": "-1", "b": "1"},
                NormalizationError,
                "policy[0].posterior",
                "masses sum to 0, expected 1",
            ),
            (
                {"a": "-1", "b": "2"},
                NormalizationError,
                "policy[0].posterior",
                "negative mass",
            ),
        ],
    )
    def test_posterior_table_errors_keep_text_and_location(
        self, table, error, location, message
    ):
        text = mutated_text(lambda d: d["policy"][0].update(posterior=table))
        with pytest.raises(error) as exc:
            loads(text)
        assert type(exc.value) is error
        assert (exc.value.location, exc.value.message) == (location, message)

    def test_identical_posterior_tables_share_one_credence(self):
        _, _, policy = loads(dumps(fixture_problem(), explicit_policy()))
        assert policy.posterior("a") is policy.posterior("b")
        assert policy.posterior("a") == explicit_policy().posterior("a")
        reordered = mutated_text(
            lambda d: d["policy"][1].update(posterior={"b": "1/4", "a": "3/4"})
        )
        _, _, policy = loads(reordered)
        assert policy.posterior("a") is policy.posterior("b")

    def test_a_shared_table_is_still_checked_for_certainty(self):
        """a's table, certain of {a, b}, is listed again for c: passing for
        a's cell must not vouch for it in c's."""
        text = mutated_text(
            lambda d: d["policy"][2].update(posterior=d["policy"][0]["posterior"])
        )
        with pytest.raises(CertaintyError) as exc:
            loads(text)
        assert (exc.value.location, exc.value.message) == (
            "policy[2]",
            "posterior for state 'c' must assign probability exactly 1 "
            "to its partition cell {c} (got 0)",
        )

    def test_every_file_error_is_a_problem_file_error(self):
        for bad in ("[]", "{", '{"states": []}'):
            with pytest.raises(ProblemFileError):
                loads(bad)


def parsing(mutate):
    return lambda: loads(mutated_text(mutate))


OTHER_SPACE = StateSpace(("x", "y"))


@pytest.mark.parametrize(
    "build, error, location, message",
    [
        (
            parsing(lambda d: d.update(states={})),
            MalformedDocumentError, "states", "expected an array, got an object",
        ),
        (
            parsing(lambda d: d["partition"].__setitem__(0, "ab")),
            MalformedDocumentError, "partition[0]", "expected an array, got a string",
        ),
        (
            parsing(lambda d: d["states"][0].update(id=7)),
            MalformedDocumentError, "states[0].id", "expected a non-empty string, got 7",
        ),
        (
            parsing(lambda d: d.update(states=[])),
            MalformedDocumentError, "states", "at least one state is required",
        ),
        (
            parsing(lambda d: d.update(outcomes=[])),
            MalformedDocumentError, "outcomes", "at least one outcome is required",
        ),
        (
            parsing(lambda d: d.update(actions=[])),
            MalformedDocumentError, "actions", "at least one action is required",
        ),
        (
            parsing(lambda d: d.update(partition=[])),
            PartitionError, "partition", "at least one cell is required",
        ),
        (
            parsing(lambda d: d["outcomes"][1].update(id="nil")),
            MalformedDocumentError, "outcomes[1].id", "duplicate outcome id 'nil'",
        ),
        (
            parsing(lambda d: d["actions"][1].update(id="hold")),
            MalformedDocumentError, "actions[1].id", "duplicate action id 'hold'",
        ),
        (
            parsing(lambda d: d["actions"][0].update(map=["nil", "nil", "nil"])),
            MalformedDocumentError, "actions[0].map", "expected an object",
        ),
        (
            parsing(lambda d: d["policy"][0].update(posterior="1")),
            PolicyError, "policy[0].posterior", "expected an object",
        ),
        (
            parsing(lambda d: d["actions"][0]["map"].pop("b")),
            MalformedDocumentError, "actions[0].map", "no outcome for states: b",
        ),
        (
            parsing(lambda d: d["actions"][1]["map"].update(zz="nil")),
            MalformedDocumentError, "actions[1].map", "unknown state 'zz'",
        ),
        (
            parsing(lambda d: d["actions"][0]["map"].update(b=7)),
            MalformedDocumentError, "actions[0].map['b']",
            "expected a non-empty string, got 7",
        ),
        (
            parsing(lambda d: d["actions"][0]["map"].update(b=["nil"])),
            MalformedDocumentError, "actions[0].map['b']",
            "expected a non-empty string, got ['nil']",
        ),
        (
            parsing(lambda d: d["actions"][1]["map"].update(c="")),
            MalformedDocumentError, "actions[1].map['c']",
            "expected a non-empty string, got ''",
        ),
        (
            parsing(lambda d: d["actions"][1]["map"].update(c="gold")),
            MalformedDocumentError, "actions[1].map['c']", "unknown outcome 'gold'",
        ),
        (
            parsing(lambda d: d["states"].__setitem__(1, {"id": "b", "mass": "1/4"})),
            MalformedDocumentError, "states[1]", "missing keys: prob",
        ),
        (
            parsing(lambda d: d["outcomes"][1].update(note="x")),
            MalformedDocumentError, "outcomes[1]", "unknown keys: note",
        ),
        (
            parsing(lambda d: d["policy"].__setitem__(0, ["a", {"a": "1"}])),
            MalformedDocumentError, "policy[0]", "expected an object, got an array",
        ),
        (
            parsing(lambda d: d["states"][0].update(prob="-2/4")),
            NormalizationError, "states[0].prob", "negative mass -1/2",
        ),
        (
            parsing(lambda d: d["states"][0].update(prob="2/6")),
            NormalizationError, "states", "masses sum to 5/6, expected 1",
        ),
        (
            parsing(
                lambda d: d["states"][2].update(prob="0/4")
                or d["states"][1].update(prob="2/4")
            ),
            PartitionError, "partition[1]",
            "cell {c} has zero prior probability; it could never be learned",
        ),
        (
            parsing(
                lambda d: d["policy"][2].update(posterior={"b": "02/4", "c": "2/4"})
            ),
            CertaintyError, "policy[2]",
            "posterior for state 'c' must assign probability exactly 1 "
            "to its partition cell {c} (got 1/2)",
        ),
        (
            lambda: UpdatePolicy(
                PARTITION,
                {**explicit_policy().posteriors, "c": Credence(SPACE, {"b": "1"})},
            ),
            ValidationError, "UpdatePolicy.__post_init__",
            "posterior for state 'c' must assign probability exactly 1 "
            "to its partition cell (got 0)",
        ),
        (
            parsing(lambda d: d["outcomes"][0].update(utility="1" + "0" * 5000)),
            RationalFormatError, "outcomes[0].utility",
            "a 5001-digit numeral is longer than the "
            f"{sys.get_int_max_str_digits()} digits Python reads into an int",
        ),
        (
            parsing(lambda d: d["states"][1].update(prob="1/" + "0" * 4400 + "4")),
            RationalFormatError, "states[1].prob",
            "a 4401-digit numeral is longer than the "
            f"{sys.get_int_max_str_digits()} digits Python reads into an int",
        ),
        (
            lambda: format_rational(0.1),
            ValidationError, "_ratio",
            "expected an exact rational, got float 0.1; "
            "pass a Fraction, an int, or a string like '1/10'",
        ),
        (
            lambda: format_rational(True),
            ValidationError, "_ratio", "expected an exact rational, got bool True",
        ),
        (
            lambda: format_rational("0.5"),
            ValidationError, "_ratio",
            "expected an exact rational string like '3/4' or '-2', got '0.5'",
        ),
        (
            lambda: problem_document(
                fixture_problem(),
                conditionalization_policy(
                    Credence(OTHER_SPACE, {"x": Fraction(1)}),
                    EvidencePartition(OTHER_SPACE, (Event(OTHER_SPACE, {"x", "y"}),)),
                ),
            ),
            SpaceMismatchError, "problem_document", "policy is not over the problem's space",
        ),
        (
            parsing(lambda d: d.update(outcomes="nil")),
            MalformedDocumentError, "outcomes", "expected an array, got a string",
        ),
        (
            parsing(lambda d: d.update(actions=None)),
            MalformedDocumentError, "actions", "expected an array, got null",
        ),
        (
            parsing(lambda d: d["states"].__setitem__(1, "b")),
            MalformedDocumentError, "states[1]", "expected an object, got a string",
        ),
        (
            parsing(lambda d: d["outcomes"].__setitem__(1, ["win", "3/2"])),
            MalformedDocumentError, "outcomes[1]", "expected an object, got an array",
        ),
        (
            parsing(lambda d: d["actions"].__setitem__(0, 7)),
            MalformedDocumentError, "actions[0]", "expected an object, got a number",
        ),
        (
            parsing(lambda d: d["outcomes"][0].pop("id")),
            MalformedDocumentError, "outcomes[0]", "missing keys: id",
        ),
        (
            parsing(lambda d: d["actions"][1].pop("map")),
            MalformedDocumentError, "actions[1]", "missing keys: map",
        ),
        (
            parsing(lambda d: d["states"][2].update(note="x")),
            MalformedDocumentError, "states[2]", "unknown keys: note",
        ),
        (
            parsing(lambda d: d["actions"][0].update(prob="1")),
            MalformedDocumentError, "actions[0]", "unknown keys: prob",
        ),
        (
            parsing(lambda d: d["outcomes"][1].update(id=None)),
            MalformedDocumentError, "outcomes[1].id",
            "expected a non-empty string, got None",
        ),
        (
            parsing(lambda d: d["actions"][1].update(id=["push"])),
            MalformedDocumentError, "actions[1].id",
            "expected a non-empty string, got ['push']",
        ),
        (
            parsing(lambda d: d["states"][1].update(id="")),
            MalformedDocumentError, "states[1].id", "expected a non-empty string, got ''",
        ),
        (
            parsing(lambda d: d["outcomes"][0].update(id="")),
            MalformedDocumentError, "outcomes[0].id",
            "expected a non-empty string, got ''",
        ),
        (
            parsing(lambda d: d["actions"][1].update(id="")),
            MalformedDocumentError, "actions[1].id", "expected a non-empty string, got ''",
        ),
        (
            parsing(lambda d: d["states"][2].update(id="c\ud800")),
            MalformedDocumentError, "states[2].id",
            "'c\\ud800' holds a lone surrogate, which is not text",
        ),
        (
            parsing(lambda d: d["outcomes"][1].update(id="\udfff")),
            MalformedDocumentError, "outcomes[1].id",
            "'\\udfff' holds a lone surrogate, which is not text",
        ),
        (
            parsing(lambda d: d["actions"][0].update(id="\ud800hold")),
            MalformedDocumentError, "actions[0].id",
            "'\\ud800hold' holds a lone surrogate, which is not text",
        ),
        (
            parsing(lambda d: d["states"][2].update(id="a")),
            MalformedDocumentError, "states[2].id", "duplicate state id 'a'",
        ),
        (
            parsing(
                lambda d: d["states"][0].update(prob="0.5")
                or d["states"][2].update(id="a")
            ),
            RationalFormatError, "states[0].prob",
            "expected an exact rational string like '3/4' or '-2', got '0.5'",
        ),
        (
            parsing(
                lambda d: d["outcomes"][0].update(utility=0)
                or d["outcomes"][1].update(id="nil")
            ),
            RationalFormatError, "outcomes[0].utility",
            "expected an exact rational string like '3/4' or '-2', got 0",
        ),
        (
            parsing(
                lambda d: d["actions"][0]["map"].update(a="gold")
                or d["actions"][1].update(id="hold")
            ),
            MalformedDocumentError, "actions[0].map['a']", "unknown outcome 'gold'",
        ),
        (
            lambda: loads(FIXTURE_TEXT.encode("utf-8")),
            MalformedDocumentError, "document", "expected the document as a str, got bytes",
        ),
        (
            lambda: loads(FIXTURE_TEXT.encode("utf-16")),
            MalformedDocumentError, "document", "expected the document as a str, got bytes",
        ),
        (
            lambda: loads(bytearray(FIXTURE_TEXT, "utf-8")),
            MalformedDocumentError, "document",
            "expected the document as a str, got bytearray",
        ),
        (
            lambda: loads(None),
            MalformedDocumentError, "document",
            "expected the document as a str, got NoneType",
        ),
    ],
    ids=[
        "section-not-an-array",
        "cell-not-an-array",
        "id-not-a-string",
        "no-states",
        "no-outcomes",
        "no-actions",
        "no-cells",
        "duplicate-outcome",
        "duplicate-action",
        "map-not-an-object",
        "posterior-not-an-object",
        "map-missing-a-state",
        "map-unknown-state",
        "map-outcome-not-a-string",
        "map-outcome-an-array",
        "map-outcome-empty",
        "map-unknown-outcome",
        "object-missing-and-unknown-keys",
        "object-unknown-key",
        "entry-not-an-object",
        "unreduced-negative-prior-mass",
        "unreduced-prior-sum",
        "zero-probability-cell",
        "unreduced-posterior-off-its-cell",
        "policy-posterior-off-its-cell",
        "utility-past-the-digit-limit",
        "prior-past-the-digit-limit",
        "format-a-float",
        "format-a-bool",
        "format-a-decimal-string",
        "document-over-two-spaces",
        "outcomes-not-an-array",
        "actions-not-an-array",
        "state-not-an-object",
        "outcome-not-an-object",
        "action-not-an-object",
        "outcome-missing-its-id",
        "action-missing-its-map",
        "state-unknown-key",
        "action-unknown-key",
        "outcome-id-not-a-string",
        "action-id-not-a-string",
        "state-id-empty",
        "outcome-id-empty",
        "action-id-empty",
        "state-id-lone-surrogate",
        "outcome-id-lone-surrogate",
        "action-id-lone-surrogate",
        "duplicate-state",
        "state-mass-before-a-later-duplicate",
        "outcome-utility-before-a-later-duplicate",
        "action-map-before-a-later-duplicate",
        "document-utf8-bytes",
        "document-utf16-bytes",
        "document-bytearray",
        "document-none",
    ],
)
def test_refusals(build, error, location, message):
    assert refusal(build) == (error, location, message)
