"""Problem files: a canonical JSON format for problems plus policies.

One document carries the whole setup: states with prior masses, outcomes
with utilities, actions, the evidence partition, and the update policy
(either the literal string ``"conditionalization"`` or an explicit
state-by-state posterior table).

Serialization is canonical — sorted keys, two-space indent, trailing
newline, every rational in lowest terms as ``"num"`` or ``"num/den"`` — so
saving the same objects twice yields byte-identical files.  Decimals are
rejected on input: this package does not traffic in floats.

Every JSON document the package writes goes through one writer,
:func:`canonical_json`.  On a document of strings, arrays and objects its
text is byte for byte what ``json.dumps`` writes with ``sort_keys=True``
and ``indent=2``; any other value raises ``TypeError``.  It quotes each
string with :mod:`json`'s C ``encode_basestring_ascii`` and joins the
pieces once, where ``json.dumps`` with an indent runs the pure-Python
encoder.

Masses are read and written as integers.  Each prior and posterior mass is
parsed into an integer pair by :mod:`prob`'s one rational parser, and a
table's pairs are brought to one denominator by :mod:`prob`'s
``_over_lcm``; the sum, cell and certainty checks compare integer sums;
and each mass is written from the stored numerators.
A Fraction is built per outcome utility, and otherwise only for an error
message.  Unreduced masses (``"2/4"``, ``"003/12"``) are accepted and
written back in lowest terms.
"""

from __future__ import annotations

import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from fractions import Fraction
from typing import Any, Iterator

from .decision import Action, ChoiceSet, DecisionProblem, OutcomeSpace
from .errors import (
    CertaintyError,
    MalformedDocumentError,
    NormalizationError,
    PartitionError,
    PolicyError,
    RationalFormatError,
    SpaceMismatchError,
    ValidationError,
)
from .prob import (
    Credence,
    Event,
    EvidencePartition,
    StateSpace,
    _cell_weights,
    _check_types,
    _over_lcm,
    _ratio,
    _weight,
)
from .updating import (
    CONDITIONALIZATION,
    UpdatePolicy,
    conditionalization_policy,
)

__all__ = [
    "problem_document",
    "canonical_json",
    "dumps",
    "loads",
    "save_problem",
    "load_problem",
]


def _format(num: int, den: int) -> str:
    """``num / den`` (``den > 0``) as ``str(Fraction(num, den))`` writes it."""
    common = math.gcd(num, den)
    if common == den:
        return str(num // den)
    return f"{num // common}/{den // common}"


def _located_ratio(text: Any, location: str) -> tuple[int, int]:
    """A rational string in :func:`as_fraction`'s grammar as an unreduced integer pair.

    A non-string, or a string the grammar refuses, raises
    ``RationalFormatError`` at ``location``.
    """
    if not isinstance(text, str):
        raise RationalFormatError(
            location,
            f"expected an exact rational string like '3/4' or '-2', got {text!r}",
        )
    try:
        return _ratio(text)
    except ValidationError as exc:
        raise RationalFormatError(location, str(exc)) from None


def problem_document(problem: DecisionProblem, policy: UpdatePolicy) -> dict:
    """The JSON-ready document for a problem and its update policy.

    The keyword ``"conditionalization"`` is written exactly when the
    policy conditions this problem's prior, however it was built, since
    that is what the keyword means when the document is read back: at
    every state, zero-prior states included, the posterior's row on its
    cell must be the cell's weights from :mod:`prob`'s ``_cell_weights``
    over their gcd.  Rows are compared once per distinct posterior object
    in a cell, up to the first cell that differs.  Every cell is read, so
    a zero-probability cell, which :func:`loads` refuses, is refused here
    as conditioning on it would be.  Any other policy, even one built by
    conditioning another prior, is spelled out: its posterior tables are
    formatted once per distinct posterior object (states often share one),
    and each state gets its own copy of its table.
    """
    _check_types(("problem", problem, DecisionProblem), ("policy", policy, UpdatePolicy))
    if policy.space != problem.space:
        raise SpaceMismatchError("policy is not over the problem's space")
    prior = problem.prior
    states = [
        {"id": s, "prob": _format(n, prior.den)}
        for s, n in zip(problem.space.states, prior.nums)
    ]
    utility = problem.outcomes.utility
    outcomes = [
        {"id": o, "utility": str(utility[o])} for o in problem.outcomes.outcomes
    ]
    actions = [
        {"id": a.id, "map": dict(a.assignment)} for a in problem.choices
    ]
    partition = [list(cell.sorted_members()) for cell in policy.partition.cells]
    conditions = True
    for cell in policy.partition.cells:
        take, weights = _cell_weights(prior, cell)
        if conditions:
            common = math.gcd(*weights)
            conditioned = tuple(w // common for w in weights)
            held = map(policy.posteriors.__getitem__, take(problem.space.states))
            distinct = {id(posterior): posterior for posterior in held}.values()
            conditions = all(take(p.nums) == conditioned for p in distinct)
    if conditions:
        policy_doc: Any = CONDITIONALIZATION
    else:
        tables: dict[int, dict[str, str]] = {}  # keyed by id(posterior)
        policy_doc = []
        for s in problem.space:
            posterior = policy.posterior(s)
            table = tables.get(id(posterior))
            if table is None:
                table = tables[id(posterior)] = {
                    t: _format(n, posterior.den)
                    for t, n in zip(problem.space.states, posterior.nums)
                    if n
                }
            policy_doc.append({"state": s, "posterior": dict(table)})
    return {
        "states": states,
        "outcomes": outcomes,
        "actions": actions,
        "partition": partition,
        "policy": policy_doc,
    }


def canonical_json(document: Any) -> str:
    """``document`` as ``json.dumps`` writes it with ``sort_keys=True, indent=2``.

    ``document`` is built of ``str``, ``list`` and ``dict`` with ``str``
    keys; any other value or key raises ``TypeError``.  No trailing newline.
    """
    parts: list[str] = []
    _write(document, "\n", parts)
    return "".join(parts)


def _write(value: Any, newline: str, parts: list[str]) -> None:
    """Append ``value``'s text to ``parts``; ``newline`` opens a line at its depth.

    Each key is passed to ``_quote``, which refuses anything but a string.
    """
    if isinstance(value, str):
        parts.append(_quote(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            parts.append(separator)
            parts.append(_quote(key))
            parts.append(": ")
            _write(value[key], inner, parts)
            separator = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, list):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _write(item, inner, parts)
            separator = "," + inner
        parts.append(newline + "]")
    else:
        raise TypeError(
            f"a canonical JSON document holds only str, list and dict, "
            f"got {type(value).__name__}"
        )


def dumps(problem: DecisionProblem, policy: UpdatePolicy) -> str:
    return canonical_json(problem_document(problem, policy)) + "\n"


def _require_object(value: Any, location: str, keys: tuple[str, ...]) -> dict:
    """``value`` if it is an object with exactly ``keys``; else the located fault.

    A well-formed object is accepted by C-level key checks; the walk below
    runs only to name the first fault.
    """
    if (
        isinstance(value, dict)
        and len(value) == len(keys)
        and all(map(value.__contains__, keys))
    ):
        return value
    if not isinstance(value, dict):
        raise MalformedDocumentError(location, f"expected an object, got {_kind(value)}")
    missing = [k for k in keys if k not in value]
    if missing:
        raise MalformedDocumentError(location, f"missing keys: {', '.join(missing)}")
    unknown = [k for k in value if k not in keys]
    raise MalformedDocumentError(location, f"unknown keys: {', '.join(unknown)}")


def _require_list(value: Any, location: str) -> list:
    if not isinstance(value, list):
        raise MalformedDocumentError(location, f"expected an array, got {_kind(value)}")
    return value


def _require_string(value: Any, location: str) -> str:
    """``value`` if it is a non-empty string UTF-8 can encode; else the fault.

    JSON's ``\\ud800`` escape reads as a lone surrogate, which cannot be
    printed, so an id holding one is refused here.  Every other id in a file
    must equal one that passed through here.
    """
    if not isinstance(value, str) or not value:
        raise MalformedDocumentError(
            location, f"expected a non-empty string, got {value!r}"
        )
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedDocumentError(
                location, f"{value!r} holds a lone surrogate, which is not text"
            ) from None
    return value


def _kind(value: Any) -> str:
    return {
        dict: "an object",
        list: "an array",
        str: "a string",
        bool: "a boolean",
        int: "a number",
        float: "a number",
        type(None): "null",
    }.get(type(value), type(value).__name__)


def _named_entries(
    doc: Any, section: str, key: str
) -> Iterator[tuple[str, str, Any]]:
    """Each entry of the array ``section`` as ``(location, id, entry[key])``.

    The array must be non-empty, and each entry an object with exactly
    ``id`` and ``key`` whose id :func:`_require_string` accepts and no
    earlier entry holds.  The walk is lazy, so a caller's check of one
    entry's value refuses before any later entry is read.
    """
    entries = _require_list(doc, section)
    noun = section[:-1]  # "states" -> "state"
    if not entries:
        raise MalformedDocumentError(section, f"at least one {noun} is required")
    keys = ("id", key)
    seen: set[str] = set()
    for i, entry in enumerate(entries):
        loc = f"{section}[{i}]"
        _require_object(entry, loc, keys)
        name = _require_string(entry["id"], f"{loc}.id")
        if name in seen:
            raise MalformedDocumentError(f"{loc}.id", f"duplicate {noun} id {name!r}")
        seen.add(name)
        yield loc, name, entry[key]


def _parse_states(doc: Any) -> tuple[StateSpace, Credence]:
    masses: dict[str, tuple[int, int]] = {}
    for loc, state, prob in _named_entries(doc, "states", "prob"):
        num, den = masses[state] = _located_ratio(prob, f"{loc}.prob")
        if num < 0:
            raise NormalizationError(
                f"{loc}.prob", f"negative mass {Fraction(num, den)}"
            )
    weights, total, den = _over_lcm(masses.values())
    if total != den:
        raise NormalizationError(
            "states", f"masses sum to {Fraction(total, den)}, expected 1"
        )
    space = StateSpace(tuple(masses))
    return space, Credence._from_weights(space, weights)


def _parse_outcomes(doc: Any) -> OutcomeSpace:
    utilities = {
        outcome: Fraction(*_located_ratio(utility, f"{loc}.utility"))
        for loc, outcome, utility in _named_entries(doc, "outcomes", "utility")
    }
    return OutcomeSpace(tuple(utilities), utilities)


def _parse_actions(
    doc: Any, space: StateSpace, outcomes: OutcomeSpace
) -> ChoiceSet:
    actions: list[Action] = []
    for loc, action_id, mapping in _named_entries(doc, "actions", "map"):
        if not isinstance(mapping, dict):
            raise MalformedDocumentError(f"{loc}.map", "expected an object")
        if mapping.keys() == space._position.keys() and _known(mapping, outcomes):
            actions.append(Action(action_id, mapping))
            continue
        # the walk only names the fault: a map it passes whole is total
        # onto known outcomes, which the check above would have accepted
        for state, outcome in mapping.items():
            if state not in space:
                raise MalformedDocumentError(
                    f"{loc}.map", f"unknown state {state!r}"
                )
            outcome_id = _require_string(outcome, f"{loc}.map[{state!r}]")
            if outcome_id not in outcomes:
                raise MalformedDocumentError(
                    f"{loc}.map[{state!r}]", f"unknown outcome {outcome_id!r}"
                )
        missing = [s for s in space if s not in mapping]
        raise MalformedDocumentError(
            f"{loc}.map", f"no outcome for states: {', '.join(missing)}"
        )
    return ChoiceSet(tuple(actions))


def _known(mapping: dict, outcomes: OutcomeSpace) -> bool:
    """Whether every value of ``mapping`` is an outcome id, checked in C."""
    try:
        return set(mapping.values()) <= outcomes.utility.keys()
    except TypeError:  # an array or object as an outcome: refused by the walk
        return False


def _parse_partition(
    doc: Any, space: StateSpace, prior: Credence
) -> EvidencePartition:
    entries = _require_list(doc, "partition")
    if not entries:
        raise PartitionError("partition", "at least one cell is required")
    cells: list[Event] = []
    seen: set[str] = set()
    for i, entry in enumerate(entries):
        loc = f"partition[{i}]"
        members = _require_list(entry, loc)
        if not members:
            raise PartitionError(loc, "empty cell")
        in_cell: set[str] = set()
        for state in members:
            state_id = _require_string(state, loc)
            if state_id not in space:
                raise PartitionError(loc, f"unknown state {state_id!r}")
            if state_id in in_cell:
                raise PartitionError(
                    loc, f"state {state_id!r} is listed twice in this cell"
                )
            if state_id in seen:
                raise PartitionError(loc, f"state {state_id!r} appears in two cells")
            in_cell.add(state_id)
        seen |= in_cell
        cells.append(Event(space, frozenset(members)))
    uncovered = [s for s in space if s not in seen]
    if uncovered:
        raise PartitionError(
            "partition", f"states not covered by any cell: {', '.join(uncovered)}"
        )
    for i, cell in enumerate(cells):
        if not _weight(prior, cell):
            raise PartitionError(
                f"partition[{i}]",
                f"cell {cell.describe()} has zero prior probability; "
                "it could never be learned",
            )
    return EvidencePartition(space, tuple(cells))


def _parse_policy(
    doc: Any, space: StateSpace, prior: Credence, partition: EvidencePartition
) -> UpdatePolicy:
    if doc == CONDITIONALIZATION:
        return conditionalization_policy(prior, partition)
    if isinstance(doc, str):
        raise PolicyError(
            "policy",
            f"expected {CONDITIONALIZATION!r} or an array of posteriors, got {doc!r}",
        )
    entries = _require_list(doc, "policy")
    posteriors: dict[str, Credence] = {}
    parsed: dict[frozenset, Credence] = {}
    certain: set[tuple[int, int]] = set()  # ids of (posterior, cell) pairs checked
    for i, entry in enumerate(entries):
        loc = f"policy[{i}]"
        obj = _require_object(entry, loc, ("state", "posterior"))
        state = _require_string(obj["state"], f"{loc}.state")
        if state not in space:
            raise PolicyError(f"{loc}.state", f"unknown state {state!r}")
        if state in posteriors:
            raise PolicyError(f"{loc}.state", f"duplicate posterior for {state!r}")
        table = obj["posterior"]
        if not isinstance(table, dict):
            raise PolicyError(f"{loc}.posterior", "expected an object")
        try:
            key = frozenset(table.items())
        except TypeError:  # an array or object as a mass: refused below
            key = None
        posterior = parsed.get(key)
        if posterior is None:
            posterior = _parse_posterior(table, f"{loc}.posterior", space)
            parsed[key] = posterior
        cell = partition.cell_of(state)
        if (id(posterior), id(cell)) not in certain:
            in_cell = _weight(posterior, cell)
            if in_cell != posterior.den:
                raise CertaintyError(
                    loc,
                    f"posterior for state {state!r} must assign probability exactly 1 "
                    f"to its partition cell {cell.describe()} "
                    f"(got {Fraction(in_cell, posterior.den)})",
                )
            certain.add((id(posterior), id(cell)))
        posteriors[state] = posterior
    missing = [s for s in space if s not in posteriors]
    if missing:
        raise PolicyError("policy", f"no posterior for states: {', '.join(missing)}")
    return UpdatePolicy._checked(partition, posteriors)


def _parse_posterior(table: dict, location: str, space: StateSpace) -> Credence:
    """The credence a posterior table spells out, read as integer pairs.

    Raises the located error for the first fault: an unknown state, a bad
    rational, masses that do not sum to 1, then a negative mass.
    """
    position = space._position
    pairs: dict[int, tuple[int, int]] = {}
    for target, raw in table.items():
        if target not in position:
            raise PolicyError(location, f"unknown state {target!r}")
        pairs[position[target]] = _located_ratio(raw, f"{location}[{target!r}]")
    scaled, total, den = _over_lcm(pairs.values())
    if total != den:
        raise NormalizationError(
            location, f"masses sum to {Fraction(total, den)}, expected 1"
        )
    if any(w < 0 for w in scaled):
        raise NormalizationError(location, "negative mass")
    weights = [0] * len(position)
    for i, weight in zip(pairs, scaled):
        weights[i] = weight
    return Credence._from_weights(space, weights)


def loads(text: str) -> tuple[DecisionProblem, EvidencePartition, UpdatePolicy]:
    """Parse a problem document, validating bottom-up with located errors.

    Anything but a ``str`` (``bytes`` included, whatever their encoding),
    JSON nested too deeply for the parser, or JSON holding an integer past
    Python's int-string digit limit, is refused at ``document``.
    """
    if not isinstance(text, str):
        raise MalformedDocumentError(
            "document", f"expected the document as a str, got {type(text).__name__}"
        )
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocumentError(
            f"line {exc.lineno} column {exc.colno}", exc.msg
        ) from None
    except RecursionError:
        raise MalformedDocumentError("document", "JSON nested too deeply") from None
    except ValueError:  # the only other ValueError json.loads raises
        raise MalformedDocumentError(
            "document",
            f"a JSON integer is longer than the {sys.get_int_max_str_digits()} "
            "digits Python reads into an int",
        ) from None
    top = _require_object(
        doc, "document", ("states", "outcomes", "actions", "partition", "policy")
    )
    space, prior = _parse_states(top["states"])
    outcomes = _parse_outcomes(top["outcomes"])
    choices = _parse_actions(top["actions"], space, outcomes)
    partition = _parse_partition(top["partition"], space, prior)
    policy = _parse_policy(top["policy"], space, prior, partition)
    problem = DecisionProblem(space, outcomes, prior, choices)
    return problem, partition, policy


def save_problem(path, problem: DecisionProblem, policy: UpdatePolicy) -> None:
    """Write :func:`dumps` of ``problem`` and ``policy`` to ``path``.

    The file is rewritten in place and then cut to length by the package's
    one file writer, so an existing file keeps its mode and links.  The
    write is neither atomic nor fsync'd.
    """
    _overwrite(path, dumps(problem, policy))


def _overwrite(path, text: str) -> None:
    """Write ``text`` to ``path`` in place, then cut off any old bytes past it.

    The only way the package writes a file.  The path is opened without
    ``O_TRUNC`` (a new file gets ``0o666 & ~umask``, a symlink is written
    through) and the text goes through a UTF-8 text handle, so the bytes
    are what ``open(path, "w", encoding="utf-8")`` would write.  The file is
    truncated at the handle's position only when it is longer than that.
    Devices and pipes report size 0 and are never truncated nor asked for
    their position: ``ftruncate`` on ``/dev/null`` raises ``EINVAL``, and
    a pipe cannot tell its position.

    Truncating a non-empty file to zero and rewriting it is what ext4 (with
    ``auto_da_alloc``, its default) treats as replace-via-truncate, and it
    starts writeback on close.  On a 2-vCPU VM's ext4 disk, rewriting a
    20 KB file that way took a median of 660-860 µs against 20 µs in place
    (200 rewrites each); a 2 KB file, 210-590 µs against 20 µs.  Two
    alternatives lose:

    - a temporary file moved over ``path`` with ``os.replace`` took 580 µs
      on the 20 KB file (200 µs on the 2 KB one), since ext4 starts
      writeback on replace-via-rename too;
    - unlinking ``path`` and creating it again breaks symlinks and hard
      links, and drops the old file's mode.

    Like ``open(path, "w")``, this write is neither atomic nor fsync'd.  A
    crash between the write and the truncate leaves old bytes past the new
    text, which :func:`loads` refuses as a ``MalformedDocumentError`` (a
    leftover final newline alone reads back as the new document).
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        size = os.fstat(fd).st_size
        if size and size > handle.tell():
            handle.truncate()


def load_problem(path) -> tuple[DecisionProblem, EvidencePartition, UpdatePolicy]:
    """:func:`loads` of the file at ``path``, read as UTF-8.

    The first byte that does not decode is refused at ``byte N``, counting
    from 1 over the whole file.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise MalformedDocumentError(
                f"byte {exc.start + 1}", f"not UTF-8: {exc.reason}"
            ) from None
    return loads(text)
