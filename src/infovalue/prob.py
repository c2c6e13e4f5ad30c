"""Finite probability spaces with exact rational arithmetic.

States are opaque string ids, and an :class:`EvidencePartition` orders the
cells of a partition of them, as :func:`is_partition` checks it.  All
masses are exact rationals: they enter and leave as
:class:`fractions.Fraction` and are stored as integers over one
denominator.  Floats are rejected at the boundary so that every downstream
comparison (equality of two expected utilities, sign of a value difference)
is exact.

Every sequence field of the package's classes is read by one private
reader, ``_sequence``: it returns a tuple and refuses a bare ``str``,
``bytes`` or ``bytearray`` by name, and anything that is not iterable, so
no field splits a string into characters.  Every id list (states,
outcomes, action ids) is read by ``_distinct_ids``, which calls it and
refuses an empty list and an id that is not a distinct, non-empty string.

Every rational input is read by one private parser, ``_ratio``, into an
integer pair ``(num, den)`` with ``den > 0``, unreduced: ``"2/4"`` reads as
``(2, 4)``.  :func:`as_fraction` wraps that pair in a Fraction.  A list of
such pairs is brought to one denominator by one private function,
``_over_lcm``, which scales each numerator to the lcm of the denominators;
credences, problem files, utility tables and report sums all call it, so
building a credence from strings builds no Fraction.  A numeral longer than
Python's limit for integer strings (``sys.get_int_max_str_digits()``, 4,300
digits by default) is refused with a :class:`ValidationError` that gives
its digit count.

An :class:`Event` finds its members' positions once, in the lookup that
refuses stray members, and stores them in state order as ``_positions``,
which ``sorted_members``, ``_weight``, ``condition``, ``is_partition``,
the cell walks of ``updating``, ``voi`` and ``adversary``, and the
property suite's deviant draw read.  Only this
module and ``problemfile`` read a :class:`StateSpace`'s position map.
The prior given a cell is read by one reader, ``_cell_weights``, which
refuses what :func:`condition` refuses.  ``condition`` and
``problemfile``'s keyword test read it, the aversion certificate derives
its ``r`` from it, and ``DecisionProblem._cell_scores`` scores it for
``val_good``, ``is_relevant`` and ``_probe_ties``.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Collection, Iterator, Sequence

from .errors import (
    SpaceMismatchError,
    ValidationError,
    ZeroProbabilityError,
)

__all__ = [
    "StateSpace",
    "Event",
    "Credence",
    "as_fraction",
    "probability",
    "condition",
    "is_partition",
    "EvidencePartition",
]


_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?", re.ASCII)


def _ratio(value) -> tuple[int, int]:
    """``value`` as an integer pair ``(num, den)``, unreduced, with ``den > 0``.

    The one reader of :func:`as_fraction`'s grammar; see there for what it
    accepts and refuses.
    """
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is None:
            raise ValidationError(
                f"expected an exact rational string like '3/4' or '-2', got {value!r}"
            )
        num_text, den_text = match.groups()
        try:
            num = int(num_text)
            den = 1 if den_text is None else int(den_text)
        except ValueError:  # a numeral past Python's int-string digit limit
            digits = max(len(num_text.lstrip("+-")), len(den_text or ""))
            raise ValidationError(
                f"a {digits}-digit numeral is longer than the "
                f"{sys.get_int_max_str_digits()} digits Python reads into an int"
            ) from None
        if not den:
            raise ValidationError(f"zero denominator in {value!r}")
        return num, den
    if isinstance(value, bool):
        raise ValidationError(f"expected an exact rational, got bool {value!r}")
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    if isinstance(value, float):
        raise ValidationError(
            f"expected an exact rational, got float {value!r}; "
            "pass a Fraction, an int, or a string like '1/10'"
        )
    raise ValidationError(f"expected an exact rational, got {type(value).__name__}")


def _check_types(*fields: tuple[str, object, type]) -> None:
    """Refuse the first ``(name, value, kind)`` whose value is not a ``kind``."""
    for name, value, kind in fields:
        if not isinstance(value, kind):
            raise ValidationError(
                f"{name} must be of type {kind.__name__}, not {type(value).__name__}"
            )


def _sequence(name: str, value, what: str) -> tuple:
    """``value`` as a tuple, refused if it is a bare ``str``, ``bytes`` or
    ``bytearray`` (named as "a <what>, not the string ...") or not iterable.

    The one reader of every sequence field, so none splits a string into
    characters.
    """
    if type(value) in (tuple, list, frozenset):  # no check below can refuse these
        return tuple(value)
    if isinstance(value, (str, bytes, bytearray)):
        raise ValidationError(f"{name} must be a {what}, not the string {value!r}")
    if not isinstance(value, Iterable):
        _check_types((name, value, Iterable))
    return tuple(value)


def _distinct_ids(name: str, values, noun: str, owner: str) -> dict[str, int]:
    """Each id in ``values``, read by :func:`_sequence`, mapped to its position.

    Refuses an id that is not a non-empty string, a duplicate id, and no
    ids at all, naming the ``noun`` (``"state"``) and, for the last, its
    ``owner`` (``"a state space"``).
    """
    position: dict[str, int] = {}
    for value in _sequence(name, values, "sequence of ids"):
        if not isinstance(value, str) or not value:
            raise ValidationError(f"{noun} ids must be non-empty strings, got {value!r}")
        if value in position:
            raise ValidationError(f"duplicate {noun} id: {value!r}")
        position[value] = len(position)
    if not position:
        raise ValidationError(f"{owner} needs at least one {noun}")
    return position


def _over_lcm(pairs: Collection[tuple[int, int]]) -> tuple[list[int], int, int]:
    """Bring ``(n, d)`` pairs, ``d > 0``, to the lcm ``den`` of the ``d`` (1 if none).

    Returns ``(scaled, total, den)``: each ``n * (den // d)`` in order, and
    their sum.  Each caller makes its own checks and raises its own errors.
    """
    den = math.lcm(*(d for _, d in pairs))
    scaled = [n * (den // d) for n, d in pairs]
    return scaled, sum(scaled), den


def as_fraction(value) -> Fraction:
    """Coerce ``value`` to an exact :class:`Fraction`.

    Accepts ints, Fractions, and strings in the package's one rational
    grammar: an optional sign, digits, and optionally ``/`` and more
    digits (``"3"``, ``"-7/2"``), with no spaces, decimals or exponents.
    Floats are rejected outright: a float that *looks* like 0.1 is not
    1/10, and exactness is the whole point of this package.  So are
    numerals longer than Python's int-string digit limit.  A Fraction
    argument is returned as is.
    """
    if type(value) is Fraction:
        return value
    return Fraction(*_ratio(value))


@dataclass(frozen=True)
class StateSpace:
    """An ordered, duplicate-free tuple of state ids.

    Order is load-bearing: deterministic tie-breaking and serialization
    both follow it.
    """

    states: tuple[str, ...]

    def __post_init__(self) -> None:
        position = _distinct_ids("states", self.states, "state", "a state space")
        object.__setattr__(self, "states", tuple(position))
        object.__setattr__(self, "_position", position)

    def __iter__(self) -> Iterator[str]:
        return iter(self.states)

    def __len__(self) -> int:
        return len(self.states)

    def __contains__(self, state: object) -> bool:
        return state in self._position

    def index(self, state: str) -> int:
        try:
            return self._position[state]
        except KeyError:
            raise ValueError(f"{state!r} is not in the state space") from None


@dataclass(frozen=True)
class Event:
    """A subset of a state space's states, with their positions stored once."""

    space: StateSpace
    members: frozenset[str]

    def __post_init__(self) -> None:
        members = _sequence("members", self.members, "collection of ids")
        _check_types(("space", self.space, StateSpace))
        try:
            object.__setattr__(self, "members", frozenset(members))
            positions = sorted(map(self.space._position.__getitem__, self.members))
        except (KeyError, TypeError):  # TypeError: an unhashable member
            stray = sorted(
                (s for s in self.members if not isinstance(s, str) or s not in self.space),
                key=str,
            )
            message = f"event members not in the state space: {stray}"
            raise ValidationError(message) from None
        object.__setattr__(self, "_positions", tuple(positions))

    def __contains__(self, state: object) -> bool:
        return state in self.members

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> tuple[str, ...]:
        """Members in state-space order."""
        return tuple(map(self.space.states.__getitem__, self._positions))

    def complement(self) -> Event:
        return Event(self.space, frozenset(self.space.states) - self.members)

    def intersection(self, other: Event) -> Event:
        if other.space != self.space:
            raise SpaceMismatchError("cannot intersect events over different spaces")
        return Event(self.space, self.members & other.members)

    def describe(self) -> str:
        return "{" + ", ".join(self.sorted_members()) + "}"


@dataclass(frozen=True, init=False)
class Credence:
    """An exact probability distribution over a state space.

    Build it from a mapping of state ids to masses; states left out get
    probability 0.  The distribution is stored once, as reduced integer
    numerators ``nums`` in state-space order over their least common
    denominator ``den``, so equal distributions compare and hash equal.
    Each mass is read as an integer pair by the module's one rational
    parser (so a numeral past Python's int-string digit limit is refused),
    checked for sign, brought to the lcm of the denominators by
    ``_over_lcm``, checked for sum, and divided by the gcd: unreduced
    masses such as ``"2/4"`` store what ``"1/2"`` does, and no Fraction is
    built unless an error message needs one.  Credences the library
    derives skip the mapping: :meth:`_from_weights` builds them from
    integer weights and stores the same fields.
    """

    space: StateSpace
    nums: tuple[int, ...]
    den: int

    def __init__(self, space: StateSpace, mass: Mapping[str, object]) -> None:
        _check_types(("space", space, StateSpace), ("mass", mass, Mapping))
        position = space._position
        given: dict[int, tuple[int, int]] = {}
        for state, raw in mass.items():
            if state not in position:
                raise ValidationError(f"mass assigned to unknown state {state!r}")
            num, den = _ratio(raw)
            if num < 0:
                raise ValidationError(
                    f"negative mass {Fraction(num, den)} on state {state!r}"
                )
            given[position[state]] = num, den
        scaled, total, den = _over_lcm(given.values())
        dense = [0] * len(position)
        for i, weight in zip(given, scaled):
            dense[i] = weight
        if total != den:
            raise ValidationError(
                f"masses must sum to exactly 1, got {Fraction(total, den)}"
            )
        self._store(space, dense)

    @classmethod
    def _from_weights(cls, space: StateSpace, weights: list[int]) -> Credence:
        """The credence proportional to trusted non-negative integer weights.

        One weight per state, in state order, with a positive sum.
        """
        credence = object.__new__(cls)
        credence._store(space, weights)
        return credence

    def _store(self, space: StateSpace, weights: list[int]) -> None:
        """Store weights as ``nums`` over their sum ``den``, both divided by their gcd.

        The one reduction every credence goes through, so equal
        distributions store equal integers however they were written.
        """
        common = math.gcd(*weights)
        if common != 1:
            weights = [w // common for w in weights]
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "nums", tuple(weights))
        object.__setattr__(self, "den", sum(weights))

    @property
    def mass(self) -> tuple[Fraction, ...]:
        """The masses as Fractions in state-space order."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def __call__(self, state: str) -> Fraction:
        position = self.space._position.get(state)
        if position is None:
            raise ValidationError(f"unknown state {state!r}")
        return Fraction(self.nums[position], self.den)

    def support(self) -> tuple[str, ...]:
        """Positive-probability states, in state-space order."""
        return tuple(s for s, n in zip(self.space.states, self.nums) if n)


def probability(credence: Credence, event: Event) -> Fraction:
    """Total mass the credence assigns to the event."""
    _check_types(("credence", credence, Credence), ("event", event, Event))
    if event.space != credence.space:
        raise SpaceMismatchError("event and credence live on different spaces")
    return Fraction(_weight(credence, event), credence.den)


def _weight(credence: Credence, event: Event) -> int:
    """The credence's mass on ``event`` times ``credence.den``: an integer.

    ``event`` must be over the credence's space.  A mass is 1 exactly when
    this equals ``credence.den``, and 0 when it is 0.
    """
    return sum(map(credence.nums.__getitem__, event._positions))


def _columns(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A getter that reads ``positions`` out of a row as a tuple: one
    ``itemgetter``, or a getter of its own for one position or none."""
    if len(positions) == 1:
        (only,) = positions
        return lambda row: (row[only],)
    return itemgetter(*positions) if positions else lambda row: ()


def _cell_weights(credence: Credence, event: Event) -> tuple[Callable, tuple[int, ...]]:
    """The event's column getter and the credence's ``nums`` on it, refused
    with the types and messages of :func:`condition`, which calls it."""
    if event.space != credence.space:
        raise SpaceMismatchError("event and credence live on different spaces")
    take = _columns(event._positions)
    weights = take(credence.nums)
    if not any(weights):
        raise ZeroProbabilityError(
            f"cannot condition on zero-probability event {event.describe()}"
        )
    return take, weights


def condition(credence: Credence, event: Event) -> Credence:
    """Bayesian conditioning: restrict to the event and renormalize.

    Computed on integers: each member keeps its numerator, every other
    state gets 0, and :meth:`Credence._from_weights` reduces the result, so
    no mass is divided by the event's probability.

    Raises :class:`ZeroProbabilityError` if the event has probability 0 —
    there is no canonical answer there and pretending otherwise hides bugs.
    """
    _check_types(("credence", credence, Credence), ("event", event, Event))
    _, weights = _cell_weights(credence, event)
    kept = [0] * len(credence.nums)
    for i, weight in zip(event._positions, weights):
        kept[i] = weight
    return Credence._from_weights(credence.space, kept)


def is_partition(space: StateSpace, cells: Iterable[Event]) -> bool:
    """True iff ``cells`` are pairwise-disjoint, non-empty, and cover ``space``."""
    _check_types(("space", space, StateSpace), ("cells", cells, Iterable))
    positions: list[int] = []
    for i, cell in enumerate(cells):
        if not isinstance(cell, Event):
            _check_types((f"cells[{i}]", cell, Event))
        if cell.space != space or not cell.members:
            return False
        positions += cell._positions
    positions.sort()
    return positions == list(range(len(space)))


@dataclass(frozen=True)
class EvidencePartition:
    """An ordered partition of a state space into learnable events."""

    space: StateSpace
    cells: tuple[Event, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "cells", _sequence("cells", self.cells, "sequence of Events")
        )
        _check_types(("space", self.space, StateSpace))
        if not is_partition(self.space, self.cells):
            raise ValidationError(
                "cells must be non-empty, pairwise disjoint, and cover the space"
            )
        lookup = {}
        for cell in self.cells:
            for state in cell.members:
                lookup[state] = cell
        object.__setattr__(self, "_cell_of", lookup)

    def __iter__(self):
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def cell_of(self, state: str) -> Event:
        try:
            return self._cell_of[state]
        except KeyError:
            raise ValidationError(f"unknown state {state!r}") from None
