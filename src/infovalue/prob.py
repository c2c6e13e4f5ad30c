"""Finite probability spaces with exact rational arithmetic.

States are opaque string ids.  All masses are exact rationals: they enter
and leave as :class:`fractions.Fraction` and are stored as integers over one
denominator.  Floats are rejected at the boundary so that every downstream
comparison (equality of two expected utilities, sign of a value difference)
is exact.

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
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Iterator, Mapping

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
        if isinstance(self.states, str):
            raise ValidationError(
                f"states must be a sequence of ids, not the string {self.states!r}"
            )
        object.__setattr__(self, "states", tuple(self.states))
        if not self.states:
            raise ValidationError("a state space needs at least one state")
        position: dict[str, int] = {}
        for s in self.states:
            if not isinstance(s, str) or not s:
                raise ValidationError(f"state ids must be non-empty strings, got {s!r}")
            if s in position:
                raise ValidationError(f"duplicate state id: {s!r}")
            position[s] = len(position)
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
    """A subset of a state space's states."""

    space: StateSpace
    members: frozenset[str]

    def __post_init__(self) -> None:
        if isinstance(self.members, str):
            raise ValidationError(
                f"members must be a collection of ids, not the string {self.members!r}"
            )
        object.__setattr__(self, "members", frozenset(self.members))
        stray = self.members - set(self.space.states)
        if stray:
            raise ValidationError(
                f"event members not in the state space: {sorted(stray)}"
            )

    def __contains__(self, state: object) -> bool:
        return state in self.members

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> tuple[str, ...]:
        """Members in state-space order."""
        return tuple(s for s in self.space if s in self.members)

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
    if event.space != credence.space:
        raise SpaceMismatchError("event and credence live on different spaces")
    return Fraction(_weight(credence, event.members), credence.den)


def _weight(credence: Credence, states: Iterable[str]) -> int:
    """The credence's mass on ``states`` times ``credence.den``: an integer.

    ``states`` must be distinct ids of the credence's space.  A mass is 1
    exactly when this equals ``credence.den``, and 0 when it is 0.
    """
    nums, position = credence.nums, credence.space._position
    return sum(map(nums.__getitem__, map(position.__getitem__, states)))


def condition(credence: Credence, event: Event) -> Credence:
    """Bayesian conditioning: restrict to the event and renormalize.

    Computed on integers: each member keeps its numerator, every other
    state gets 0, and :meth:`Credence._from_weights` reduces the result, so
    no mass is divided by the event's probability.

    Raises :class:`ZeroProbabilityError` if the event has probability 0 —
    there is no canonical answer there and pretending otherwise hides bugs.
    """
    if event.space != credence.space:
        raise SpaceMismatchError("event and credence live on different spaces")
    nums, position = credence.nums, credence.space._position
    kept = [0] * len(nums)
    for s in event.members:
        i = position[s]
        kept[i] = nums[i]
    if not any(kept):
        raise ZeroProbabilityError(
            f"cannot condition on zero-probability event {event.describe()}"
        )
    return Credence._from_weights(credence.space, kept)


def is_partition(space: StateSpace, cells: Iterable[Event]) -> bool:
    """True iff ``cells`` are pairwise-disjoint, non-empty, and cover ``space``."""
    seen: set[str] = set()
    for cell in cells:
        if cell.space != space:
            return False
        if not cell.members:
            return False
        if cell.members & seen:
            return False
        seen |= cell.members
    return seen == set(space.states)
