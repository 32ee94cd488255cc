"""Attribute predicates — the content-based subscription language.

A predicate constrains one attribute, e.g. ``[symbol,=,'YHOO']`` or
``[low,<,25.0]``.  Subscriptions and advertisements are conjunctions of
predicates (see :mod:`repro.pubsub.message`).

Note that the *resource allocation framework never looks at this
language* — it clusters purely on bit vectors.  The language exists so
the simulated brokers can route real publications, which is also what
generates the bit vectors in the first place.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Tuple, Union

Value = Union[str, float, int, bool]

#: A predicate's comparison as a plain two-argument function:
#: ``test(publication_value, predicate_value)``.
Test = Callable[[Any, Any], bool]


# One plain function per operator: ``test(publication_value,
# predicate_value)``.  Written out rather than built from a combinator
# because the numeric ones sit in the routing table's per-publication
# loop, where a second call level per comparison is measurable.
def _lt(value: Any, wanted: Any) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return value < wanted


def _le(value: Any, wanted: Any) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return value <= wanted


def _gt(value: Any, wanted: Any) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return value > wanted


def _ge(value: Any, wanted: Any) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return value >= wanted


def _prefix(value: Any, wanted: Any) -> bool:
    return isinstance(value, str) and isinstance(wanted, str) and value.startswith(wanted)


def _suffix(value: Any, wanted: Any) -> bool:
    return isinstance(value, str) and isinstance(wanted, str) and value.endswith(wanted)


def _contains(value: Any, wanted: Any) -> bool:
    return isinstance(value, str) and isinstance(wanted, str) and wanted in value


def _present(value: Any, wanted: Any) -> bool:
    return True


class Operator(enum.Enum):
    """Comparison operators supported by the language.

    Each member carries its token (``.value``) and its truth table as
    a plain function (``.test``), so evaluating a predicate is one
    attribute read and one call — no dispatch on, or hashing of, the
    member.  A numeric operator is false for a non-number or a bool; a
    string operator is false unless both sides are strings.
    """

    def __new__(cls, token: str, test: Test) -> "Operator":
        member = object.__new__(cls)
        member._value_ = token
        member.test = test
        return member

    EQ = "=", operator.eq
    NEQ = "<>", operator.ne
    LT = "<", _lt
    LE = "<=", _le
    GT = ">", _gt
    GE = ">=", _ge
    PREFIX = "str-prefix", _prefix
    SUFFIX = "str-suffix", _suffix
    CONTAINS = "str-contains", _contains
    PRESENT = "isPresent", _present

    @classmethod
    def parse(cls, token: str) -> "Operator":
        for op in cls:
            if op.value == token:
                return op
        aliases = {"=": cls.EQ, "==": cls.EQ, "eq": cls.EQ, "!=": cls.NEQ, "neq": cls.NEQ}
        if token in aliases:
            return aliases[token]
        raise ValueError(f"unknown operator {token!r}")


_NUMERIC_OPS = {Operator.LT, Operator.LE, Operator.GT, Operator.GE}
_STRING_OPS = {Operator.PREFIX, Operator.SUFFIX, Operator.CONTAINS}


@dataclass(frozen=True)
class Predicate:
    """One ``[attribute, operator, value]`` triple."""

    attribute: str
    operator: Operator
    value: Value = True

    def __post_init__(self) -> None:
        if self.operator in _NUMERIC_OPS and isinstance(self.value, str):
            raise ValueError(
                f"operator {self.operator.value} requires a numeric value, "
                f"got {self.value!r}"
            )

    # ------------------------------------------------------------------
    # Evaluation against a concrete attribute value
    # ------------------------------------------------------------------
    def matches(self, value: Any) -> bool:
        """Whether a publication's attribute value satisfies this predicate."""
        return self.operator.test(value, self.value)

    def compiled(self) -> Tuple[str, Test, Value]:
        """``(attribute, test, value)`` with the operator already resolved.

        ``test(publication_value, value)`` is :meth:`matches`; a loop
        over many predicates (the routing table's) unpacks the triple
        instead of making a method call per predicate.
        """
        return (self.attribute, self.operator.test, self.value)

    # ------------------------------------------------------------------
    # Interval view (for satisfiability tests)
    # ------------------------------------------------------------------
    def interval(self) -> Optional[Tuple[float, float, bool, bool]]:
        """(low, high, low_inclusive, high_inclusive) for numeric constraints."""
        op = self.operator
        if op is Operator.EQ and isinstance(self.value, (int, float)) and not isinstance(self.value, bool):
            v = float(self.value)
            return (v, v, True, True)
        if op is Operator.LT:
            return (-math.inf, float(self.value), False, False)
        if op is Operator.LE:
            return (-math.inf, float(self.value), False, True)
        if op is Operator.GT:
            return (float(self.value), math.inf, False, False)
        if op is Operator.GE:
            return (float(self.value), math.inf, True, False)
        return None

    def __str__(self) -> str:
        return f"[{self.attribute},{self.operator.value},{self.value!r}]"


def intersects(first: Predicate, second: Predicate) -> bool:
    """Whether two predicates on the same attribute can both hold.

    Exact for numeric interval constraints and equality; conservative
    (returns ``True``) for string-operator combinations that cannot be
    decided cheaply, which is safe for routing — a false positive only
    forwards a subscription one hop too far, never loses a message.
    """
    if first.attribute != second.attribute:
        raise ValueError("predicates constrain different attributes")
    if first.operator is Operator.PRESENT or second.operator is Operator.PRESENT:
        return True
    # Equality against anything: evaluate directly.
    if first.operator is Operator.EQ:
        return second.matches(first.value)
    if second.operator is Operator.EQ:
        return first.matches(second.value)
    a, b = first.interval(), second.interval()
    if a is not None and b is not None:
        low = max(a[0], b[0])
        high = min(a[1], b[1])
        if low < high:
            return True
        if low > high:
            return False
        # Touching endpoints: both sides must include the point.
        low_inc = a[2] if a[0] >= b[0] else b[2]
        high_inc = a[3] if a[1] <= b[1] else b[3]
        return low_inc and high_inc
    # NEQ against intervals/strings, or string-op pairs: almost always
    # jointly satisfiable; stay conservative.
    return True


def covers(general: Predicate, specific: Predicate) -> bool:
    """Whether every value matching ``specific`` also matches ``general``.

    Conservative (returns ``False``) when undecidable.  Used only by
    tests and diagnostics — routing and allocation never rely on
    language-level covering, per the paper's design.
    """
    if general.attribute != specific.attribute:
        return False
    if general.operator is Operator.PRESENT:
        return True
    if specific.operator is Operator.EQ:
        return general.matches(specific.value)
    a, b = general.interval(), specific.interval()
    if a is not None and b is not None:
        low_ok = a[0] < b[0] or (a[0] == b[0] and (a[2] or not b[2]))
        high_ok = a[1] > b[1] or (a[1] == b[1] and (a[3] or not b[3]))
        return low_ok and high_ok
    if general.operator is specific.operator and general.value == specific.value:
        return True
    if (
        general.operator is Operator.CONTAINS
        and specific.operator in (Operator.PREFIX, Operator.SUFFIX, Operator.CONTAINS)
        and isinstance(general.value, str)
        and isinstance(specific.value, str)
    ):
        return general.value in specific.value
    return False


def parse_predicates(triples: Iterable[Tuple[str, str, Value]]) -> Tuple[Predicate, ...]:
    """Build predicates from ``(attribute, operator_token, value)`` triples.

    Convenience mirroring the paper's ``[class,=,'STOCK']`` notation:

    >>> preds = parse_predicates([("class", "=", "STOCK"), ("low", "<", 20.0)])
    >>> [str(p) for p in preds]
    ["[class,=,'STOCK']", '[low,<,20.0]']
    """
    return tuple(
        Predicate(attribute, Operator.parse(op), value) for attribute, op, value in triples
    )
