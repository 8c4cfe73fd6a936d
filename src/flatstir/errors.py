"""Exception hierarchy shared across the package, and the base of its value types.

Every error carries the process exit code the CLI maps it to:
1 = verification/coherence failure, 2 = syntax/usage, 3 = enumeration
budget exceeded, 4 = domain violation (structurally valid input outside
an operation's domain).
"""

import re
import sys
from operator import attrgetter
from typing import Callable

# Default cap on the objects one enumeration may visit; see ``check_budget``.
DEFAULT_BUDGET = 50_000_000


class _RecordType(type):
    """Metaclass of ``Record``: the names a class annotates become its ``__slots__``, and
    ``_fields`` lists the fields it inherits, then those."""

    def __new__(mcls, name, bases, namespace):
        namespace["__slots__"] = own = tuple(namespace.get("__annotations__", ()))
        cls = super().__new__(mcls, name, bases, namespace)
        cls._fields = fields = getattr(cls, "_fields", ()) + own
        if fields:
            cls._values = attrgetter(*fields)
        return cls


class Record(metaclass=_RecordType):
    """Base of the package's value types: plain classes with ``__slots__``, no ``__dict__``.

    Fields are set, compared, shown and pickled in the order they are
    annotated; ``==`` holds only between instances of one class, and a
    copy or an unpickled instance is rebuilt through ``__init__``.  The
    ``__init__`` here takes every field, by position or keyword; a class
    with defaults or checks writes its own.  A ``Record`` is mutable and
    unhashable.
    """

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = args + tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if len(values) != len(names) or kwargs:
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class FrozenRecord(Record):
    """A ``Record`` that hashes as the tuple of its fields and refuses to change them.

    Its ``__init__`` sets the fields with ``object.__setattr__``; after
    that, assigning or deleting any attribute raises ``AttributeError``.
    """

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FlatstirError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class SyntaxFormatError(FlatstirError):
    """Malformed textual input (word, partition, b-file, CSV, count-table JSON)."""

    exit_code = 2


class WordSyntaxError(SyntaxFormatError):
    pass


class PartitionSyntaxError(SyntaxFormatError):
    pass


class BFileFormatError(SyntaxFormatError):
    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class TableFormatError(SyntaxFormatError):
    pass


def _describe_count(value: int) -> str:
    """``value`` in decimal up to 100 digits, else ``more than 10^k`` with k taken
    from its bit length (30102/100000 < log10 2): a huge int is never made text."""
    if value < 10**100:
        return str(value)
    return f"more than 10^{(value.bit_length() - 1) * 30102 // 100000}"


class BudgetExceededError(FlatstirError):
    """Projected enumeration size exceeds the configured object cap.

    ``projected`` keeps the exact projection that the message may abbreviate.
    """

    exit_code = 3

    def __init__(self, projected: int, cap: int, what: str = "enumeration"):
        self.projected = projected
        self.cap = cap
        super().__init__(
            f"{what} would visit {_describe_count(projected)} objects, "
            f"exceeding the budget of {_describe_count(cap)}"
        )


def check_budget(projected: int, budget: int, what: str) -> int:
    """The enumeration budget guard: return ``projected``, or raise if it exceeds ``budget``."""
    if projected > budget:
        raise BudgetExceededError(projected, budget, what)
    return projected


def max_str_digits() -> int:
    """Python's limit on the digits of an int converted from text (0: no limit)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


DECIMAL_RE = re.compile(r"-?[0-9]+")  # ASCII only: int() would also take "+1", " 1", "1_0", "١"


def check_digits(token: str, what: str, error: Callable[[str], FlatstirError]) -> None:
    """Raise ``error`` naming the limit if ``int()`` refuses a decimal ``token`` for its
    length; Python's own message advises a setting no CLI option offers."""
    digits = token[1:] if token.startswith(("+", "-")) else token
    limit = max_str_digits()
    if limit and len(digits) > limit and digits.isascii() and digits.isdigit():
        raise error(f"{what} has {len(digits)} digits, more than {limit}")


class DomainError(FlatstirError):
    """Well-formed value outside the domain of the requested operation."""

    exit_code = 4


class NotStirlingError(DomainError):
    pass


class NotFlattenedError(DomainError):
    pass


class NotCanonicalError(DomainError):
    """Partition fails canonical-form validation; carries the diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        detail = "; ".join(d.message for d in self.diagnostics)
        super().__init__(f"partition is not in canonical form: {detail}")


class NotTypeBError(DomainError):
    """Block family violates one of the five defining conditions."""

    def __init__(self, condition: int, message: str):
        self.condition = condition
        super().__init__(f"not a type B set partition (condition {condition}): {message}")


class CacheCoherenceError(FlatstirError):
    """A count-table entry disagrees with a second derivation of the same key."""

    exit_code = 1

    def __init__(self, entry_key, cached, derived):
        self.entry_key = entry_key
        self.cached = cached
        self.derived = derived
        super().__init__(
            f"count-table entry {entry_key} holds {cached} but re-derivation gives {derived}"
        )
