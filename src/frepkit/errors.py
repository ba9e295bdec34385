"""Exception types shared across the toolkit, and the integer checks and
the immutable-value base class the modules share."""


class FrepkitError(Exception):
    """Base class for all frepkit errors."""


class ParameterError(FrepkitError, ValueError):
    """Rejected construction or analysis parameters."""


class BudgetExceededError(FrepkitError):
    """An exact search opened more search nodes than the budget allows.

    Raised instead of ever returning an approximate answer.  The search
    order is fixed, so whether a call refuses depends only on its arguments.
    """

    def __init__(self, what: str, budget: int):
        self.what = what
        self.budget = budget
        super().__init__(
            f"{what} needs more than {budget} search nodes; "
            f"raise the budget to run this exactly"
        )


class FormatError(FrepkitError):
    """Malformed interchange file; carries the offending line number."""

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class IrreparableError(FrepkitError):
    """No surviving replica exists for some lost symbol."""


class CorruptionError(FrepkitError):
    """Stored data disagrees with its manifest or with other replicas."""


class FrbDefinitionError(FrepkitError):
    """Computed FRB parameters violate the requirement t <= M."""


def _integer(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParameterError(f"{what} {value!r} is not an integer")
    return value


def _decimal(text: str) -> int:
    """The value of an ASCII decimal field, -?[0-9]+.  Anything else raises
    ValueError, also what int() reads: other scripts' digits, '_', a '+'."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(text)
    return int(text)


class _Frozen:
    """Base of the immutable value types.  Equality, hash and repr read the
    attributes named in _fields; __init__ sets them with object.__setattr__,
    and no attribute can be set or deleted after that."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable value")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable value")
