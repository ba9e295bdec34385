"""Exception types shared across the toolkit, and the integer checks the
modules share."""


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
