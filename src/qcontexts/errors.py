"""Exception types shared across the package, and clipped_repr for their messages.

The CLI maps these onto documented process exit codes, so keep the
hierarchy flat and the categories disjoint: InvariantViolation and
ScenarioError share only the constructor that records an input field path.
"""


def clipped_repr(value) -> str:
    """repr(value), or past 200 characters its head, type and length: an echoed input stays one short line."""
    text = repr(value)
    if len(text) <= 200:
        return text
    return f"{text[:200]}... ({type(value).__name__}, repr of {len(text)} characters)"


class _FieldError(ValueError):
    """A rejected input; `field` is the input path it concerns, when one is known."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        self.message = message
        super().__init__(message if field is None else f"{field}: {message}")


class InvariantViolation(_FieldError):
    """A value failed one of its construction-time invariants."""


class ImpossibleOutcomeError(RuntimeError):
    """A zero-probability outcome was requested, or post-selection cannot
    succeed in any branch (vanishing conditional denominator / no data)."""


class ToleranceError(RuntimeError):
    """An internal numerical identity broke beyond its tolerance.

    Signals a bug or ill-conditioned input, not ordinary round-off.
    """


class ScenarioError(_FieldError):
    """A scenario file failed to parse or is missing required fields."""
