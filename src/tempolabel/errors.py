"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration and input problems exit
with 2, numeric degeneracies with 3.
"""


class TempolabelError(Exception):
    """Base class for all package errors."""


class ConfigError(TempolabelError):
    """Invalid configuration (catalogue, switch model, simulation setup)."""


class InputError(TempolabelError):
    """Invalid data passed to an operation (bad minute, misaligned grids)."""


class ParseError(InputError):
    """Malformed input file; the message starts with the offending line
    number when one is given."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class DegenerateModelError(TempolabelError):
    """Numeric degeneracy: no assignment has nonzero probability."""
