"""Exception taxonomy shared across the package.

Each class carries the CLI exit code it maps to: file/format problems are
I/O errors (2), violated data preconditions are precondition errors (3),
contradictory or incomplete settings are configuration errors (4), and
failures of the numerics themselves are numeric errors (5).
is_number and check_numbers are the int and float type checks that the
settings dataclasses and the trace reader share.
"""


class CollapseLabError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 5


class FormatError(CollapseLabError):
    """Malformed file content: bad magic, ragged rows, unparseable fields."""

    exit_code = 2


class EmptyDatasetError(CollapseLabError):
    """A dataset that must be non-empty is empty."""

    exit_code = 2


class DimensionError(CollapseLabError):
    """Shape or dimensionality mismatch between operands."""

    exit_code = 3


class InsufficientPointsError(CollapseLabError):
    """Too few points for the requested operation (e.g. size <= gamma)."""

    exit_code = 3


class DomainError(CollapseLabError):
    """Argument outside the mathematical domain of a function."""

    exit_code = 3


class DegenerateInputError(CollapseLabError):
    """Input with no usable variation, e.g. a constant series."""

    exit_code = 3


class NumericalError(CollapseLabError):
    """Numerical failure at runtime, e.g. an indefinite covariance."""

    exit_code = 5


class ConfigError(CollapseLabError):
    """Contradictory, incomplete, or out-of-range configuration."""

    exit_code = 4


def is_number(value, kind: str) -> bool:
    """value is an int (kind "int") or an int or float (kind "float"); bool is neither."""
    return not isinstance(value, bool) and isinstance(value, int if kind == "int" else (int, float))


def check_numbers(settings, kind: str, *names: str, optional: bool = False) -> None:
    """Refuse each named field of settings that is not a number of kind; with
    optional, None passes too."""
    for name in names:
        value = getattr(settings, name)
        if not (is_number(value, kind) or optional and value is None):
            raise ConfigError(f"{name} must be {'an integer' if kind == 'int' else 'a number'}, got {value!r}")
