"""Exception taxonomy shared across the package.

Each class carries the CLI exit code it maps to: file/format problems are
I/O errors (2), violated data preconditions are precondition errors (3),
contradictory or incomplete settings are configuration errors (4), and
failures of the numerics themselves are numeric errors (5).

The field annotations of the package's dataclasses are read here and only
here: check_fields holds every dataclass to its number annotations, and
number_type gives the CLI the type to convert a setting's text to.
"""

import dataclasses


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


# The number annotations a dataclass field may carry: the type its value
# must have, and whether None passes too.
_NUMBERS = {"int": (int, False), "int | None": (int, True), "float": (float, False), "float | None": (float, True)}


def is_number(value, kind: type = float) -> bool:
    """value is an int, or for kind float an int or a float; a bool is neither."""
    return not isinstance(value, bool) and isinstance(value, int if kind is int else (int, float))


def number_type(cls, name: str) -> type | None:
    """int or float, the number type field `name` of dataclass cls is
    annotated with; None for a field that holds no number."""
    annotation = next(f.type for f in dataclasses.fields(cls) if f.name == name)
    return _NUMBERS.get(annotation, (None,))[0]


def check_fields(obj) -> None:
    """Refuse each field of dataclass obj whose value lacks the type of its
    number annotation: int, float, int | None, float | None or
    dict[str, float]. A float field takes an int; other fields pass."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.type == "dict[str, float]":
            ok = isinstance(value, dict) and all(isinstance(k, str) and is_number(v) for k, v in value.items())
        else:
            kind, optional = _NUMBERS.get(f.type, (None, True))
            ok = kind is None or is_number(value, kind) or optional and value is None
        if not ok:
            raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
