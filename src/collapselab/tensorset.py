"""Point-set data model: float64 matrices with provenance tags.

A PointSet is an immutable n x d matrix where every row carries a source
tag saying which stage of a self-consuming loop produced it (real data,
or synthetic data from iteration k >= 1). Distances are always taken in a
feature space, one of two kinds: the identity map (the raw coordinates) or
a seeded random projection.

Two file formats round-trip point sets: a human-readable CSV and a small
binary container ("rawbin") that preserves floats bit-exactly.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, EmptyDatasetError, FormatError, NumericalError, check_fields

RAWBIN_MAGIC = b"CLPS"
RAWBIN_VERSION = 1

_TAG_RE = re.compile(r"^(real|syn[1-9][0-9]*)$")
# Width of the CSV reader's tag field, one uint64; a tag that fills it may have been cut short.
_TAG_WIDTH = 8
# The largest iteration code a CSV tag holds: "syn" and digits, shorter than _TAG_WIDTH.
MAX_CSV_CODE = 10 ** (_TAG_WIDTH - 1 - len("syn")) - 1


def source_label(code: int) -> str:
    """Provenance label of an iteration code: 0 is real data, k >= 1 is synthetic from iteration k."""
    return "real" if code == 0 else f"syn{int(code)}"


def _parse_tag(text: str) -> int:
    """Iteration code of a source_label, case and surrounding whitespace ignored."""
    token = text.strip().lower()
    if not _TAG_RE.match(token):
        raise FormatError(f"unrecognized source tag {text!r} (expected 'real' or 'synN')")
    return 0 if token == "real" else int(token[3:])


def source_proportions(codes: np.ndarray) -> dict[str, float]:
    """Fraction of points per origin class, keyed 'real', 'syn1', ... ascending."""
    codes = np.asarray(codes)
    values, counts = np.unique(codes, return_counts=True)
    return {source_label(int(v)): int(c) / codes.size for v, c in zip(values, counts)}


class PointSet:
    """Immutable n x d float64 matrix plus per-row provenance codes.

    Codes are stored as integers: 0 = real, k >= 1 = synthetic from loop
    iteration k. Arrays handed in are copied and frozen.
    """

    __slots__ = ("_data", "_sources")

    def __init__(self, data, sources=None):
        arr = np.array(data, dtype=np.float64, order="C", copy=True)
        if arr.ndim != 2:
            raise DimensionError(f"point data must be 2-dimensional, got shape {arr.shape}")
        if arr.shape[1] < 1:
            raise DimensionError("point data must have at least one column")
        if not np.all(np.isfinite(arr)):
            raise ValueError("point data contains non-finite values")
        n = arr.shape[0]
        if sources is None:
            src = np.zeros(n, dtype=np.int64)
        else:
            src = np.array(sources, dtype=np.int64, copy=True)
            if src.shape != (n,):
                raise DimensionError(f"sources must have shape ({n},), got {src.shape}")
            if n and src.min() < 0:
                raise FormatError("source codes must be non-negative")
        arr.setflags(write=False)
        src.setflags(write=False)
        self._data = arr
        self._sources = src

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def sources(self) -> np.ndarray:
        return self._sources

    @property
    def size(self) -> int:
        return self._data.shape[0]

    @property
    def dim(self) -> int:
        return self._data.shape[1]

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"PointSet(n={self.size}, d={self.dim})"

    def proportions(self) -> dict[str, float]:
        return source_proportions(self._sources)

    def with_sources(self, sources) -> "PointSet":
        """New PointSet with the same matrix and replaced tags.

        An integer tags every row with that iteration code.
        """
        if isinstance(sources, int):
            sources = np.full(self.size, sources, dtype=np.int64)
        return PointSet(self._data, sources)

    def rows(self, indices) -> "PointSet":
        idx = np.asarray(indices, dtype=np.int64)
        return PointSet(self._data[idx], self._sources[idx])

    @staticmethod
    def concat(sets: list["PointSet"]) -> "PointSet":
        if not sets:
            raise EmptyDatasetError("cannot concatenate zero point sets")
        dims = {ps.dim for ps in sets}
        if len(dims) != 1:
            raise DimensionError(f"cannot concatenate point sets of mixed dimension {sorted(dims)}")
        data = np.concatenate([ps.data for ps in sets], axis=0)
        src = np.concatenate([ps.sources for ps in sets], axis=0)
        return PointSet(data, src)


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Row-wise embedding applied before any distance is measured.

    Kinds:
      identity  -- raw coordinates.
      randproj  -- seeded Gaussian random projection to target_dim, scaled
                   by 1/sqrt(target_dim); the matrix is regenerated
                   deterministically from (seed, input dim). A projected
                   coordinate that overflows is a NumericalError.
    """

    kind: str = "identity"
    target_dim: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind not in ("identity", "randproj"):
            raise ConfigError(f"unknown feature map kind {self.kind!r}")
        if self.kind == "randproj":
            if self.target_dim is None or self.seed is None:
                raise ConfigError("randproj feature map requires target_dim and seed")
            if self.target_dim < 1:
                raise ConfigError("randproj target_dim must be >= 1")
            if self.seed < 0:
                raise ConfigError(f"randproj seed must be >= 0, got {self.seed}")

    def output_dim(self, input_dim: int) -> int:
        return input_dim if self.kind == "identity" else self.target_dim

    def apply(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.float64)
        if self.kind == "identity":
            return data
        rng = np.random.default_rng(self.seed)
        matrix = rng.standard_normal((data.shape[1], self.target_dim)) / math.sqrt(self.target_dim)
        with np.errstate(over="ignore", invalid="ignore"):
            out = data @ matrix
        if not np.isfinite(out).all():
            raise NumericalError("randproj feature map overflowed: a projected coordinate is not finite")
        return out


@dataclass(frozen=True, eq=False)
class DistanceMetric:
    """Distance declaration: euclidean or squared euclidean, in feature space."""

    kind: str = "euclidean"
    feature_map: FeatureMap = FeatureMap()

    def __post_init__(self) -> None:
        if self.kind not in ("euclidean", "sqeuclidean"):
            raise ConfigError(f"unknown metric kind {self.kind!r} (expected euclidean, sqeuclidean)")

    def from_squared(self, sq: np.ndarray) -> np.ndarray:
        """Convert exact squared euclidean values into this metric's units."""
        return np.sqrt(sq) if self.kind == "euclidean" else sq


EUCLIDEAN = DistanceMetric()


def apply_feature_map(ps: PointSet, fmap: FeatureMap) -> PointSet:
    """Map a whole point set into feature space, preserving count and tags;
    the identity map returns ps itself, which is immutable."""
    return ps if fmap.kind == "identity" else PointSet(fmap.apply(ps.data), ps.sources)


def _parse_float(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _load_csv(path: Path) -> PointSet:
    """The CSV format is what one numpy pass by path reads after the header
    (README "Formats"); numpy's errors keep its own text and row numbers."""
    # numpy would open a path with one of these suffixes as a compressed file.
    if path.suffix in (".gz", ".bz2", ".xz", ".lzma"):
        raise FormatError(f"{path}: CSV is read as plain text, and {path.suffix} names a compressed file")
    # Universal newlines end lines where numpy does, so numpy skips exactly the lines read here.
    with path.open(errors="surrogateescape") as lines:
        head, line = next(((k, ln) for k, ln in enumerate(lines) if ln.strip()), (None, None))
        if head is None:
            raise EmptyDatasetError(f"{path}: empty file")
        first = [f.strip() for f in line.split(",")]
        # A source column without a header still leaves the first field numeric,
        # so a non-numeric first field can only be a header.
        has_header = _parse_float(first[0]) is None
        if has_header:
            has_source = first[-1].lower() == "source"
            if not any(ln.strip() for ln in lines):
                raise EmptyDatasetError(f"{path}: header but no data rows")
        else:
            has_source = _parse_float(first[-1]) is None
    n_cols = len(first) - has_source
    if n_cols < 1:
        raise FormatError(f"{path}: no numeric columns")

    dtype = [("x", np.float64, (n_cols,))] + ([("tag", f"S{_TAG_WIDTH}")] if has_source else [])
    try:
        table = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, ndmin=1, skiprows=head + has_header)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    if not has_source:
        return PointSet(table["x"])
    # Each tag's bytes as one integer, read in place; each distinct tag is parsed once.
    packed = np.ndarray(table.size, np.uint64, table, table.dtype.fields["tag"][1], (table.itemsize,))
    keys, inverse = np.unique(packed, return_inverse=True)
    codes = np.empty(keys.size, dtype=np.int64)
    for j, tag in enumerate(keys.view(f"S{_TAG_WIDTH}")):
        # numpy keeps a code point up to U+00FF as one byte and drops trailing NULs.
        text = tag.decode("latin-1")
        try:
            if not text.isascii() or len(text) >= _TAG_WIDTH:
                raise FormatError(f"source tag {text!r}: a tag is ASCII and shorter than {_TAG_WIDTH} characters")
            codes[j] = _parse_tag(text)
        except FormatError as exc:
            raise FormatError(f"{path}: data row {np.flatnonzero(inverse == j)[0] + 1}: {exc}") from None
    return PointSet(table["x"], codes[inverse])


def _save_csv(ps: PointSet, path: Path) -> None:
    if ps.size and int(ps.sources.max()) > MAX_CSV_CODE:
        raise FormatError(f"{path}: CSV stores iteration codes up to {MAX_CSV_CODE}, got {int(ps.sources.max())}")
    out = [",".join([f"x{j}" for j in range(ps.dim)] + ["source"])]
    out += [",".join([*map(repr, row), source_label(code)]) for row, code in zip(ps.data.tolist(), ps.sources.tolist())]
    path.write_text("\n".join(out) + "\n")


def _load_rawbin(path: Path) -> PointSet:
    raw = path.read_bytes()
    if len(raw) == 0:
        raise EmptyDatasetError(f"{path}: empty file")
    if len(raw) < 24 or raw[:4] != RAWBIN_MAGIC:
        raise FormatError(f"{path}: not a rawbin file (bad magic)")
    version, n, d = struct.unpack_from("<IQQ", raw, 4)
    if version != RAWBIN_VERSION:
        raise FormatError(f"{path}: unsupported rawbin version {version}")
    if n == 0:
        raise EmptyDatasetError(f"{path}: zero points")
    if d == 0:
        raise FormatError(f"{path}: zero dimension")
    need = 24 + n * d * 8 + n
    if len(raw) != need:
        raise FormatError(f"{path}: expected {need} bytes, found {len(raw)}")
    data = np.frombuffer(raw, dtype="<f8", count=n * d, offset=24).reshape(n, d)
    codes = np.frombuffer(raw, dtype=np.uint8, count=n, offset=24 + n * d * 8).astype(np.int64)
    return PointSet(data, codes)


def _save_rawbin(ps: PointSet, path: Path) -> None:
    if ps.size and int(ps.sources.max()) > 255:
        raise FormatError(f"{path}: rawbin stores iteration codes up to 255, got {int(ps.sources.max())}")
    head = RAWBIN_MAGIC + struct.pack("<IQQ", RAWBIN_VERSION, ps.size, ps.dim)
    body = np.ascontiguousarray(ps.data, dtype="<f8").tobytes()
    tail = ps.sources.astype(np.uint8).tobytes()
    path.write_bytes(head + body + tail)


def load_pointset(path, fmt: str = "csv") -> PointSet:
    path = Path(path)
    if fmt == "csv":
        return _load_csv(path)
    if fmt == "rawbin":
        return _load_rawbin(path)
    raise ConfigError(f"unknown dataset format {fmt!r} (expected 'csv' or 'rawbin')")


def save_pointset(ps: PointSet, path, fmt: str = "csv") -> None:
    path = Path(path)
    if fmt == "csv":
        _save_csv(ps, path)
    elif fmt == "rawbin":
        _save_rawbin(ps, path)
    else:
        raise ConfigError(f"unknown dataset format {fmt!r} (expected 'csv' or 'rawbin')")
