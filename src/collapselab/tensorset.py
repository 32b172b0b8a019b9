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

import io
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
# Width of the CSV reader's tag field, one uint64; a tag this long or longer takes the per-cell parser.
_TAG_WIDTH = 8


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


# numpy's pass reads a CSV by its path and ends lines only at \n, \r and
# \r\n, where str.splitlines also ends them at the code points below; its
# fixed-width tags drop trailing NULs, and it opens a path with one of
# _COMPRESSED's suffixes as a compressed file. Such files go per cell.
_ASCII_STOPS = (b"\x00", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")
_UTF8_STOPS = tuple(c.encode() for c in "\x85\u2028\u2029")
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _load_csv(path: Path) -> PointSet:
    raw = path.read_bytes()
    stops = _ASCII_STOPS if raw.isascii() else _ASCII_STOPS + _UTF8_STOPS
    vectorize = path.suffix not in _COMPRESSED and not any(b in raw for b in stops)
    # Universal newlines split such a file where str.splitlines does.
    lines = io.TextIOWrapper(io.BytesIO(raw)) if vectorize else iter(path.read_text().splitlines())
    head, line = next(((k, ln) for k, ln in enumerate(lines) if ln.strip()), (None, None))
    if head is None:
        raise EmptyDatasetError(f"{path}: empty file")
    first = [f.strip() for f in line.split(",")]
    # A source column without a header still leaves the first field numeric,
    # so a non-numeric first field can only be a header.
    has_header = _parse_float(first[0]) is None
    expected = len(first)
    if has_header:
        has_source = first[-1].lower() == "source"
        if not any(ln.strip() for ln in lines):
            raise EmptyDatasetError(f"{path}: header but no data rows")
    else:
        has_source = _parse_float(first[-1]) is None
    del raw, lines

    n_cols = expected - (1 if has_source else 0)
    if n_cols < 1:
        raise FormatError(f"{path}: no numeric columns")

    parsed = vectorize and _parse_table(path, head + has_header, n_cols, has_source)
    return PointSet(*parsed) if parsed else _parse_cells(path, has_header, expected, has_source)


def _parse_table(path: Path, skiprows: int, n_cols: int, has_source: bool):
    """Parse the rows after the first skiprows lines in one numpy pass:
    (values, codes), or None if refused.

    numpy skips empty lines, accepts a subset of what the per-cell parser
    accepts and reads it to the same bits; it refuses whitespace-only
    lines, ragged rows, underscores in numbers and non-ASCII digits. A tag
    is read as _TAG_WIDTH bytes, one per code point up to U+00FF, and told
    apart as one integer; each distinct tag is parsed once. Files with a
    tag that may have been cut short, or an invalid or non-ASCII one, go to
    the per-cell parser, which names the first bad row.
    """
    dtype = [("x", np.float64, (n_cols,))] + ([("tag", f"S{_TAG_WIDTH}")] if has_source else [])
    try:
        table = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, ndmin=1, skiprows=skiprows)
    except ValueError:
        return None
    if not has_source:
        return table["x"], None
    # Each tag's bytes as one integer, read in place; a set high bit is a non-ASCII code point.
    packed = np.ndarray(table.size, np.uint64, table, table.dtype.fields["tag"][1], (table.itemsize,))
    if (packed & np.uint64(0x8080808080808080)).any():
        return None
    keys, inverse = np.unique(packed, return_inverse=True)
    # The distinct tags are their keys' bytes; a full-width one may have been cut short.
    tags = [tag.decode() for tag in keys.view(f"S{_TAG_WIDTH}")]
    if any(len(tag) >= _TAG_WIDTH for tag in tags):
        return None
    try:
        return table["x"], np.array([_parse_tag(tag) for tag in tags], dtype=np.int64)[inverse]
    except FormatError:
        return None


def _parse_cells(path: Path, has_header: bool, expected: int, has_source: bool) -> PointSet:
    """Per-cell parser for the files numpy refuses or would misread; it reads
    the file again and names the first bad row and field."""
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    data_lines = lines[1:] if has_header else lines
    n_cols = expected - (1 if has_source else 0)
    values = np.empty((len(data_lines), n_cols), dtype=np.float64)
    codes = np.zeros(len(data_lines), dtype=np.int64)
    for i, ln in enumerate(data_lines):
        fields = [f.strip() for f in ln.split(",")]
        if len(fields) != expected:
            raise FormatError(f"{path}: row {i + 1} has {len(fields)} fields, expected {expected}")
        if has_source:
            codes[i] = _parse_tag(fields[-1])
            fields = fields[:-1]
        for j, tok in enumerate(fields):
            v = _parse_float(tok)
            if v is None:
                raise FormatError(f"{path}: row {i + 1} field {j + 1}: {tok!r} is not a number")
            values[i, j] = v
    return PointSet(values, codes)


def _save_csv(ps: PointSet, path: Path) -> None:
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
