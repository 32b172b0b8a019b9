import dataclasses
import math
import re
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from collapselab import (
    CollapseLabError,
    ConfigError,
    DimensionError,
    EmptyDatasetError,
    FormatError,
    DistanceMetric,
    FeatureMap,
    PointSet,
    apply_feature_map,
    load_pointset,
    save_pointset,
)
from collapselab import tensorset
from collapselab.tensorset import RAWBIN_MAGIC, source_label, source_proportions


def labels(ps):
    return [source_label(c) for c in ps.sources]


class TestSourceLabel:
    def test_labels(self):
        assert source_label(0) == "real"
        assert source_label(3) == "syn3"

    def test_parse_round_trip(self):
        for it in (0, 1, 7, 42):
            assert tensorset._parse_tag(source_label(it)) == it
        assert tensorset._parse_tag("  REAL ") == 0

    def test_parse_rejects_garbage(self):
        for bad in ("junk", "syn0", "syn-1", "syn", "real2", ""):
            with pytest.raises(FormatError):
                tensorset._parse_tag(bad)


class TestPointSet:
    def test_copies_and_freezes_input(self):
        raw = np.array([[1.0, 2.0], [3.0, 4.0]])
        ps = PointSet(raw)
        raw[0, 0] = 99.0
        assert ps.data[0, 0] == 1.0
        with pytest.raises(ValueError):
            ps.data[0, 0] = 5.0

    def test_accepts_nested_lists(self):
        ps = PointSet([[0.0], [1.0]])
        assert ps.size == 2
        assert ps.dim == 1
        assert len(ps) == 2

    def test_rejects_wrong_rank(self):
        with pytest.raises(DimensionError):
            PointSet(np.zeros(3))
        with pytest.raises(DimensionError):
            PointSet(np.zeros((2, 2, 2)))
        with pytest.raises(DimensionError):
            PointSet(np.zeros((3, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PointSet([[np.nan], [0.0]])
        with pytest.raises(ValueError):
            PointSet([[np.inf], [0.0]])

    def test_sources_default_real(self):
        ps = PointSet(np.zeros((4, 2)))
        assert np.array_equal(ps.sources, np.zeros(4, dtype=np.int64))
        assert ps.proportions() == {"real": 1.0}

    def test_sources_validated(self):
        with pytest.raises(DimensionError):
            PointSet(np.zeros((3, 1)), sources=[0, 1])
        with pytest.raises(FormatError):
            PointSet(np.zeros((2, 1)), sources=[0, -1])

    def test_with_sources_broadcast_and_array(self):
        ps = PointSet(np.zeros((3, 1)))
        syn = ps.with_sources(2)
        assert labels(syn) == ["syn2"] * 3
        mixed = ps.with_sources([0, 1, 1])
        assert mixed.proportions() == {"real": pytest.approx(1 / 3), "syn1": pytest.approx(2 / 3)}

    def test_rows_keeps_matching_tags(self):
        ps = PointSet([[0.0], [1.0], [2.0]], sources=[0, 1, 2])
        sub = ps.rows([2, 0])
        assert np.array_equal(sub.data[:, 0], [2.0, 0.0])
        assert labels(sub) == ["syn2", "real"]

    def test_concat(self):
        a = PointSet([[0.0]], sources=[0])
        b = PointSet([[1.0], [2.0]], sources=[1, 1])
        both = PointSet.concat([a, b])
        assert both.size == 3
        assert labels(both) == ["real", "syn1", "syn1"]
        with pytest.raises(DimensionError):
            PointSet.concat([a, PointSet([[0.0, 0.0]])])
        with pytest.raises(EmptyDatasetError):
            PointSet.concat([])

    def test_proportions_sum_to_one(self):
        ps = PointSet(np.zeros((7, 1)), sources=[0, 0, 1, 1, 1, 2, 5])
        props = ps.proportions()
        assert sum(props.values()) == pytest.approx(1.0, abs=1e-12)
        assert list(props) == ["real", "syn1", "syn2", "syn5"]

    def test_source_proportions_helper(self):
        props = source_proportions(np.array([0, 3, 3], dtype=np.int64))
        assert props == {"real": pytest.approx(1 / 3), "syn3": pytest.approx(2 / 3)}


class TestCsvFormat:
    def test_plain_rows_no_header(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("0.0,1.0\n2.0,3.0\n")
        ps = load_pointset(p)
        assert np.array_equal(ps.data, [[0.0, 1.0], [2.0, 3.0]])
        assert ps.proportions() == {"real": 1.0}

    def test_header_and_source_column(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("x0,x1,source\n0.5,1.5,real\n2.5,3.5,syn2\n")
        ps = load_pointset(p)
        assert ps.dim == 2
        assert labels(ps) == ["real", "syn2"]

    def test_source_column_without_header(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1.0,real\n2.0,syn1\n")
        ps = load_pointset(p)
        assert ps.dim == 1
        assert labels(ps) == ["real", "syn1"]

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(FormatError):
            load_pointset(p)

    def test_non_numeric_cell_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1.0,2.0\nfoo,3.0\n")
        with pytest.raises(FormatError):
            load_pointset(p)

    @pytest.mark.parametrize("raw", [b"x0,x1\n1,2\xff\n3,4\n", b"1\xff,2\n3,4\n", b"1,2\n" * 5000 + b"3,4\xff\n"])
    def test_undecodable_bytes_are_a_format_error_naming_the_file(self, tmp_path, raw):
        p = tmp_path / "a.csv"
        p.write_bytes(raw)
        with pytest.raises(FormatError, match=re.escape(str(p))):
            load_pointset(p)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1.0\nnan\n")
        with pytest.raises(ValueError):
            load_pointset(p)

    def test_empty_inputs_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(EmptyDatasetError):
            load_pointset(empty)
        header_only = tmp_path / "h.csv"
        header_only.write_text("x0,x1,source\n")
        with pytest.raises(EmptyDatasetError):
            load_pointset(header_only)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        ps = PointSet(rng.standard_normal((40, 3)) * 1e6, sources=rng.integers(0, 4, 40))
        p = tmp_path / "rt.csv"
        save_pointset(ps, p)
        back = load_pointset(p)
        assert np.array_equal(back.data, ps.data)
        assert np.array_equal(back.sources, ps.sources)
        header = p.read_text().splitlines()[0]
        assert header == "x0,x1,x2,source"

    def test_unknown_format_rejected(self, tmp_path):
        ps = PointSet([[0.0]])
        with pytest.raises(ConfigError):
            save_pointset(ps, tmp_path / "x.bin", fmt="parquet")
        with pytest.raises(ConfigError):
            load_pointset(tmp_path / "x.bin", fmt="parquet")


class TestRawbinFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((25, 4))
        data[0, 0] = 1e-300
        data[1, 0] = 1e300
        ps = PointSet(data, sources=rng.integers(0, 9, 25))
        p = tmp_path / "rt.bin"
        save_pointset(ps, p, fmt="rawbin")
        back = load_pointset(p, fmt="rawbin")
        assert np.array_equal(back.data, ps.data)
        assert back.data.tobytes() == ps.data.tobytes()
        assert np.array_equal(back.sources, ps.sources)

    def test_magic_checked(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError):
            load_pointset(p, fmt="rawbin")

    def test_version_checked(self, tmp_path):
        p = tmp_path / "bad.bin"
        header = RAWBIN_MAGIC + struct.pack("<IQQ", 9, 1, 1)
        p.write_bytes(header + struct.pack("<d", 0.0) + b"\x00")
        with pytest.raises(FormatError):
            load_pointset(p, fmt="rawbin")

    def test_truncated_payload_rejected(self, tmp_path):
        ps = PointSet(np.zeros((3, 2)))
        p = tmp_path / "t.bin"
        save_pointset(ps, p, fmt="rawbin")
        blob = p.read_bytes()
        p.write_bytes(blob[:-2])
        with pytest.raises(FormatError):
            load_pointset(p, fmt="rawbin")

    def test_iteration_codes_beyond_byte_range_rejected(self, tmp_path):
        p = tmp_path / "s.bin"
        save_pointset(PointSet(np.zeros((2, 1)), sources=[0, 255]), p, fmt="rawbin")
        assert list(load_pointset(p, fmt="rawbin").sources) == [0, 255]
        q = tmp_path / "t.bin"
        with pytest.raises(FormatError, match="300"):
            save_pointset(PointSet(np.zeros((2, 1)), sources=[255, 300]), q, fmt="rawbin")
        assert not q.exists()


class TestFeatureMap:
    def test_identity_returns_equal_values(self):
        data = np.arange(6.0).reshape(3, 2)
        out = FeatureMap().apply(data)
        assert np.array_equal(out, data)

    def test_random_projection_deterministic(self):
        data = np.random.default_rng(0).standard_normal((10, 6))
        fm = FeatureMap(kind="randproj", target_dim=3, seed=11)
        a = fm.apply(data)
        b = fm.apply(data)
        assert a.shape == (10, 3)
        assert np.array_equal(a, b)
        other = FeatureMap(kind="randproj", target_dim=3, seed=12).apply(data)
        assert not np.array_equal(a, other)

    def test_random_projection_output_dim(self):
        fm = FeatureMap(kind="randproj", target_dim=2, seed=0)
        assert fm.output_dim(7) == 2
        assert FeatureMap().output_dim(7) == 7

    @pytest.mark.parametrize(
        "target_dim, seed", [(2.5, 1), ("2", 1), (True, 1), (2, 1.0), (2, "1"), (2, True), (2, -1)]
    )
    def test_random_projection_settings_must_be_integers(self, target_dim, seed):
        with pytest.raises(ConfigError):
            FeatureMap(kind="randproj", target_dim=target_dim, seed=seed)

    def test_random_projection_needs_a_positive_target_dim(self):
        with pytest.raises(ConfigError, match="target_dim must be >= 1"):
            FeatureMap(kind="randproj", target_dim=0, seed=1)

    @pytest.mark.parametrize("kind", ["whiten", "Identity", ""])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ConfigError, match="unknown feature map kind"):
            FeatureMap(kind=kind)

    def test_holds_only_its_settings(self):
        assert [f.name for f in dataclasses.fields(FeatureMap)] == ["kind", "target_dim", "seed"]

    def test_apply_feature_map_preserves_tags(self):
        ps = PointSet(np.ones((3, 4)), sources=[0, 1, 2])
        out = apply_feature_map(ps, FeatureMap(kind="randproj", target_dim=2, seed=1))
        assert out.dim == 2
        assert np.array_equal(out.sources, ps.sources)

    def test_apply_feature_map_returns_the_set_itself_under_identity(self):
        # A PointSet is immutable, so the identity map needs no copy; a
        # projection still makes a new set.
        ps = PointSet(np.arange(8.0).reshape(4, 2), sources=[0, 1, 1, 2])
        assert apply_feature_map(ps, FeatureMap()) is ps
        out = apply_feature_map(ps, FeatureMap(kind="randproj", target_dim=2, seed=1))
        assert out is not ps
        assert np.array_equal(out.data, FeatureMap(kind="randproj", target_dim=2, seed=1).apply(ps.data))


class TestDistanceMetric:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            DistanceMetric(kind="manhattan")


coordinate = st.floats(
    allow_nan=False, allow_infinity=False, width=64, min_value=-1e12, max_value=1e12
)


class TestRoundTripProperties:
    @given(rows=st.lists(st.tuples(coordinate, coordinate, st.integers(0, 9999)), min_size=1, max_size=30))
    @example(rows=[(0.0, -0.0, 9999), (1e-300, 5e-324, 0)])
    @settings(max_examples=60, deadline=None)
    def test_csv_round_trip_any_floats(self, rows, tmp_path_factory):
        ps = PointSet(np.array([row[:2] for row in rows], dtype=np.float64), [row[2] for row in rows])
        p = tmp_path_factory.mktemp("csv") / "rt.csv"
        save_pointset(ps, p)
        back = load_pointset(p)
        assert back.data.tobytes() == ps.data.tobytes()
        assert back.sources.tolist() == ps.sources.tolist()

    def test_csv_refuses_a_code_its_tags_cannot_hold(self, tmp_path):
        p = tmp_path / "x.csv"
        with pytest.raises(FormatError, match="up to 9999"):
            save_pointset(PointSet([[0.0], [1.0]], [9999, 10000]), p)
        assert not p.exists()

    @given(rows=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_rawbin_round_trip_any_floats(self, rows, tmp_path_factory):
        ps = PointSet(np.array(rows, dtype=np.float64))
        p = tmp_path_factory.mktemp("bin") / "rt.bin"
        save_pointset(ps, p, fmt="rawbin")
        back = load_pointset(p, fmt="rawbin")
        assert back.data.tobytes() == ps.data.tobytes()


def reference_load_csv(path: Path) -> PointSet:
    """A per-cell reader of the CSV format, kept as the oracle of
    load_pointset's one numpy pass: lines end only at \\n, \\r and \\r\\n,
    empty lines are skipped and a whitespace-only line after the first row
    is a malformed row; a number is ASCII, without "_", as float() reads it;
    a tag is ASCII, kept as its first 8 characters less trailing NULs, and
    must be shorter than 8."""

    def parse_float(token):
        try:
            return float(token)
        except ValueError:
            return None

    def parse_number(token):
        token = token.strip()
        return parse_float(token) if token.isascii() and "_" not in token else None

    def parse_tag(text):
        text = text[:8].rstrip("\x00")
        token = text.strip().lower()
        if not text.isascii() or len(text) == 8 or not re.match(r"^(real|syn[1-9][0-9]*)$", token):
            raise FormatError(f"unrecognized source tag {text!r} (expected 'real' or 'synN')")
        return 0 if token == "real" else int(token[3:])

    if path.suffix in (".gz", ".bz2", ".xz", ".lzma"):
        raise FormatError(f"{path}: a compressed file suffix")
    lines = path.read_text().split("\n")
    start = next((k for k, ln in enumerate(lines) if ln.strip()), None)
    if start is None:
        raise EmptyDatasetError(f"{path}: empty file")
    first = [f.strip() for f in lines[start].split(",")]
    has_header = parse_float(first[0]) is None
    expected = len(first)
    data_lines = lines[start + has_header :]
    if has_header:
        has_source = first[-1].lower() == "source"
        if not any(ln.strip() for ln in data_lines):
            raise EmptyDatasetError(f"{path}: header but no data rows")
    else:
        has_source = parse_float(first[-1]) is None
    data_lines = [ln for ln in data_lines if ln]

    n_cols = expected - (1 if has_source else 0)
    if n_cols < 1:
        raise FormatError(f"{path}: no numeric columns")

    values = np.empty((len(data_lines), n_cols), dtype=np.float64)
    codes = np.zeros(len(data_lines), dtype=np.int64)
    for i, ln in enumerate(data_lines):
        fields = ln.split(",")
        if len(fields) != expected:
            raise FormatError(f"{path}: row {i + 1} has {len(fields)} fields, expected {expected}")
        if has_source:
            try:
                codes[i] = parse_tag(fields[-1])
            except FormatError as exc:
                raise FormatError(f"{path}: row {i + 1}: {exc}") from None
            fields = fields[:-1]
        for j, tok in enumerate(fields):
            v = parse_number(tok)
            if v is None:
                raise FormatError(f"{path}: row {i + 1} field {j + 1}: {tok!r} is not a number")
            values[i, j] = v
    return PointSet(values, codes)


def csv_outcome(load, path: Path):
    """The points a reader returns, bit for bit, or its error; a warning counts as an error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ps = load(path)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return ps.data.shape, ps.data.tobytes(), ps.sources.tolist()


numbers = st.one_of(coordinate.map(repr), st.integers(-10**6, 10**6).map(str))
odd_numbers = st.sampled_from(
    ["1_000", "nan", "-inf", "1e400", " 2.5 ", "\t3", "-0", "+.5", "1.", "#", "#1", "", "x",
     "0x10", "\u0661\u0662", "1\xa0", "1\x1f", "1\x00", "1,5", "2 3", "Infinity"]
)
tags = st.sampled_from(["real", "syn1", "syn2", "syn17", "SYN3", " real ", "Real\t", "syn1234", "  syn12"])
odd_tags = st.one_of(
    st.sampled_from(
        ["syn12345", "syn1234567", "   syn12", "syn0", "junk", "", "#real", "r\u00e9al", "syn\u0661",
         "real\x00", "\x00real", "\xa0syn2", "real\x1f", "real#", "syn 1", "syn9999", "syn10000",
         "syn1\x00\x00\x00\x00x", "syn99999999999999999999"]
    ),
    st.text(max_size=9),
)
# str.splitlines also ends a line at each of these; the format does not.
line_stops = st.sampled_from(["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
separators = st.one_of(st.sampled_from(["\n", "\r\n", "\r"]), line_stops)
blank_lines = st.sampled_from(["", " ", "\t", "  \t "])


@st.composite
def csv_texts(draw):
    """CSV files near and across the edge of what the reader accepts: half
    of them draw ragged rows, odd numbers and odd tags. Lines are joined at
    any line boundary of str.splitlines, and a field may hold one of those
    that the format keeps as field content."""
    messy = draw(st.booleans())
    number = st.one_of(numbers, odd_numbers) if messy else numbers
    tag = st.one_of(tags, odd_tags) if messy else tags
    n_cols = draw(st.integers(1, 3))
    has_source = draw(st.booleans())
    lines = []
    if draw(st.booleans()):
        names = [f"x{j}" for j in range(n_cols)]
        if has_source:
            names.append(draw(st.sampled_from(["source", "Source", " SOURCE ", "src"])))
        lines.append(",".join(names))
    for _ in range(draw(st.integers(0, 6))):
        width = n_cols + (draw(st.sampled_from([0, 0, 0, -1, 1])) if messy else 0)
        fields = [draw(number) for _ in range(max(width, 0))]
        if has_source:
            fields.append(draw(tag))
        if fields and draw(st.integers(0, 3)) == 0:
            j, stop = draw(st.integers(0, len(fields) - 1)), draw(line_stops)
            fields[j] = draw(st.sampled_from([stop + fields[j], fields[j] + stop]))
        lines.append(",".join(fields))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(blank_lines))
    if draw(st.booleans()):
        lines.insert(0, draw(blank_lines))
    sep = draw(separators)
    return sep.join(lines) + (sep if draw(st.booleans()) else "")


# Files that split lines otherwise than numpy, and what the format reads: (text, rows, codes), or a FormatError.
LINE_END_CASES = [
    ("x0,x1,source\n1,2,\x0creal\n", [[1, 2]], [0]),
    ("x0,x1,source\n1,2,\u2028real\n", None, None),
    ("x0,x1,source\n1,2,\x1dsyn1\n3,4,real\n", [[1, 2], [3, 4]], [1, 0]),
    ("1\x0b,2\n3,4\n", [[1, 2], [3, 4]], [0, 0]),
    ("1,2,\x1creal\n", [[1, 2]], [0]),
    ("x0,x1\n1,2\x1e\n3,4\n", [[1, 2], [3, 4]], [0, 0]),
    ("1\x85,2\n", [[1, 2]], [0]),
    ("x\u00e9,y\n1\u2029,2\n", [[1, 2]], [0]),
    ("x\u00e9,y\n1,2\n3\u2028,4\n", [[1, 2], [3, 4]], [0, 0]),
    ("x0,x1\n1,2\x0c3,4\n", None, None),
    ("1,2\u2028 3,4\n", None, None),
    ("x0,x1,source\n1,2,real\x0b3,4,real\n", None, None),
    ("1,2\r\n\r\n\r3,4\r", [[1, 2], [3, 4]], [0, 0]),
    ("1,2\n \n3,4\n", None, None),
    ("x0,x1,source\n1,2,real\x00\n", [[1, 2]], [0]),
]


class TestCsvReaderMatchesPerCellReader:
    @given(text=csv_texts())
    @example(text="x0,x1,source\n1,2,real\x00\n")
    @example(text="1,2,syn1234567\n3,4,real\n")
    @example(text="1,2,syn99999999999999999999\n")
    @example(text="1,2,syn1\x00\x00\x00\x00x\n")
    @example(text="x0,x1\n1,2\n#3,4\n")
    @example(text="1,2\n\n3,4\n\n")
    @example(text="1,2\n \n3,4\n")
    @example(text="\t\n \n1,2\n")
    @example(text="x0\n \n")
    @example(text="1,2,real\n3,4,zzz\n5,6, junk \n")
    @settings(max_examples=400, deadline=None)
    def test_same_points_or_same_error(self, text, tmp_path_factory):
        p = tmp_path_factory.mktemp("csv") / "in.csv"
        p.write_bytes(text.encode("utf-8"))
        got, want = csv_outcome(load_pointset, p), csv_outcome(reference_load_csv, p)
        if isinstance(want[0], type):
            assert got[0] is want[0]
            if issubclass(want[0], CollapseLabError):
                assert str(p) in got[1]
        else:
            assert got == want

    @pytest.mark.parametrize(
        "n_tags, odd",
        [(1, None), (9, None), (2000, None), (10000, None), (9, "junk"), (9, "syn12345"), (9, "syn10000"),
         (9, "r\u00e9al"), (9, "\xa0syn2"), (9, "syn1\x80")],
    )
    def test_tag_codes_match_the_per_cell_parser(self, tmp_path, n_tags, odd):
        # Many rows per tag, every tag present; one row may carry an invalid,
        # full-width or non-ASCII tag, and the error names its row. Packed
        # seven bits a code point, "syn1\x80" would carry into "syn2".
        rng = np.random.default_rng(n_tags)
        names = ["real"] + [f"syn{j}" for j in range(1, n_tags)]
        tags = names + [names[t] for t in rng.integers(0, n_tags, 3000)]
        if odd is not None:
            tags[1234] = odd
        p = tmp_path / "tags.csv"
        p.write_bytes("\n".join(["x0,x1,source"] + [f"{j},{-j},{t}" for j, t in enumerate(tags)]).encode("utf-8"))
        got = csv_outcome(load_pointset, p)
        if odd is None:
            assert got == csv_outcome(reference_load_csv, p)
            assert got[2][: len(names)] == list(range(n_tags))
        else:
            assert got[0] is FormatError and f"{p}: data row 1235: " in got[1]
            assert csv_outcome(reference_load_csv, p)[0] is FormatError

    @pytest.mark.parametrize("text, rows, codes", LINE_END_CASES, ids=[case[0] for case in LINE_END_CASES])
    def test_line_ends_numpy_does_not_split_at(self, tmp_path, text, rows, codes):
        # Lines end only at \n, \r and \r\n; the other line boundaries of
        # str.splitlines are field content. As whitespace they may pad a
        # number, and a tag if they are ASCII; elsewhere they are an error.
        # A whitespace-only line is a row, and a tag drops its trailing NULs.
        p = tmp_path / "ends.csv"
        p.write_bytes(text.encode("utf-8"))
        got = csv_outcome(load_pointset, p)
        if rows is None:
            assert got[0] is FormatError and str(p) in got[1]
            assert csv_outcome(reference_load_csv, p)[0] is FormatError
        else:
            assert got == csv_outcome(reference_load_csv, p)
            assert got == (np.shape(rows), np.array(rows, dtype=np.float64).tobytes(), codes)

    @pytest.mark.parametrize("name", ["plain.csv.gz", "plain.bz2", "plain.xz", "plain.lzma"])
    def test_a_compressed_suffix_is_refused(self, tmp_path, name):
        # numpy would open these paths as compressed files.
        p = tmp_path / name
        p.write_bytes(b"x0,x1,source\n1,2,real\n3,4,syn1\n")
        with pytest.raises(FormatError, match=re.escape(str(p))):
            load_pointset(p)
        assert load_pointset(p.rename(tmp_path / "plain.csv")).size == 2

    def test_the_reader_holds_no_text_copy_of_the_file(self, tmp_path):
        # The file is about 44 bytes a row and the parsed arrays 24. The
        # tracemalloc peak was 6.2 times the arrays' bytes with the reader
        # that split the whole file's text into a list of lines, and is
        # 2.7-2.8 times with numpy reading the path (numpy 2.4, CPython
        # 3.11): numpy's table is 1.0 of that, and np.unique's sort of the
        # tag keys sets the rest. Reading the whole file's bytes first, as
        # the reader once did, left the peak the same: they were freed
        # before numpy's table was built.
        rng = np.random.default_rng(3)
        n = 50_000
        p = tmp_path / "big.csv"
        save_pointset(PointSet(rng.standard_normal((n, 2)), rng.integers(0, 3, n)), p)
        tracemalloc.start()
        try:
            ps = load_pointset(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ps.size == n
        assert peak < 4 * (ps.data.nbytes + ps.sources.nbytes)
