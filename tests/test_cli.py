import json
import math
import os
import shlex
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import collapselab.cli as cli
import collapselab.looper as looper
from collapselab import (
    ConfigError,
    DistanceMetric,
    FeatureMap,
    GeneratorSpec,
    NumericalError,
    PointSet,
    SelectionPolicy,
    kl_entropy,
    load_pointset,
    run_policy,
    save_pointset,
)
from collapselab.cli import main
from collapselab.generators import GENERATOR_FIELDS
from collapselab.tensorset import RAWBIN_MAGIC

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = Path(__file__).resolve().parents[1] / "README.md"

# What the installer's generated console-script wrapper does, with the
# `module:attr` target taken from argv[1] instead of baked in.
CONSOLE_WRAPPER = (
    "import sys\n"
    "from importlib.metadata import EntryPoint\n"
    "func = EntryPoint('collapselab', sys.argv[1], 'console_scripts').load()\n"
    "sys.argv = ['collapselab', *sys.argv[2:]]\n"
    "sys.exit(func())\n"
)


def cli_env(env_extra=None):
    return {**os.environ, **(env_extra or {})}


def run_cli(args, env_extra=None, cwd=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "collapselab", *args],
        capture_output=True,
        text=True,
        env=cli_env(env_extra),
        cwd=cwd,
        timeout=timeout,
    )


@pytest.fixture
def two_point_csv(tmp_path):
    p = tmp_path / "two.csv"
    p.write_text("0.0\n1.0\n")
    return p


@pytest.fixture
def blob_csv(tmp_path):
    rng = np.random.default_rng(0)
    centers = rng.uniform(-4, 4, size=(4, 2))
    data = centers[rng.integers(0, 4, 120)] + rng.standard_normal((120, 2))
    p = tmp_path / "blobs.csv"
    save_pointset(PointSet(data), p)
    return p


class TestScalarCommands:
    def test_entropy_two_point_hand_value(self, two_point_csv, capsys):
        assert main(["entropy", "--input", str(two_point_csv)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["estimate"] == pytest.approx(1.6931471805599453, abs=1e-12)
        assert doc["duplicate_count"] == 0
        assert doc["schema_version"] == 1

    def test_entropy_gamma_too_large_is_precondition_error(self, two_point_csv):
        assert main(["entropy", "--input", str(two_point_csv), "--gamma", "2"]) == 3

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["entropy", "--input", str(tmp_path / "absent.csv")]) == 2

    def test_malformed_file_is_io_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\nbogus\n")
        assert main(["entropy", "--input", str(p)]) == 2

    def test_tag_past_the_iteration_limit_is_a_format_error(self, tmp_path):
        # The tag's iteration does not fit int64; it once escaped as an OverflowError traceback (exit 1).
        p = tmp_path / "huge.csv"
        p.write_text("1,2,syn99999999999999999999\n")
        proc = run_cli(["entropy", "--input", str(p)], timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert str(p) in proc.stderr and "row 1" in proc.stderr
        assert proc.stdout == ""

    def test_non_finite_file_is_io_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0\ninf\n")
        assert main(["entropy", "--input", str(p)]) == 2

    def test_unknown_flag_is_config_error(self, two_point_csv):
        assert main(["entropy", "--input", str(two_point_csv), "--bogus"]) == 4

    def test_mnnd_hand_value(self, tmp_path, capsys):
        p = tmp_path / "line.csv"
        p.write_text("0.0\n1.0\n3.0\n")
        assert main(["mnnd", "--input", str(p)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mnnd"] == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_gs_identical_sets_is_zero(self, two_point_csv, capsys):
        assert main(["gs", "--input", str(two_point_csv), "--training", str(two_point_csv)]) == 0
        assert json.loads(capsys.readouterr().out)["gs"] == 0.0

    def test_frechet_hand_value(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("-1.0\n1.0\n")
        b = tmp_path / "b.csv"
        b.write_text("2.0\n4.0\n")
        assert main(["frechet", "--input", str(a), "--other", str(b)]) == 0
        assert json.loads(capsys.readouterr().out)["frechet"] == pytest.approx(9.0, abs=1e-10)

    @pytest.mark.parametrize(
        "other, message",
        [("1.0,2.0,3.0\n", "at least 2 points"), ("1.0,2.0\n3.0,4.0\n", "dimension 3 vs 2")],
        ids=["one-point", "other-dimension"],
    )
    def test_frechet_precondition_is_exit_3(self, tmp_path, capsys, other, message):
        a = tmp_path / "a.csv"
        a.write_text("0.0,0.0,0.0\n1.0,2.0,3.0\n")
        b = tmp_path / "b.csv"
        b.write_text(other)
        assert main(["frechet", "--input", str(a), "--other", str(b)]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "blob, message",
        [
            (b"", "empty file"),
            (RAWBIN_MAGIC + struct.pack("<IQQ", 1, 0, 2), "zero points"),
            (RAWBIN_MAGIC + struct.pack("<IQQ", 1, 1, 0) + b"\x00", "zero dimension"),
        ],
        ids=["empty", "zero-points", "zero-dimension"],
    )
    def test_degenerate_rawbin_is_io_error(self, tmp_path, capsys, blob, message):
        p = tmp_path / "x.bin"
        p.write_bytes(blob)
        assert main(["entropy", "--input", str(p), "--format", "rawbin"]) == 2
        assert message in capsys.readouterr().err

    def test_entropy_with_random_projection_feature(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        p = tmp_path / "wide.csv"
        save_pointset(PointSet(rng.standard_normal((50, 6))), p)
        assert main(["entropy", "--input", str(p), "--feature", "randproj:2:7"]) == 0
        assert json.loads(capsys.readouterr().out)["dim"] == 2

    def test_bad_feature_spec_is_config_error(self, two_point_csv):
        assert main(["entropy", "--input", str(two_point_csv), "--feature", "randproj:x"]) == 4

    def test_negative_projection_seed_is_config_error(self, two_point_csv):
        assert main(["entropy", "--input", str(two_point_csv), "--feature", "randproj:2:-1"]) == 4

    def test_overflowing_projection_is_numerical_error(self, tmp_path, capsys):
        # Rows near the largest double project to inf; the frechet path used
        # to leave through PointSet's non-finite check as an I/O error (exit 2).
        data = np.random.default_rng(83).standard_normal((30, 3))
        data[:6] = 1.7e308
        p = tmp_path / "huge.csv"
        save_pointset(PointSet(data), p)
        for command in (["entropy"], ["frechet", "--other", str(p)], ["select", "--n", "3", "--selection", "greedy"]):
            assert main([*command, "--input", str(p), "--feature", "randproj:2:1"]) == 5
            assert "randproj" in capsys.readouterr().err

    @pytest.mark.parametrize("d", [2, 3])
    def test_overflowing_frechet_cross_term_exits_five(self, tmp_path, d):
        # Covariances near 1e300 are finite but their cross term is not: d = 2
        # used to print "frechet": NaN and exit 0, d = 3 to exit 2 after
        # numpy's overflow warnings.
        rng = np.random.default_rng(d)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_pointset(PointSet(rng.standard_normal((60, d)) * 1e150), a)
        save_pointset(PointSet(rng.standard_normal((60, d)) * 1e150), b)
        proc = run_cli(["frechet", "--input", str(a), "--other", str(b)])
        assert proc.returncode == 5
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["error: Frechet cross term is not finite"]

    def test_collapsed_sets_far_from_unit_scale_exit_zero(self, tmp_path, capsys):
        # 500 points on a random 3-D line at 1e6: a roundoff negative in the
        # cross term of F(A, A) used to exit 5.
        rng = np.random.default_rng(3)
        p = tmp_path / "line.csv"
        save_pointset(PointSet(np.outer(rng.standard_normal(500), rng.standard_normal(3)) * 1e6), p)
        assert main(["frechet", "--input", str(p), "--other", str(p)]) == 0
        assert json.loads(capsys.readouterr().out)["frechet"] >= 0.0

    def test_non_finite_result_exits_five_with_no_document(self, tmp_path, capsys):
        # Squared distances between points near 1e200 overflow, so the mean
        # neighbor distance is inf; JSON has no token for it.
        p = tmp_path / "huge.csv"
        save_pointset(PointSet(np.random.default_rng(4).standard_normal((40, 2)) * 1e200), p)
        with np.errstate(over="ignore"):
            assert main(["mnnd", "--input", str(p)]) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert "non-finite value cannot be written as JSON" in err

    def test_overflow_prints_only_the_error_line(self, tmp_path):
        # The squared distances overflow inside numpy; the explicit check's
        # error is the one stderr line, with no RuntimeWarning before it.
        p = tmp_path / "huge.csv"
        save_pointset(PointSet(np.random.default_rng(4).standard_normal((40, 2)) * 1e200), p)
        proc = run_cli(["mnnd", "--input", str(p)])
        assert proc.returncode == 5
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")


class TestSelect:
    def test_greedy_forced_start_hand_trace(self, tmp_path, capsys):
        p = tmp_path / "pool.csv"
        p.write_text("0.0\n1.0\n9.0\n10.0\n")
        code = main(
            ["select", "--input", str(p), "--n", "2", "--selection", "greedy", "--start-index", "0"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["indices"] == [0, 3]

    def test_threshold_hand_trace(self, tmp_path, capsys):
        p = tmp_path / "pool.csv"
        p.write_text("0.0\n1.0\n9.0\n10.0\n")
        code = main(
            [
                "select", "--input", str(p), "--n", "3",
                "--selection", "threshold:5:0.5", "--start-index", "0",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["indices"] == [0, 2, 1]
        assert doc["final_threshold"] == 0.625
        assert doc["passes"] == 5

    def test_selection_is_required(self, tmp_path):
        p = tmp_path / "pool.csv"
        p.write_text("0.0\n1.0\n")
        assert main(["select", "--input", str(p), "--n", "1"]) == 4
        # `none` is a loop word: a loop may train without selecting.
        assert main(["select", "--input", str(p), "--n", "1", "--selection", "none"]) == 4

    def test_threshold_needs_two_values(self, tmp_path):
        p = tmp_path / "pool.csv"
        p.write_text("0.0\n1.0\n")
        assert main(["select", "--input", str(p), "--n", "1", "--selection", "threshold"]) == 4
        assert main(["select", "--input", str(p), "--n", "1", "--selection", "threshold:5"]) == 4

    @pytest.mark.parametrize("policy", ["greedy", "random"])
    def test_negative_seed_is_config_error(self, two_point_csv, capsys, policy):
        # It used to reach numpy's generator and leave as an I/O error (exit 2).
        assert main(["select", "--input", str(two_point_csv), "--n", "2", "--selection", policy, "--seed", "-1"]) == 4
        assert capsys.readouterr().err.startswith("error: ")

    def test_request_larger_than_pool_is_precondition_error(self, tmp_path):
        p = tmp_path / "pool.csv"
        p.write_text("0.0\n1.0\n")
        assert main(["select", "--input", str(p), "--n", "10", "--selection", "random"]) == 3

    def test_out_writes_subset(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "subset.csv"
        code = main(
            ["select", "--input", str(blob_csv), "--n", "10", "--selection", "greedy", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        subset = load_pointset(out)
        pool = load_pointset(blob_csv)
        assert subset.size == 10
        assert np.array_equal(subset.data, pool.data[np.array(doc["indices"])])

    @pytest.mark.parametrize(
        "spec",
        ["greedy", "random", "threshold:5:0.5", "threshold:0:0", "threshold:5", "threshold", "threshold:5:0.5:1",
         "threshold:5:2", "threshold:x:0.5", "threshold_decay:5:0.5", "greedy:1", "bogus"],
    )
    def test_select_and_loop_accept_the_same_specs(self, blob_csv, tmp_path, capsys, spec):
        select = main(["select", "--input", str(blob_csv), "--n", "12", "--selection", spec])
        loop = main(
            ["loop", "--real", str(blob_csv), "--paradigm", "replace", "--iterations", "1", "--train-size", "30",
             "--generator", "bootstrap:0.1", "--selection", spec, "--canonical", "--out", str(tmp_path / "t")]
        )
        assert (select, loop) in ((0, 0), (4, 4))

    def test_help_names_only_the_selection_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["select", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--selection" in out
        assert not any(flag in out for flag in ("--greedy", "--random", "--threshold"))


def test_readme_command_lines_parse():
    """Every `collapselab ...` line of the README's "Command line" block,
    continuations joined, is a command line the parser accepts."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0].replace("\\\n", " ")
    lines = [line for line in block.splitlines() if line.startswith("collapselab ")]
    assert len(lines) >= 8
    for line in lines:
        try:
            cli.build_parser().parse_args(shlex.split(line)[1:])
        except ConfigError as exc:
            pytest.fail(f"README line {line!r}: {exc}")


class TestResultDocuments:
    """stdout of entropy and select equals the documents the commands used to build field by field."""

    @staticmethod
    def emitted(doc):
        return json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("feature, gamma", [("identity", 1), ("identity", 3), ("randproj:2:7", 2)])
    def test_entropy(self, blob_csv, capsys, feature, gamma):
        assert main(["entropy", "--input", str(blob_csv), "--gamma", str(gamma), "--feature", feature]) == 0
        fmap = FeatureMap(kind="randproj", target_dim=2, seed=7) if feature != "identity" else FeatureMap()
        report = kl_entropy(load_pointset(blob_csv), gamma, DistanceMetric(feature_map=fmap))
        expected = {
            "schema_version": 1,
            "estimate": report.estimate,
            "gamma": report.gamma,
            "duplicate_count": report.duplicate_count,
            "log_distance_sum": report.log_distance_sum,
            "size": report.size,
            "dim": report.dim,
        }
        assert capsys.readouterr().out == self.emitted(expected)

    @pytest.mark.parametrize(
        "flags, policy",
        [
            (["--selection", "greedy"], dict(kind="greedy", seed=4)),
            (["--selection", "greedy", "--start-index", "7"], dict(kind="greedy", seed=4, initial_index=7)),
            (["--selection", "random"], dict(kind="random", seed=4)),
            (["--selection", "threshold:3:0.5"], dict(kind="threshold_decay", seed=4, tau0=3.0, alpha=0.5)),
            (["--selection", "threshold:0:0", "--start-index", "2"],
             dict(kind="threshold_decay", seed=4, tau0=0.0, alpha=0.0, initial_index=2)),
        ],
    )
    def test_select(self, blob_csv, capsys, flags, policy):
        assert main(["select", "--input", str(blob_csv), "--n", "12", "--seed", "4", *flags]) == 0
        result = run_policy(load_pointset(blob_csv), 12, SelectionPolicy(**policy))
        expected = {
            "schema_version": 1,
            "indices": [int(i) for i in result.indices],
            "source_proportions": result.source_proportions,
        }
        if result.final_threshold is not None:
            expected["final_threshold"] = result.final_threshold
            expected["passes"] = result.passes
        assert capsys.readouterr().out == self.emitted(expected)


class TestNonFiniteSettings:
    """Non-finite floats in a configuration are configuration errors (exit 4).

    They run in a subprocess with a timeout: a non-finite threshold used to
    make the selection scan run forever.
    """

    @pytest.mark.parametrize(
        "extra",
        [
            ["--selection", "threshold:inf:0.9"],
            ["--selection", "threshold:nan:0.9"],
            ["--selection", "threshold:1.0:nan"],
            ["--generator", "bootstrap:nan"],
            ["--generator", "bootstrap:inf"],
            ["--generator", "gmm:2:50:inf"],
            ["--generator", "gmm:2:50:nan"],
            ["--generation-multiplier", "inf"],
            ["--generation-multiplier", "nan"],
        ],
    )
    def test_loop(self, blob_csv, tmp_path, extra):
        prefix = tmp_path / "t"
        args = ["loop", "--real", str(blob_csv), "--paradigm", "replace", "--iterations", "2",
                "--train-size", "50", "--generator", "bootstrap:0.1", "--canonical", "--out", str(prefix)]
        proc = run_cli(args + extra, timeout=60)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("error: ")
        assert not prefix.with_suffix(".json").exists()

    @pytest.mark.parametrize(
        "spec", ["threshold:inf:0.5", "threshold:nan:0.5", "threshold:1.0:nan", "threshold:1.0:inf"]
    )
    def test_select(self, two_point_csv, spec):
        proc = run_cli(["select", "--input", str(two_point_csv), "--n", "2", "--selection", spec], timeout=60)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stdout == ""


class TestGen:
    def test_bootstrap_rows_come_from_training(self, blob_csv, tmp_path):
        out = tmp_path / "sampled.csv"
        code = main(
            [
                "gen", "--input", str(blob_csv), "--generator", "bootstrap:0",
                "--m", "40", "--out", str(out), "--tag-iteration", "2",
            ]
        )
        assert code == 0
        sampled = load_pointset(out)
        pool_rows = {row.tobytes() for row in load_pointset(blob_csv).data}
        assert all(row.tobytes() in pool_rows for row in sampled.data)
        assert set(sampled.sources.tolist()) == {2}

    def test_deterministic_across_runs(self, blob_csv, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(
                ["gen", "--input", str(blob_csv), "--generator", "gaussian",
                 "--m", "25", "--out", str(out), "--seed", "3"]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_rawbin_rejects_iteration_codes_above_255(self, blob_csv, tmp_path):
        src = tmp_path / "in.bin"
        save_pointset(load_pointset(blob_csv), src, fmt="rawbin")
        args = ["gen", "--input", str(src), "--generator", "bootstrap:0", "--m", "5", "--format", "rawbin"]
        assert main(args + ["--out", str(tmp_path / "ok.bin"), "--tag-iteration", "255"]) == 0
        assert main(args + ["--out", str(tmp_path / "x.bin"), "--tag-iteration", "256"]) == 2
        assert not (tmp_path / "x.bin").exists()

    def test_bad_generator_spec_is_config_error(self, blob_csv, tmp_path):
        code = main(
            ["gen", "--input", str(blob_csv), "--generator", "gmm:zero",
             "--m", "5", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 4

    def test_negative_tag_iteration_is_config_error(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(
            ["gen", "--input", str(blob_csv), "--generator", "gaussian",
             "--m", "5", "--out", str(out), "--tag-iteration", "-1"]
        )
        assert code == 4
        assert "--tag-iteration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("code", ["10000", "100000000000000000000"])
    def test_tag_iteration_past_the_csv_limit_is_config_error(self, blob_csv, tmp_path, code):
        # A CSV tag holds iteration codes up to 9999, so every file gen writes reads back.
        out = tmp_path / "x.csv"
        args = ["gen", "--input", str(blob_csv), "--generator", "gaussian", "--m", "5", "--out", str(out)]
        proc = run_cli(args + ["--tag-iteration", code], timeout=60)
        assert proc.returncode == 4
        assert proc.stderr == f"error: --tag-iteration must be in 0..9999, got {code}\n"
        assert not out.exists()
        assert main(args + ["--tag-iteration", "9999"]) == 0
        assert load_pointset(out).sources.tolist() == [9999] * 5


class TestLoop:
    def loop_args(self, blob_csv, out_prefix, extra=()):
        return [
            "loop", "--real", str(blob_csv), "--paradigm", "replace",
            "--iterations", "3", "--train-size", "100",
            "--generator", "bootstrap:0.05", "--seed", "11",
            "--canonical", "--out", str(out_prefix), *extra,
        ]

    def test_writes_json_and_csv(self, blob_csv, tmp_path, capsys):
        prefix = tmp_path / "trace"
        assert main(self.loop_args(blob_csv, prefix)) == 0
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert len(doc["records"]) == 3
        csv_lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 4

    def test_missing_required_field_is_config_error(self, blob_csv, tmp_path):
        code = main(
            ["loop", "--real", str(blob_csv), "--iterations", "2",
             "--train-size", "50", "--generator", "gaussian",
             "--out", str(tmp_path / "t")]
        )
        assert code == 4

    def test_config_file_with_flag_override(self, blob_csv, tmp_path):
        cfg = tmp_path / "loop.cfg"
        cfg.write_text(
            "# desk-scale run\n"
            "paradigm = replace\n"
            "iterations = 2\n"
            "train_size = 80\n"
            "generator = bootstrap:0\n"
            "master_seed = 5\n"
        )
        prefix = tmp_path / "t"
        code = main(
            ["loop", "--real", str(blob_csv), "--config", str(cfg),
             "--iterations", "4", "--canonical", "--out", str(prefix)]
        )
        assert code == 0
        doc = json.loads((tmp_path / "t.json").read_text())
        assert doc["config"]["iterations"] == 4
        assert doc["config"]["train_size"] == 80

    def test_unknown_config_key_rejected(self, blob_csv, tmp_path):
        cfg = tmp_path / "loop.cfg"
        cfg.write_text("paradigm = replace\nwarp_drive = 9\n")
        code = main(
            ["loop", "--real", str(blob_csv), "--config", str(cfg),
             "--iterations", "1", "--train-size", "10",
             "--generator", "gaussian", "--out", str(tmp_path / "t")]
        )
        assert code == 4

    @pytest.mark.parametrize(
        "text, message",
        [(None, "cannot read config file"), ("paradigm replace\n", "expected key=value")],
        ids=["missing-file", "line-without-equals"],
    )
    def test_unreadable_config_file_is_config_error(self, blob_csv, tmp_path, capsys, text, message):
        cfg = tmp_path / "loop.cfg"
        if text is not None:
            cfg.write_text(text)
        assert main(["loop", "--real", str(blob_csv), "--config", str(cfg), "--out", str(tmp_path / "t")]) == 4
        assert message in capsys.readouterr().err

    # Every LoopConfig key (and feature), as flags and as the same settings in a file.
    ALL_SETTINGS = {
        "paradigm": "accumulate_subsample", "iterations": "2", "train_size": "40",
        "generator": "gmm:2:30:1e-6", "selection": "threshold:1.0:0.8", "generation_multiplier": "1.5",
        "metric": "sqeuclidean", "feature": "randproj:2:7", "gamma": "2", "master_seed": "9", "pool_cap": "500",
    }

    def test_every_key_as_flag_or_file_gives_the_same_trace(self, blob_csv, tmp_path):
        assert set(self.ALL_SETTINGS) == set(cli._CONFIG_KEYS)
        flags = []
        for key, value in self.ALL_SETTINGS.items():
            flags += ["--seed" if key == "master_seed" else "--" + key.replace("_", "-"), value]
        cfg = tmp_path / "loop.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in self.ALL_SETTINGS.items()))
        base = ["loop", "--real", str(blob_csv), "--canonical", "--out"]
        assert main([*base, str(tmp_path / "flags"), *flags]) == 0
        assert main([*base, str(tmp_path / "file"), "--config", str(cfg)]) == 0
        flagged = (tmp_path / "flags.json").read_bytes()
        assert flagged == (tmp_path / "file.json").read_bytes()
        config = json.loads(flagged)["config"]
        assert config["generator"] == {"kind": "gmm", "seed": 0, "components": 2, "max_iters": 30, "tol": 1e-6}
        assert config["metric"] == {"kind": "sqeuclidean", "feature_map": {"kind": "randproj", "target_dim": 2, "seed": 7}}
        assert (config["gamma"], config["master_seed"], config["pool_cap"]) == (2, 9, 500)
        assert config["generation_multiplier"] == 1.5

    MALFORMED_NUMBERS = [("iterations", "2.0"), ("train_size", "x"), ("gamma", ""), ("master_seed", "1e3"),
                         ("pool_cap", "many"), ("generation_multiplier", "x")]

    @pytest.mark.parametrize("key, value", MALFORMED_NUMBERS)
    def test_malformed_number_in_config_file_is_config_error(self, blob_csv, tmp_path, key, value):
        settings = {**self.ALL_SETTINGS, key: value}
        cfg = tmp_path / "loop.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        prefix = tmp_path / "t"
        assert main(["loop", "--real", str(blob_csv), "--config", str(cfg), "--out", str(prefix)]) == 4
        assert not prefix.with_suffix(".json").exists()

    @pytest.mark.parametrize("key, value", MALFORMED_NUMBERS)
    def test_malformed_number_flag_is_config_error(self, blob_csv, tmp_path, key, value):
        # Flags and file values are both text that the annotations convert.
        flag = "--seed" if key == "master_seed" else "--" + key.replace("_", "-")
        prefix = tmp_path / "t"
        assert main([*self.loop_args(blob_csv, prefix), flag, value]) == 4
        assert not prefix.with_suffix(".json").exists()

    @pytest.mark.parametrize("text", ["gaussian", "gmm:3", "gmm:3:50", "gmm:3:50:1e-4", "bootstrap:0.5"])
    def test_parse_generator_writes_kind_seed_and_the_kind_fields(self, text):
        spec = cli.parse_spec("generator", text)
        assert list(looper.to_doc(spec)) == ["kind", "seed", *GENERATOR_FIELDS[spec.kind]]

    def test_gmm_spec_takes_generator_spec_defaults(self):
        assert cli.parse_spec("generator", "gmm:3") == GeneratorSpec(kind="gmm", components=3)

    METRIC_DOC = {"kind": "euclidean", "feature_map": {"kind": "identity"}}

    @pytest.mark.parametrize(
        "grammar, text, doc",
        [
            ("feature", "identity", {"kind": "identity"}),
            ("feature", "randproj:2:7", {"kind": "randproj", "target_dim": 2, "seed": 7}),
            ("selection", "greedy", {"kind": "greedy", "seed": 0, "metric": METRIC_DOC}),
            ("selection", "random", {"kind": "random", "seed": 0, "metric": METRIC_DOC}),
            ("selection", "threshold:5.0:0.9",
             {"kind": "threshold_decay", "seed": 0, "metric": METRIC_DOC, "tau0": 5.0, "alpha": 0.9}),
            ("generator", "gaussian", {"kind": "gaussian", "seed": 0}),
            ("generator", "gmm:3", {"kind": "gmm", "seed": 0, "components": 3, "max_iters": 200, "tol": 1e-8}),
            ("generator", "gmm:3:50", {"kind": "gmm", "seed": 0, "components": 3, "max_iters": 50, "tol": 1e-8}),
            ("generator", "gmm:3:50:1e-4",
             {"kind": "gmm", "seed": 0, "components": 3, "max_iters": 50, "tol": 1e-4}),
            ("generator", "bootstrap:0.5", {"kind": "bootstrap", "seed": 0, "sigma": 0.5}),
            *((grammar, text, None) for grammar, text in [
                ("selection", "threshold_decay:1.0:0.5"), ("selection", "thresholdx:1.0:0.5"),
                ("selection", "threshold:1"), ("selection", "threshold:1:0.5:3"), ("selection", "greedy:1"),
                ("feature", "identity:1"), ("feature", "randproj:2"), ("feature", "randproj:2:7:1"),
                ("feature", "randproj:2.0:7"), ("generator", "gmm"), ("generator", "bootstrap:0.1:2"),
            ]),
        ],
    )
    def test_spec_grammars(self, blob_csv, tmp_path, grammar, text, doc):
        # A well-formed spec gives the document the hand-written parsers gave;
        # a malformed one stops the loop with exit 4 before anything is written.
        if doc is not None:
            settings = {"metric": DistanceMetric()} if grammar == "selection" else {}
            assert list(looper.to_doc(cli.parse_spec(grammar, text, **settings)).items()) == list(doc.items())
            return
        prefix = tmp_path / "t"
        assert main(self.loop_args(blob_csv, prefix, [f"--{grammar}", text])) == 4
        assert not prefix.with_suffix(".json").exists()

    def test_overflowing_gmm_fit_exits_five(self, tmp_path):
        # Squared distances between points near 1e155 overflow, a numerical failure.
        real = tmp_path / "huge.csv"
        save_pointset(PointSet(np.random.default_rng(0).standard_normal((30, 2)) * 1e155), real)
        prefix = tmp_path / "t"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(
                ["loop", "--real", str(real), "--paradigm", "replace", "--iterations", "2",
                 "--train-size", "30", "--generator", "gmm:2", "--out", str(prefix)]
            )
        assert code == 5
        assert not prefix.with_suffix(".json").exists()

    @pytest.mark.parametrize("generator", ["gaussian", "bootstrap:0", "gmm:1", "gmm:2"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_overflowing_data_exits_five_for_every_generator(self, tmp_path, generator, d):
        # The covariance of points near 1e155 overflows, whatever the generator.
        real = tmp_path / "huge.csv"
        save_pointset(PointSet(np.random.default_rng(d).standard_normal((30, d)) * 1e155), real)
        prefix = tmp_path / "t"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(
                ["loop", "--real", str(real), "--paradigm", "replace", "--iterations", "2",
                 "--train-size", "30", "--generator", generator, "--out", str(prefix)]
            )
        assert code == 5
        assert not prefix.with_suffix(".json").exists()

    @pytest.mark.parametrize("paradigm", ["replace", "accumulate", "accumulate_subsample"])
    def test_overflowing_generation_multiplier_is_config_error(self, blob_csv, tmp_path, capsys, paradigm):
        # 1e308 x train_size overflows to inf: the pool cap refuses it before
        # any generation size is rounded up.
        prefix = tmp_path / "t"
        code = main(
            ["loop", "--real", str(blob_csv), "--paradigm", paradigm, "--iterations", "2", "--train-size", "50",
             "--generator", "bootstrap:0.1", "--generation-multiplier", "1e308", "--out", str(prefix)]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error: generation_multiplier 1e+308 x train_size 50")
        assert "Traceback" not in err
        assert not prefix.with_suffix(".json").exists()

    def test_replace_generation_is_held_to_the_pool_cap(self, blob_csv, tmp_path):
        # --train-size 100 at 1.5 samples generations of 150 points.
        prefix = tmp_path / "t"
        extra = ["--generation-multiplier", "1.5", "--pool-cap"]
        assert main(self.loop_args(blob_csv, prefix, [*extra, "149"])) == 4
        assert not prefix.with_suffix(".json").exists()
        assert main(self.loop_args(blob_csv, prefix, [*extra, "150"])) == 0

    @pytest.mark.parametrize(
        "flag, value, expected",
        [("--paradigm", "mixup", "replace, accumulate, accumulate_subsample"),
         ("--metric", "cosine", "euclidean, sqeuclidean")],
    )
    def test_refused_word_names_the_valid_ones(self, blob_csv, tmp_path, capsys, flag, value, expected):
        assert main(self.loop_args(blob_csv, tmp_path / "t", [flag, value])) == 4
        assert f"{value!r} (expected {expected})" in capsys.readouterr().err

    def test_overflowing_frechet_writes_no_trace(self, tmp_path, capsys):
        # This loop used to exit 0 and write "frechet_real": NaN.
        real = tmp_path / "huge.csv"
        save_pointset(PointSet(np.random.default_rng(2).standard_normal((60, 2)) * 1e150), real)
        prefix = tmp_path / "t"
        code = main(["loop", "--real", str(real), "--paradigm", "replace", "--generator", "bootstrap:0",
                     "--train-size", "30", "--iterations", "2", "--out", str(prefix)])
        assert code == 5
        assert capsys.readouterr().err.splitlines()[-1] == "error: iteration 1: Frechet cross term is not finite"
        assert not prefix.with_suffix(".json").exists()

    def test_numeric_failure_maps_to_exit_five(self, blob_csv, tmp_path, monkeypatch):
        def boom(config, real, progress=None):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(looper, "run_loop", boom)
        assert main(self.loop_args(blob_csv, tmp_path / "t")) == 5


class TestAnalyze:
    def make_trace(self, blob_csv, tmp_path, name, sigma="0.05", seed="11", extra=()):
        prefix = tmp_path / name
        code = main(
            ["loop", "--real", str(blob_csv), "--paradigm", "replace",
             "--iterations", "4", "--train-size", "100",
             "--generator", f"bootstrap:{sigma}", "--seed", seed,
             "--canonical", "--out", str(prefix), *extra]
        )
        assert code == 0
        return tmp_path / f"{name}.json"

    def test_compare_self_is_zero(self, blob_csv, tmp_path, capsys):
        trace = self.make_trace(blob_csv, tmp_path, "a")
        capsys.readouterr()
        assert main(["analyze", "--mode", "compare", str(trace), str(trace)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(v == 0.0 for v in doc["mean_delta"].values())
        assert all(v == "tie" for v in doc["dominance"].values())

    def test_compare_needs_exactly_two(self, blob_csv, tmp_path):
        trace = self.make_trace(blob_csv, tmp_path, "a")
        assert main(["analyze", "--mode", "compare", str(trace)]) == 4

    def test_correlate_needs_a_trace(self, capsys):
        assert main(["analyze", "--mode", "correlate"]) == 4
        assert "at least one trace file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--iterations", "3", "of length 4 vs 3"), ("--paradigm", "accumulate", "'replace' vs 'accumulate'")],
        ids=["iterations", "paradigm"],
    )
    def test_mismatched_compare_is_config_error(self, blob_csv, tmp_path, capsys, flag, value, message):
        # A mismatch is a precondition error in the library, but an operator
        # mistake in what analyze was asked for.
        a = self.make_trace(blob_csv, tmp_path, "a")
        b = self.make_trace(blob_csv, tmp_path, "b", extra=(flag, value))
        capsys.readouterr()
        assert main(["analyze", "--mode", "compare", str(a), str(b)]) == 4
        assert message in capsys.readouterr().err

    def test_correlate_reports_r(self, blob_csv, tmp_path, capsys):
        t1 = self.make_trace(blob_csv, tmp_path, "a", seed="11")
        t2 = self.make_trace(blob_csv, tmp_path, "b", seed="12")
        capsys.readouterr()
        assert main(["analyze", "--mode", "correlate", str(t1), str(t2)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert -1.0 <= doc["r"] <= 1.0
        assert doc["point_count"] == 8

    def test_correlate_all_memorized_is_precondition_error(self, blob_csv, tmp_path):
        trace = self.make_trace(blob_csv, tmp_path, "m", sigma="0")
        assert main(["analyze", "--mode", "correlate", str(trace)]) == 3

    def test_corrupt_trace_file_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["analyze", "--mode", "compare", str(bad), str(bad)]) == 2

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"', '{"real_reference": 5}'])
    def test_malformed_trace_document_is_io_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["analyze", "--mode", "correlate", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: not a trace file")

    @pytest.mark.parametrize(
        "damage",
        [
            lambda doc: doc.update(real_reference=5),
            lambda doc: doc["records"][0].update(unexpected=1),
            lambda doc: doc["config"]["metric"].update(unexpected=1),
            lambda doc: doc["config"].update(paradigm="mixup"),
            lambda doc: doc.update(records=[1]),
            lambda doc: doc.update(config=[]),
            lambda doc: doc["config"]["generator"].update(components=2.5),
            lambda doc: doc["config"]["generator"].update(seed="x"),
            lambda doc: doc["config"]["metric"]["feature_map"].update(kind="randproj", target_dim=2.5, seed=1),
            lambda doc: doc["config"]["metric"]["feature_map"].update(kind="randproj", target_dim=2, seed=True),
            lambda doc: doc["config"]["generator"].update(sigma=True),
            lambda doc: doc["config"]["generator"].update(sigma="0.05"),
            lambda doc: doc["config"]["generator"].update(tol=True),
            lambda doc: doc["config"].update(generation_multiplier=True),
            lambda doc: doc["config"].update(selection={
                "kind": "threshold_decay", "seed": 0, "metric": doc["config"]["metric"], "tau0": True, "alpha": 0.5}),
            lambda doc: doc["config"].update(selection={
                "kind": "threshold_decay", "seed": 0, "metric": doc["config"]["metric"], "tau0": 1.0, "alpha": "x"}),
            lambda doc: doc["real_reference"].update(trace_cov="x"),
            lambda doc: doc["real_reference"].update(trace_cov=True),
            lambda doc: doc["config"]["metric"]["feature_map"].update(seed=2.5),
            # The affine whitening map is no longer a kind; a trace that names it is refused.
            lambda doc: doc["config"]["metric"]["feature_map"].update(
                kind="whiten", mean=[0.0, 0.0], transform=[[1.0, 0.0], [0.0, 1.0]]),
            lambda doc: doc.update(schema_version=99),
            lambda doc: doc.update(schema_version=True),
            lambda doc: doc.pop("schema_version"),
            lambda doc: doc.update(unexpected=1),
            lambda doc: doc["records"].pop(),
            lambda doc: doc["records"].reverse(),
            lambda doc: doc["records"].append(doc["records"][-1]),
        ],
        ids=["real-reference-not-a-dict", "unknown-record-key", "unknown-metric-key", "invalid-paradigm",
             "record-not-a-dict", "config-not-a-dict", "generator-components-float", "generator-seed-string",
             "feature-target-dim-float", "feature-seed-bool", "generator-sigma-bool", "generator-sigma-string",
             "generator-tol-bool", "multiplier-bool", "selection-tau0-bool", "selection-alpha-string",
             "trace-cov-string", "trace-cov-bool", "identity-seed-float", "whiten-feature-map",
             "schema-version-99", "schema-version-bool", "schema-version-missing", "unknown-top-level-key",
             "last-record-missing", "records-reversed", "record-repeated"],
    )
    def test_damaged_trace_is_io_error(self, blob_csv, tmp_path, capsys, damage):
        trace = self.make_trace(blob_csv, tmp_path, "a")
        doc = json.loads(trace.read_text())
        damage(doc)
        trace.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["analyze", "--mode", "compare", str(trace), str(trace)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {trace}: not a trace file")

    @pytest.mark.parametrize(
        "mode, damage",
        [
            ("correlate", lambda rec: rec.update(gs="x")),
            ("compare", lambda rec: rec.update(mnnd="x")),
            ("compare", lambda rec: rec["entropy"].update(estimate=None)),
            ("compare", lambda rec: rec["entropy"].update(duplicate_count=1.5)),
            ("compare", lambda rec: rec["entropy"].update(gamma=0)),
            ("compare", lambda rec: rec["entropy"].update(size=0)),
            ("compare", lambda rec: rec["entropy"].update(dim=0)),
            ("compare", lambda rec: rec["entropy"].update(duplicate_count=-1)),
            ("compare", lambda rec: rec["entropy"].update(duplicate_count=10**6)),
            ("compare", lambda rec: rec["source_proportions"].update(real="x")),
            ("compare", lambda rec: rec.update(gs_value=rec.pop("gs"))),
            # json.dumps writes these as the bare tokens NaN and Infinity.
            ("compare", lambda rec: rec.update(gs=math.nan)),
            ("compare", lambda rec: rec.update(mnnd=math.inf)),
            ("correlate", lambda rec: rec.update(iteration=3)),
            ("compare", lambda rec: rec["entropy"].update(gamma=2)),
            ("compare", lambda rec: rec["entropy"].update(estimate=math.nextafter(rec["entropy"]["estimate"], 0.0))),
            ("compare", lambda rec: rec["entropy"].update(size=10**400)),
            ("compare", lambda rec: rec.update(duplicate_count=rec["entropy"]["duplicate_count"] + 1)),
        ],
        ids=["gs-string", "mnnd-string", "estimate-null", "duplicate-count-float", "gamma-zero", "size-zero",
             "dim-zero", "duplicate-count-negative", "duplicate-count-above-size", "proportion-string",
             "field-name-as-key", "gs-nan", "mnnd-infinity", "iteration-out-of-order", "gamma-not-config",
             "estimate-one-ulp-off", "size-beyond-float", "duplicate-count-not-entropy"],
    )
    def test_bad_record_value_is_io_error(self, blob_csv, tmp_path, capsys, mode, damage):
        trace = self.make_trace(blob_csv, tmp_path, "a")
        doc = json.loads(trace.read_text())
        damage(doc["records"][1])
        trace.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["analyze", "--mode", mode, str(trace), str(trace)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {trace}: not a trace file")

    def test_huge_iteration_count_is_io_error(self, blob_csv, tmp_path, capsys):
        # The reader counts the records before it lists the iterations a
        # config claims, so a claim of 10**12 costs no memory.
        trace = self.make_trace(blob_csv, tmp_path, "a")
        doc = json.loads(trace.read_text())
        doc["config"]["iterations"] = 10**12
        trace.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["analyze", "--mode", "correlate", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {trace}: not a trace file") and err.count("\n") == 1


class TestSubprocessDeterminism:
    @staticmethod
    def loop_bytes_at_blas_counts(tmp_path, loop_args, d=2):
        """The canonical trace bytes of one loop on blobs in d dimensions at 1,
        2 and again 1 BLAS threads."""
        rng = np.random.default_rng(2)
        real = tmp_path / "real.csv"
        centers = rng.uniform(-4, 4, size=(4, d))
        save_pointset(
            PointSet(centers[rng.integers(0, 4, 150)] + rng.standard_normal((150, d))), real
        )
        blobs = []
        for blas, name in (("1", "b1"), ("2", "b2"), ("1", "b1b")):
            prefix = tmp_path / name
            proc = run_cli(
                ["loop", "--real", str(real), *loop_args, "--canonical", "--out", str(prefix)],
                env_extra={"OPENBLAS_NUM_THREADS": blas},
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append((prefix.with_suffix(".json").read_bytes(), prefix.with_suffix(".csv").read_bytes()))
        return blobs

    def test_loop_byte_identical_across_thread_counts(self, tmp_path):
        blobs = self.loop_bytes_at_blas_counts(
            tmp_path,
            ["--paradigm", "accumulate_subsample", "--iterations", "3", "--train-size", "60",
             "--generator", "bootstrap:0.1", "--selection", "greedy", "--seed", "21"],
        )
        assert blobs[0] == blobs[1] == blobs[2]

    def test_gmm_loop_byte_identical_across_thread_counts(self, tmp_path):
        # EM's slogdet, solve and matmuls run in BLAS; its thread count must not move a byte.
        blobs = self.loop_bytes_at_blas_counts(
            tmp_path,
            ["--paradigm", "replace", "--iterations", "3", "--train-size", "100",
             "--generator", "gmm:4", "--seed", "21"],
        )
        assert blobs[0] == blobs[1] == blobs[2]

    def test_projected_loop_byte_identical_across_thread_counts(self, tmp_path):
        # A row's projected features are a function of the row, at any BLAS thread count.
        blobs = self.loop_bytes_at_blas_counts(
            tmp_path,
            ["--paradigm", "replace", "--iterations", "3", "--train-size", "60",
             "--generator", "bootstrap:0.1", "--selection", "threshold:2.0:0.5",
             "--feature", "randproj:2:3", "--seed", "21"],
            d=4,
        )
        assert blobs[0] == blobs[1] == blobs[2]

    def test_module_entry_point_reports_version_of_help(self):
        proc = run_cli(["--help"])
        assert proc.returncode == 0
        assert "entropy" in proc.stdout
        assert "loop" in proc.stdout

    @staticmethod
    def check_console_script_matches_module(command, csv_path):
        via_module = run_cli(["entropy", "--input", str(csv_path)])
        assert via_module.returncode == 0, via_module.stderr
        proc = subprocess.run(
            [*command, "entropy", "--input", str(csv_path)],
            capture_output=True, text=True, env=cli_env(),
        )
        assert proc.returncode == via_module.returncode, proc.stderr
        assert json.loads(proc.stdout) == json.loads(via_module.stdout)

    def test_console_script_matches_module(self, two_point_csv):
        # Runs the [project.scripts] target the way the installed wrapper
        # does, so the declared entry point is checked without an install.
        tomllib = pytest.importorskip("tomllib")
        target = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]["collapselab"]
        self.check_console_script_matches_module(
            [sys.executable, "-c", CONSOLE_WRAPPER, target], two_point_csv
        )

    @pytest.mark.skipif(
        shutil.which("collapselab") is None,
        reason="console script not on PATH; pip install -e . to run",
    )
    def test_installed_console_script_matches_module(self, two_point_csv):
        self.check_console_script_matches_module(["collapselab"], two_point_csv)
