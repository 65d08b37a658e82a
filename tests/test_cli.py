"""Command-line interface: subcommands, report schema, exit codes, determinism."""

import contextlib
import csv
import errno
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphere_zeros.harmonics
import sphere_zeros.integralgeom
from sphere_zeros.cli import (
    MAX_POINTS,
    MAX_TRIALS,
    _flatten,
    build_parser,
    main,
)
from sphere_zeros.embedding import MAX_QUADRATURE_DEPTH
from sphere_zeros.zerofinder import MAX_SOLVER_DEGREE


DATA = Path(__file__).parent / "data"
README = Path(__file__).parents[1] / "README.md"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    return code, json.loads(out), err


class TestAverageCommand:
    def test_degree3_report(self, capsys):
        code, report, _ = run_json(
            ["average", "--sphere", "2", "--degree", "3", "--trials", "60", "--seed", "7"],
            capsys,
        )
        assert code == 0
        assert report["command"] == "average"
        assert report["theory"] == {"value": 12.0, "formula_id": "THM_1_1"}
        assert report["estimate"]["trials"] == 60
        assert abs(report["estimate"]["mean"] - 12.0) <= 4.0 * report["estimate"]["stderr"]
        assert report["experimental"] is False
        assert report["config"]["seed"] == 7
        assert "version" in report

    def test_circle_exact(self, capsys):
        code, report, _ = run_json(
            ["average", "--sphere", "1", "--degree", "9", "--trials", "25"], capsys
        )
        assert code == 0
        assert report["estimate"]["mean"] == 18.0
        assert report["estimate"]["stderr"] == 0.0
        assert report["histogram"] == {"18": 25}

    def test_byte_identical_reports(self, capsys, tmp_path):
        argv = ["average", "--sphere", "2", "--degree", "2", "--trials", "40", "--seed", "3"]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_trials_cap(self, capsys):
        code, _, err = run_cli(
            ["average", "--sphere", "2", "--degree", "2", "--trials", "2000000"], capsys
        )
        assert code == 2
        assert "trials" in err


class TestConjectureCommand:
    def test_mixed_1_2(self, capsys):
        code, report, _ = run_json(
            ["conjecture", "--degrees", "1", "2", "--trials", "80", "--seed", "11"], capsys
        )
        assert code == 0
        assert report["experimental"] is True
        assert report["theory"]["formula_id"] == "SEC5_CONJECTURE"
        assert report["theory"]["value"] == pytest.approx(math.sqrt(12.0), rel=1e-12)

    def test_degrees_validated_before_the_run(self):
        # The library rejects the degree before any kernel runs.
        code, out, err = _run_without_evaluation(["conjecture", "--degrees", "1", "51"])
        assert code == 2
        assert out == ""
        assert err == "error: degree must be an integer in [1, 50], got 51\n"


class TestCountCommand:
    def test_sphere_run(self, capsys):
        code, report, _ = run_json(
            ["count", "--sphere", "2", "--degree", "3", "--seed", "5"], capsys
        )
        assert code == 0
        assert report["status"] == "Complete"
        assert report["zero_count"] == len(report["zeros"])
        assert report["zero_count"] <= 18
        assert report["theory"]["formula_id"] == "THM_4_1"

    def test_circle_run(self, capsys):
        code, report, _ = run_json(
            ["count", "--sphere", "1", "--degree", "12", "--seed", "5"], capsys
        )
        assert code == 0
        assert report["zero_count"] == 24
        assert all(len(z) == 2 for z in report["zeros"])

    def test_circle_rejects_second_degree(self, capsys):
        code, _, err = run_cli(
            ["count", "--sphere", "1", "--degree", "3", "--degree2", "4"], capsys
        )
        assert code == 2

    def test_mixed_degrees(self, capsys):
        code, report, _ = run_json(
            ["count", "--sphere", "2", "--degree", "1", "--degree2", "4", "--seed", "2"],
            capsys,
        )
        assert code == 0
        assert report["theory"]["value"] == 8.0


class TestZonalCommand:
    def test_default_tilt(self, capsys):
        code, report, _ = run_json(["zonal", "--degree", "4"], capsys)
        assert code == 0
        assert report["zero_count"] == 8
        assert report["theory"] == {"value": 8.0, "formula_id": "SEC5_ZONAL"}

    def test_zero_tilt_is_degenerate(self, capsys):
        code, report, err = run_json(["zonal", "--degree", "2", "--alpha", "0"], capsys)
        assert code == 4
        assert report["status"] == "Degenerate"
        assert "degenerate" in err


class TestInvariantsCommand:
    def test_sphere_degree6(self, capsys):
        code, report, _ = run_json(["invariants", "--sphere", "2", "--degree", "6"], capsys)
        assert code == 0
        names = [item["name"] for item in report["identities"]]
        assert names == ["orthonormality", "sum_of_squares", "gradient_sum"]
        assert all(item["passed"] for item in report["identities"])

    def test_circle(self, capsys):
        code, report, _ = run_json(["invariants", "--sphere", "1", "--degree", "30"], capsys)
        assert code == 0
        assert all(item["passed"] for item in report["identities"])


class TestEmbeddingCommand:
    def test_degree2(self, capsys):
        code, report, _ = run_json(["embedding", "--sphere", "2", "--degree", "2"], capsys)
        assert code == 0
        emb = report["embedding"]
        assert emb["covering_degree"] == 2
        assert emb["numeric_integral"] == pytest.approx(15.0, rel=5e-3)
        assert report["theory"]["value"] == pytest.approx(7.5, rel=1e-12)

    def test_circle_degree3(self, capsys):
        code, report, _ = run_json(["embedding", "--sphere", "1", "--degree", "3"], capsys)
        assert code == 0
        assert report["embedding"]["covering_degree"] == 3


class TestCroftonCommand:
    def test_zonal_reference(self, capsys):
        code, report, _ = run_json(
            ["crofton-length", "--degree", "2", "--trials", "400", "--seed", "9"], capsys
        )
        assert code == 0
        assert report["theory"]["formula_id"] == "SEC3_CROFTON"
        reference = report["theory"]["value"]
        assert reference == pytest.approx(4.0 * math.pi * math.sqrt(2.0 / 3.0), rel=1e-10)
        assert abs(report["estimate"]["mean"] - reference) <= 3.0 * report["estimate"]["stderr"]

    def test_random_function(self, capsys):
        code, report, _ = run_json(
            ["crofton-length", "--degree", "3", "--function", "random", "--trials", "100"],
            capsys,
        )
        assert code == 0
        assert report["theory"]["value"] is None
        assert report["estimate"]["mean"] > 0.0

    # Reports frozen from the per-circle scan-and-bisect code, each long
    # enough to span several batches of circles.
    @pytest.mark.parametrize("golden", sorted((DATA / "crofton").glob("*.json")), ids=lambda p: p.stem)
    def test_matches_golden_report(self, golden, tmp_path, capsys):
        config = json.loads(golden.read_text())["config"]
        out = tmp_path / "report.json"
        argv = ["crofton-length", "--out", str(out)]
        for name in ("degree", "function", "trials", "seed"):
            argv += [f"--{name}", str(config[name])]
        assert main(argv) == 0
        capsys.readouterr()
        assert out.read_bytes() == golden.read_bytes()


# Reports frozen before the shared frame, row-value, degenerate-result and
# report helpers replaced their copies: name -> (argv, exit code).
GOLDEN_REPORTS = {
    "count_s2_m3_seed5": (["count", "--sphere", "2", "--degree", "3", "--seed", "5"], 0),
    "count_s2_m2_m5": (["count", "--degree", "2", "--degree2", "5"], 0),
    "count_s1_m4": (["count", "--sphere", "1", "--degree", "4"], 0),
    "count_s2_m4_seed2_csv": (["count", "--degree", "4", "--seed", "2", "--format", "csv"], 0),
    "zonal_m4_alpha005": (["zonal", "--degree", "4", "--alpha", "0.05"], 0),
    "zonal_m7": (["zonal", "--degree", "7"], 0),
    "zonal_m2_alpha0": (["zonal", "--degree", "2", "--alpha", "0"], 4),
    "average_s2_m2": (["average", "--sphere", "2", "--degree", "2", "--trials", "20"], 0),
    "average_s1_m3": (["average", "--sphere", "1", "--degree", "3"], 0),
    "conjecture_1_2": (["conjecture", "--degrees", "1", "2", "--trials", "20"], 0),
    "embedding_s2_m4_q3": (
        ["embedding", "--sphere", "2", "--degree", "4", "--quadrature-depth", "3"], 0
    ),
    "embedding_s1_m8": (["embedding", "--sphere", "1", "--degree", "8"], 0),
    "invariants_s2_m6": (["invariants", "--sphere", "2", "--degree", "6"], 0),
    "invariants_s1_m5": (["invariants", "--sphere", "1", "--degree", "5"], 0),
    # Frozen before the S2 kernel contracted coefficient rows itself.
    "average_s2_m8_seed77": (
        ["average", "--sphere", "2", "--degree", "8", "--trials", "2", "--seed", "77"], 0
    ),
    "zonal_m8_alpha003": (["zonal", "--degree", "8", "--alpha", "0.03"], 0),
    "count_s2_m3_m7_seed4": (["count", "--degree", "3", "--degree2", "7", "--seed", "4"], 0),
    "embedding_s2_m24_q5_seed3": (
        ["embedding", "--sphere", "2", "--degree", "24", "--quadrature-depth", "5", "--seed", "3"], 0
    ),
    # Frozen before the S1 covering degree came from the closed-form circle zeros.
    "embedding_s1_m1": (["embedding", "--sphere", "1", "--degree", "1"], 0),
    "embedding_s1_m50_q5_seed3": (
        ["embedding", "--sphere", "1", "--degree", "50", "--quadrature-depth", "5", "--seed", "3"], 0
    ),
}


OUTCOMES = DATA / "reports" / "outcomes.json"
OUTCOME_FIELDS = (
    "zero_count", "status", "diagnostics.depth_escalations", "diagnostics.degenerate_resamples",
)
OUTCOME_GROUPS = ("histogram", "estimate")      # flattened to histogram.<count>, estimate.<field>


def _csv_value(cell: str):
    if cell == "":
        return None
    try:
        return json.loads(cell)
    except ValueError:
        return cell                      # an unquoted string such as a status


def report_fields(text: str, fmt: str) -> dict:
    """Every field of a JSON or CSV report, flattened to dotted keys."""
    if fmt == "csv":
        header, row = csv.reader(io.StringIO(text))
        return {key: _csv_value(cell) for key, cell in zip(header, row)}
    flat: dict = {}
    _flatten("", json.loads(text), flat)
    return flat


def report_outcome(text: str, fmt: str) -> dict:
    """The count-level fields of a report, flattened: what a last-bit re-freeze leaves alone."""
    return {
        key: value for key, value in report_fields(text, fmt).items()
        if key in OUTCOME_FIELDS or key.split(".")[0] in OUTCOME_GROUPS
    }


class TestGoldenReports:
    def test_every_golden_has_a_command(self):
        stems = {p.stem for p in (DATA / "reports").iterdir()}
        assert stems == set(GOLDEN_REPORTS) | {OUTCOMES.stem}

    # Exit code, counts, statuses, histograms, estimates, escalations and
    # resamples of every golden, frozen from the goldens before the
    # frame-free Newton step re-froze their zeros in the last bits.
    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
    def test_outcome_matches_the_oracle(self, name, tmp_path, capsys):
        argv, _ = GOLDEN_REPORTS[name]
        fmt = "csv" if "csv" in argv else "json"
        out = tmp_path / name
        code = main(argv + ["--out", str(out)])
        capsys.readouterr()
        oracle = json.loads(OUTCOMES.read_text())
        assert set(oracle) == set(GOLDEN_REPORTS)
        assert {"exit_code": code, **report_outcome(out.read_text(), fmt)} == oracle[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
    def test_exit_code_follows_from_the_report(self, name):
        # main's rule: a Degenerate status exits 4, a named violation 3, anything else 0.
        argv, expected_code = GOLDEN_REPORTS[name]
        fmt = "csv" if "csv" in argv else "json"
        flat = report_fields((DATA / "reports" / f"{name}.{fmt}").read_text(), fmt)
        code = 4 if flat.get("status") == "Degenerate" else 3 if "violated" in flat else 0
        assert code == expected_code

    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
    def test_matches_golden_report(self, name, tmp_path, capsys):
        argv, expected_code = GOLDEN_REPORTS[name]
        golden = DATA / "reports" / (name + (".csv" if "csv" in argv else ".json"))
        out = tmp_path / golden.name
        assert main(argv + ["--out", str(out)]) == expected_code
        capsys.readouterr()
        assert out.read_bytes() == golden.read_bytes()

    def test_one_parser_serves_consecutive_calls(self, tmp_path, capsys):
        # main parses with one parser per process, so the defaults and the
        # values of one call must not leak into the next.
        assert build_parser() is build_parser()
        names = ["conjecture_1_2", "average_s2_m2", "average_s1_m3", "conjecture_1_2"]
        for k, name in enumerate(names + ["count_s2_m3_seed5"]):
            argv, expected_code = GOLDEN_REPORTS[name]
            out = tmp_path / f"{k}.json"
            assert main(argv + ["--out", str(out)]) == expected_code
            assert out.read_bytes() == (DATA / "reports" / f"{name}.json").read_bytes(), name
        capsys.readouterr()


class TestOutputFormats:
    def test_csv_has_header_and_row(self, capsys):
        code, out, _ = run_cli(
            ["invariants", "--sphere", "2", "--degree", "2", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        header = lines[0].split(",")
        assert "command" in header and "config.degree" in header
        assert len(header) == len(lines[1].split(",")) or '"' in lines[1]

    def test_csv_deterministic(self, capsys, tmp_path):
        argv = [
            "zonal", "--degree", "3", "--format", "csv",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_degree_out_of_range(self, capsys):
        code, out, err = run_cli(["average", "--sphere", "2", "--degree", "51"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: degree must be an integer in [1, 50], got 51\n"

    def test_solver_degree_cap(self, capsys):
        code, _, err = run_cli(["count", "--sphere", "2", "--degree", "13"], capsys)
        assert code == 2
        assert "degrees up to" in err

    def test_negative_seed_rejected(self, capsys):
        code, _, err = run_cli(["average", "--sphere", "1", "--degree", "2", "--seed", "-1"], capsys)
        assert code == 2
        assert "seed" in err

    @pytest.mark.parametrize("argv", [
        ["zonal", "--degree", "2", "--alpha", "4"],
        ["invariants", "--degree", "2", "--points", "0"],
        ["invariants", "--degree", "2", "--points", "100000000000"],
        ["invariants", "--degree", "2", "--points", str(MAX_POINTS + 1)],
    ], ids=["alpha", "points", "points-huge", "points-over"])
    def test_bad_input_exits_2(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["no-parent", "directory"])
    def test_unwritable_out_exits_2(self, target, tmp_path, capsys):
        out = tmp_path / target
        code, stdout, err = run_cli(
            ["invariants", "--degree", "2", "--points", "5", "--out", str(out)], capsys
        )
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: cannot write the report to {out}: ")
        assert err.count("\n") == 1


    @pytest.mark.parametrize("argv", [
        ["count", "--degree", "3", "--degree2", "13"],
        ["average", "--degree", "13", "--trials", "2"],
        ["conjecture", "--degrees", "2", "13", "--trials", "2"],
        ["zonal", "--degree", "13"],
        ["zonal", "--degree", "13", "--alpha", "0"],
    ], ids=["count-degree2", "average", "conjecture", "zonal", "zonal-alpha0"])
    def test_solver_degree_cap_on_every_solver_command(self, argv, capsys):
        # Every S2 entry point raises the library's cap, zonal at alpha = 0 included.
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: S2 zero finding supports degrees up to 12")

    @pytest.mark.parametrize("argv", [
        ["average", "--degree", "13", "--trials", "1000000"],
        ["conjecture", "--degrees", "13", "2"],
    ], ids=["average", "conjecture"])
    def test_solver_degree_cap_comes_before_any_draw(self, argv, capsys, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(sphere_zeros.integralgeom, "sample_subspace", no_draw)
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: S2 zero finding supports degrees up to 12")
        assert err.count("\n") == 1

    # The first two in-range values starved Newton into a wrong Complete count
    # (0 zeros where there are 10); the solver settings are fixed constants now.
    # --depth and --probes each had one value in use and are constants too.
    @pytest.mark.parametrize("argv", [
        ["count", "--degree", "3", "--seed", "5", "--max-iter", "1"],
        ["count", "--degree", "3", "--seed", "5", "--newton-tol", "1e-300"],
        ["count", "--degree", "3", "--seed", "5", "--dedup-radius", "1e-6"],
        ["count", "--degree", "3", "--depth", "4"],
        ["count", "--sphere", "1", "--degree", "3", "--depth", "4"],
        ["average", "--degree", "2", "--trials", "2", "--depth", "4"],
        ["average", "--sphere", "1", "--degree", "3", "--trials", "2", "--depth", "4"],
        ["conjecture", "--degrees", "1", "2", "--trials", "2", "--depth", "4"],
        ["zonal", "--degree", "3", "--depth", "4"],
        ["embedding", "--degree", "2", "--probes", "64"],
    ], ids=[
        "--max-iter-1", "--newton-tol-1e-300", "--dedup-radius-1e-6",
        "count-depth", "count-s1-depth", "average-depth", "average-s1-depth",
        "conjecture-depth", "zonal-depth", "embedding-probes",
    ])
    def test_removed_solver_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert any("error: " in line for line in err.splitlines()), err

    def test_readme_examples_exit_0_with_a_json_report(self, capsys):
        # A README example with a removed or out-of-range flag, or one that
        # no longer succeeds, fails here.
        examples, fenced = [], False
        for line in README.read_text(encoding="utf-8").splitlines():
            if line.startswith("```"):
                fenced = not fenced
            elif fenced and line.startswith("sphere-zeros "):
                examples.append(line)
        assert len(examples) >= 7
        for line in examples:
            argv = shlex.split(line, comments=True)[1:]
            code, report, err = run_json(argv, capsys)
            assert code == 0, (line, err)
            assert report["command"] == argv[0], line

    def test_high_degree_allowed_off_solver_paths(self, capsys):
        code, report, _ = run_json(["invariants", "--sphere", "2", "--degree", "50"], capsys)
        assert code == 0
        assert all(item["passed"] for item in report["identities"])

    def test_violated_identity_exits_3(self, capsys, monkeypatch):
        import sphere_zeros.cli as cli_module

        monkeypatch.setattr(cli_module, "TOL_ORTHONORMALITY", -1.0)
        code, report, err = run_json(["invariants", "--sphere", "2", "--degree", "2"], capsys)
        assert code == 3
        assert report["violated"] == "orthonormality"
        assert "invariant violation" in err


def _run_python(args, stdout=subprocess.PIPE):
    """A fresh interpreter run with ``args``, importing this package, writing to ``stdout``."""
    paths = [str(Path(sphere_zeros.harmonics.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
    )


def _run_module(argv, stdout):
    """``python -m sphere_zeros`` with ``argv`` in a fresh interpreter writing to ``stdout``."""
    return _run_python(["-m", "sphere_zeros", *argv], stdout)


class TestUnwritableStdout:
    """A report that cannot reach stdout exits 2 with one error line, and no traceback or
    "Exception ignored" line from the flush at interpreter exit."""

    ARGV = ["zonal", "--degree", "2"]

    def check(self, proc, code):
        assert proc.returncode == 2
        assert proc.stderr == f"error: cannot write the report to stdout: {os.strerror(code)}\n"

    def test_closed_pipe_exits_2(self):
        read, write = os.pipe()
        os.close(read)              # no reader: every write fails with EPIPE
        try:
            proc = _run_module(self.ARGV, write)
        finally:
            os.close(write)
        self.check(proc, errno.EPIPE)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exits_2(self):
        with open("/dev/full", "w") as full:
            proc = _run_module(self.ARGV, full)
        self.check(proc, errno.ENOSPC)


# Valid argv per subcommand as (flag, value) pairs; the fuzz test corrupts one.
SOLVER_FLAGS = [("--format", "json")]
VALID_ARGVS = {
    "average": [("--sphere", "2"), ("--degree", "2"), ("--trials", "3"), ("--seed", "1")]
    + SOLVER_FLAGS,
    "conjecture": [("--degrees", "1 2"), ("--trials", "3"), ("--seed", "1")] + SOLVER_FLAGS,
    "count": [("--sphere", "2"), ("--degree", "2"), ("--degree2", "3"), ("--seed", "1")]
    + SOLVER_FLAGS,
    "zonal": [("--degree", "2"), ("--alpha", "0.1")] + SOLVER_FLAGS,
    "invariants": [("--sphere", "2"), ("--degree", "2"), ("--points", "10"), ("--seed", "1"),
                   ("--format", "csv")],
    "embedding": [("--sphere", "2"), ("--degree", "2"), ("--quadrature-depth", "2"),
                  ("--seed", "1")],
    "crofton-length": [("--degree", "2"), ("--function", "zonal"), ("--trials", "3"),
                       ("--seed", "1")],
}
NOT_AN_INT = st.sampled_from(["", "x", "1.5", "1e3", "nan", "0x10", "two", "--"])
NOT_A_FLOAT = st.sampled_from(["", "x", "1e", "0x1p-3", "1,5", "--"])


def _ints_outside(low, high=None):
    outside = st.integers(max_value=low - 1)
    if high is not None:
        outside |= st.integers(min_value=high + 1)
    return outside.map(str) | NOT_AN_INT


def _floats_outside(low, high):
    """Strings of floats outside [low, high), NaN and inf."""
    below = st.floats(max_value=low, exclude_max=True, allow_nan=False)
    above = st.floats(min_value=high, allow_nan=False)
    return (below | above | st.just(math.nan)).map(repr) | NOT_A_FLOAT


def _bad_values(command, flag):
    solver = command in ("average", "conjecture", "count", "zonal")
    degree_high = MAX_SOLVER_DEGREE if solver else 50
    return {
        "--sphere": _ints_outside(1, 2),
        "--degree": _ints_outside(1, degree_high),
        "--degree2": _ints_outside(1, degree_high),
        "--degrees": _ints_outside(1, degree_high).map(lambda v: v + " 2"),
        "--trials": _ints_outside(1, MAX_TRIALS),
        "--seed": _ints_outside(0),
        "--points": _ints_outside(1, MAX_POINTS),
        "--quadrature-depth": _ints_outside(1, MAX_QUADRATURE_DEPTH),
        "--alpha": _floats_outside(0.0, math.pi),
        "--format": st.sampled_from(["", "xml", "JSON", "csv2"]),
        "--function": st.sampled_from(["", "Zonal", "gaussian"]),
    }[flag]


@st.composite
def corrupted_argvs(draw):
    command = draw(st.sampled_from(sorted(VALID_ARGVS)))
    pairs = VALID_ARGVS[command]
    bad = draw(st.integers(0, len(pairs) - 1))
    flag = pairs[bad][0]
    return _argv(command, pairs[:bad] + [(flag, draw(_bad_values(command, flag)))] + pairs[bad + 1 :])


class _Evaluated(Exception):
    pass


def _clear_package_caches():
    """Empty every ``lru_cache`` of the package, so that a run evaluates the basis afresh."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("sphere_zeros."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _run_without_evaluation(argv):
    """(exit code, stdout, stderr) of main(argv); raises _Evaluated at the first basis evaluation."""
    def no_evaluation(*args, **kwargs):
        raise _Evaluated(argv)

    # With warm basis caches a run could pass every check and never evaluate.
    _clear_package_caches()
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sphere_zeros.harmonics, "_eval_s1", no_evaluation)
        mp.setattr(sphere_zeros.harmonics, "_eval_s2", no_evaluation)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:          # argparse rejects the value itself
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def _argv(command, pairs):
    argv = [command]
    for flag, value in pairs:
        argv += [flag] + (value.split(" ") if flag == "--degrees" else [value])
    return argv


# The library's bounds, reached on the CLI path before either kernel runs.
LIBRARY_BOUNDS = [
    *([command, "--degree", "51"]
      for command in ("average", "count", "zonal", "invariants", "embedding", "crofton-length")),
    ["conjecture", "--degrees", "2", "51"],
    ["count", "--degree", "2", "--degree2", "51"],
    *(["embedding", "--sphere", sphere, "--degree", "2", "--quadrature-depth", depth]
      for sphere in ("1", "2") for depth in ("0", "10")),
]


@pytest.mark.parametrize("argv", LIBRARY_BOUNDS, ids=" ".join)
def test_library_bounds_exit_2_before_any_kernel(argv):
    code, out, err = _run_without_evaluation(argv)
    assert code == 2, argv
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert ("degree" if "51" in argv else "quadrature depth") in err


class TestArgumentFuzz:
    @pytest.mark.parametrize("command", sorted(VALID_ARGVS))
    def test_uncorrupted_argv_passes_every_check(self, command):
        with pytest.raises(_Evaluated):
            _run_without_evaluation(_argv(command, VALID_ARGVS[command]))

    @settings(max_examples=50)
    @given(corrupted_argvs())
    def test_one_bad_flag_exits_2_with_an_error_line(self, argv):
        code, out, err = _run_without_evaluation(argv)
        assert code == 2, argv
        assert out == ""
        assert any("error: " in line for line in err.splitlines()), err
        assert "Traceback" not in err


# Blocks the test extras, then runs each argv of argv[1] in this one interpreter.
NUMPY_ONLY = """
import contextlib, io, json, sys
for name in ("scipy", "hypothesis", "pytest"):
    sys.modules[name] = None            # any import of them now raises ImportError
from sphere_zeros.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps(codes))
"""


def test_the_package_runs_on_numpy_alone():
    # numpy is the only runtime dependency: one small op of every subcommand
    # exits 0 in a fresh interpreter that cannot import the test extras.
    argvs = [_argv(command, VALID_ARGVS[command]) for command in sorted(VALID_ARGVS)]
    assert len(argvs) == 7
    proc = _run_python(["-c", NUMPY_ONLY, json.dumps(argvs)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(argvs), proc.stderr
