"""End-to-end command line flows, run in process through main(argv)."""

import csv
import hashlib
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from evoloss import PayoffParams, ValidationError, cli
from evoloss.cli import TRAIN_CONFIG_KEYS, main
from evoloss.kvfile import parse_kv_text
from evoloss.stability import jacobian


@pytest.fixture
def params_file(data_dir, tmp_path):
    dst = tmp_path / "game.params"
    shutil.copy(data_dir / "game_fixture.params", dst)
    return dst


def write_kv(path, **items):
    path.write_text(
        "".join(f"{k} = {v}\n" for k, v in items.items()), encoding="utf-8"
    )
    return path


TRAIN_CONFIG = dict(
    steps=150, input_dim=8, feature_dim=4, batch_size=8, update_period=50, seed=11
)


# ----------------------------------------------------------------- saddle


def test_saddle_fixture(params_file, capsys):
    assert main(["saddle", "--params", str(params_file)]) == 0
    out = capsys.readouterr().out
    assert "x_star = 0.8333333333333334" in out
    assert "y_star = 0.8333333333333334" in out


def test_saddle_out_of_simplex_exits_3(tmp_path, capsys):
    path = write_kv(tmp_path / "p.params", g1=1.5, d1=1.0, g2=1.0, d2=1.5,
                    n1=-1.5, n2=0.5)
    assert main(["saddle", "--params", str(path)]) == 3
    assert "outside" in capsys.readouterr().err


def test_saddle_degenerate_exits_3(tmp_path, capsys):
    path = write_kv(tmp_path / "p.params", g1=0, d1=0, g2=0, d2=0, n1=0, n2=0)
    assert main(["saddle", "--params", str(path)]) == 3
    assert "error" in capsys.readouterr().err


def test_saddle_missing_file_exits_2(tmp_path, capsys):
    assert main(["saddle", "--params", str(tmp_path / "nope.params")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_saddle_integer_beyond_the_float_range_exits_2(tmp_path, capsys):
    """A literal longer than int() reads (sys.get_int_max_str_digits())
    exits 2 too, naming that limit."""
    for g1, err in (
        (str(10**400), "g1 must be nonnegative, got a number too large for a float"),
        ("9" * 5000, f"line 1: value for 'g1' has more than {sys.get_int_max_str_digits()} digits"),
    ):
        path = write_kv(tmp_path / "p.params", g1=g1, d1=1, g2=1, d2=1, n1=0, n2=0)
        assert main(["saddle", "--params", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"


def test_integer_longer_than_int_reads_is_refused_at_once():
    """Converting such a literal another way takes quadratic time: about
    0.4 s at 10^5 digits and 30 s at 10^6."""
    with pytest.raises(ValidationError, match=r"^line 2: value for 'seed' has more than \d+ digits$"):
        parse_kv_text("steps = 1\nseed = " + "7" * 10**5)


def test_saddle_malformed_params_exits_2(tmp_path, capsys):
    path = tmp_path / "p.params"
    path.write_text("g1: 1.5\n", encoding="utf-8")
    assert main(["saddle", "--params", str(path)]) == 2


# ------------------------------------------------------------- equilibria


def test_equilibria_prints_table(params_file, capsys):
    assert main(["equilibria", "--params", str(params_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["x", "y", "det", "trace", "class"]
    classes = [line.split()[-1] for line in lines[1:6]]
    assert classes == ["unstable", "stable", "stable", "unstable", "saddle"]


def test_equilibria_writes_csv(params_file, tmp_path, capsys):
    out = tmp_path / "eq.csv"
    assert main(["equilibria", "--params", str(params_file), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    assert lines[0] == "x,y,det,trace,class"
    assert "wrote 5 equilibria" in capsys.readouterr().out


def test_equilibria_overflowing_jacobian_exits_2(tmp_path, capsys):
    """A Jacobian whose determinant overflows exits 2 with one error
    line; it used to exit 0 with a RuntimeWarning and an inf det."""
    params = write_kv(tmp_path / "big.params", g1=1e300, d1=0, g2=1.7e308, d2=0,
                      n1=-1.7e308, n2=-1.7e308)
    out = tmp_path / "eq.csv"
    assert main(["equilibria", "--params", str(params), "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: Jacobian at (0.0, 0.0) overflows: det inf, trace 1.70000001e+308\n"
    )
    assert captured.out == ""
    assert not out.exists()


def test_equilibria_accepts_the_saddle_it_prints(tmp_path, capsys):
    """equilibria classifies the saddle that saddle prints in a game with
    payoffs of 1e9; it used to exit 2, calling the point's field of
    -3.05e-07 too large for a fixed point."""
    params = write_kv(tmp_path / "big.params", g1=1e9, d1=4e9, g2=7e9, d2=7e9,
                      n1=7e9, n2=7e9)
    assert main(["saddle", "--params", str(params)]) == 0
    assert main(["equilibria", "--params", str(params)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("x_star = 0.2\ny_star = 0.56\n")
    saddle = out.splitlines()[-1].split()
    assert saddle[:2] == ["0.200000", "0.560000"] and saddle[-1] == "saddle"


#: The fixture's payoffs as decimal strings, so that a scaled copy reads
#: as the exact decimal, not as a rounded product.
FIXTURE_PAYOFFS = dict(g1="1.5", d1="1", g2="1", d2="1.5", n1="0.5", n2="0.5")


def scaled_fixture(tmp_path, k):
    """The fixture game with every payoff times 10**k."""
    return write_kv(tmp_path / f"scaled{k}.params",
                    **{name: f"{v}e{k}" for name, v in FIXTURE_PAYOFFS.items()})


def saddle_and_classes(params, capsys):
    """The exit codes of saddle and equilibria on params, and the classes
    equilibria lists."""
    saddle = main(["saddle", "--params", str(params)])
    capsys.readouterr()
    equilibria = main(["equilibria", "--params", str(params)])
    classes = [line.split()[-1] for line in capsys.readouterr().out.splitlines()[1:]]
    return saddle, equilibria, classes


def test_fixture_scaled_by_1e_11_keeps_its_saddle_and_classes(tmp_path, capsys):
    """The fixture times 1e-11 has the fixture's saddle and classes: a
    common payoff factor only rescales the field's time.  saddle used to
    exit 3 (zero denominator), and equilibria listed four degenerate
    corners, as every zero test was absolute."""
    params = scaled_fixture(tmp_path, -11)
    assert main(["saddle", "--params", str(params)]) == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        assert abs(float(line.split(" = ")[1]) - 5.0 / 6.0) <= 2 * math.ulp(5.0 / 6.0)
    assert saddle_and_classes(params, capsys) == (
        0, 0, ["unstable", "stable", "stable", "unstable", "saddle"])


@pytest.mark.parametrize("k", [-12, -6, 3, 9, 12])
def test_fixture_scaled_by_a_power_of_ten_answers_as_the_fixture(params_file, tmp_path, capsys, k):
    """Every zero test is relative to the field's scale, so the fixture
    times 10**k exits and classifies as the fixture does; at 1e-12 and
    1e-6 it used to call every point degenerate."""
    want = saddle_and_classes(params_file, capsys)
    assert want == (0, 0, ["unstable", "stable", "stable", "unstable", "saddle"])
    assert saddle_and_classes(scaled_fixture(tmp_path, k), capsys) == want


@pytest.mark.parametrize("k", [-162, -163, -165, -170])
def test_fixture_scaled_where_det_underflows_keeps_its_classes(params_file, tmp_path, capsys,
                                                               k):
    """det ~ s**2 underflows at these factors, so equilibria used to list
    four or five degenerate points; classify reads det and trace of the
    Jacobian divided by the field's scale, which no factor changes, and
    lists the fixture's classes.  The CSV keeps the unscaled det and
    trace."""
    want = saddle_and_classes(params_file, capsys)
    params = scaled_fixture(tmp_path, k)
    assert saddle_and_classes(params, capsys) == want
    out = tmp_path / "eq.csv"
    assert main(["equilibria", "--params", str(params), "--output", str(out)]) == 0
    game = PayoffParams(**{name: float(f"{v}e{k}") for name, v in FIXTURE_PAYOFFS.items()})
    for row in list(csv.reader(out.read_text().splitlines()))[1:]:
        j = jacobian(game, (float(row[0]), float(row[1])))
        assert [float(row[2]), float(row[3])] == [float(np.linalg.det(j)), float(np.trace(j))]


# ---------------------------------------------------------------- metrics


def test_metrics_output_rows_exact(data_dir, tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    code = main(
        ["metrics", "--input", str(data_dir / "benchmark_small.csv"),
         "--output", str(out)]
    )
    assert code == 0
    assert "wrote 9 metric rows" in capsys.readouterr().out
    expected_rows = [
        ("D", "BT", "C10", "C10", 1.0 / (99.37 - 83.0)),
        ("G", "BT", "C10", "S10", 1.0 / (99.6 - 73.1)),
        ("D", "BT", "S10", "S10", 1.0 / (99.6 - 85.5)),
        ("G", "SIM", "C10", "S10", 1.0 / (99.6 - 64.8)),
        ("D", "SIM", "C10", "C10", 1.0 / (99.37 - 74.4)),
        ("N1", "SIM+BT", "C10", "S10", 99.6 - 72.5),
        ("N2", "SIM+BT", "C10", "S10", 64.8 - 72.5),
        ("N1", "SIM+BT", "C10", "C10", 99.37 - 79.0),
        ("N2", "SIM+BT", "C10", "C10", 74.4 - 79.0),
    ]
    expected = "metric,method,pretrain,eval,value\n" + "".join(
        f"{m},{meth},{p},{e},{v!r}\n" for m, meth, p, e, v in expected_rows
    )
    assert out.read_text() == expected


def test_metrics_comma_in_method_reads_back_as_five_fields(tmp_path, capsys):
    table = tmp_path / "bench.csv"
    table.write_text(
        "method,pretrain,eval,accuracy\n"
        "SL,C10,C10,99.0\n"
        '"M,X",C10,C10,80.0\n',
        encoding="utf-8",
    )
    out = tmp_path / "metrics.csv"
    assert main(["metrics", "--input", str(table), "--output", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[1:] == [["D", "M,X", "C10", "C10", repr(1.0 / (99.0 - 80.0))]]


def test_metrics_prints_a_warning_on_one_line(tmp_path, capsys):
    """A clamped gap printed Python's two-line warning format, with the
    package's file path and source line."""
    table = tmp_path / "bench.csv"
    table.write_text("method,pretrain,eval,accuracy\nSL,A,A,99\nX,A,A,99\n", encoding="utf-8")
    out = tmp_path / "m.csv"
    assert main(["metrics", "--input", str(table), "--output", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"wrote 1 metric rows to {out}\n"
    assert captured.err == "warning: discriminability: accuracy gap 0 below floor 0.1; clamping\n"
    assert out.read_bytes() == b"metric,method,pretrain,eval,value\nD,X,A,A,10.0\n"


def test_metrics_prints_each_clamped_gap(tmp_path, capsys):
    """Two rows clamped to the same gap print two lines; Python's default
    filter showed a message from one source line once, so one was lost."""
    table = tmp_path / "bench.csv"
    table.write_text("method,pretrain,eval,accuracy\nSL,A,A,90.0\nSL,B,B,90.0\n"
                     "M,A,A,90.0\nM,A,B,80.0\nN,A,A,90.0\nN,A,B,80.0\n", encoding="utf-8")
    out = tmp_path / "m.csv"
    assert main(["metrics", "--input", str(table), "--output", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"wrote 4 metric rows to {out}\n"
    assert captured.err == 2 * "warning: discriminability: accuracy gap 0 below floor 0.1; clamping\n"


@pytest.mark.parametrize(
    "command,flag",
    [("metrics", "--input"), ("saddle", "--params"), ("train", "--config")],
)
def test_non_utf8_input_file_exits_2(tmp_path, capsys, command, flag):
    bad = tmp_path / "input.txt"
    bad.write_bytes(b"steps = 1\xff\n")
    argv = [command, flag, str(bad)]
    if command != "saddle":
        argv += ["--output" if command == "metrics" else "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and err.count("\n") == 1


def test_metrics_ignores_spaces_around_the_plus_of_an_ensemble(tmp_path, capsys):
    """load_benchmark strips each field but kept the spaces inside one,
    so "SIM + BT" named the member "SIM " and its N2 rows were lost."""
    table = tmp_path / "bench.csv"
    table.write_text("method,pretrain,eval,accuracy\nSL,C,C,99\nSL,S,S,98\nSIM,C,C,70\n"
                     "SIM,C,S,60\nSIM + BT,C,S,65\nSIM + BT,C,C,75\n", encoding="utf-8")
    out = tmp_path / "m.csv"
    assert main(["metrics", "--input", str(table), "--output", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 6 metric rows to {out}\n"
    rows = out.read_text(encoding="utf-8").splitlines()
    assert [row for row in rows if row.startswith("N2,")] == [
        "N2,SIM + BT,C,S,-5.0", "N2,SIM + BT,C,C,-5.0"]


def test_metrics_bad_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("method,pretrain\n", encoding="utf-8")
    assert main(["metrics", "--input", str(bad), "--output", str(tmp_path / "o")]) == 2
    assert "header" in capsys.readouterr().err


def test_metrics_oversized_field_exits_2(tmp_path, capsys):
    """A field over the csv module's size limit is a parse error with its
    line number; it used to escape as a csv.Error traceback."""
    bad = tmp_path / "bench.csv"
    bad.write_text("method,pretrain,eval,accuracy\nSL,C10,C10,99.0\n"
                   f"BT,{'C' * 131073},C10,80.0\n", encoding="utf-8")
    assert main(["metrics", "--input", str(bad), "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 3: field larger than field limit (131072)\n"


# --------------------------------------------------------------- simulate


def test_simulate_random_starts(params_file, tmp_path, capsys):
    out = tmp_path / "paths.csv"
    code = main(
        ["simulate", "--params", str(params_file), "--starts", "12",
         "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "wrote 12 trajectories" in stdout
    assert "unconverged: 0" in stdout
    assert "stopped at step budget" not in stdout
    assert "basin (0, 1):" in stdout or "basin (1, 0):" in stdout
    first = out.read_bytes()
    # identical seed, identical bytes
    assert main(
        ["simulate", "--params", str(params_file), "--starts", "12",
         "--seed", "3", "--out", str(out)]
    ) == 0
    assert out.read_bytes() == first


def test_simulate_csv_digest_is_pinned(params_file, tmp_path):
    """The 100-start file, batched integration included, keeps its bytes.
    The integrator does its arithmetic on Python floats, so the digest does
    not depend on the BLAS build."""
    out = tmp_path / "paths.csv"
    assert main(
        ["simulate", "--params", str(params_file), "--starts", "100",
         "--seed", "7", "--out", str(out)]
    ) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "f969836e1b3e93bb2277bf3d73c4eb95f7571ce0961c631d2bff61d182ef47f0"
    )


def test_simulate_starts_file(params_file, tmp_path, capsys):
    starts = tmp_path / "starts.txt"
    starts.write_text("# two starts\n0.2,0.9\n0.9,0.2\n", encoding="utf-8")
    out = tmp_path / "paths.csv"
    code = main(
        ["simulate", "--params", str(params_file),
         "--starts-file", str(starts), "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "basin (0, 1): 1" in stdout
    assert "basin (1, 0): 1" in stdout


@pytest.mark.parametrize(
    "content", ["0.2;0.9\n", "0.2,banana\n", "", "1.5,0.5\n", b"0.2,0.9\xff\n"]
)
def test_simulate_bad_starts_file_exits_2(params_file, tmp_path, content, capsys):
    starts = tmp_path / "starts.txt"
    if isinstance(content, bytes):  # not UTF-8
        starts.write_bytes(content)
    else:
        starts.write_text(content, encoding="utf-8")
    out = tmp_path / "paths.csv"
    assert main(
        ["simulate", "--params", str(params_file),
         "--starts-file", str(starts), "--out", str(out)]
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "content,message",
    [
        ("0.2,0.9\n1.5,0.5\n", "error: state (1.5, 0.5) outside the unit square\n"),
        ("nan,0.5\n", "error: state must be finite, got (nan, 0.5)\n"),
    ],
)
def test_simulate_starts_file_states_are_checked_once(
    params_file, tmp_path, capsys, content, message
):
    """The starts file reader parses x,y and leaves the unit-square check
    to phase_portrait, which reports it with the same error line."""
    starts = tmp_path / "starts.txt"
    starts.write_text(content, encoding="utf-8")
    out = tmp_path / "paths.csv"
    assert main(
        ["simulate", "--params", str(params_file),
         "--starts-file", str(starts), "--out", str(out)]
    ) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_simulate_huge_t_max_writes_default_csv(params_file, tmp_path):
    """Paths that reach a corner never touch the horizon, so a horizon of
    1e12 writes the default horizon's bytes instead of trying to allocate
    its whole sample budget up front."""
    files = []
    for extra in ([], ["--t-max", "1e12"]):
        out = tmp_path / f"paths{len(files)}.csv"
        assert main(
            ["simulate", "--params", str(params_file), "--starts", "2",
             "--out", str(out), *extra]
        ) == 0
        files.append(out.read_bytes())
    assert files[0] == files[1]


def test_simulate_reports_step_budget(tmp_path, capsys):
    params = write_kv(tmp_path / "stiff.params", g1=300, d1=200, g2=200, d2=300,
                      n1=100, n2=100)
    starts = tmp_path / "starts.txt"
    starts.write_text("0.5,0.01\n", encoding="utf-8")
    assert main(
        ["simulate", "--params", str(params), "--starts-file", str(starts),
         "--out", str(tmp_path / "o.csv"), "--dt", "0.5", "--t-max", "50"]
    ) == 0
    stdout = capsys.readouterr().out
    assert "unconverged: 1\nstopped at step budget: 1\n" in stdout


@pytest.mark.parametrize("starts", ["2", "64"])
def test_simulate_nan_state_exits_2(tmp_path, capsys, starts):
    """A path whose state turns NaN ends with one error line and no CSV;
    it used to exit 0, writing NaN rows, after running to its budget.
    The field coefficients are finite, but the RK4 stages overflow to
    NaN on the first step from any interior start, batched or not."""
    params = write_kv(tmp_path / "nan.params", g1=1e300, d1=0, g2=1.7e308, d2=0,
                      n1=-1.7e308, n2=-1.7e308)
    out = tmp_path / "o.csv"
    assert main(
        ["simulate", "--params", str(params), "--starts", starts, "--t-max", "5",
         "--out", str(out)]
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: integration from (") and " diverged at t = 0.0\n" in err
    assert err.count("\n") == 1
    assert not out.exists()


#: g2 = d2 = 1.7e308 make field coefficient a = g2 + w2 * d2 overflow.
@pytest.mark.parametrize("command, extra", [
    ("saddle", []),
    ("equilibria", []),
    ("simulate", ["--starts", "2", "--t-max", "5"]),
])
def test_overflowing_field_coefficient_exits_2(tmp_path, capsys, command, extra):
    params = write_kv(tmp_path / "inf.params", g1=1.5, d1=1.0, g2=1.7e308, d2=1.7e308,
                      n1=0.5, n2=0.5)
    out = tmp_path / "o.csv"
    if command == "simulate":
        extra = [*extra, "--out", str(out)]
    assert main([command, "--params", str(params), *extra]) == 2
    assert capsys.readouterr().err == "error: field coefficient a is not finite: inf\n"
    assert not out.exists()


def test_simulate_bad_dt_exits_2(params_file, tmp_path, capsys):
    assert main(
        ["simulate", "--params", str(params_file), "--starts", "2",
         "--out", str(tmp_path / "o.csv"), "--dt", "-0.5"]
    ) == 2
    assert "dt" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, line",
    [
        # t_max / dt overflows to inf; sizing the sample budget from it
        # used to crash with an OverflowError
        (["--dt", "1e-300", "--t-max", "1e10"],
         "error: t_max / dt must be finite, got 10000000000.0 / 1e-300"),
        # numpy refuses a negative seed; it used to crash with a traceback
        (["--seed", "-1"], "error: seed must be nonnegative, got -1"),
    ],
)
def test_simulate_bad_flag_exits_2(params_file, tmp_path, capsys, flags, line):
    out = tmp_path / "o.csv"
    argv = ["simulate", "--params", str(params_file), "--starts", "3", "--out", str(out)]
    assert main([*argv, *flags]) == 2
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "starts, line",
    [
        # sample_starts' own name for the count used to be reported
        ("0", "error: starts must be positive, got 0"),
        # numpy refuses the size before allocating; its ValueError used to
        # end in a traceback
        ("100000000000000000000", "error: out of memory: Maximum allowed dimension exceeded"),
    ],
)
def test_simulate_bad_starts_count_exits_2(params_file, tmp_path, capsys, starts, line):
    out = tmp_path / "o.csv"
    argv = ["simulate", "--params", str(params_file), "--starts", starts, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


def test_other_value_error_keeps_its_traceback(params_file, monkeypatch):
    """main turns only numpy's too-big-to-allocate ValueErrors into an
    error line; any other ValueError is a bug and propagates."""
    def broken(args):
        raise ValueError("a bug")

    monkeypatch.setitem(cli._HANDLERS, "saddle", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["saddle", "--params", str(params_file)])


# ------------------------------------------------------------------ train


def test_train_roundtrip_and_determinism(tmp_path, capsys):
    cfg = write_kv(tmp_path / "train.cfg", **TRAIN_CONFIG)
    out = tmp_path / "log.csv"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "steps = 150" in stdout
    assert "cosine_to_target = " in stdout
    weights = tmp_path / "log.csv.weights"
    assert weights.exists()
    log_bytes = out.read_bytes()
    weight_bytes = weights.read_bytes()
    assert log_bytes.startswith(b"step,alpha,beta,reward,loss_total,loss_gen,loss_dis\n")
    assert weight_bytes.startswith(b"# encoder weights 8 4\n")

    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_bytes() == log_bytes
    assert weights.read_bytes() == weight_bytes


def test_train_seed_override_changes_output(tmp_path, capsys):
    cfg = write_kv(tmp_path / "train.cfg", **TRAIN_CONFIG)
    out = tmp_path / "log.csv"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    base = out.read_bytes()
    assert main(["train", "--config", str(cfg), "--out", str(out), "--seed", "12"]) == 0
    assert out.read_bytes() != base


def test_train_config_seed_is_read_exactly(tmp_path, capsys):
    """A config value was read as a float, so seed = 2**53 + 1 trained
    with seed 2**53; an integer a float cannot hold stays an int."""
    seed = 2**53 + 1
    cfg = write_kv(tmp_path / "train.cfg", **{**TRAIN_CONFIG, "seed": seed})
    by_config, by_flag = tmp_path / "config.csv", tmp_path / "flag.csv"
    assert main(["train", "--config", str(cfg), "--out", str(by_config)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(by_flag), "--seed", str(seed)]) == 0
    assert by_config.read_bytes() == by_flag.read_bytes()
    assert main(["train", "--config", str(cfg), "--out", str(by_flag),
                 "--seed", str(seed - 1)]) == 0
    assert by_config.read_bytes() != by_flag.read_bytes()


def test_train_custom_weights_path(tmp_path, capsys):
    cfg = write_kv(tmp_path / "train.cfg", **TRAIN_CONFIG)
    weights = tmp_path / "enc.txt"
    assert main(
        ["train", "--config", str(cfg), "--out", str(tmp_path / "log.csv"),
         "--weights-out", str(weights)]
    ) == 0
    assert weights.exists()


def test_train_accepts_target_pair(tmp_path, capsys):
    cfg = write_kv(tmp_path / "train.cfg", target_x=0.8333, target_y=0.8333,
                   **TRAIN_CONFIG)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "log.csv")]) == 0


README = pathlib.Path(__file__).parent.parent / "README.md"

#: One valid value for each train config key, the keys as README.md's
#: "File formats" section lists them.
EVERY_TRAIN_KEY = dict(
    steps=3, input_dim=4, feature_dim=2, batch_size=4, noise_scale=0.2,
    learning_rate=0.02, seed=5, center=0.4, explore_weight=0.2, update_period=2,
    target_x=0.3, target_y=0.9,
)


def test_train_config_keys_are_the_readme_list():
    text = README.read_text(encoding="utf-8")
    listed = text.split("Training config:", 1)[1].split("\n\n", 1)[0]
    assert set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]*)`", listed)))) == set(
        EVERY_TRAIN_KEY
    ) == TRAIN_CONFIG_KEYS


def test_train_config_accepts_every_listed_key(tmp_path, capsys):
    cfg = write_kv(tmp_path / "train.cfg", **EVERY_TRAIN_KEY)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "log.csv")]) == 0
    assert "steps = 3" in capsys.readouterr().out


@pytest.mark.parametrize(
    "overrides,drop,line",
    [
        # target is the scheduler's field; the file spells it target_x, target_y
        ({"verbosity": 3}, None, "error: unknown config keys: ['verbosity']"),
        ({"target": 0.5}, None, "error: unknown config keys: ['target']"),
        # the stability bonus's floor and cap are the constant REWARD_CAP
        ({"prev_loss_scale": 1.0}, None, "error: unknown config keys: ['prev_loss_scale']"),
        ({"reward_cap": 100.0}, None, "error: unknown config keys: ['reward_cap']"),
        ({"denom_floor": 1e-6}, None, "error: unknown config keys: ['denom_floor']"),
        ({}, "steps", "error: config must set steps"),
        ({"target_x": 0.8}, None,
         "error: config must set both target_x and target_y or neither"),
        # the losses' temperature and epsilon stay at their defaults
        ({"temperature": 0.07}, None, "error: unknown config keys: ['temperature']"),
        ({"epsilon": 0.0051}, None, "error: unknown config keys: ['epsilon']"),
    ],
)
def test_train_config_key_error_lines(tmp_path, capsys, overrides, drop, line):
    items = {**TRAIN_CONFIG, **overrides}
    items.pop(drop, None)
    cfg = write_kv(tmp_path / "train.cfg", **items)
    out = tmp_path / "log.csv"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides,missing_steps",
    [
        ({"verbosity": 3}, False),       # unknown key
        ({}, True),                      # steps absent
        ({"steps": 2.5}, False),         # non-integer steps
        ({"target_x": 0.8}, False),      # target_y missing
        ({"update_period": 0}, False),   # invalid scheduler value
        ({"steps": float("nan")}, False),  # non-finite steps
        ({"steps": float("inf")}, False),
        ({"steps": 1e12}, False),        # records too large to allocate
        # sizes numpy refuses before allocating; its ValueError used to
        # end in a traceback
        ({"steps": 1e20}, False),
        ({"input_dim": 1e10, "feature_dim": 1e10}, False),
        ({"seed": -1}, False),           # numpy's generator raised ValueError
        ({"target_x": 1e300, "target_y": 1e300}, False),  # its norm overflowed
        ({"explore_weight": 1.7e308}, False),  # its bonus overflowed: NaN in the update
        ({"explore_weight": 1.7e308, "steps": 5}, False),  # the same: inf rewards, no update
    ],
)
def test_train_config_errors_exit_2(tmp_path, capsys, overrides, missing_steps):
    items = dict(TRAIN_CONFIG)
    items.update(overrides)
    if missing_steps:
        items.pop("steps")
    cfg = write_kv(tmp_path / "train.cfg", **items)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "log.csv")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_train_overflow_exits_2(tmp_path, capsys):
    """A learning rate so large that the features overflow stops the run
    with one error line; it used to exit 0 with frozen losses."""
    cfg = write_kv(tmp_path / "train.cfg", steps=50, input_dim=4, feature_dim=3,
                   batch_size=8, learning_rate=1e300)
    out = tmp_path / "log.csv"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged at step 1: overflow")
    assert err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------- fuzzing

FUZZ = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
NUMBERS = st.one_of(
    st.floats().map(repr),
    st.integers(min_value=-(10**30), max_value=10**30).map(str),
    st.sampled_from(["", " ", "nan", "-inf", "1e999", "-0", "0x1p-2", "1_0", "+.5", "\u0663", "0.5 0.5"]),
)


def lines_of(line):
    """Text of a few lines drawn from line, or any text at all."""
    return st.one_of(st.lists(line, max_size=8).map("\n".join), st.text(max_size=80))


def kv_lines(keys):
    """Mostly `key = value` lines with known keys, so that many files
    get past the parser, and sometimes anything else."""
    known = st.builds(lambda k, v: f"{k} = {v}", st.sampled_from(keys), NUMBERS)
    return st.one_of(
        known, known, known,
        st.builds(lambda k, v: f"{k} = {v}", st.text(max_size=8), NUMBERS),
        st.text(max_size=30),
        st.sampled_from(["#", "=", " = 1", "steps"]),
    )


def run_fuzzed(capsys, argv):
    """main(argv) exits 0, 2 or 3, with one error line when not 0 and
    only warning lines when 0."""
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    if code:
        assert err.startswith("error: ") and err.endswith("\n")
        assert len(err.splitlines()) == 1
    else:
        assert all(line.startswith("warning: ") for line in err.splitlines())


@FUZZ
@given(text=lines_of(st.one_of(
    st.builds(lambda x, y: f"{x},{y}", NUMBERS, NUMBERS),
    st.text(max_size=20),
    st.sampled_from(["#", "# 0.5,0.5", ",", "0.5,0.5,0.5", "0.5,0.5"]),
)))
def test_simulate_starts_file_fuzz(params_file, tmp_path, capsys, text):
    starts = tmp_path / "starts.txt"
    starts.write_text(text, encoding="utf-8")
    run_fuzzed(capsys, ["simulate", "--params", str(params_file), "--starts-file", str(starts),
                        "--out", str(tmp_path / "paths.csv"), "--t-max", "1"])


@FUZZ
@given(text=lines_of(kv_lines(["g1", "d1", "g2", "d2", "n1", "n2", "w1", "w2"])))
# finite coefficients whose Jacobian determinant at (0, 0) overflows
@example(text="g1 = 1e300\nd1 = 0\ng2 = 1.7e308\nd2 = 0\nn1 = -1.7e308\nn2 = -1.7e308")
def test_saddle_params_fuzz(tmp_path, capsys, text):
    params = tmp_path / "game.params"
    params.write_text(text, encoding="utf-8")
    run_fuzzed(capsys, ["saddle", "--params", str(params)])
    run_fuzzed(capsys, ["equilibria", "--params", str(params)])


#: Float flag values: any float, written as its repr, and the values
#: that need a check of their own.
FLAG_FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, 0.0]))


def short_run(steps):
    """Whether a (dt, t_max) pair makes at most 1e3 steps a path, or so
    many that t_max / dt overflows, which the config refuses."""
    dt, t_max = steps
    return not (dt > 0.0 and 1e3 < t_max / dt < math.inf)


@FUZZ
@given(
    seed=st.integers(min_value=-(2**70), max_value=2**70),
    starts=st.integers(min_value=-1, max_value=4),
    steps=st.one_of(
        st.just((1e-300, 1e10)), st.tuples(FLAG_FLOATS, FLAG_FLOATS).filter(short_run)
    ),
    stop_tol=FLAG_FLOATS,
)
def test_simulate_flags_fuzz(params_file, tmp_path, capsys, seed, starts, steps, stop_tol):
    # --flag=value, so that a value such as -1e-3 is not taken for a flag
    dt, t_max = steps
    run_fuzzed(capsys, [
        "simulate", f"--params={params_file}", f"--starts={starts}", f"--seed={seed}",
        f"--dt={dt!r}", f"--t-max={t_max!r}", f"--stop-tol={stop_tol!r}",
        f"--out={tmp_path / 'paths.csv'}",
    ])


WELL_FORMED_ROW = st.builds(
    lambda *fields: ",".join(fields),
    st.sampled_from(["BT", "SIM", "SIM+BT", "+BT", "SL+BT", '"M,X"', " BT "]),
    st.sampled_from(["C10", "S10"]),
    st.sampled_from(["C10", "S10"]),
    st.floats(min_value=0.0, max_value=100.0).map(repr),
)
BENCHMARK_ROWS = st.one_of(
    WELL_FORMED_ROW, WELL_FORMED_ROW, WELL_FORMED_ROW,
    st.builds(lambda *fields: ",".join(fields), st.text(max_size=6), st.text(max_size=4),
              st.text(max_size=4), NUMBERS),
    st.text(max_size=30),
    st.sampled_from(["SL,C10,S10,99.0", '"', '"a\nb"', "a,b,c,d,e", "C" * 131073]),
)
#: The header and a supervised reference for each dataset, so that many
#: files get past the parser.
BENCHMARK_HEAD = "method,pretrain,eval,accuracy\nSL,C10,C10,99.0\nSL,S10,S10,99.5\n"


@FUZZ
@given(text=st.one_of(
    st.lists(WELL_FORMED_ROW, max_size=8, unique_by=lambda row: row.rsplit(",", 1)[0])
    .map(lambda rows: BENCHMARK_HEAD + "\n".join(rows)),
    lines_of(BENCHMARK_ROWS).map(lambda rows: BENCHMARK_HEAD + rows),
    lines_of(BENCHMARK_ROWS),
))
# an eval name with a form feed, which once split the error message in two
@example(text=BENCHMARK_HEAD + "0,0,0\x0c0,0.0")
def test_metrics_benchmark_csv_fuzz(tmp_path, capsys, text):
    """Benchmark CSVs that parse, and ones broken anywhere from the
    header to an unclosed quote or an oversized field."""
    table = tmp_path / "bench.csv"
    table.write_text(text, encoding="utf-8")
    run_fuzzed(capsys, ["metrics", "--input", str(table), "--output", str(tmp_path / "m.csv")])


TRAIN_KEYS = [*TRAIN_CONFIG, "noise_scale", "learning_rate", "center", "explore_weight",
              "target_x", "target_y"]
SIZE_KEYS = {"steps", "input_dim", "feature_dim", "batch_size", "update_period"}


def short_run(text):
    """text without the lines that would set a size key above 16, and
    with steps = 3 when no line sets steps, so that most configs train
    and every run stays short."""
    kept, keys = [], set()
    for line in text.splitlines():
        key, _, value = line.partition("=")
        key = key.strip()
        try:
            too_big = key in SIZE_KEYS and float(value) > 16
        except ValueError:
            too_big = False
        if not too_big:
            kept.append(line)
            keys.add(key)
    if "steps" not in keys:
        kept.append("steps = 3")
    return "\n".join(kept)


@FUZZ
@given(text=lines_of(kv_lines(TRAIN_KEYS)).map(short_run))
def test_train_config_fuzz(tmp_path, capsys, text):
    config = tmp_path / "train.cfg"
    config.write_text(text, encoding="utf-8")
    run_fuzzed(capsys, ["train", "--config", str(config), "--out", str(tmp_path / "log.csv")])


# ------------------------------------------------------------------ shell


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_simulate_requires_starts_source(params_file, tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--params", str(params_file), "--out", str(tmp_path / "o")])


# The calls of test_the_cached_parser_keeps_nothing_between_calls, in
# order; each path is relative to the directory the call runs in.
PARSER_CALLS = [
    ["simulate", "--params", "game.params", "--starts", "3", "--t-max", "5",
     "--out", "a.csv", "--seed", "5"],
    ["simulate", "--params", "game.params", "--starts", "3", "--t-max", "5", "--out", "b.csv"],
    # --starts and --starts-file exclude each other: argparse exits 2
    ["simulate", "--params", "game.params", "--starts", "3", "--starts-file", "game.params",
     "--out", "c.csv"],
    ["train", "--config", "train.cfg", "--out", "log.csv"],
]


def _call_in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _call_in_a_fresh_process(argv, cwd):
    src = str(pathlib.Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from evoloss.cli import main; sys.exit(main())", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, check=False,
    )
    return done.returncode, done.stdout, done.stderr


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_the_cached_parser_keeps_nothing_between_calls(data_dir, tmp_path, capsys, monkeypatch):
    """main reuses one parser per process.  Calls made one after another
    in one process each give the exit code, output and files of the same
    call made alone in a fresh process: a --seed does not stay set, and
    an argparse error leaves nothing behind."""
    runs = {}
    for name in ("cached", "fresh"):
        run_dir = tmp_path / name
        run_dir.mkdir()
        shutil.copy(data_dir / "game_fixture.params", run_dir / "game.params")
        write_kv(run_dir / "train.cfg", **{**TRAIN_CONFIG, "steps": 60})
    monkeypatch.chdir(tmp_path / "cached")
    runs["cached"] = [_call_in_process(argv, capsys) for argv in PARSER_CALLS]
    runs["fresh"] = [_call_in_a_fresh_process(argv, tmp_path / "fresh") for argv in PARSER_CALLS]
    assert [code for code, _, _ in runs["fresh"]] == [0, 0, 2, 0]
    assert runs["cached"] == runs["fresh"]
    assert _files(tmp_path / "cached") == _files(tmp_path / "fresh")


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"], ["train", "--help"]])
def test_the_cached_parser_prints_the_help_of_a_fresh_one(argv, capsys):
    """After a call that fails has used the cached parser, its help text
    equals that of a parser built anew."""
    assert main(["saddle", "--params", "missing.params"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(argv)
    cached = capsys.readouterr().out
    with pytest.raises(SystemExit):
        cli._build_parser.__wrapped__().parse_args(argv)
    assert cached == capsys.readouterr().out
