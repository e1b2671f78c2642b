"""End-to-end command line flows, run in process through main(argv)."""

import csv
import hashlib
import shutil

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from evoloss.cli import main


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


@pytest.mark.parametrize(
    "key,value,line",
    [
        ("temperature", 0, "error: temperature must be positive, got 0.0"),
        ("temperature", "nan", "error: temperature must be positive, got nan"),
        ("epsilon", -1, "error: epsilon must be nonnegative, got -1.0"),
        ("epsilon", "nan", "error: epsilon must be nonnegative, got nan"),
    ],
)
def test_train_loss_param_errors_exit_2(tmp_path, capsys, key, value, line):
    cfg = write_kv(tmp_path / "train.cfg", **TRAIN_CONFIG, **{key: value})
    out = tmp_path / "log.csv"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


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
    """main(argv) exits 0, 2 or 3, and with one error line when not 0."""
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    if code:
        assert err.startswith("error: ") and err.endswith("\n")
        assert len(err.splitlines()) == 1


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
def test_saddle_params_fuzz(tmp_path, capsys, text):
    params = tmp_path / "game.params"
    params.write_text(text, encoding="utf-8")
    run_fuzzed(capsys, ["saddle", "--params", str(params)])


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
# a gap below metrics.GAP_FLOOR is clamped with this warning and exits 0
@pytest.mark.filterwarnings("ignore:.*clamping:RuntimeWarning")
def test_metrics_benchmark_csv_fuzz(tmp_path, capsys, text):
    """Benchmark CSVs that parse, and ones broken anywhere from the
    header to an unclosed quote or an oversized field."""
    table = tmp_path / "bench.csv"
    table.write_text(text, encoding="utf-8")
    run_fuzzed(capsys, ["metrics", "--input", str(table), "--output", str(tmp_path / "m.csv")])


TRAIN_KEYS = [*TRAIN_CONFIG, "noise_scale", "learning_rate", "center", "explore_weight",
              "prev_loss_scale", "reward_cap", "denom_floor", "target_x", "target_y",
              "temperature", "epsilon"]
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
