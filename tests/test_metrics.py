"""Benchmark parsing and the reciprocal-gap payoff metrics."""

import _pyio
import builtins
import dataclasses
import hashlib
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from evoloss import (
    AccuracyRecord,
    BenchmarkParseError,
    BenchmarkTable,
    MissingRecordError,
    PayoffParams,
    ValidationError,
    discriminability,
    game_datasets,
    generalizability,
    is_ensemble_method,
    load_benchmark,
    load_payoff_params,
    payoff_from_benchmarks,
    save_encoder_weights,
    save_payoff_params,
    table_payoffs,
    write_benchmark,
)
from evoloss.cli import main
from evoloss.metrics import GAP_FLOOR, metric_rows


def make_table(
    gen_home=74.4,
    gen_away=64.8,
    dis_home=83.0,
    dis_away=73.1,
    ens_home=79.0,
    ens_away=72.5,
    sl_home=99.37,
    sl_away=99.6,
):
    """Single-game table: pretrain C10, transfer S10, methods SIM/BT/SIM+BT."""
    return BenchmarkTable({
        ("SL", "C10", "C10"): sl_home,
        ("SL", "S10", "S10"): sl_away,
        ("SIM", "C10", "C10"): gen_home,
        ("SIM", "C10", "S10"): gen_away,
        ("BT", "C10", "C10"): dis_home,
        ("BT", "C10", "S10"): dis_away,
        ("SIM+BT", "C10", "C10"): ens_home,
        ("SIM+BT", "C10", "S10"): ens_away,
    })


# ---------------------------------------------------------------- parsing


def test_load_benchmark_fixture(data_dir):
    table = load_benchmark(data_dir / "benchmark_small.csv")
    assert table.sl_accuracy("S10") == 99.6
    assert table.sl_accuracy("C10") == 99.37
    assert table.accuracy("BT", "C10", "S10") == 73.1
    assert table.accuracy("SIM+BT", "C10", "C10") == 79.0
    assert table.accuracy("SL", "C10", "C10") == 99.37
    assert sum(not is_ensemble_method(rec.method) for rec in table.records) == 5
    assert sum(is_ensemble_method(rec.method) for rec in table.records) == 2
    assert len(table.records) == 7


def test_load_benchmark_roundtrips_bitexact(data_dir, tmp_path):
    """write_benchmark(load_benchmark(f)) reproduces a canonical file."""
    src = data_dir / "benchmark_small.csv"
    out = tmp_path / "copy.csv"
    write_benchmark(load_benchmark(src), out)
    assert out.read_bytes() == src.read_bytes()


def test_write_benchmark_is_fixed_point(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_benchmark(make_table(), first)
    write_benchmark(load_benchmark(first), second)
    assert first.read_bytes() == second.read_bytes()


def write_generated_benchmark(path, seed, shuffle=False):
    """A 78-row table: supervised references on six datasets, then four
    SSL methods and two ensembles, each pretrained on two datasets and
    evaluated on all six; shuffle mixes the kinds of row."""
    rng = np.random.default_rng(seed)
    datasets = [f"D{i}" for i in range(6)]
    rows = [("SL", d, d, rng.uniform(97.0, 99.9)) for d in datasets]
    for method in ("M0", "M1", "M2", "M3", "M0+M1", "M2+M3"):
        for pretrain in datasets[:2]:
            for eval_ds in datasets:
                rows.append((method, pretrain, eval_ds, rng.uniform(40.0, 92.0)))
    if shuffle:
        rows = [rows[i] for i in rng.permutation(len(rows))]
    path.write_text("method,pretrain,eval,accuracy\n" + "".join(
        f"{m},{p},{e},{round(float(acc), 2)!r}\n" for m, p, e, acc in rows
    ), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "table,metrics_digest,table_digest",
    [
        ("fixture",
         "ff9de16d6be7977550c07cb4ca1bd887a50a9fbf60c4607106fc98df7f5a90d1",
         "19b81dbf8332f34f2dbba8de9182d1d40e38661981eb72c2b54946f6eaafbabc"),
        ("generated",
         "fd0738c84381ad84f07b1bdbfc29114692daff7b12886a5aad46a2ff04216f2c",
         "20973307f5f74f515a7cbcc927c7fe718f33cbddf5fefd4f301f2be7957d15de"),
        ("shuffled",
         "ef7a0295bd8fc4a15355751ad4d775c8bced1b7a41359ec9c721e97a6fcd1b56",
         "c9bc697f9f2f17eae7dbac30273f6a36fac2e4ad3065b0674ce3336477cb0aa6"),
    ],
)
def test_metrics_and_write_benchmark_bytes_are_pinned(
    data_dir, tmp_path, capsys, table, metrics_digest, table_digest
):
    """`evoloss metrics` and write_benchmark(load_benchmark(f)) keep their
    bytes, row order included.  The arithmetic is Python floats and repr,
    so the digests do not depend on the BLAS build or the CPU."""
    if table == "fixture":
        src = data_dir / "benchmark_small.csv"
    else:
        src = write_generated_benchmark(tmp_path / "in.csv", 15, table == "shuffled")
    out = tmp_path / "metrics.csv"
    assert main(["metrics", "--input", str(src), "--output", str(out)]) == 0
    capsys.readouterr()
    copy = tmp_path / "copy.csv"
    write_benchmark(load_benchmark(src), copy)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == metrics_digest
    assert hashlib.sha256(copy.read_bytes()).hexdigest() == table_digest


def test_table_writer_quoting_is_pinned(tmp_path, capsys):
    """A method name holding a comma and a dataset name holding a comma
    and a quote are quoted as csv.writer quotes them, in the benchmark
    table and in the metric rows, and read back as they were."""
    src = _write(tmp_path, 'method,pretrain,eval,accuracy\n"M,1",a,"b,""x",70.0\n'
                 'SL,"b,""x","b,""x",98.0\n"M,1",a,a,80.0\nSL,a,a,99.0\n')
    table = load_benchmark(src)
    copy = tmp_path / "copy.csv"
    write_benchmark(table, copy)
    assert copy.read_text(encoding="utf-8").splitlines()[1] == 'SL,"b,""x","b,""x",98.0'
    assert hashlib.sha256(copy.read_bytes()).hexdigest() == (
        "228a0d91915822cd5f1cb3198eceecdbf93112b08bff716cc53097f1d03f3bd9"
    )
    assert load_benchmark(copy).accuracies == table.accuracies
    out = tmp_path / "metrics.csv"
    assert main(["metrics", "--input", str(copy), "--output", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text(encoding="utf-8").splitlines()[1] == (
        'G,"M,1",a,"b,""x",0.03571428571428571'
    )
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "95934ff8a8a6fad0b290fd6524cdd92adae4617b783c4b1a3507eec0e55a05b8"
    )


def _write(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_benchmark_empty_file(tmp_path):
    with pytest.raises(BenchmarkParseError, match="empty"):
        load_benchmark(_write(tmp_path, ""))


def test_load_benchmark_bad_header(tmp_path):
    with pytest.raises(BenchmarkParseError, match="header") as exc:
        load_benchmark(_write(tmp_path, "method,eval,accuracy\n"))
    assert exc.value.line == 1


def test_load_benchmark_wrong_field_count(tmp_path):
    text = "method,pretrain,eval,accuracy\nBT,C10,83.0\n"
    with pytest.raises(BenchmarkParseError, match="4 fields") as exc:
        load_benchmark(_write(tmp_path, text))
    assert exc.value.line == 2


def test_load_benchmark_non_numeric_accuracy(tmp_path):
    text = "method,pretrain,eval,accuracy\nSL,C10,C10,high\n"
    with pytest.raises(BenchmarkParseError, match="not a number"):
        load_benchmark(_write(tmp_path, text))


def test_load_benchmark_accuracy_out_of_range(tmp_path):
    text = "method,pretrain,eval,accuracy\nSL,C10,C10,120.0\n"
    with pytest.raises(BenchmarkParseError, match=r"\[0, 100\]") as exc:
        load_benchmark(_write(tmp_path, text))
    assert exc.value.line == 2


def test_load_benchmark_duplicate_row(tmp_path):
    text = (
        "method,pretrain,eval,accuracy\n"
        "SL,C10,C10,99.0\n"
        "BT,C10,C10,83.0\n"
        "BT,C10,C10,84.0\n"
    )
    with pytest.raises(BenchmarkParseError, match="duplicate") as exc:
        load_benchmark(_write(tmp_path, text))
    assert exc.value.line == 4


def test_load_benchmark_heterogeneous_sl_row(tmp_path):
    text = "method,pretrain,eval,accuracy\nSL,C10,S10,99.0\n"
    with pytest.raises(BenchmarkParseError, match="pretrain == eval"):
        load_benchmark(_write(tmp_path, text))


def test_load_benchmark_missing_sl_reference(tmp_path):
    text = "method,pretrain,eval,accuracy\nSL,C10,C10,99.0\nBT,C10,S10,73.1\n"
    with pytest.raises(ValidationError, match="no\\s+supervised reference") as exc:
        load_benchmark(_write(tmp_path, text))
    assert exc.value.line == 3


@pytest.mark.parametrize(
    "last_row,message",
    [
        ("M,A,A,abc", "not a number"),
        ("SL,A,A,80.0", "duplicate"),
        ("M,A,C,80.0", "no\\s+supervised reference"),
    ],
)
def test_load_benchmark_numbers_rows_after_a_multi_line_field(tmp_path, last_row, message):
    """A row's line is the one it starts on; rows after a quoted field
    that spans two lines were numbered one line early."""
    text = f'method,pretrain,eval,accuracy\nSL,A,A,90.0\n"M\nX",A,A,85.0\n{last_row}\n'
    with pytest.raises(ValidationError, match=message) as exc:
        load_benchmark(_write(tmp_path, text))
    assert exc.value.line == 5


def test_load_benchmark_skips_blank_lines(tmp_path):
    text = "method,pretrain,eval,accuracy\n\nSL,C10,C10,99.0\n\nBT,C10,C10,83.0\n"
    table = load_benchmark(_write(tmp_path, text))
    assert table.accuracy("BT", "C10", "C10") == 83.0


def test_load_benchmark_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        load_benchmark(tmp_path / "nope.csv")


def test_table_lookup_errors():
    table = make_table()
    with pytest.raises(MissingRecordError):
        table.sl_accuracy("IMAGENET")
    with pytest.raises(MissingRecordError):
        table.accuracy("BT", "S10", "C10")
    with pytest.raises(MissingRecordError):
        table.accuracy("SL", "C10", "S10")


@pytest.mark.parametrize(
    "accuracies,message",
    [
        ({("SL", "C10", "S10"): 99.0, ("BT", "C10", "S10"): 150.0}, "pretrain == eval"),
        pytest.param({("SL", "S10", "S10"): 99.0, ("BT", "C10", "S10"): 150.0},
                     r"^accuracy must be a percent in \[0, 100\], got 150\.0$", id="percent-150"),
        pytest.param({("SL", "S10", "S10"): 99.0, ("BT", "C10", "S10"): math.nan},
                     r"^accuracy must be a percent in \[0, 100\], got nan$", id="percent-nan"),
        ({("SL", "S10", "S10"): 99.0, ("BT", "C10", "S10"): np.complex128(70 + 1j)},
         "accuracy must be a real number"),
        ({("SL", "S10", "S10"): 99.0, ("BT", "C10", "S10"): "73.1"},
         "accuracy must be a real number"),
        ({("SL", "S10", "S10"): 99.0, ("BT", "", "S10"): 73.1}, "non-empty strings"),
        ({("SL", "S10", "S10"): 99.0, ("BT", 10, "S10"): 73.1}, "non-empty strings"),
        ({("SL", "S10", "S10"): 99.0, ("BT", "C10"): 73.1}, "triple"),
        ({"BT,C10,S10": 73.1}, "triple"),
        ({("SL", "S10", "S10"): 99.0, ("BT", "C10", "C10"): 73.1}, "no supervised reference"),
        # a bare TypeError from dict()
        (5, "^accuracies must be a mapping, got 5$"),
        (None, "^accuracies must be a mapping, got None$"),
    ],
)
def test_benchmark_table_checks_its_entries(accuracies, message):
    """A table built by hand was accepted unchecked: write_benchmark wrote
    a file that load_benchmark rejected, and .records raised on every
    access."""
    with pytest.raises(ValidationError, match=message):
        BenchmarkTable(accuracies)


def test_benchmark_table_holds_a_read_only_copy():
    """The table kept the caller's dict: a write into it, or into
    .accuracies, put 150.0 past the checks and .records then raised."""
    accuracies = dict(make_table().accuracies)
    table = BenchmarkTable(accuracies)
    with pytest.raises(TypeError):
        table.accuracies[("BT", "C10", "S10")] = 150.0
    accuracies[("BT", "C10", "S10")] = 150.0
    assert table.accuracy("BT", "C10", "S10") == 73.1
    assert len(table.records) == 6


def test_accuracy_record_validation():
    with pytest.raises(ValidationError):
        AccuracyRecord("", "C10", "C10", 50.0)
    with pytest.raises(ValidationError):
        AccuracyRecord("BT", "C10", "C10", 150.0)
    with pytest.raises(ValidationError):
        AccuracyRecord("BT", "C10", "C10", math.nan)


def test_is_ensemble_method():
    assert is_ensemble_method("SIM+BT")
    assert not is_ensemble_method("BT")


# ------------------------------------------------------------ gap metrics


def test_discriminability_matches_hand_arithmetic():
    # 99.37 - 83.0 is not the double nearest to 16.37, so pin the exact
    # pipeline value and keep the hand-written literal as an approximation
    value = discriminability(99.37, 83.0)
    assert value == 1.0 / (99.37 - 83.0)
    assert math.isclose(value, 1.0 / 16.37, rel_tol=1e-14, abs_tol=0.0)


def test_generalizability_matches_hand_arithmetic():
    # here the subtraction is exact: 99.6 - 73.1 == 26.5
    assert generalizability(99.6, 73.1) == 1.0 / 26.5


def test_gap_metrics_more_values():
    assert generalizability(99.6, 64.8) == 1.0 / (99.6 - 64.8)
    assert discriminability(99.37, 74.4) == 1.0 / (99.37 - 74.4)
    assert discriminability(80.0, 79.5) == 2.0


def test_gap_clamped_at_floor_with_warning():
    with pytest.warns(RuntimeWarning, match="clamping"):
        assert discriminability(80.0, 80.0) == 1.0 / GAP_FLOOR
    with pytest.warns(RuntimeWarning, match="clamping"):
        # SSL beating SL clamps the same way instead of going negative
        assert generalizability(80.0, 90.0) == 1.0 / GAP_FLOOR


def test_gap_above_floor_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        discriminability(80.0, 79.5)


@pytest.mark.parametrize("bad", [-1.0, 100.5, math.nan, math.inf])
def test_gap_metrics_reject_non_percent(bad):
    with pytest.raises(ValidationError):
        discriminability(bad, 50.0)
    with pytest.raises(ValidationError):
        generalizability(90.0, bad)


@given(
    sl=st.floats(min_value=50.0, max_value=100.0),
    lo=st.floats(min_value=0.0, max_value=49.0),
    hi=st.floats(min_value=0.0, max_value=49.0),
)
def test_gap_metric_monotone_in_measured_accuracy(sl, lo, hi):
    """Closing the gap to the supervised reference raises the metric.

    Strict monotonicity holds over the reals; here the two measured
    accuracies must differ by more than double-precision resolution on
    the percent scale for (sl - acc) to tell them apart.
    """
    lo, hi = min(lo, hi), max(lo, hi)
    if hi - lo < 1e-9:
        return
    assert generalizability(sl, lo) < generalizability(sl, hi)


@given(
    sl_lo=st.floats(min_value=50.0, max_value=100.0),
    sl_hi=st.floats(min_value=50.0, max_value=100.0),
    ssl=st.floats(min_value=0.0, max_value=49.0),
)
def test_gap_metric_antitone_in_reference_accuracy(sl_lo, sl_hi, ssl):
    sl_lo, sl_hi = min(sl_lo, sl_hi), max(sl_lo, sl_hi)
    if sl_hi - sl_lo < 1e-9:
        return
    assert discriminability(sl_lo, ssl) > discriminability(sl_hi, ssl)


# -------------------------------------------------------- payoff assembly


def test_table_payoffs_takes_n2_from_the_named_member(data_dir):
    """N2 is the transfer accuracy of the member the ensemble id names
    minus the ensemble's, as metric_rows computes it: a separate
    generalizability method used to give a second N2 for the same record
    (0.6 from BT against metric_rows' -7.7 from SIM on the fixture's C10
    game)."""
    full = load_benchmark(data_dir / "benchmark_small.csv")
    table = BenchmarkTable({key: acc for key, acc in full.accuracies.items()
                            if key[0] == "SL" or key[1] == "C10"})
    n2 = table_payoffs(table, "BT", "SIM+BT")[5]
    assert ("N2", "SIM+BT", "C10", "S10", n2) in metric_rows(table)


def test_game_datasets_inference():
    assert game_datasets(make_table()) == ("C10", "S10")


def test_game_datasets_rejects_ambiguity():
    table = make_table()
    mixed = BenchmarkTable({**table.accuracies, ("BT", "S10", "S10"): 85.5})
    with pytest.raises(ValidationError, match="ambiguous"):
        game_datasets(mixed)
    empty = BenchmarkTable({key: acc for key, acc in table.accuracies.items()
                            if key[0] == "SL"})
    with pytest.raises(ValidationError, match="no SSL"):
        game_datasets(empty)


def test_table_payoffs_frozen():
    g1, d1, g2, d2, n1, n2 = table_payoffs(make_table(), "BT", "SIM+BT")
    assert g1 == 1.0 / (99.6 - 64.8)
    assert d1 == 1.0 / (99.37 - 74.4)
    assert g2 == 1.0 / (99.6 - 73.1)
    assert d2 == 1.0 / (99.37 - 83.0)
    assert n1 == 99.6 - 72.5
    assert n2 == 64.8 - 72.5


@pytest.mark.parametrize("dis_method,ens_method,message", [
    # an ensemble has no G or D, and a single method no N1 or N2; each
    # used to give numbers from its accuracies
    ("SIM+BT", "SIM+BT", "no G metric for ('SIM+BT', 'C10', 'S10')"),
    ("BT", "SIM", "no N1 metric for ('SIM', 'C10', 'S10')"),
])
def test_table_payoffs_needs_each_metric(dis_method, ens_method, message):
    with pytest.raises(MissingRecordError) as exc:
        table_payoffs(make_table(), dis_method, ens_method)
    assert str(exc.value) == message


def test_table_payoffs_warns_only_for_the_games_clamped_gaps():
    """A third method whose gaps clamp is not in the game, and a clamped
    gap of the game's discriminability method warns once."""
    table = make_table(dis_home=99.37)
    table = BenchmarkTable({**table.accuracies, ("MOCO", "C10", "C10"): 99.37,
                            ("MOCO", "C10", "S10"): 99.6})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        payoffs = table_payoffs(table, "BT", "SIM+BT")
    assert [str(w.message) for w in caught] == [
        "discriminability: accuracy gap 0 below floor 0.1; clamping"]
    assert payoffs[3] == 1.0 / GAP_FLOOR


def test_payoff_from_benchmarks_single_table_is_identity():
    table = make_table()
    expected = table_payoffs(table, "BT", "SIM+BT")
    params = payoff_from_benchmarks([table], 1.0, 1.0, "BT", "SIM+BT")
    assert dataclasses.astuple(params)[:6] == expected
    assert (params.w1, params.w2) == (1.0, 1.0)


def test_payoff_from_benchmarks_idempotent_on_equal_tables():
    table = make_table()
    once = payoff_from_benchmarks([table], 1.0, 1.0, "BT", "SIM+BT")
    twice = payoff_from_benchmarks([table, table], 1.0, 1.0, "BT", "SIM+BT")
    assert once == twice  # (v + v) / 2 is exact


def test_payoff_from_benchmarks_opposite_impacts_cancel():
    # swapping the member and ensemble transfer accuracies negates n2 exactly
    t1 = make_table(gen_away=64.8, ens_away=72.5)
    t2 = make_table(gen_away=72.5, ens_away=64.8)
    params = payoff_from_benchmarks([t1, t2], 1.0, 1.0, "BT", "SIM+BT")
    assert params.n2 == 0.0


def test_payoff_from_benchmarks_permutation_invariant():
    tables = [
        make_table(),
        make_table(gen_away=61.2, dis_home=85.5, ens_away=70.0),
        make_table(gen_home=70.1, dis_away=75.9, ens_home=81.3),
    ]
    base = payoff_from_benchmarks(tables, 1.2, 0.8, "BT", "SIM+BT")
    perm = payoff_from_benchmarks(tables[::-1], 1.2, 0.8, "BT", "SIM+BT")
    for u, v in zip(dataclasses.astuple(base), dataclasses.astuple(perm)):
        assert math.isclose(u, v, rel_tol=1e-12, abs_tol=1e-12)


def test_payoff_from_benchmarks_needs_tables():
    with pytest.raises(ValidationError):
        payoff_from_benchmarks([], 1.0, 1.0, "BT", "SIM+BT")


# ------------------------------------------------------------- parameters


def test_payoff_params_validation():
    with pytest.raises(ValidationError):
        PayoffParams(g1=-0.1, d1=1.0, g2=1.0, d2=1.0, n1=0.0, n2=0.0)
    with pytest.raises(ValidationError):
        PayoffParams(g1=1.0, d1=1.0, g2=1.0, d2=1.0, n1=math.nan, n2=0.0)
    with pytest.raises(ValidationError):
        PayoffParams(g1=1.0, d1=1.0, g2=1.0, d2=1.0, n1=0.0, n2=0.0, w1=-1.0)
    # impact terms may be negative (the ensemble can win)
    p = PayoffParams(g1=1.0, d1=1.0, g2=1.0, d2=1.0, n1=-0.5, n2=-0.5)
    assert dataclasses.astuple(p) == (1.0, 1.0, 1.0, 1.0, -0.5, -0.5, 1.0, 1.0)


def test_payoff_params_file_roundtrip(tmp_path):
    p = PayoffParams(1.5, 1.0, 1.0, 1.5, 0.5, -0.25, w1=1.25, w2=0.75)
    path = tmp_path / "game.params"
    save_payoff_params(p, path)
    assert load_payoff_params(path) == p


def test_save_payoff_params_bytes_are_pinned(tmp_path):
    """Key order g1 d1 g2 d2 n1 n2 w1 w2, one `key = repr` line each; a
    non-default w2 shows that the weights are written too."""
    p = PayoffParams(1.5, 1.0, 1.0, 1.5, 0.5, -0.25, w1=1.25, w2=0.75)
    path = tmp_path / "game.params"
    save_payoff_params(p, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "2eb4b5e934614abac8545ab6fb70c38989597392f31d703c578b75f2c2ce5907"
    )


def test_params_and_weights_files_get_lf_line_ends_on_a_crlf_platform(tmp_path, monkeypatch):
    """The params file and the encoder-weights file were opened without
    newline="", so on a platform whose line separator is \\r\\n they got
    CRLF line ends while every CSV got LF.  _pyio's open reads os.linesep
    when a file is opened, so patching both stands in for that platform."""
    monkeypatch.setattr(builtins, "open", _pyio.open)
    monkeypatch.setattr(os, "linesep", "\r\n")
    control = tmp_path / "control.txt"
    with open(control, "w", encoding="utf-8") as fh:
        fh.write("a\n")
    assert control.read_bytes() == b"a\r\n"
    save_payoff_params(PayoffParams(1.5, 1.0, 1.0, 1.5, 0.5, -0.25), tmp_path / "game.params")
    save_encoder_weights(np.eye(2), tmp_path / "weights.txt")
    write_benchmark(BenchmarkTable({("SL", "a", "a"): 99.0}), tmp_path / "bench.csv")
    for name in ("game.params", "weights.txt", "bench.csv"):
        data = (tmp_path / name).read_bytes()
        assert data.count(b"\n") > 1 and b"\r" not in data, name


def test_load_payoff_params_fixture(data_dir, fixture_params):
    assert load_payoff_params(data_dir / "game_fixture.params") == fixture_params


def test_load_payoff_params_defaults_weights(tmp_path):
    path = tmp_path / "p.params"
    path.write_text("g1=1\nd1=1\ng2=1\nd2=1\nn1=0\nn2=0\n", encoding="utf-8")
    p = load_payoff_params(path)
    assert (p.w1, p.w2) == (1.0, 1.0)


def test_load_payoff_params_rejects_unknown_and_missing(tmp_path):
    path = tmp_path / "p.params"
    path.write_text("g1=1\nd1=1\ng2=1\nd2=1\nn1=0\nn2=0\nzeta=3\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="unknown"):
        load_payoff_params(path)
    path.write_text("g1=1\nd1=1\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="missing"):
        load_payoff_params(path)
