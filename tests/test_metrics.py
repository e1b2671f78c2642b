"""Benchmark parsing and the reciprocal-gap payoff metrics."""

import hashlib
import math
import warnings

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
    negative_impacts,
    payoff_from_benchmarks,
    save_payoff_params,
    table_payoffs,
    write_benchmark,
)
from evoloss.metrics import GAP_FLOOR


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
    ssl = (
        AccuracyRecord("SIM", "C10", "C10", gen_home),
        AccuracyRecord("SIM", "C10", "S10", gen_away),
        AccuracyRecord("BT", "C10", "C10", dis_home),
        AccuracyRecord("BT", "C10", "S10", dis_away),
    )
    ens = (
        AccuracyRecord("SIM+BT", "C10", "C10", ens_home),
        AccuracyRecord("SIM+BT", "C10", "S10", ens_away),
    )
    return BenchmarkTable({"C10": sl_home, "S10": sl_away}, ssl, ens)


# ---------------------------------------------------------------- parsing


def test_load_benchmark_fixture(data_dir):
    table = load_benchmark(data_dir / "benchmark_small.csv")
    assert table.sl_accuracy("S10") == 99.6
    assert table.sl_accuracy("C10") == 99.37
    assert table.accuracy("BT", "C10", "S10") == 73.1
    assert table.accuracy("SIM+BT", "C10", "C10") == 79.0
    assert table.accuracy("SL", "C10", "C10") == 99.37
    assert len(table.ssl_accuracies) == 5
    assert len(table.ensemble_accuracies) == 2
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
    with pytest.raises(ValidationError, match="no\\s+supervised reference"):
        load_benchmark(_write(tmp_path, text))


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


def test_negative_impacts_frozen():
    table = make_table()
    n1, n2 = negative_impacts(table, "SIM", "SIM+BT", "C10", "S10")
    assert n1 == 99.6 - 72.5
    assert n2 == 64.8 - 72.5
    assert n2 < 0.0  # the ensemble transfers better than its member here


def test_game_datasets_inference():
    assert game_datasets(make_table()) == ("C10", "S10")


def test_game_datasets_rejects_ambiguity():
    table = make_table()
    extra = table.ssl_accuracies + (AccuracyRecord("BT", "S10", "S10", 85.5),)
    mixed = BenchmarkTable(table.sl_accuracies, extra, table.ensemble_accuracies)
    with pytest.raises(ValidationError, match="ambiguous"):
        game_datasets(mixed)
    empty = BenchmarkTable(table.sl_accuracies, (), ())
    with pytest.raises(ValidationError, match="no SSL"):
        game_datasets(empty)


def test_table_payoffs_frozen():
    g1, d1, g2, d2, n1, n2 = table_payoffs(make_table(), "SIM", "BT", "SIM+BT")
    assert g1 == 1.0 / (99.6 - 64.8)
    assert d1 == 1.0 / (99.37 - 74.4)
    assert g2 == 1.0 / (99.6 - 73.1)
    assert d2 == 1.0 / (99.37 - 83.0)
    assert n1 == 99.6 - 72.5
    assert n2 == 64.8 - 72.5


def test_payoff_from_benchmarks_single_table_is_identity():
    table = make_table()
    expected = table_payoffs(table, "SIM", "BT", "SIM+BT")
    params = payoff_from_benchmarks([table], 1.0, 1.0, "SIM", "BT", "SIM+BT")
    assert params.astuple()[:6] == expected
    assert (params.w1, params.w2) == (1.0, 1.0)


def test_payoff_from_benchmarks_idempotent_on_equal_tables():
    table = make_table()
    once = payoff_from_benchmarks([table], 1.0, 1.0, "SIM", "BT", "SIM+BT")
    twice = payoff_from_benchmarks([table, table], 1.0, 1.0, "SIM", "BT", "SIM+BT")
    assert once == twice  # (v + v) / 2 is exact


def test_payoff_from_benchmarks_opposite_impacts_cancel():
    # swapping the member and ensemble transfer accuracies negates n2 exactly
    t1 = make_table(gen_away=64.8, ens_away=72.5)
    t2 = make_table(gen_away=72.5, ens_away=64.8)
    params = payoff_from_benchmarks([t1, t2], 1.0, 1.0, "SIM", "BT", "SIM+BT")
    assert params.n2 == 0.0


def test_payoff_from_benchmarks_permutation_invariant():
    tables = [
        make_table(),
        make_table(gen_away=61.2, dis_home=85.5, ens_away=70.0),
        make_table(gen_home=70.1, dis_away=75.9, ens_home=81.3),
    ]
    base = payoff_from_benchmarks(tables, 1.2, 0.8, "SIM", "BT", "SIM+BT")
    perm = payoff_from_benchmarks(tables[::-1], 1.2, 0.8, "SIM", "BT", "SIM+BT")
    for u, v in zip(base.astuple(), perm.astuple()):
        assert math.isclose(u, v, rel_tol=1e-12, abs_tol=1e-12)


def test_payoff_from_benchmarks_needs_tables():
    with pytest.raises(ValidationError):
        payoff_from_benchmarks([], 1.0, 1.0, "SIM", "BT", "SIM+BT")


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
    assert p.astuple() == (1.0, 1.0, 1.0, 1.0, -0.5, -0.5, 1.0, 1.0)


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
