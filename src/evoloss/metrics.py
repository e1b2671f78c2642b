"""Benchmark accuracy tables and the payoff parameters derived from them.

Accuracies are handled on the percent scale throughout (files store
percents, and the reciprocal-gap metrics below consume percents), so
computed values can be checked against published benchmark tables by
hand arithmetic.

A benchmark CSV has the exact header ``method,pretrain,eval,accuracy``.
Rows with method ``SL`` are supervised reference accuracies and must
have ``pretrain == eval``.  Rows whose method id contains ``+`` (e.g.
``SIM+BT``) are read as ensemble models, with the part before the ``+``
naming the generalizability-oriented member; all other rows are plain
self-supervised results.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

from .errors import (
    BenchmarkParseError,
    MissingRecordError,
    ValidationError,
)
from .kvfile import read_kv_file, write_kv_file

#: Smallest accuracy gap (percent points) allowed in the reciprocal metrics.
GAP_FLOOR = 0.1

_HEADER = ["method", "pretrain", "eval", "accuracy"]

SL_METHOD = "SL"


@dataclass(frozen=True)
class AccuracyRecord:
    """One benchmark measurement: a method pretrained on one dataset and
    evaluated on another (or the same) dataset, as a percent accuracy."""

    method: str
    pretrain: str
    eval: str
    accuracy: float

    def __post_init__(self):
        if not self.method or not self.pretrain or not self.eval:
            raise ValidationError("record fields must be non-empty")
        if not math.isfinite(self.accuracy):
            raise ValidationError("accuracy must be finite")
        if not 0.0 <= self.accuracy <= 100.0:
            raise ValidationError(
                f"accuracy {self.accuracy} outside [0, 100] percent"
            )


@dataclass(frozen=True)
class BenchmarkTable:
    """Parsed benchmark file: supervised references plus SSL/ensemble rows."""

    sl_accuracies: dict[str, float]
    ssl_accuracies: tuple[AccuracyRecord, ...]
    ensemble_accuracies: tuple[AccuracyRecord, ...]

    def sl_accuracy(self, dataset: str) -> float:
        try:
            return self.sl_accuracies[dataset]
        except KeyError:
            raise MissingRecordError(
                f"no supervised accuracy for dataset {dataset!r}"
            ) from None

    def accuracy(self, method: str, pretrain: str, eval: str) -> float:
        """Look up one (method, pretrain, eval) measurement."""
        if method == SL_METHOD:
            if pretrain != eval:
                raise MissingRecordError(
                    f"supervised rows are homogeneous; no ({method}, {pretrain}, {eval})"
                )
            return self.sl_accuracy(eval)
        for rec in self.ssl_accuracies + self.ensemble_accuracies:
            if (rec.method, rec.pretrain, rec.eval) == (method, pretrain, eval):
                return rec.accuracy
        raise MissingRecordError(
            f"no record for ({method!r}, {pretrain!r}, {eval!r})"
        )

    @property
    def records(self) -> tuple[AccuracyRecord, ...]:
        return self.ssl_accuracies + self.ensemble_accuracies


def is_ensemble_method(method: str) -> bool:
    return "+" in method


def _build_table(rows: list[AccuracyRecord]) -> BenchmarkTable:
    sl: dict[str, float] = {}
    ssl: list[AccuracyRecord] = []
    ens: list[AccuracyRecord] = []
    for rec in rows:
        if rec.method == SL_METHOD:
            sl[rec.eval] = rec.accuracy
        elif is_ensemble_method(rec.method):
            ens.append(rec)
        else:
            ssl.append(rec)
    for rec in ssl + ens:
        if rec.eval not in sl:
            raise ValidationError(
                f"record ({rec.method}, {rec.pretrain}, {rec.eval}) has no "
                f"supervised reference accuracy for {rec.eval!r}"
            )
    return BenchmarkTable(sl, tuple(ssl), tuple(ens))


def load_benchmark(path) -> BenchmarkTable:
    """Read a benchmark CSV into a BenchmarkTable.

    Raises BenchmarkParseError (with a line number) on structural
    problems and ValidationError on semantic ones.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                lines = list(reader)
            except csv.Error as exc:  # a field over csv's size limit
                raise BenchmarkParseError(str(exc), line=reader.line_num) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise BenchmarkParseError("empty file")
    if lines[0] != _HEADER:
        raise BenchmarkParseError(
            f"expected header {','.join(_HEADER)!r}, got {','.join(lines[0])!r}",
            line=1,
        )
    rows: list[AccuracyRecord] = []
    seen: set[tuple[str, str, str]] = set()
    for lineno, row in enumerate(lines[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise BenchmarkParseError(
                f"expected 4 fields, got {len(row)}", line=lineno
            )
        method, pretrain, eval_ds, acc_text = (field.strip() for field in row)
        try:
            acc = float(acc_text)
        except ValueError:
            raise BenchmarkParseError(
                f"accuracy is not a number: {acc_text!r}", line=lineno
            ) from None
        try:
            rec = AccuracyRecord(method, pretrain, eval_ds, acc)
        except ValidationError as exc:
            raise BenchmarkParseError(str(exc), line=lineno) from exc
        if method == SL_METHOD and pretrain != eval_ds:
            raise BenchmarkParseError(
                f"SL rows must have pretrain == eval, got {pretrain!r} != {eval_ds!r}",
                line=lineno,
            )
        key = (method, pretrain, eval_ds)
        if key in seen:
            raise BenchmarkParseError(f"duplicate record {key}", line=lineno)
        seen.add(key)
        rows.append(rec)
    return _build_table(rows)


def write_benchmark(table: BenchmarkTable, path) -> None:
    """Write a table back out in canonical form (SL rows first)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_HEADER)
        for dataset in table.sl_accuracies:
            writer.writerow(
                [SL_METHOD, dataset, dataset, repr(float(table.sl_accuracies[dataset]))]
            )
        for rec in table.records:
            writer.writerow([rec.method, rec.pretrain, rec.eval, repr(float(rec.accuracy))])


def _reciprocal_gap(reference: float, measured: float, what: str) -> float:
    for name, value in ((f"reference accuracy for {what}", reference),
                        (f"measured accuracy for {what}", measured)):
        if not math.isfinite(value) or not 0.0 <= value <= 100.0:
            raise ValidationError(f"{name} must be a percent in [0, 100], got {value}")
    gap = reference - measured
    if gap < GAP_FLOOR:
        warnings.warn(
            f"{what}: accuracy gap {gap:.6g} below floor {GAP_FLOOR}; clamping",
            RuntimeWarning,
            stacklevel=3,
        )
        gap = GAP_FLOOR
    return 1.0 / gap


def generalizability(sl_acc: float, ssl_acc: float) -> float:
    """Reciprocal transfer gap: 1 / (supervised accuracy on the transfer
    dataset minus the model's transferred accuracy), percents in, gap
    clamped below at GAP_FLOOR with a warning."""
    return _reciprocal_gap(sl_acc, ssl_acc, "generalizability")


def discriminability(sl_acc: float, ssl_acc: float) -> float:
    """Reciprocal in-domain gap, same clamping contract as
    generalizability()."""
    return _reciprocal_gap(sl_acc, ssl_acc, "discriminability")


def negative_impacts(
    table: BenchmarkTable,
    gen_method: str,
    ens_method: str,
    d: str,
    d_prime: str,
) -> tuple[float, float]:
    """Signed accuracy costs of ensembling, in percent points.

    Returns (n1, n2): n1 is the supervised reference on the transfer
    dataset minus the ensemble's transferred accuracy; n2 is the
    generalizability member's transferred accuracy minus the ensemble's.
    Either may be negative when the ensemble wins.
    """
    ens_acc = table.accuracy(ens_method, d, d_prime)
    n1 = table.sl_accuracy(d_prime) - ens_acc
    n2 = table.accuracy(gen_method, d, d_prime) - ens_acc
    return n1, n2


@dataclass(frozen=True)
class PayoffParams:
    """The eight scalars that define the two-player trade-off game.

    g1/d1 belong to the generalizability-oriented model, g2/d2 to the
    discriminability-oriented one; n1/n2 are the (signed) ensembling
    costs; w1/w2 weight how much each player values the other's axis.
    """

    g1: float
    d1: float
    g2: float
    d2: float
    n1: float
    n2: float
    w1: float = 1.0
    w2: float = 1.0

    def __post_init__(self):
        for name in ("g1", "d1", "g2", "d2", "n1", "n2", "w1", "w2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        for name in ("g1", "d1", "g2", "d2", "w1", "w2"):
            if getattr(self, name) < 0.0:
                raise ValidationError(
                    f"{name} must be nonnegative, got {getattr(self, name)}"
                )

    def astuple(self) -> tuple[float, ...]:
        return (self.g1, self.d1, self.g2, self.d2,
                self.n1, self.n2, self.w1, self.w2)


def game_datasets(table: BenchmarkTable) -> tuple[str, str]:
    """Infer the (pretrain, transfer) dataset pair of a single-game table.

    Requires every record to share one pretrain dataset and exactly one
    eval dataset different from it.
    """
    if not table.records:
        raise ValidationError("table has no SSL or ensemble records")
    pretrains = {rec.pretrain for rec in table.records}
    if len(pretrains) != 1:
        raise ValidationError(
            f"ambiguous pretrain dataset: {sorted(pretrains)}"
        )
    (pretrain,) = pretrains
    transfers = {rec.eval for rec in table.records} - {pretrain}
    if len(transfers) != 1:
        raise ValidationError(
            f"expected exactly one transfer dataset, found {sorted(transfers)}"
        )
    (transfer,) = transfers
    return pretrain, transfer


def table_payoffs(
    table: BenchmarkTable,
    gen_method: str,
    dis_method: str,
    ens_method: str,
) -> tuple[float, float, float, float, float, float]:
    """One (g1, d1, g2, d2, n1, n2) measurement from a benchmark table."""
    d, d_prime = game_datasets(table)
    sl_home = table.sl_accuracy(d)
    sl_away = table.sl_accuracy(d_prime)
    g1 = generalizability(sl_away, table.accuracy(gen_method, d, d_prime))
    d1 = discriminability(sl_home, table.accuracy(gen_method, d, d))
    g2 = generalizability(sl_away, table.accuracy(dis_method, d, d_prime))
    d2 = discriminability(sl_home, table.accuracy(dis_method, d, d))
    n1, n2 = negative_impacts(table, gen_method, ens_method, d, d_prime)
    return g1, d1, g2, d2, n1, n2


def payoff_from_benchmarks(
    tables,
    w1: float,
    w2: float,
    gen_method: str,
    dis_method: str,
    ens_method: str,
) -> PayoffParams:
    """Average per-table payoff measurements into one PayoffParams."""
    tables = list(tables)
    if not tables:
        raise ValidationError("need at least one benchmark table")
    sums = [0.0] * 6
    for table in tables:
        for i, value in enumerate(table_payoffs(table, gen_method, dis_method, ens_method)):
            sums[i] += value
    n = len(tables)
    g1, d1, g2, d2, n1, n2 = (s / n for s in sums)
    return PayoffParams(g1, d1, g2, d2, n1, n2, w1, w2)


_PARAM_KEYS = ("g1", "d1", "g2", "d2", "n1", "n2", "w1", "w2")


def load_payoff_params(path) -> PayoffParams:
    """Read PayoffParams from a `key = value` file; w1/w2 default to 1."""
    data = read_kv_file(path)
    unknown = set(data) - set(_PARAM_KEYS)
    if unknown:
        raise ValidationError(f"unknown params keys: {sorted(unknown)}")
    missing = {"g1", "d1", "g2", "d2", "n1", "n2"} - set(data)
    if missing:
        raise ValidationError(f"missing params keys: {sorted(missing)}")
    data.setdefault("w1", 1.0)
    data.setdefault("w2", 1.0)
    return PayoffParams(**data)


def save_payoff_params(params: PayoffParams, path) -> None:
    write_kv_file(path, dict(zip(_PARAM_KEYS, params.astuple())))
