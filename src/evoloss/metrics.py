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
import warnings
from collections.abc import Mapping
from dataclasses import MISSING, asdict, dataclass, fields
from types import MappingProxyType

from .errors import (
    BenchmarkParseError,
    MissingRecordError,
    ValidationError,
    _shown,
    as_float,
)
from .kvfile import read_kv_file, write_csv, write_kv_file

#: Smallest accuracy gap (percent points) allowed in the reciprocal metrics.
GAP_FLOOR = 0.1

_HEADER = ["method", "pretrain", "eval", "accuracy"]

SL_METHOD = "SL"

_PERCENT = "a percent in [0, 100]"


@dataclass(frozen=True)
class AccuracyRecord:
    """One benchmark measurement: a method pretrained on one dataset and
    evaluated on another (or the same) dataset, as a percent accuracy."""

    method: str
    pretrain: str
    eval: str
    accuracy: float

    def __post_init__(self):
        if not all(isinstance(f, str) and f for f in (self.method, self.pretrain, self.eval)):
            raise ValidationError("record fields must be non-empty strings")
        object.__setattr__(self, "accuracy", as_float("accuracy", self.accuracy, _PERCENT))
        if self.method == SL_METHOD and self.pretrain != self.eval:
            raise ValidationError(
                f"SL rows must have pretrain == eval, got {self.pretrain!r} != {self.eval!r}"
            )


class _EntryError(ValidationError):
    """A bad BenchmarkTable entry; load_benchmark reports its key's line."""

    def __init__(self, key, message):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class BenchmarkTable:
    """Parsed benchmark file: every accuracy keyed by (method, pretrain,
    eval), in file order, the supervised references under (SL, d, d).
    Each entry is a valid AccuracyRecord, and each record has the
    supervised reference of its eval dataset.  The mapping is a read-only
    copy; a changed table is BenchmarkTable({**table.accuracies, key: v})."""

    accuracies: Mapping[tuple[str, str, str], float]

    def __post_init__(self):
        if not isinstance(self.accuracies, Mapping):
            raise ValidationError(f"accuracies must be a mapping, got {_shown(self.accuracies)}")
        # a read-only copy of the floats read, so no later write can get round the checks
        accuracies = dict(self.accuracies)
        for key, accuracy in accuracies.items():
            if not (isinstance(key, tuple) and len(key) == 3):
                raise _EntryError(key, f"key must be a (method, pretrain, eval) triple, got {key!r}")
            try:
                accuracies[key] = AccuracyRecord(*key, accuracy).accuracy
            except ValidationError as exc:
                raise _EntryError(key, str(exc)) from None
            if key[0] != SL_METHOD and (SL_METHOD, key[2], key[2]) not in accuracies:
                raise _EntryError(key, f"record {key!r} has no supervised "
                                       f"reference accuracy for {key[2]!r}")
        object.__setattr__(self, "accuracies", MappingProxyType(accuracies))

    def sl_accuracy(self, dataset: str) -> float:
        try:
            return self.accuracies[SL_METHOD, dataset, dataset]
        except KeyError:
            raise MissingRecordError(
                f"no supervised accuracy for dataset {dataset!r}"
            ) from None

    def accuracy(self, method: str, pretrain: str, eval: str) -> float:
        """Look up one (method, pretrain, eval) measurement."""
        try:
            return self.accuracies[method, pretrain, eval]
        except KeyError:
            raise MissingRecordError(
                f"no record for ({method!r}, {pretrain!r}, {eval!r})"
            ) from None

    @property
    def records(self) -> tuple[AccuracyRecord, ...]:
        """The SSL records, then the ensemble records, each in file order."""
        return tuple(AccuracyRecord(*key, self.accuracies[key])
                     for key in _canonical_order(self.accuracies) if key[0] != SL_METHOD)


def is_ensemble_method(method: str) -> bool:
    return "+" in method


def ensemble_member(method: str) -> str:
    """The generalizability-oriented member an ensemble method id names:
    the part before its first ``+``, without the spaces around it."""
    return method.split("+", 1)[0].strip()


def _canonical_order(keys) -> list[tuple[str, str, str]]:
    """keys with the supervised references first, then the SSL records,
    then the ensemble records, each kind in its given order."""
    return sorted(keys, key=lambda key: 0 if key[0] == SL_METHOD
                  else 1 + is_ensemble_method(key[0]))


def load_benchmark(path) -> BenchmarkTable:
    """Read a benchmark CSV into a BenchmarkTable.

    Raises BenchmarkParseError, with the line number when there is one,
    on a malformed file or an entry BenchmarkTable rejects, and
    ValidationError when the file cannot be read.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            # each row with the line it starts on: a quoted field may
            # span lines, so a row's index is not its line number
            lines, start = [], 1
            try:
                for row in reader:
                    lines.append((start, row))
                    start = reader.line_num + 1
            except csv.Error as exc:  # a field over csv's size limit
                raise BenchmarkParseError(str(exc), line=reader.line_num) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise BenchmarkParseError("empty file")
    header = lines[0][1]
    if header != _HEADER:
        raise BenchmarkParseError(
            f"expected header {','.join(_HEADER)!r}, got {','.join(header)!r}",
            line=1,
        )
    accuracies: dict[tuple[str, str, str], float] = {}
    linenos: dict[tuple[str, str, str], int] = {}
    for lineno, row in lines[1:]:
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
        key = (method, pretrain, eval_ds)
        if key in accuracies:
            raise BenchmarkParseError(f"duplicate record {key}", line=lineno)
        accuracies[key] = acc
        linenos[key] = lineno
    try:
        return BenchmarkTable(accuracies)
    except _EntryError as exc:
        raise BenchmarkParseError(str(exc), line=linenos[exc.key]) from None


def write_benchmark(table: BenchmarkTable, path) -> None:
    """Write a table back out in canonical form (SL rows first)."""
    write_csv(path, _HEADER, (
        (*key, table.accuracies[key]) for key in _canonical_order(table.accuracies)
    ))


def _reciprocal_gap(sl_acc: float, ssl_acc: float, what: str) -> float:
    gap = as_float("sl_acc", sl_acc, _PERCENT) - as_float("ssl_acc", ssl_acc, _PERCENT)
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


def metric_rows(table: BenchmarkTable) -> list[tuple[str, str, str, str, float]]:
    """The (metric, method, pretrain, eval, value) rows a table yields.

    Each SSL record gives D (pretrain == eval) or G (a transfer); each
    ensemble record gives N1 (reference minus ensemble) and, when the
    table holds its member's accuracy on the same datasets, N2 (member
    minus ensemble), signed percent points.
    """
    rows = []
    for rec in table.records:
        key = (rec.method, rec.pretrain, rec.eval)
        ref = table.sl_accuracy(rec.eval)
        if is_ensemble_method(rec.method):
            rows.append(("N1", *key, ref - rec.accuracy))
            try:
                gen_acc = table.accuracy(ensemble_member(rec.method), rec.pretrain, rec.eval)
            except MissingRecordError:
                continue
            rows.append(("N2", *key, gen_acc - rec.accuracy))
        elif rec.pretrain == rec.eval:
            rows.append(("D", *key, discriminability(ref, rec.accuracy)))
        else:
            rows.append(("G", *key, generalizability(ref, rec.accuracy)))
    return rows


@dataclass(frozen=True)
class PayoffParams:
    """The eight floats that define the two-player trade-off game.

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
        for f in fields(self):
            rule = "finite" if f.name in ("n1", "n2") else "nonnegative"
            object.__setattr__(self, f.name, as_float(f.name, getattr(self, f.name), rule))


def game_datasets(table: BenchmarkTable) -> tuple[str, str]:
    """Infer the (pretrain, transfer) dataset pair of a single-game table.

    Requires every record to share one pretrain dataset and exactly one
    eval dataset different from it.
    """
    records = table.records
    if not records:
        raise ValidationError("table has no SSL or ensemble records")
    pretrains = {rec.pretrain for rec in records}
    if len(pretrains) != 1:
        raise ValidationError(
            f"ambiguous pretrain dataset: {sorted(pretrains)}"
        )
    (pretrain,) = pretrains
    transfers = {rec.eval for rec in records} - {pretrain}
    if len(transfers) != 1:
        raise ValidationError(
            f"expected exactly one transfer dataset, found {sorted(transfers)}"
        )
    (transfer,) = transfers
    return pretrain, transfer


def table_payoffs(
    table: BenchmarkTable,
    dis_method: str,
    ens_method: str,
) -> tuple[float, float, float, float, float, float]:
    """One (g1, d1, g2, d2, n1, n2) measurement, read off the metric_rows
    of the table's SL rows and the game's three methods: G, N1 and N2 on
    the transfer, D at home.  The member is the one ens_method names."""
    gen_method = ensemble_member(ens_method)
    d, d_prime = game_datasets(table)
    game = BenchmarkTable({key: acc for key, acc in table.accuracies.items()
                           if key[0] in (SL_METHOD, gen_method, dis_method, ens_method)})
    values = {row[:4]: row[4] for row in metric_rows(game)}
    wanted = [("G", gen_method, d, d_prime), ("D", gen_method, d, d),
              ("G", dis_method, d, d_prime), ("D", dis_method, d, d),
              ("N1", ens_method, d, d_prime), ("N2", ens_method, d, d_prime)]
    for key in wanted:
        if key not in values:
            raise MissingRecordError(f"no {key[0]} metric for {key[1:]!r}")
    return tuple(values[key] for key in wanted)


def payoff_from_benchmarks(
    tables,
    w1: float,
    w2: float,
    dis_method: str,
    ens_method: str,
) -> PayoffParams:
    """Average per-table payoff measurements into one PayoffParams."""
    tables = list(tables)
    if not tables:
        raise ValidationError("need at least one benchmark table")
    sums = [0.0] * 6
    for table in tables:
        for i, value in enumerate(table_payoffs(table, dis_method, ens_method)):
            sums[i] += value
    n = len(tables)
    g1, d1, g2, d2, n1, n2 = (s / n for s in sums)
    return PayoffParams(g1, d1, g2, d2, n1, n2, w1, w2)


def load_payoff_params(path) -> PayoffParams:
    """Read PayoffParams from a `key = value` file, one key per field;
    the fields with a default (w1, w2) may be left out."""
    data = read_kv_file(path)
    unknown = set(data) - {f.name for f in fields(PayoffParams)}
    if unknown:
        raise ValidationError(f"unknown params keys: {sorted(unknown)}")
    missing = {f.name for f in fields(PayoffParams) if f.default is MISSING} - set(data)
    if missing:
        raise ValidationError(f"missing params keys: {sorted(missing)}")
    return PayoffParams(**data)


def save_payoff_params(params: PayoffParams, path) -> None:
    write_kv_file(path, asdict(params))
