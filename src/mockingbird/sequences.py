"""Closed recurrences for the six counting sequences, b-file comparison,
and the all-methods cross-check.  The interval recurrence is the level loop
of ``series.interval_levels``, started from its two closed-form levels.

Internal values are ladder-indexed: index d refers to the upset of the
d-ladder (equivalently, degree d for the census sequences, height d for
class counts).  The conventional indexing over the lattices M(d) prepends
the M(0) value to the three poset-count sequences; the three census
sequences coincide under both indexings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal
from operator import mul
from typing import Optional

from . import series as serieslib
from .oracle import (
    MAX_CENSUS_DEGREE,
    MAX_EXACT_D,
    MAX_STREAM_D,
    oracle_extremal_census,
    oracle_poset_counts,
)

SEQUENCE_NAMES = ("sizes", "edges", "intervals", "motzkin", "min", "classes")

# Sequences that count poset data of M(d) and need the prepended M(0) term.
_POSET_SEQUENCES = {"sizes": 1, "edges": 0, "intervals": 1}

# Golden prefixes (conventional indexing), used by the cross-check.
GOLDEN_PREFIXES = {
    "sizes": [1, 1, 2, 6, 42, 1806, 3263442, 10650056950806],
    "edges": [0, 0, 1, 7, 97, 8287, 29942737, 195432804247687],
    "intervals": [1, 1, 3, 17, 371, 144513, 20932611523,
                  438176621806663544657],
    "motzkin": [1, 1, 1, 2, 4, 9, 21, 51],
    "min": [1, 1, 2, 4, 12, 34, 108, 344],
    "classes": [1, 1, 2, 10, 170, 33490, 1133870930, 1285739648704587610],
}


class SequenceError(ValueError):
    pass


def decimal_str(n: int) -> str:
    """The digits of n, through the exact decimal module, which the
    interpreter's 4,300-digit limit on int-str conversion does not cover."""
    return format(Decimal(n), "f")


@dataclass
class SequenceTable:
    name: str
    values: list[int]
    indexing: str  # "ladder" | "mockingbird"
    method: str  # "recurrence" | "series" | "oracle" | "bfile"

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "indexing": self.indexing,
            "method": self.method,
            "values": [decimal_str(v) for v in self.values],
        }


# ---------------------------------------------------------------------------
# Recurrences (ladder-indexed internally)


def _sizes_ladder(count: int) -> list[int]:
    out = [1]
    while len(out) < count:
        a = out[-1]
        out.append(a + a * a)
    return out[:count]


def _edges_ladder(count: int) -> list[int]:
    sizes = _sizes_ladder(count - 1)  # edges at d read sizes at d-1
    out = [0]
    while len(out) < count:
        e, s = out[-1], sizes[len(out) - 1]
        out.append(e + s + 2 * e * s)
    return out[:count]


def _interval_rows(order: int) -> list[list[int]]:
    """``series.interval_levels`` from a_k(0) = 1 and a_k(1) = 1 + 2^k: all
    a_*(0) are 1, so the binomial sum of level 1 collapses to 2^k."""
    start = [[1] * (1 << order),
             [1 + (1 << k) for k in range(1, (1 << order >> 1) + 1)]]
    return serieslib.interval_levels(order, start[:order + 1])


def interval_family(k: int, d: int) -> int:
    """a_k(d) of the catalytic interval family; a_1(d) is the interval
    count of the d-ladder upset."""
    if k < 1 or d < 0:
        raise SequenceError("need k >= 1 and d >= 0")
    return _interval_rows(d + (k - 1).bit_length())[d][k - 1]


def interval_memo_keys() -> frozenset:
    """Empty: no interval table outlives a call.  Only perfbench's traced
    passes call it; it goes with their memo_entries metric (ROADMAP item 1)."""
    return frozenset()


def _intervals_ladder(count: int) -> list[int]:
    return [row[0] for row in _interval_rows(max(count - 1, 0))][:count]


def _square_coefficient(out: list[int], m: int) -> int:
    """Coefficient m of the square of sum out[i] z^i, from out[0..m]: each
    pair i < m - i read once and doubled, plus the middle square."""
    middle = out[m // 2] ** 2 if m % 2 == 0 else 0
    return 2 * sum(map(mul, out[:(m + 1) // 2], out[m:m // 2:-1])) + middle


def _motzkin_by_degree(count: int) -> list[int]:
    out = [1, 1]
    for d in range(2, count):
        out.append(_square_coefficient(out, d - 1) - out[d - 1])
    return out[:count]


def _min_by_degree(count: int) -> list[int]:
    out = [1, 1]
    for d in range(2, count):
        squares = out[(d - 1) // 2] if (d - 1) % 2 == 0 else 0
        out.append(_square_coefficient(out, d - 1) - squares)
    return out[:count]


def _classes_by_height(count: int) -> list[int]:
    out = [1, 1]
    running = 0  # sum of out[0..h-2] while computing out[h]
    for h in range(2, count):
        prev = out[h - 1]
        running += out[h - 2]
        out.append(prev * (prev - 1 + 2 * running))
    return out[:count]


_LADDER_RECURRENCES = {
    "sizes": _sizes_ladder,
    "edges": _edges_ladder,
    "intervals": _intervals_ladder,
    "motzkin": _motzkin_by_degree,
    "min": _min_by_degree,
    "classes": _classes_by_height,
}


# Largest ladder count of each sequence that each method computes.  It is
# keyed on the ladder count, so the conventional and the ladder indexing of
# a sequence share one limit.  Medians of 3 on one 2-CPU host (Python
# 3.11.7): at these limits no recurrence or series request takes over 3 s,
# except motzkin and min by recurrence, 5.3 and 8.3 s.  Another 2-CPU host
# ran the motzkin and min recurrences 1.4-1.7 times as long as this one.
# One index more at least doubles the work of sizes, edges, intervals and
# classes.  The oracle limits are the oracle's own.
LADDER_COUNT_LIMITS = {
    "recurrence": {"sizes": 25, "edges": 25, "intervals": 13,
                   "motzkin": 3200, "min": 3000, "classes": 25},
    "series": {"sizes": 25, "edges": 25, "intervals": 15,
               "motzkin": 2500, "min": 2200, "classes": 25},
    "oracle": {"sizes": MAX_STREAM_D + 1, "edges": MAX_STREAM_D + 1,
               "intervals": MAX_EXACT_D + 1,
               "motzkin": MAX_CENSUS_DEGREE + 1,
               "min": MAX_CENSUS_DEGREE + 1},
}


def _ladder_count(name: str, count: int, indexing: str, method: str) -> int:
    """Number of ladder-indexed values behind ``count`` values in
    ``indexing``: the conventional indexing of a poset sequence prepends
    the M(0) value, which costs nothing.  Refuses a request over the
    method's LADDER_COUNT_LIMITS entry, naming any method that admits it."""
    if name not in _LADDER_RECURRENCES:
        raise SequenceError(f"unknown sequence {name!r}")
    if count < 1:
        raise SequenceError("count must be >= 1")
    if indexing not in ("ladder", "mockingbird"):
        raise SequenceError(f"unknown indexing {indexing!r}")
    prepended = int(indexing == "mockingbird" and name in _POSET_SEQUENCES)
    ladder_count = count - prepended
    limit = LADDER_COUNT_LIMITS[method].get(name)
    if limit is None:
        raise SequenceError(f"no {method} for sequence {name!r}")
    if ladder_count > limit:
        admitting = [other for other, limits in LADDER_COUNT_LIMITS.items()
                     if ladder_count <= limits.get(name, 0)]
        hint = (f"; --method {' or '.join(admitting)} admits it"
                if admitting else "")
        raise SequenceError(
            f"{name} by {method} is limited to count {limit + prepended}, "
            f"got {count}{hint}")
    return ladder_count


def _table(name: str, ladder_values: list[int], indexing: str,
           method: str) -> SequenceTable:
    values = ladder_values
    if indexing == "mockingbird" and name in _POSET_SEQUENCES:
        values = [_POSET_SEQUENCES[name]] + values
    return SequenceTable(name=name, values=values, indexing=indexing,
                         method=method)


def seq_by_recurrence(name: str, count: int,
                      indexing: str = "mockingbird") -> SequenceTable:
    ladder_count = _ladder_count(name, count, indexing, "recurrence")
    return _table(name, _LADDER_RECURRENCES[name](ladder_count), indexing,
                  "recurrence")


def seq_by_series(name: str, count: int,
                  indexing: str = "mockingbird") -> SequenceTable:
    ladder_count = _ladder_count(name, count, indexing, "series")
    values: list[int] = []
    if ladder_count:
        values = list(
            serieslib.solve_equation(name, ladder_count - 1).coefficients)
    return _table(name, values, indexing, "series")


def seq_by_oracle(name: str, count: int,
                  indexing: str = "mockingbird") -> SequenceTable:
    """Sequence values from explicit poset construction / census: slow and
    range-limited, the independent ground truth."""
    ladder_count = _ladder_count(name, count, indexing, "oracle")
    ladder_values: list[int] = []
    if name in _POSET_SEQUENCES:
        for d in range(ladder_count):
            counts = oracle_poset_counts(d)
            ladder_values.append({
                "sizes": counts.elements,
                "edges": counts.hasse_edges,
                "intervals": counts.intervals,
            }[name])
    else:
        key = "maximal" if name == "motzkin" else "minimal"
        for d in range(ladder_count):
            ladder_values.append(oracle_extremal_census(d)[key])
    return _table(name, ladder_values, indexing, "oracle")


# The sequence methods by name, for callers that choose one at run time.
METHODS = {
    "recurrence": seq_by_recurrence,
    "series": seq_by_series,
    "oracle": seq_by_oracle,
}


# ---------------------------------------------------------------------------
# OEIS b-file comparison


_INTEGER_FIELD = re.compile(r"[+-]?[0-9]+")


def load_bfile(path: str) -> SequenceTable:
    """The values of a b-file: one "n a(n)" line each, from n = 0."""
    values: list[int] = []
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise SequenceError(f"{path}:{lineno}: expected 'n a(n)'")
            if not all(_INTEGER_FIELD.fullmatch(part) for part in parts):
                raise SequenceError(f"{path}:{lineno}: non-integer field")
            n, a = (int(Decimal(part)) for part in parts)  # any length
            if n != len(values):
                what = "non-contiguous" if values else "first"
                raise SequenceError(
                    f"{path}:{lineno}: {what} index {n} (expected {len(values)})")
            values.append(a)
    if not values:
        raise SequenceError(f"{path}: empty b-file")
    return SequenceTable(name=f"bfile:{path}", values=values,
                         indexing="mockingbird", method="bfile")


@dataclass
class CompareReport:
    overlap: int
    first_mismatch: Optional[int]
    warning: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.first_mismatch is None


def compare(table1: SequenceTable, table2: SequenceTable) -> CompareReport:
    """Compare two tables over their common prefix."""
    overlap = min(len(table1.values), len(table2.values))
    for i in range(overlap):
        if table1.values[i] != table2.values[i]:
            return CompareReport(overlap=overlap, first_mismatch=i)
    warning = "empty overlap" if overlap == 0 else None
    return CompareReport(overlap=overlap, first_mismatch=None, warning=warning)


# ---------------------------------------------------------------------------
# Cross-check


@dataclass
class CrosscheckReport:
    verdicts: list[tuple[str, bool, str]] = field(default_factory=list)

    def record(self, label: str, ok: bool, detail: str = "") -> None:
        self.verdicts.append((label, ok, detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.verdicts)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"label": label, "ok": ok, "detail": detail}
                for label, ok, detail in self.verdicts
            ],
        }


def crosscheck_all(max_d: int = 12, gated: bool = False) -> CrosscheckReport:
    """Recurrence vs series for every sequence to max_d, golden prefixes,
    intervals by upset-size moments to ladder depth 6, and oracle
    construction over the feasible range.  ``gated`` adds the
    streaming element/edge oracle at ladder depth 5 (minutes of work)."""
    if max_d < 0:
        raise SequenceError("max_d must be >= 0")
    # count max_d + 1 is ladder count max_d of a poset sequence
    limit = min(LADDER_COUNT_LIMITS[method][name] - (name not in _POSET_SEQUENCES)
                for method in ("recurrence", "series") for name in SEQUENCE_NAMES)
    if max_d > limit:
        raise SequenceError(f"max_d must be at most {limit}, got {max_d}")
    report = CrosscheckReport()
    count = max_d + 1
    for name in SEQUENCE_NAMES:
        rec = seq_by_recurrence(name, count)
        ser = seq_by_series(name, count)
        cmp_ = compare(rec, ser)
        report.record(
            f"{name}: recurrence vs series (n <= {max_d})", cmp_.ok,
            "" if cmp_.ok else f"first mismatch at index {cmp_.first_mismatch}")
        golden = GOLDEN_PREFIXES[name]
        take = min(len(golden), count)
        ok = rec.values[:take] == golden[:take]
        report.record(f"{name}: golden prefix", ok,
                      "" if ok else f"got {rec.values[:take]}")

    # Oracle range: explicit poset construction for small ladder depths.
    rec_sizes = seq_by_recurrence("sizes", 6, indexing="ladder").values
    rec_edges = seq_by_recurrence("edges", 6, indexing="ladder").values
    rec_intervals = seq_by_recurrence("intervals", 7, indexing="ladder").values
    for d in range(5):
        counts = oracle_poset_counts(d)
        ok = (counts.elements == rec_sizes[d]
              and counts.hasse_edges == rec_edges[d]
              and counts.intervals == rec_intervals[d]
              and counts.cover_equals_step)
        report.record(
            f"oracle ladder d={d}: elements/edges/intervals", ok,
            f"({counts.elements}, {counts.hasse_edges}, {counts.intervals})")
    if gated:
        counts = oracle_poset_counts(5)
        ok = (counts.elements == rec_sizes[5]
              and counts.hasse_edges == rec_edges[5])
        report.record(
            "oracle ladder d=5: elements/edges (streaming)", ok,
            f"({counts.elements}, {counts.hasse_edges})")

    # a_1(d) is the first moment of the upset sizes of the d-ladder upset
    moments = [sum(m * v for v, m in dist.items())
               for dist in serieslib.upset_size_distributions(6)]
    ok = moments == rec_intervals
    report.record("intervals: upset-size moments vs recurrence (d <= 6)", ok,
                  "" if ok else f"got {moments}")

    # Extremal census over every combinator of each degree.
    rec_motzkin = seq_by_recurrence("motzkin", MAX_CENSUS_DEGREE + 1).values
    rec_min = seq_by_recurrence("min", MAX_CENSUS_DEGREE + 1).values
    for degree in range(MAX_CENSUS_DEGREE + 1):
        census = oracle_extremal_census(degree)
        ok = (census["maximal"] == rec_motzkin[degree]
              and census["minimal"] == rec_min[degree])
        report.record(
            f"census degree {degree}: maximal/minimal", ok,
            f"({census['maximal']}, {census['minimal']})")
    return report
