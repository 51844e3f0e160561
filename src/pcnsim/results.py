"""Statistical aggregation, log histograms, and byte-stable file emission.

All writers are deterministic for fixed inputs: metadata lines are sorted,
floats are rendered with ``repr`` (shortest round-trip form), and no
timestamps or environment details are embedded.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Optional

from .sim import RunOutcome

logger = logging.getLogger(__name__)

_WRITE_ROWS = 512  # rows rendered and written at once by write_csv


@dataclass(frozen=True)
class Aggregate:
    """min/max/mean/std summary of the uncensored taus at one config point.

    std is the population standard deviation.  Censored (step-cap) runs are
    excluded from the moments but always reported in censored_count.  A
    point whose runs were all censored has count 0 and no moments (None).
    """

    config_id: str
    count: int
    min: Optional[int]
    max: Optional[int]
    mean: Optional[float]
    std: Optional[float]
    censored_count: int


def aggregate(outcomes: list[RunOutcome], config_id: str = "") -> Aggregate:
    """The summary of one config point's runs; ValueError if there are none."""
    if not outcomes:
        raise ValueError("cannot aggregate an empty outcome list")
    taus = [o.tau for o in outcomes if not o.censored]
    censored = len(outcomes) - len(taus)
    if not taus:
        return Aggregate(config_id, 0, None, None, None, None, censored)
    # integer moments keep the result exactly permutation-invariant
    count = len(taus)
    total = sum(taus)
    var_num = sum((count * t - total) ** 2 for t in taus)
    return Aggregate(
        config_id=config_id,
        count=count,
        min=min(taus),
        max=max(taus),
        mean=total / count,
        std=math.sqrt(var_num / count ** 3),
        censored_count=censored,
    )


@dataclass
class LogHistogram:
    """Base-10 logarithmic histogram.

    ``edges`` has len(counts)+1 entries: bin i covers [edges[i], edges[i+1]).
    Nonpositive values cannot be binned and are counted as underflow; values
    above an explicit ``max_value`` range land in overflow.
    """

    bins_per_decade: int
    edges: list[float]
    counts: list[int]
    underflow: int
    overflow: int


def log_histogram(values: Iterable[float], bins_per_decade: int = 1,
                  max_value: Optional[float] = None) -> LogHistogram:
    if bins_per_decade < 1:
        raise ValueError("bins_per_decade must be >= 1")
    bpd = bins_per_decade
    underflow = 0
    overflow = 0
    indexed: list[int] = []
    total = 0
    for v in values:
        total += 1
        if v <= 0:
            underflow += 1
            continue
        if max_value is not None and v > max_value:
            overflow += 1
            continue
        idx = math.floor(bpd * math.log10(v))
        # guard float slop at bin boundaries
        if 10.0 ** ((idx + 1) / bpd) <= v:
            idx += 1
        elif 10.0 ** (idx / bpd) > v:
            idx -= 1
        indexed.append(idx)
    if underflow:
        logger.warning("%d nonpositive value(s) counted as underflow", underflow)
    if not indexed:
        return LogHistogram(bpd, [], [], underflow, overflow)
    lo, hi = min(indexed), max(indexed)
    counts = [0] * (hi - lo + 1)
    for idx in indexed:
        counts[idx - lo] += 1
    edges = [10.0 ** (i / bpd) for i in range(lo, hi + 2)]
    assert sum(counts) + underflow + overflow == total
    return LogHistogram(bpd, edges, counts, underflow, overflow)


def write_csv(path, meta: dict, columns: list[str], rows: Iterable[tuple]) -> None:
    """CSV with a '# key = value' metadata header; byte-stable for fixed input.

    Each row is a tuple with one value per column.  Every value, in a row or
    in the header, is rendered by ``%s`` (``str``, and ``str`` of a float is
    its ``repr``), and None as an empty field.  The header is one write, the
    rows ``_WRITE_ROWS`` to a write: one string of a whole large file takes
    fresh heap arenas that are released again once it is written.
    """
    header = "".join("# %s = %s\n" % (key, "" if meta[key] is None else meta[key])
                     for key in sorted(meta)) + ",".join(columns) + "\n"
    line = ",".join(["%s"] * len(columns)) + "\n"
    rows = iter(rows)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header)
            while chunk := [line % (tuple("" if value is None else value for value in row)
                                    if None in row else row)
                            for row in islice(rows, _WRITE_ROWS)]:
                fh.write("".join(chunk))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def read_csv(path) -> tuple[dict, list[str], list[list[str]]]:
    meta: dict = {}
    columns: list[str] = []
    rows: list[list[str]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, value = line[1:].partition("=")
                    meta[key.strip()] = value.strip()
                elif not columns:
                    columns = line.split(",")
                else:
                    rows.append(line.split(","))
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    return meta, columns, rows


OUTCOME_COLUMNS = ["run", "seed", "tau", "failure_kind", "failing_edge"]


def _outcome_rows(outcomes: list[RunOutcome]):
    return ((i, o.seed_used, o.tau, o.failure_kind, o.failing_edge)
            for i, o in enumerate(outcomes))


def write_outcomes_csv(outcomes: list[RunOutcome], path, meta: dict) -> None:
    write_csv(path, meta, OUTCOME_COLUMNS, _outcome_rows(outcomes))


def read_outcomes_csv(path) -> tuple[list[RunOutcome], dict]:
    meta, columns, rows = read_csv(path)
    if columns != OUTCOME_COLUMNS:
        raise ValueError(f"{path}: unexpected columns {columns}")
    outcomes = []
    for row in rows:
        outcomes.append(RunOutcome(
            tau=int(row[2]),
            failing_edge=int(row[4]) if row[4] != "" else None,
            failure_kind=row[3],
            seed_used=int(row[1]),
        ))
    return outcomes, meta


AGGREGATE_COLUMNS = ["config_id", "count", "min", "max", "mean", "std", "censored"]


def _aggregate_rows(aggregates: list[Aggregate]):
    return ((a.config_id, a.count, a.min, a.max, a.mean, a.std, a.censored_count)
            for a in aggregates)


def write_aggregates_csv(aggregates: list[Aggregate], path, meta: dict) -> None:
    write_csv(path, meta, AGGREGATE_COLUMNS, _aggregate_rows(aggregates))


SWEEP_COLUMNS = ["capacity", "min", "mean", "max", "std", "censored"]


def write_sweep_csv(points, path, meta: dict, horizon: Optional[int] = None) -> None:
    """One row per swept capacity point; optional within-horizon column."""
    columns = list(SWEEP_COLUMNS)
    if horizon is not None:
        columns.append(f"p_fail_within_{horizon}")
    rows = []
    for point in points:
        # a point right-censored everywhere is reported with empty moments
        agg = aggregate(point.outcomes, config_id=str(point.balance))
        row = [point.balance, agg.min, agg.mean, agg.max, agg.std, agg.censored_count]
        if horizon is not None:
            row.append(point.p_fail_within_horizon)
        rows.append(tuple(row))
    write_csv(path, meta, columns, rows)


HISTOGRAM_COLUMNS = ["bin_lo", "bin_hi", "count"]


def write_histogram_csv(hist: LogHistogram, path, meta: dict) -> None:
    """One row per bin; the binning and out-of-range counts go into the metadata."""
    meta = dict(meta, bins_per_decade=hist.bins_per_decade, underflow=hist.underflow,
                overflow=hist.overflow)
    write_csv(path, meta, HISTOGRAM_COLUMNS, zip(hist.edges, hist.edges[1:], hist.counts))
