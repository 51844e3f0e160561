from __future__ import annotations

import math
import random

import pytest

from pcnsim import Rng, RunOutcome, aggregate, log_histogram
from pcnsim.results import (emit_campaign, read_csv, read_outcomes_csv, write_csv,
                            write_outcomes_csv)


def _outcome(tau, kind="depleted", edge=0, seed=1):
    return RunOutcome(tau=tau, failing_edge=None if kind == "step_cap_reached" else edge,
                      failure_kind=kind, seed_used=seed)


def test_aggregate_min_max_shape():
    agg = aggregate([_outcome(1), _outcome(108)])
    assert (agg.min, agg.max, agg.count) == (1, 108, 2)


def test_aggregate_single_value():
    agg = aggregate([_outcome(5)])
    assert agg.min == agg.max == agg.mean == 5
    assert agg.std == 0.0


def test_aggregate_population_std():
    agg = aggregate([_outcome(2), _outcome(4), _outcome(6)])
    assert agg.mean == pytest.approx(4.0)
    assert agg.std == pytest.approx(math.sqrt(8 / 3))
    assert agg.std == pytest.approx(1.633, abs=1e-3)


def test_aggregate_excludes_but_reports_censored():
    agg = aggregate([_outcome(3), _outcome(9), _outcome(50, kind="step_cap_reached")])
    assert agg.count == 2
    assert agg.censored_count == 1
    assert agg.max == 9
    assert agg.mean == pytest.approx(6.0)


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate([])


def test_aggregate_reports_all_censored_without_moments():
    capped = [_outcome(5, kind="step_cap_reached")] * 3
    agg = aggregate(capped, config_id="p")
    assert (agg.config_id, agg.count, agg.censored_count) == ("p", 0, 3)
    assert agg.min is agg.max is agg.mean is agg.std is None


def test_aggregate_permutation_invariant():
    rng = random.Random(7)
    outs = [_outcome(rng.randrange(1, 1000)) for _ in range(50)]
    shuffled = list(outs)
    rng.shuffle(shuffled)
    assert aggregate(outs) == aggregate(shuffled)


def test_log_histogram_decades():
    h = log_histogram([1, 10, 100], bins_per_decade=1)
    assert h.counts == [1, 1, 1]
    assert h.edges == pytest.approx([1.0, 10.0, 100.0, 1000.0])
    assert h.underflow == 0 and h.overflow == 0


def test_log_histogram_single_bin_for_equal_values():
    h = log_histogram([42] * 12, bins_per_decade=2)
    assert h.counts == [12]


def test_log_histogram_underflow_warns(caplog):
    with caplog.at_level("WARNING"):
        h = log_histogram([0, -3, 7], bins_per_decade=1)
    assert h.underflow == 2
    assert sum(h.counts) == 1
    assert any("underflow" in rec.message for rec in caplog.records)


def test_log_histogram_overflow_with_explicit_max():
    h = log_histogram([5, 50, 5000], bins_per_decade=1, max_value=100)
    assert h.overflow == 1
    assert sum(h.counts) == 2


def test_log_histogram_conserves_counts():
    rng = random.Random(13)
    values = [rng.randrange(-5, 10 ** 6) for _ in range(5000)]
    h = log_histogram(values, bins_per_decade=3)
    assert sum(h.counts) + h.underflow + h.overflow == len(values)


def test_log_histogram_boundary_values_exact():
    # powers of 10 land in the bin they open, despite float log10
    values = [10 ** e for e in range(9)]
    h = log_histogram(values, bins_per_decade=1)
    assert h.counts == [1] * 9


def test_outcomes_round_trip(tmp_path):
    rng = Rng(3)
    outs = [
        _outcome(17, seed=11),
        _outcome(40, kind="attempt_failed", edge=5, seed=12),
        _outcome(99, kind="step_cap_reached", seed=13),
    ]
    path = tmp_path / "runs.csv"
    write_outcomes_csv(outs, path, {"topology": "ring", "seed": 7})
    back, meta = read_outcomes_csv(path)
    assert back == outs
    assert meta["topology"] == "ring"
    assert aggregate(back) == aggregate(outs)


def test_emission_is_byte_stable(tmp_path):
    outs = [_outcome(i * 3 + 1, seed=i) for i in range(20)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    meta = {"runs": 20, "mean": 1.5, "label": "x"}
    write_outcomes_csv(outs, a, meta)
    write_outcomes_csv(outs, b, meta)
    assert a.read_bytes() == b.read_bytes()


def test_write_csv_sorted_meta_and_float_repr(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, {"b": 0.1, "a": 2}, ["x"], [(1.5,), (None,)])
    text = path.read_text()
    assert text == "# a = 2\n# b = 0.1\nx\n1.5\n\n"
    meta, columns, rows = read_csv(path)
    assert meta == {"a": "2", "b": "0.1"}
    assert columns == ["x"]


def test_write_csv_renders_mixed_rows_byte_for_byte(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, {"k": 0.5}, list("abcdef"),
              [(None, 0.1, math.inf, True, "x y", 2 ** 64 + 1),
               (1e-300, -math.inf, False, "s", 2 ** 63, None),
               (3, 2.5, "", -7, 1e22, 0.0)])
    assert path.read_bytes() == (b"# k = 0.5\na,b,c,d,e,f\n"
                                 b",0.1,inf,True,x y,18446744073709551617\n"
                                 b"1e-300,-inf,False,s,9223372036854775808,\n"
                                 b"3,2.5,,-7,1e+22,0.0\n")


def test_write_csv_io_error_has_path_context(tmp_path):
    target = tmp_path / "missing_dir" / "out.csv"
    with pytest.raises(OSError, match="out.csv"):
        write_csv(target, {}, ["a"], [])


def test_emit_campaign_outcomes_round_trip_and_stability(tmp_path):
    outs = [_outcome(9, seed=4), _outcome(2, kind="step_cap_reached", seed=5)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_campaign(outs, a, {"runs": 2})
    emit_campaign(outs, b, {"runs": 2})
    assert a.read_bytes() == b.read_bytes()
    back, meta = read_outcomes_csv(a)
    assert back == outs and meta == {"runs": "2"}


def test_emit_campaign_aggregates_and_histogram(tmp_path):
    aggs = [aggregate([_outcome(3), _outcome(5)], config_id="x1")]
    out = tmp_path / "agg.csv"
    emit_campaign(aggs, out, {})
    _, columns, rows = read_csv(out)
    assert columns[0] == "config_id" and rows[0][0] == "x1"
    hist = log_histogram([1, 10], bins_per_decade=1)
    hout = tmp_path / "h.csv"
    emit_campaign(hist, hout, {})
    meta, columns, rows = read_csv(hout)
    assert columns == ["bin_lo", "bin_hi", "count"] and len(rows) == 2
    assert (meta["bins_per_decade"], meta["underflow"], meta["overflow"]) == ("1", "0", "0")


def test_emit_campaign_rejects_bad_payload(tmp_path):
    with pytest.raises(ValueError):
        emit_campaign([], tmp_path / "x", {})
    with pytest.raises(TypeError):
        emit_campaign([object()], tmp_path / "x", {})
