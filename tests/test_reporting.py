"""Report schema, round-trip, aggregate, and SVG structure tests."""

import csv

import numpy as np
import pytest

from ntfusion.errors import BadSpec
from ntfusion.experiments import ExperimentSpec
from ntfusion.reporting import (
    CSV_HEADER,
    RunReport,
    SeedRecord,
    fmt_float,
    report_rows,
    write_csv,
    write_json,
    write_svg,
)


def sample_reports():
    reports = []
    for method, bump in (("nt", 0.02), ("avg", 0.0)):
        rep = RunReport("demo", method)
        for seed in (1, 2):
            rec = SeedRecord(seed=seed)
            rec.set_metric("immediate_acc", 0.7 + bump + 0.01 * seed)
            rec.set_metric("best_member_acc", 0.75)
            rec.set_series("finetuned_acc", [0.7 + bump + 0.005 * e for e in range(10)])
            rec.wall_seconds = 0.5
            rep.records.append(rec)
        reports.append(rep)
    return reports


class TestCsv:
    def test_single_value_report(self, tmp_path):
        rep = RunReport("one", "nt")
        rec = SeedRecord(seed=3)
        rec.set_metric("immediate_acc", 0.5)
        rep.records.append(rec)
        path = tmp_path / "r.csv"
        write_csv([rep], path)
        assert path.read_text() == f"{CSV_HEADER}\none,nt,3,0,immediate_acc,0.5\n"
        assert report_rows([rep]) == [("one", "nt", 3, 0, "immediate_acc", 0.5)]
        assert rep.aggregate()["immediate_acc"]["mean"] == 0.5

    def test_round_trip_exact(self, tmp_path):
        reports = sample_reports()
        path = tmp_path / "r.csv"
        write_csv(reports, path)
        header, *lines = path.read_text().splitlines()
        rows = report_rows(reports)
        assert header == CSV_HEADER and len(lines) == len(rows)
        for line, (exp, method, seed, epoch, metric, value) in zip(lines, rows):
            *fields, text = line.split(",")
            assert fields == [exp, method, str(seed), str(epoch), metric]
            assert float(np.float32(float(text))) == value

    def test_nine_digit_floats_round_trip_f32(self):
        values = np.frombuffer(np.arange(40, dtype=np.uint32).tobytes(), dtype=np.float32)
        values = [v for v in values.tolist() if np.isfinite(v)]
        values += [0.1, 2.0 / 3.0, 1e-30, 3.4e38]
        for v in values:
            v32 = float(np.float32(v))
            assert float(np.float32(float(fmt_float(v32)))) == v32

    def test_a_name_with_a_comma_quote_and_newline_stays_one_field(self, tmp_path):
        rep = RunReport('a,"b"\nc', "nt")
        rec = SeedRecord(seed=3)
        rec.set_metric("immediate_acc", 0.5)
        rep.records.append(rec)
        path = tmp_path / "r.csv"
        write_csv([rep], path)
        with open(path, encoding="utf-8", newline="") as f:
            header, row = csv.reader(f)
        assert header == CSV_HEADER.split(",")
        assert row == ['a,"b"\nc', "nt", "3", "0", "immediate_acc", "0.5"]

    def test_a_name_with_a_carriage_return_is_refused_at_spec_read(self):
        """The csv writer leaves a field with `\\r` bare under the `\\n` line
        terminator, and a csv reader ends the row there."""
        doc = {"name": "a\rb", "dataset": {"kind": "blobs", "n": 60, "classes": 3, "dim": 4,
                                            "spread": 0.5, "seed": 5},
               "arch": {"type": "mlp", "in_features": 4, "hidden": [8], "classes": 3}}
        with pytest.raises(BadSpec, match="carriage return"):
            ExperimentSpec.from_json(doc)

    def test_reemission_is_byte_identical(self, tmp_path):
        reports = sample_reports()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(reports, a)
        write_csv(reports, b)
        assert a.read_bytes() == b.read_bytes()


class TestAggregates:
    def test_mean_std_recomputation(self):
        rep = sample_reports()[0]
        agg = rep.aggregate()
        vals = [r.metrics["immediate_acc"] for r in rep.records]
        assert agg["immediate_acc"]["mean"] == float(np.float32(np.mean(vals)))
        assert agg["immediate_acc"]["std"] == float(np.float32(np.std(vals, ddof=1)))
        assert agg["immediate_acc"]["n"] == 2

    def test_series_aggregates_indexed_by_epoch(self):
        rep = sample_reports()[0]
        agg = rep.aggregate()
        assert "finetuned_acc[1]" in agg and "finetuned_acc[10]" in agg

    def test_json_mirror_contains_rows_and_aggregate(self, tmp_path):
        import json

        reports = sample_reports()
        path = tmp_path / "r.json"
        write_json(reports, path)
        doc = json.loads(path.read_text())
        assert len(doc["rows"]) == len(report_rows(reports))
        assert "demo/nt" in doc["aggregate"]
        got = {(r["experiment"], r["method"], r["seed"], r["epoch"], r["metric"], r["value"])
               for r in doc["rows"]}
        assert got == set(report_rows(reports))


class TestSvg:
    def test_structure(self, tmp_path):
        reports = sample_reports()
        path = tmp_path / "r.svg"
        write_svg(reports, path)
        text = path.read_text()
        assert text.count("<polyline") == 2
        first = text.split("<polyline")[1]
        points = first.split('points="')[1].split('"')[0].split()
        assert len(points) == 10
        assert "fine-tune epoch" in text

    def test_deterministic_bytes(self, tmp_path):
        reports = sample_reports()
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        write_svg(reports, a)
        write_svg(reports, b)
        assert a.read_bytes() == b.read_bytes()

    def test_reports_without_the_series_draw_no_curve(self, tmp_path):
        scalar_only = RunReport("demo", "scalar")
        rec = SeedRecord(seed=1)
        rec.set_metric("immediate_acc", 0.5)
        scalar_only.records.append(rec)
        path = tmp_path / "r.svg"
        write_svg([scalar_only], path)
        assert not path.exists()
        write_svg(sample_reports() + [scalar_only], path)
        assert path.read_text().count("<polyline") == 2
