"""Run reports and their deterministic CSV / JSON / SVG renderings.

Rows follow the schema (experiment, method, seed, epoch, metric, value).
Scalar metrics sit at epoch 0; per-fine-tune-epoch series use epochs 1..E.
Metric values are rounded to float32 when recorded and serialized with nine
significant digits, so emitted files parse back losslessly and reruns with
fixed seeds are byte-identical. Wall-clock timings are kept out of these
files (see `write_timings`) precisely to preserve that property.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidArg


def _f32(value: float) -> float:
    return float(np.float32(value))


def fmt_float(value: float) -> str:
    """Nine significant digits: enough to round-trip any float32 exactly."""
    return format(value, ".9g")


@dataclass
class SeedRecord:
    """Per-seed outcome of one fusion run."""

    seed: int
    metrics: dict[str, float] = field(default_factory=dict)
    series: dict[str, list[float]] = field(default_factory=dict)
    wall_seconds: float = 0.0
    peak_bytes_estimate: int = 0

    def set_metric(self, name: str, value: float) -> None:
        self.metrics[name] = _f32(value)

    def set_series(self, name: str, values) -> None:
        self.series[name] = [_f32(v) for v in values]


@dataclass
class RunReport:
    """All seeds of one (experiment, method) cell plus derived aggregates."""

    experiment: str
    method: str
    records: list[SeedRecord] = field(default_factory=list)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """mean/std (ddof=1 when possible) per metric, recomputed from records."""
        out: dict[str, dict[str, float]] = {}
        names = sorted({m for r in self.records for m in r.metrics})
        for name in names:
            values = [r.metrics[name] for r in self.records if name in r.metrics]
            out[name] = _mean_std(values)
        series_names = sorted({s for r in self.records for s in r.series})
        for name in series_names:
            length = max(len(r.series.get(name, [])) for r in self.records)
            for e in range(length):
                values = [r.series[name][e] for r in self.records
                          if len(r.series.get(name, [])) > e]
                out[f"{name}[{e + 1}]"] = _mean_std(values)
        return out


def _mean_std(values: list[float]) -> dict[str, float]:
    arr = np.asarray(values, dtype=np.float64)
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return {"mean": _f32(arr.mean()), "std": _f32(std), "n": len(arr)}


CSV_HEADER = "experiment,method,seed,epoch,metric,value"


def report_rows(reports) -> list[tuple[str, str, int, int, str, float]]:
    rows = []
    for rep in reports:
        for rec in rep.records:
            for name in sorted(rec.metrics):
                rows.append((rep.experiment, rep.method, rec.seed, 0, name, rec.metrics[name]))
            for name in sorted(rec.series):
                for e, v in enumerate(rec.series[name]):
                    rows.append((rep.experiment, rep.method, rec.seed, e + 1, name, v))
    return rows


def write_csv(reports, path) -> None:
    lines = [CSV_HEADER]
    for exp, method, seed, epoch, metric, value in report_rows(reports):
        lines.append(f"{exp},{method},{seed},{epoch},{metric},{fmt_float(value)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(reports, path) -> None:
    doc = {
        "rows": [
            {"experiment": e, "method": m, "seed": s, "epoch": ep, "metric": name, "value": v}
            for e, m, s, ep, name, v in report_rows(reports)
        ],
        "aggregate": {
            f"{rep.experiment}/{rep.method}": rep.aggregate() for rep in reports
        },
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_timings(reports, path) -> None:
    """Wall-clock and memory side-channel; intentionally not covered by the
    byte-identical rerun guarantee."""
    doc = {
        f"{rep.experiment}/{rep.method}": [
            {"seed": r.seed, "wall_seconds": r.wall_seconds,
             "peak_bytes_estimate": r.peak_bytes_estimate}
            for r in rep.records
        ]
        for rep in reports
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#7f7f7f"]
_W, _H, _ML, _MR, _MT, _MB = 640, 400, 60, 20, 20, 45
_SVG_METRIC = "finetuned_acc"


def _mean_series(report: RunReport, metric: str) -> list[float]:
    lengths = [len(r.series.get(metric, [])) for r in report.records]
    if not lengths or max(lengths) == 0:
        return []
    length = max(lengths)
    out = []
    for e in range(length):
        vals = [r.series[metric][e] for r in report.records
                if len(r.series.get(metric, [])) > e]
        out.append(float(np.mean(vals)))
    return out


def write_svg(reports, path) -> None:
    """`_SVG_METRIC`-vs-epoch line chart, one polyline per report (seed means)."""
    curves = []
    for rep in sorted(reports, key=lambda r: (r.experiment, r.method)):
        ys = _mean_series(rep, _SVG_METRIC)
        if ys:
            curves.append((rep.method, ys))
    if not curves:
        raise InvalidArg(f"no '{_SVG_METRIC}' series to plot")
    max_epoch = max(len(ys) for _, ys in curves)
    lo = min(min(ys) for _, ys in curves)
    hi = max(max(ys) for _, ys in curves)
    if hi - lo < 1e-9:
        lo, hi = lo - 0.5, hi + 0.5
    span_x = max(max_epoch - 1, 1)

    def sx(epoch_idx: float) -> float:
        return _ML + (epoch_idx / span_x) * (_W - _ML - _MR)

    def sy(v: float) -> float:
        return _H - _MB - ((v - lo) / (hi - lo)) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{(_W + _ML) // 2}" y="{_H - 10}" text-anchor="middle" '
        f'font-size="13">fine-tune epoch</text>',
        f'<text x="15" y="{(_H - _MB + _MT) // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 15 {(_H - _MB + _MT) // 2})">{_SVG_METRIC}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = lo + frac * (hi - lo)
        y = sy(v)
        parts.append(f'<line x1="{_ML - 4}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-size="11">{v:.3g}</text>')
    for e in range(max_epoch):
        if max_epoch <= 12 or e % max(1, max_epoch // 8) == 0 or e == max_epoch - 1:
            x = sx(e)
            parts.append(
                f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" y2="{_H - _MB + 4}" stroke="black"/>')
            parts.append(f'<text x="{x:.2f}" y="{_H - _MB + 16}" text-anchor="middle" '
                         f'font-size="11">{e + 1}</text>')
    for ci, (method, ys) in enumerate(curves):
        color = _PALETTE[ci % len(_PALETTE)]
        points = " ".join(f"{sx(e):.2f},{sy(v):.2f}" for e, v in enumerate(ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        parts.append(f'<text x="{_W - _MR - 5}" y="{_MT + 14 * (ci + 1)}" text-anchor="end" '
                     f'fill="{color}" font-size="12">{method}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
