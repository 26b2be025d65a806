"""The build-health dashboard: one self-contained static HTML page.

``reprobuild dashboard`` renders the history store into a single file —
inline CSS, inline SVG, zero network requests, zero external scripts —
so it can be opened from a build artifact tarball on a plane.  Content:

- a stat-tile row (latest build headline numbers, each with a
  sparkline of its trend);
- sparkline trend charts for the cross-build series the drift detectors
  watch: skip rate, build wall time, recompiled units, state size;
- a per-pass heat table (recent builds x passes, shaded by that pass's
  wall time relative to its own row) — the visual form of the per-pass
  regression check;
- a per-worker wall breakdown of the latest build (its ``compiled``
  units' wall times, summed by worker);
- the drift findings, when the caller ran the detectors;
- the full builds table (the data behind every chart, so nothing is
  color-gated).

Single-series charts carry one hue (slot-1 blue); the heat table uses
the one-hue sequential ramp; status colors appear only on drift
findings, icon + label attached.  Light and dark render from the same
palette via ``prefers-color-scheme``.
"""

from __future__ import annotations

import html
import time as _time

from repro.obs.drift import DriftReport
from repro.obs.history import HistoryRecord

#: Sequential blue ramp (light -> dark), for the heat table.
_RAMP = (
    "#cde2fb", "#9ec5f4", "#86b6ef", "#5598e7",
    "#3987e5", "#256abf", "#1c5cab", "#104281",
)
#: Ramp index from which cell ink flips to white.
_RAMP_INK_FLIP = 4

_CSS = """
:root {
  color-scheme: light dark;
  --surface-1: #fcfcfb; --plane: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --good: #0ca30c; --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface-1: #1a1a19; --plane: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --good: #0ca30c; --critical: #d03b3b;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--plane); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; font-weight: 600; margin: 0 0 4px; }
h2 { font-size: 15px; font-weight: 600; margin: 28px 0 10px; }
.sub { color: var(--ink-2); margin: 0 0 20px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px;
}
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile { min-width: 170px; flex: 1; }
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 30px; font-weight: 600; margin: 2px 0; }
.tile .delta { font-size: 12px; color: var(--ink-2); }
.tile .delta.up { color: var(--good); }
.tile .delta.down { color: var(--critical); }
.charts { display: flex; flex-wrap: wrap; gap: 12px; }
.chart { flex: 1; min-width: 300px; }
.chart .title { font-size: 13px; font-weight: 600; margin-bottom: 6px; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th, td {
  text-align: right; padding: 5px 9px; border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
th { color: var(--ink-2); font-weight: 600; }
th:first-child, td:first-child { text-align: left; }
tbody tr:hover { background: color-mix(in srgb, var(--series-1) 7%, transparent); }
td.heat { text-align: center; min-width: 44px; }
td.empty { color: var(--muted); text-align: center; }
.finding { display: flex; gap: 8px; align-items: baseline; margin: 6px 0; }
.finding .badge {
  color: var(--critical); font-weight: 700; white-space: nowrap;
}
.clean { color: var(--good); font-weight: 600; }
.bars .row { display: flex; align-items: center; gap: 8px; margin: 4px 0; }
.bars .name { width: 130px; color: var(--ink-2); font-size: 12px;
  text-align: right; overflow: hidden; text-overflow: ellipsis; }
.bars .track { flex: 1; }
.bars .bar { height: 16px; background: var(--series-1);
  border-radius: 0 4px 4px 0; }
.bars .val { font-size: 12px; color: var(--ink-2); min-width: 64px; }
.footer { color: var(--muted); font-size: 12px; margin-top: 24px; }
svg text { fill: var(--muted); font: 11px system-ui, sans-serif; }
svg .end-label { fill: var(--ink); font-weight: 600; }
svg .spark-line { stroke: var(--series-1); }
svg .spark-fill { fill: var(--series-1); }
svg .spark-dot { fill: var(--series-1); stroke: var(--surface-1); }
svg .gridline { stroke: var(--grid); }
"""


def _esc(value) -> str:
    return html.escape(str(value), quote=True)


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def _fmt_when(timestamp: float) -> str:
    if timestamp <= 0:
        return "-"
    return _time.strftime("%Y-%m-%d %H:%M:%S", _time.localtime(timestamp))


def _sparkline(
    values: list[float],
    *,
    fmt=lambda v: f"{v:g}",
    width: int = 300,
    height: int = 72,
    tooltip: str = "",
) -> str:
    """One single-series sparkline: 2px line, 10% area wash, end dot."""
    if not values:
        return '<div class="empty">no data</div>'
    pad, label_w = 6, 56
    plot_w, plot_h = width - pad - label_w, height - 2 * pad
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0

    def xy(i: int, v: float) -> tuple[float, float]:
        x = pad + (plot_w * i / max(len(values) - 1, 1))
        y = pad + plot_h * (1.0 - (v - lo) / span)
        return round(x, 1), round(y, 1)

    points = [xy(i, v) for i, v in enumerate(values)]
    poly = " ".join(f"{x},{y}" for x, y in points)
    ex, ey = points[-1]
    base = pad + plot_h
    area = f"{pad},{base} {poly} {ex},{base}"
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" height="{height}" '
        f'role="img" aria-label="{_esc(tooltip)}">',
        f'<title>{_esc(tooltip)}</title>',
        f'<line class="gridline" x1="{pad}" y1="{base}" x2="{pad + plot_w}" '
        f'y2="{base}" stroke-width="1"/>',
        f'<polygon class="spark-fill" points="{area}" fill-opacity="0.1"/>',
        f'<polyline class="spark-line" points="{poly}" fill="none" '
        f'stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>',
        f'<circle class="spark-dot" cx="{ex}" cy="{ey}" r="4" stroke-width="2"/>',
        f'<text class="end-label" x="{ex + 8}" y="{ey + 4}">{_esc(fmt(values[-1]))}'
        "</text>",
        "</svg>",
    ]
    return "".join(parts)


def _tile(label: str, value: str, trend: list[float], fmt, delta: str = "",
          direction: str = "") -> str:
    spark = _sparkline(trend[-12:], fmt=fmt, width=170, height=34,
                       tooltip=f"{label} trend") if len(trend) > 1 else ""
    delta_html = (
        f'<div class="delta {direction}">{_esc(delta)}</div>' if delta else ""
    )
    return (
        f'<div class="card tile"><div class="label">{_esc(label)}</div>'
        f'<div class="value">{_esc(value)}</div>{delta_html}{spark}</div>'
    )


def _tiles(records: list[HistoryRecord]) -> str:
    latest = records[-1]
    skip = [r.skip_rate for r in records]
    walls = [r.total_wall_time for r in records]
    delta, direction = "", ""
    if len(records) > 1:
        diff = latest.skip_rate - records[-2].skip_rate
        delta = f"{diff:+.1%} vs build #{records[-2].seq}"
        direction = "up" if diff >= 0 else "down"
    tiles = [
        _tile("Builds recorded", str(len(records)), [], str),
        _tile("Skip rate (latest)", f"{latest.skip_rate:.1%}", skip,
              lambda v: f"{v:.0%}", delta, direction),
        _tile("Build wall (latest)", _fmt_seconds(latest.total_wall_time),
              walls, _fmt_seconds),
        _tile("State records", f"{latest.state_records:,}",
              [float(r.state_records) for r in records], lambda v: f"{v:,.0f}"),
    ]
    return f'<div class="tiles">{"".join(tiles)}</div>'


def _trend_charts(records: list[HistoryRecord]) -> str:
    seqs = f"builds #{records[0].seq}-#{records[-1].seq}"
    charts = [
        ("Skip rate", [r.skip_rate for r in records], lambda v: f"{v:.0%}"),
        ("Total build wall", [r.total_wall_time for r in records], _fmt_seconds),
        ("Units recompiled", [float(r.recompiled) for r in records],
         lambda v: f"{v:,.0f}"),
        ("State size (bytes)", [float(r.state_bytes) for r in records],
         lambda v: f"{v / 1e3:,.1f}k" if v >= 1e3 else f"{v:,.0f}"),
    ]
    blocks = []
    for title, values, fmt in charts:
        blocks.append(
            f'<div class="card chart"><div class="title">{_esc(title)}</div>'
            + _sparkline(values, fmt=fmt, tooltip=f"{title}, {seqs}")
            + "</div>"
        )
    return f'<div class="charts">{"".join(blocks)}</div>'


def _heat_table(records: list[HistoryRecord], max_builds: int = 12) -> str:
    """Passes x recent builds, shaded by wall time within each pass row."""
    recent = records[-max_builds:]
    passes = sorted({name for r in recent for name in r.passes})
    if not passes:
        return '<p class="sub">no per-pass data recorded yet</p>'
    header = "".join(f"<th>#{r.seq}</th>" for r in recent)
    rows = []
    for name in passes:
        walls = [float(r.passes.get(name, {}).get("wall", 0.0)) for r in recent]
        row_max = max(walls) or 1.0
        cells = []
        for record, wall in zip(recent, walls):
            if name not in record.passes:
                cells.append('<td class="empty">-</td>')
                continue
            step = min(int(wall / row_max * (len(_RAMP) - 1) + 0.5), len(_RAMP) - 1)
            ink = "#ffffff" if step >= _RAMP_INK_FLIP else "#0b0b0b"
            entry = record.passes[name]
            tip = (
                f"{name} in build #{record.seq}: {_fmt_seconds(wall)} over "
                f"{entry.get('executed', 0)} runs, {entry.get('bypassed', 0)} bypassed"
            )
            cells.append(
                f'<td class="heat" style="background:{_RAMP[step]};color:{ink}" '
                f'title="{_esc(tip)}">{wall * 1e3:.1f}</td>'
            )
        rows.append(f"<tr><td>{_esc(name)}</td>{''.join(cells)}</tr>")
    return (
        '<div class="card"><table>'
        f"<thead><tr><th>pass (wall ms)</th>{header}</tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table></div>"
    )


def _worker_breakdown(records: list[HistoryRecord]) -> str:
    """Per-worker compile wall of the latest build, from its compiled units."""
    latest = records[-1]
    busy: dict[str, float] = {}
    for unit in latest.report.get("compiled", []):
        worker = unit.get("worker", "main")
        busy[worker] = busy.get(worker, 0.0) + float(unit.get("wall_time", 0.0))
    if not busy:
        return ""
    top = max(busy.values()) or 1.0
    rows = []
    for tag, seconds in sorted(busy.items(), key=lambda kv: -kv[1]):
        width = max(seconds / top * 100.0, 1.5)
        rows.append(
            f'<div class="row"><div class="name" title="{_esc(tag)}">{_esc(tag)}'
            f'</div><div class="track"><div class="bar" style="width:{width:.1f}%" '
            f'title="{_esc(tag)}: {_fmt_seconds(seconds)}"></div></div>'
            f'<div class="val">{_fmt_seconds(seconds)}</div></div>'
        )
    return (
        f"<h2>Compile wall by worker (build #{latest.seq})</h2>"
        f'<div class="card bars">{"".join(rows)}</div>'
    )


def _drift_section(drift: DriftReport | None) -> str:
    if drift is None:
        return ""
    if drift.clean:
        body = (
            f'<p class="clean">&#10003; no drift across '
            f"{drift.builds_analyzed} builds</p>"
        )
    else:
        items = [
            f'<div class="finding"><span class="badge">&#9888; {_esc(f.kind)}'
            f"</span><span>{_esc(f.message)}</span></div>"
            for f in drift.findings
        ]
        body = "".join(items)
    return f"<h2>Drift</h2><div class=\"card\">{body}</div>"


def _builds_table(records: list[HistoryRecord]) -> str:
    rows = []
    for r in reversed(records):
        label = f" {_esc(r.label)}" if r.label else ""
        rows.append(
            "<tr>"
            f"<td>#{r.seq}{label}</td><td>{_esc(_fmt_when(r.timestamp))}</td>"
            f"<td>{r.recompiled}</td><td>{r.up_to_date}</td>"
            f"<td>{r.skip_rate:.1%}</td>"
            f"<td>{_fmt_seconds(r.total_wall_time)}</td>"
            f"<td>{r.state_records:,}</td><td>{r.state_bytes:,}</td>"
            f"<td>{int(r.summary.get('jobs', 1))}</td>"
            "</tr>"
        )
    return (
        '<div class="card"><table><thead><tr>'
        "<th>build</th><th>when</th><th>recompiled</th><th>up-to-date</th>"
        "<th>skip</th><th>wall</th><th>state recs</th><th>state bytes</th>"
        "<th>jobs</th>"
        f"</tr></thead><tbody>{''.join(rows)}</tbody></table></div>"
    )


def render_dashboard(
    records: list[HistoryRecord],
    *,
    title: str = "reprobuild health",
    drift: DriftReport | None = None,
) -> str:
    """Render the history into one self-contained HTML page."""
    records = sorted(records, key=lambda r: r.seq)
    head = (
        "<!doctype html><html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<title>{_esc(title)}</title>"
        '<meta name="viewport" content="width=device-width, initial-scale=1">'
        f"<style>{_CSS}</style></head><body>"
    )
    if not records:
        return (
            head + f"<h1>{_esc(title)}</h1>"
            '<p class="sub">history is empty - run some builds first</p>'
            "</body></html>"
        )
    latest = records[-1]
    sub = (
        f"{len(records)} builds, #{records[0].seq} to #{latest.seq}; "
        f"latest {_fmt_when(latest.timestamp)}"
    )
    return (
        head
        + f"<h1>{_esc(title)}</h1><p class=\"sub\">{_esc(sub)}</p>"
        + _tiles(records)
        + _drift_section(drift)
        + "<h2>Trends</h2>"
        + _trend_charts(records)
        + "<h2>Per-pass wall heat</h2>"
        + _heat_table(records)
        + _worker_breakdown(records)
        + "<h2>Builds</h2>"
        + _builds_table(records)
        + '<div class="footer">generated by reprobuild dashboard; '
        "self-contained, no network access required</div>"
        "</body></html>"
    )
