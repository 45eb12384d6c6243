"""Self-contained single-file HTML run report.

``render_report`` turns one profiled :class:`~repro.core.profiler.Trace`
into a single HTML document with **zero external references** — no
scripts, stylesheets, fonts, or images are fetched; the roofline chart
is inline SVG and the styling is one embedded ``<style>`` block — so
the file can be archived next to the trace, attached to a CI run, or
mailed around, and will render identically forever.

Sections (each an anchor-linkable ``<section>``):

1. **header** — workload, device, headline counters;
2. **span timeline** — the collected span tree laid out on the shared
   monotonic timeline (percent-positioned, so it scales to any width);
2b. **request waterfall** — only when the trace carries spans with
   trace ids (a serving export): one lane per ``serve:request`` tree,
   its lifecycle phases (queue wait / dispatch / execute) stacked as
   a per-request waterfall;
3. **kernel stats** — the generalized Table IV matrices from
   :mod:`repro.obs.kstats`, per operator category and per span;
4. **roofline** — the device roof with per-phase and per-span points
   (Fig. 3c), log-log, as inline SVG;
5. **sparsity** — per-stage output-sparsity statistics (Fig. 5 lens);
6. **perf trends** — optional: the history gate's pin verdict and one
   sparkline row per trend metric of a
   :mod:`repro.obs.history` store.

The document is deterministic for a fixed trace and history (no
timestamps, no hostnames), so report bytes can be diffed across
commits like any other artifact.
"""

from __future__ import annotations

import math
from html import escape
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.columns import seq_sum
from repro.core.profiler import Trace
from repro.core.report import format_bytes, format_time
from repro.core.sparsity import stage_sparsity
from repro.hwsim.device import DeviceSpec
from repro.hwsim.devices import RTX_2080TI
from repro.hwsim.roofline import (RooflinePoint, roofline_curve,
                                  roofline_points)
from repro.obs.kstats import (KernelStats, kstats_by_category,
                              kstats_by_span)
from repro.obs.spans import SpanRecord

#: colors cycled over span names / roofline points (hex, no external
#: palette dependency)
_PALETTE = ("#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1",
            "#76b7b2", "#edc948", "#9c755f")

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial,
       sans-serif; margin: 2em auto; max-width: 62em; color: #1a1a2e;
       line-height: 1.45; }
h1 { font-size: 1.5em; border-bottom: 2px solid #4e79a7; }
h2 { font-size: 1.15em; margin-top: 2em; }
table { border-collapse: collapse; font-size: 0.85em; }
th, td { border: 1px solid #c8c8d0; padding: 0.25em 0.6em;
         text-align: right; }
th:first-child, td:first-child { text-align: left; }
thead th { background: #eef1f6; }
.timeline { position: relative; background: #f7f8fa;
            border: 1px solid #c8c8d0; }
.span { position: absolute; height: 18px; border-radius: 3px;
        font-size: 11px; color: #fff; overflow: hidden;
        white-space: nowrap; padding-left: 3px; box-sizing: border-box; }
.waterfall { background: #f7f8fa; border: 1px solid #c8c8d0; }
.wf-row { display: flex; align-items: center; height: 20px; }
.wf-label { flex: 0 0 16em; font-size: 11px; padding-left: 4px;
            overflow: hidden; white-space: nowrap; }
.wf-lane { flex: 1; position: relative; height: 14px;
           border-left: 1px solid #c8c8d0; }
.wf-seg { position: absolute; top: 1px; height: 12px;
          border-radius: 2px; }
.kind-neural { color: #4e79a7; font-weight: 600; }
.kind-symbolic { color: #e15759; font-weight: 600; }
.kind-mixed { color: #b07aa1; font-weight: 600; }
pre { background: #f7f8fa; border: 1px solid #c8c8d0;
      padding: 0.8em; overflow-x: auto; font-size: 0.8em; }
.meta { color: #5a5a6e; font-size: 0.9em; }
svg text { font-family: inherit; }
"""


def _color(name: str) -> str:
    """Stable palette pick (hash-free: deterministic across runs)."""
    return _PALETTE[sum(ord(ch) for ch in name) % len(_PALETTE)]


# ---------------------------------------------------------------------------
# section renderers


def _section_header(trace: Trace, device: DeviceSpec) -> str:
    cols = trace.columns
    rows = [
        ("events", f"{cols.n}"),
        ("total FLOPs", f"{seq_sum(cols.flops):.4g}"),
        ("total traffic", format_bytes(sum(cols.total_bytes.tolist()))),
        ("measured wall time", format_time(seq_sum(cols.wall_time))),
        ("peak live bytes",
         format_bytes(max(cols.live_bytes.tolist(), default=0))),
        ("phases", ", ".join(p or "untagged" for p in cols.phases) or "-"),
        ("spans collected", f"{len(trace.spans)}"),
    ]
    cells = "".join(f"<tr><td>{escape(k)}</td><td>{escape(v)}</td></tr>"
                    for k, v in rows)
    return (f"<h1>run report: {escape(trace.workload or '<trace>')}"
            f" <span class=meta>on {escape(device.name)}</span></h1>"
            f"<table><tbody>{cells}</tbody></table>")


def _span_depths(spans: Sequence[SpanRecord]) -> Dict[int, int]:
    by_sid = {record.sid: record for record in spans}
    depths: Dict[int, int] = {}
    for record in spans:
        depth = 0
        cursor = record.parent
        seen = set()
        while cursor is not None and cursor in by_sid \
                and cursor not in seen:
            seen.add(cursor)
            depth += 1
            cursor = by_sid[cursor].parent
        depths[record.sid] = depth
    return depths


def _section_timeline(trace: Trace) -> str:
    spans = [record for record in trace.spans
             if isinstance(record, SpanRecord)]
    if not spans:
        return ("<h2 id=timeline>span timeline</h2>"
                "<p class=meta>no spans collected "
                "(trace predates the observability layer).</p>")
    t0 = min(record.start for record in spans)
    t1 = max(record.end for record in spans)
    total = max(t1 - t0, 1e-9)
    depths = _span_depths(spans)
    row_height = 22
    height = (max(depths.values()) + 1) * row_height
    divs: List[str] = []
    for record in sorted(spans, key=lambda r: (r.start, r.sid)):
        left = 100.0 * (record.start - t0) / total
        width = max(100.0 * record.duration / total, 0.15)
        top = depths[record.sid] * row_height
        label = escape(f"{record.name} [{format_time(record.duration)}]")
        divs.append(
            f'<div class=span title="{label}" '
            f'style="left:{left:.3f}%;width:{width:.3f}%;'
            f'top:{top}px;background:{_color(record.name)}">'
            f'{escape(record.name)}</div>')
    return (f"<h2 id=timeline>span timeline</h2>"
            f"<p class=meta>{len(spans)} spans over "
            f"{format_time(total)}; hover for durations.</p>"
            f'<div class=timeline style="height:{height + 4}px">'
            + "".join(divs) + "</div>")


#: lifecycle phase colors for the request waterfall (draw order:
#: batch_assemble last so it overlays the tail of queue_wait)
_WATERFALL_COLORS = (("serve:queue_wait", "#edc948"),
                     ("serve:dispatch", "#b07aa1"),
                     ("serve:execute", "#4e79a7"),
                     ("serve:batch_assemble", "#9c755f"))

#: lane cap so a long serving run still renders a readable report
_WATERFALL_MAX_LANES = 80


def _section_waterfall(trace: Trace) -> str:
    """Per-request waterfall lanes, one per ``serve:request`` tree.

    Present only when the trace carries trace-id-stamped spans (i.e.
    a serving export with synthesized request lifecycle trees); a
    plain profiled workload report is unchanged.
    """
    spans = [record for record in trace.spans
             if isinstance(record, SpanRecord)
             and record.trace_id is not None]
    roots = sorted((r for r in spans if r.name == "serve:request"),
                   key=lambda r: (r.start, r.trace_id or ""))
    if not roots:
        return ""
    children: Dict[str, List[SpanRecord]] = {}
    for record in spans:
        if record.name != "serve:request":
            children.setdefault(record.trace_id or "", []).append(record)
    shown = roots[:_WATERFALL_MAX_LANES]
    t0 = min(r.start for r in shown)
    t1 = max(r.end for r in shown)
    total = max(t1 - t0, 1e-9)
    order = {name: index
             for index, (name, _) in enumerate(_WATERFALL_COLORS)}
    colors = dict(_WATERFALL_COLORS)
    rows: List[str] = []
    for root in shown:
        rid = root.attrs.get("rid", "?")
        status = str(root.attrs.get("status", "?"))
        workload = str(root.attrs.get("workload", "?"))
        label = escape(f"rid {rid} {workload} [{status}] "
                       f"{format_time(root.duration)}")
        segments: List[str] = []
        lane = [record
                for record in children.get(root.trace_id or "", [])
                if record.name in colors]
        for record in sorted(lane,
                             key=lambda r: order.get(r.name, 99)):
            left = 100.0 * (record.start - t0) / total
            width = max(100.0 * record.duration / total, 0.1)
            title = escape(f"{record.name} "
                           f"[{format_time(record.duration)}]")
            segments.append(
                f'<div class=wf-seg title="{title}" '
                f'style="left:{left:.3f}%;width:{width:.3f}%;'
                f'background:{colors[record.name]}"></div>')
        if not segments:        # rejected: mark the admission decision
            left = 100.0 * (root.start - t0) / total
            reason = next(
                (str(r.attrs.get("reject_reason", ""))
                 for r in children.get(root.trace_id or "", [])
                 if r.name == "serve:admit"), "")
            segments.append(
                f'<div class=wf-seg title="rejected: {escape(reason)}" '
                f'style="left:{left:.3f}%;width:0.25%;'
                f'background:#e15759"></div>')
        rows.append(f'<div class=wf-row>'
                    f'<div class=wf-label title="{label}">{label}</div>'
                    f'<div class=wf-lane>{"".join(segments)}</div>'
                    f'</div>')
    legend = " · ".join(
        f'<span style="color:{color}">■</span> '
        f'{escape(name.split(":", 1)[1])}'
        for name, color in _WATERFALL_COLORS)
    truncated = ("" if len(roots) <= _WATERFALL_MAX_LANES else
                 f" (showing first {_WATERFALL_MAX_LANES} of "
                 f"{len(roots)})")
    return ("<h2 id=waterfall>request waterfall</h2>"
            f"<p class=meta>{len(roots)} request trace trees over "
            f"{format_time(total)}{truncated}; {legend}; red tick = "
            "rejected at admission; hover for phase durations.</p>"
            f"<div class=waterfall>{''.join(rows)}</div>")


def _kstats_table(stats: Sequence[KernelStats], caption: str) -> str:
    if not stats:
        return f"<p class=meta>{escape(caption)}: no events.</p>"
    counter_rows = list(stats[0].counters.as_dict())
    head = "".join(
        f"<th>{escape(s.label)}<br>"
        f"<span class='kind-{escape(s.kind)}'>{escape(s.kind)}</span>"
        f"</th>" for s in stats)
    body: List[str] = []
    for row_label in counter_rows:
        cells = "".join(f"<td>{s.counters.as_dict()[row_label]:.1f}</td>"
                        for s in stats)
        body.append(f"<tr><td>{escape(row_label)}</td>{cells}</tr>")
    body.append("<tr><td>bound (roofline)</td>"
                + "".join(f"<td>{escape(s.bound)}</td>" for s in stats)
                + "</tr>")
    body.append("<tr><td>events</td>"
                + "".join(f"<td>{s.events}</td>" for s in stats)
                + "</tr>")
    return (f"<p class=meta>{escape(caption)}</p>"
            f"<table><thead><tr><th>counter</th>{head}</tr></thead>"
            f"<tbody>{''.join(body)}</tbody></table>")


def _section_kstats(trace: Trace, device: DeviceSpec) -> str:
    by_category = kstats_by_category(trace, device)
    by_span = kstats_by_span(trace, device)
    return ("<h2 id=kstats>kernel statistics "
            "<span class=meta>(Table IV generalized)</span></h2>"
            + _kstats_table(by_category,
                            "per operator category (whole trace)")
            + _kstats_table(by_span, "per span (direct attribution)"))


def _svg_roofline(device: DeviceSpec,
                  groups: Sequence[Tuple[str, Sequence[RooflinePoint]]]
                  ) -> str:
    width, height = 640, 400
    ml, mr, mt, mb = 60, 16, 16, 44
    curve = roofline_curve(device)
    all_points = [p for _, points in groups for p in points]
    xs = [oi for oi, _ in curve] + \
        [p.operational_intensity for p in all_points
         if p.operational_intensity > 0]
    ys = [f for _, f in curve] + \
        [p.achieved_flops for p in all_points if p.achieved_flops > 0]
    xlo, xhi = math.log10(min(xs)), math.log10(max(xs))
    ylo, yhi = math.log10(min(ys)) - 0.2, math.log10(max(ys)) + 0.2

    def px(oi: float) -> float:
        return ml + (math.log10(oi) - xlo) / (xhi - xlo) \
            * (width - ml - mr)

    def py(flops: float) -> float:
        return height - mb - (math.log10(flops) - ylo) / (yhi - ylo) \
            * (height - mt - mb)

    parts: List[str] = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" '
        f'aria-label="roofline of {escape(device.name)}">',
        f'<rect width="{width}" height="{height}" fill="#f7f8fa" '
        'stroke="#c8c8d0"/>',
    ]
    # decade gridlines + axis tick labels
    for decade in range(math.ceil(xlo), math.floor(xhi) + 1):
        x = px(10.0 ** decade)
        parts.append(f'<line x1="{x:.1f}" y1="{mt}" x2="{x:.1f}" '
                     f'y2="{height - mb}" stroke="#e0e2e8"/>')
        parts.append(f'<text x="{x:.1f}" y="{height - mb + 16}" '
                     f'font-size="11" text-anchor="middle">'
                     f'1e{decade}</text>')
    for decade in range(math.ceil(ylo), math.floor(yhi) + 1):
        y = py(10.0 ** decade)
        parts.append(f'<line x1="{ml}" y1="{y:.1f}" '
                     f'x2="{width - mr}" y2="{y:.1f}" '
                     'stroke="#e0e2e8"/>')
        parts.append(f'<text x="{ml - 6}" y="{y + 4:.1f}" '
                     f'font-size="11" text-anchor="end">'
                     f'1e{decade}</text>')
    parts.append(f'<text x="{(ml + width - mr) / 2:.0f}" '
                 f'y="{height - 8}" font-size="12" '
                 'text-anchor="middle">operational intensity '
                 '(FLOP / byte)</text>')
    parts.append(f'<text x="14" y="{(mt + height - mb) / 2:.0f}" '
                 'font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 14 '
                 f'{(mt + height - mb) / 2:.0f})">'
                 'attainable FLOP/s</text>')
    # the roof itself
    path = " ".join(f"{px(oi):.1f},{py(f):.1f}" for oi, f in curve)
    parts.append(f'<polyline points="{path}" fill="none" '
                 'stroke="#1a1a2e" stroke-width="2"/>')
    ridge = device.ridge_point
    if xlo <= math.log10(ridge) <= xhi:
        parts.append(
            f'<line x1="{px(ridge):.1f}" y1="{mt}" '
            f'x2="{px(ridge):.1f}" y2="{height - mb}" '
            'stroke="#9c755f" stroke-dasharray="4 3"/>')
        parts.append(f'<text x="{px(ridge) + 4:.1f}" y="{mt + 12}" '
                     f'font-size="11" fill="#9c755f">ridge '
                     f'{ridge:.1f}</text>')
    # the points, one marker shape per group
    markers = ("circle", "rect")
    for index, (legend, points) in enumerate(groups):
        shape = markers[index % len(markers)]
        for point in points:
            if point.operational_intensity <= 0 \
                    or point.achieved_flops <= 0:
                continue
            x, y = px(point.operational_intensity), \
                py(point.achieved_flops)
            color = _color(point.label)
            title = (f"{point.label} ({legend}): OI="
                     f"{point.operational_intensity:.3g}, "
                     f"{point.achieved_flops:.3g} FLOP/s, "
                     f"{point.bound}-bound")
            if shape == "circle":
                parts.append(
                    f'<circle cx="{x:.1f}" cy="{y:.1f}" r="5" '
                    f'fill="{color}" stroke="#fff">'
                    f'<title>{escape(title)}</title></circle>')
            else:
                parts.append(
                    f'<rect x="{x - 4:.1f}" y="{y - 4:.1f}" '
                    f'width="8" height="8" fill="{color}" '
                    f'stroke="#fff">'
                    f'<title>{escape(title)}</title></rect>')
            parts.append(f'<text x="{x + 7:.1f}" y="{y + 4:.1f}" '
                         f'font-size="10">{escape(point.label)}</text>')
    parts.append("</svg>")
    return "".join(parts)


def _section_roofline(trace: Trace, device: DeviceSpec) -> str:
    phase_points = roofline_points(trace, device, group_by="phase")
    span_points = [stats.roofline
                   for stats in kstats_by_span(trace, device)
                   if stats.roofline is not None]
    if not phase_points and not span_points:
        return ("<h2 id=roofline>roofline</h2>"
                "<p class=meta>no events to place.</p>")
    svg = _svg_roofline(device, [("phase", phase_points),
                                 ("span", span_points)])
    return ("<h2 id=roofline>roofline "
            "<span class=meta>(Fig. 3c; circles = phases, "
            "squares = spans)</span></h2>" + svg)


def _section_sparsity(trace: Trace) -> str:
    stats = stage_sparsity(trace)
    if not stats:
        return ("<h2 id=sparsity>sparsity</h2>"
                "<p class=meta>no staged tensor outputs.</p>")
    body = "".join(
        f"<tr><td>{escape(s.stage)}</td><td>{s.num_events}</td>"
        f"<td>{s.mean * 100:.1f}</td>"
        f"<td>{s.weighted_mean * 100:.1f}</td>"
        f"<td>{s.minimum * 100:.1f}</td>"
        f"<td>{s.maximum * 100:.1f}</td></tr>"
        for s in stats)
    return ("<h2 id=sparsity>output sparsity by stage "
            "<span class=meta>(Fig. 5 lens)</span></h2>"
            "<table><thead><tr><th>stage</th><th>events</th>"
            "<th>mean %</th><th>weighted %</th><th>min %</th>"
            "<th>max %</th></tr></thead>"
            f"<tbody>{body}</tbody></table>")


def _section_trends(history: Optional[Sequence[object]]) -> str:
    """Longitudinal perf trends: the gate's pin verdict, then one
    sparkline row per history metric.

    ``history`` is a list of :class:`repro.obs.history.HistoryEntry`
    (kept untyped here so the report module imports nothing from the
    history store unless the section is requested).
    """
    if not history:
        return ""
    from repro.obs.history import (check_pins, detect_change_points,
                                   metric_series, sparkline_svg)
    verdict = check_pins(history)  # type: ignore[arg-type]
    names = sorted({m for e in history for m in e.metrics})  # type: ignore[attr-defined]
    rows: List[str] = []
    for metric in names:
        series = metric_series(history, metric)  # type: ignore[arg-type]
        if not series:
            continue
        shifts = detect_change_points(series)
        delta = ""
        if len(series) >= 2 and series[-2] != 0:
            rel = (series[-1] - series[-2]) / abs(series[-2])
            delta = f"{rel:+.1%}"
        spark = sparkline_svg(series[-48:],
                              change_points=[s - max(0, len(series) - 48)
                                             for s in shifts])
        rows.append(
            f"<tr><td>{escape(metric)}</td>"
            f"<td>{len(series)}</td>"
            f"<td>{series[-1]:.6g}</td>"
            f"<td>{escape(delta) or '-'}</td>"
            f"<td>{spark}</td>"
            f"<td>{escape(','.join(map(str, shifts)) or '-')}</td></tr>")
    first = history[0]
    last = history[-1]
    window = (f"{len(history)} entries "
              f"({getattr(first, 'created', '') or '?'} .. "
              f"{getattr(last, 'created', '') or '?'})")
    return ("<h2 id=trends>perf trends "
            "<span class=meta>(longitudinal history)</span></h2>"
            f"<pre>{escape(verdict.render())}</pre>"
            f"<p class=meta>{escape(window)}; metrics are trend-only "
            "(the gate compares pins); red dashes mark detected change "
            "points (binary segmentation).</p>"
            "<table><thead><tr><th>metric</th><th>n</th><th>last</th>"
            "<th>delta</th><th>trend</th><th>shifts@</th></tr></thead>"
            f"<tbody>{''.join(rows)}</tbody></table>")


# ---------------------------------------------------------------------------
# entry points


def render_report(trace: Trace, device: DeviceSpec = RTX_2080TI,
                  history: Optional[Sequence[object]] = None) -> str:
    """The full single-file HTML report for ``trace`` on ``device``.

    ``history`` (a list of :class:`repro.obs.history.HistoryEntry`)
    adds the longitudinal perf-trend section — the gate's pin verdict
    and per-metric sparklines with change-point markers.
    """
    sections = [
        _section_header(trace, device),
        _section_timeline(trace),
        _section_waterfall(trace),
        _section_kstats(trace, device),
        _section_roofline(trace, device),
        _section_sparsity(trace),
        _section_trends(history),
    ]
    title = escape(f"run report: {trace.workload or 'trace'}")
    return ("<!DOCTYPE html>\n"
            '<html lang="en"><head><meta charset="utf-8">\n'
            f"<title>{title}</title>\n"
            f"<style>{_CSS}</style></head>\n<body>\n"
            + "\n".join(s for s in sections if s)
            + "\n</body></html>\n")


def write_report(trace: Trace, path: str,
                 device: DeviceSpec = RTX_2080TI,
                 history: Optional[Sequence[object]] = None) -> None:
    """Write the HTML run report to ``path``."""
    with open(path, "w") as handle:
        handle.write(render_report(trace, device, history=history))
