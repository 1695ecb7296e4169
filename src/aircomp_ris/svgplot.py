"""Minimal self-contained SVG line plots (log-scale y) for sweep results.
No plotting library is invoked; the CSV is the authoritative record and
the SVG is a convenience rendering."""

from __future__ import annotations

import math

_WIDTH = 720
_HEIGHT = 480
_MARGIN_L = 70
_MARGIN_R = 160
_MARGIN_T = 30
_MARGIN_B = 50

_COLORS = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
]


def _fmt(x):
    return f"{x:.2f}"


def line_plot_svg(series, x_label, title=""):
    """Render series = {label: [(x, y), ...]} as an SVG string.

    y, the NMSE, is drawn on a log10 scale; non-positive y values are
    clamped to the smallest positive value present.
    """
    all_x = [p[0] for pts in series.values() for p in pts]
    all_y = [p[1] for pts in series.values() for p in pts]
    if not all_x:
        raise ValueError("nothing to plot")
    pos_y = [y for y in all_y if y > 0]
    y_floor = min(pos_y) if pos_y else 1e-12
    logs = [math.log10(max(y, y_floor)) for y in all_y]
    x_min, x_max = min(all_x), max(all_x)
    ly_min, ly_max = min(logs), max(logs)
    if x_max == x_min:
        # a step that changes the float at any magnitude (1.0 does not past 2^53)
        x_max = x_min + max(1.0, abs(x_min))
    if ly_max == ly_min:
        ly_max = ly_min + 1.0
    pw = _WIDTH - _MARGIN_L - _MARGIN_R
    ph = _HEIGHT - _MARGIN_T - _MARGIN_B
    # a power of two keeps pw * (x - x_min) finite and rounds as without it
    e = max(0, math.frexp(x_max - x_min)[1])
    span = math.ldexp(x_max - x_min, -e)

    def sx(x):
        return _MARGIN_L + pw * math.ldexp(x - x_min, -e) / span

    def sy(y):
        ly = math.log10(max(y, y_floor))
        return _MARGIN_T + ph * (1.0 - (ly - ly_min) / (ly_max - ly_min))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{pw}" height="{ph}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.0f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    # axis ticks: x at each distinct value, y at integer decades
    for x in sorted(set(all_x)):
        parts.append(
            f'<line x1="{_fmt(sx(x))}" y1="{_MARGIN_T + ph}" '
            f'x2="{_fmt(sx(x))}" y2="{_MARGIN_T + ph + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_fmt(sx(x))}" y="{_MARGIN_T + ph + 20}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{x:g}</text>"
        )
    for dec in range(math.ceil(ly_min), math.floor(ly_max) + 1):
        py = _MARGIN_T + ph * (1.0 - (dec - ly_min) / (ly_max - ly_min))
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{_fmt(py)}" x2="{_MARGIN_L}" '
            f'y2="{_fmt(py)}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{dec}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + pw / 2:.0f}" y="{_HEIGHT - 10}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f"{x_label}</text>"
    )
    parts.append(
        f'<text x="15" y="{_MARGIN_T + ph / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 15 {_MARGIN_T + ph / 2:.0f})">NMSE</text>'
    )
    for i, (label, pts) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        for x, y in pts:
            parts.append(
                f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="2.5" '
                f'fill="{color}"/>'
            )
        ly_pos = _MARGIN_T + 15 + 16 * i
        lx = _WIDTH - _MARGIN_R + 10
        parts.append(
            f'<line x1="{lx}" y1="{ly_pos - 4}" x2="{lx + 20}" '
            f'y2="{ly_pos - 4}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{lx + 25}" y="{ly_pos}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def records_to_series(records):
    """Group AggregateRecords into {scheme label: [(value, nmse_mean)]}."""
    series = {}
    for rec in records:
        series.setdefault(rec.scheme, []).append((rec.value, rec.nmse_mean))
    for pts in series.values():
        pts.sort(key=lambda p: p[0])
    return series
