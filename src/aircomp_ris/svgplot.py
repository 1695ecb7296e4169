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


def _line(x1, y1, x2, y2, stroke, width=None):
    tail = "" if width is None else f' stroke-width="{width}"'
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}"{tail}/>'


def _text(x, y, body, size, anchor=None, extra=""):
    at = "" if anchor is None else f' text-anchor="{anchor}"'
    return (
        f'<text x="{x}" y="{y}"{at} font-family="sans-serif" '
        f'font-size="{size}"{extra}>{body}</text>'
    )


def line_plot_svg(series, x_label, title):
    """Render series = {label: [(x, y), ...]} as an SVG string.

    y, the NMSE, is drawn on a log10 scale; non-positive y values are
    clamped to the smallest positive value present.
    """
    all_x = [p[0] for pts in series.values() for p in pts]
    all_y = [p[1] for pts in series.values() for p in pts]
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

    def sy(ly):
        return _MARGIN_T + ph * (1.0 - (ly - ly_min) / (ly_max - ly_min))

    bottom, mid = _MARGIN_T + ph, _MARGIN_T + ph // 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{pw}" height="{ph}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
        _text(_WIDTH // 2, 20, title, 14, "middle"),
    ]
    # axis ticks: x at each distinct value, y at integer decades
    for x in sorted(set(all_x)):
        px = _fmt(sx(x))
        parts.append(_line(px, bottom, px, bottom + 5, "#333"))
        parts.append(_text(px, bottom + 20, f"{x:g}", 11, "middle"))
    for dec in range(math.ceil(ly_min), math.floor(ly_max) + 1):
        py = sy(dec)
        parts.append(_line(_MARGIN_L - 5, _fmt(py), _MARGIN_L, _fmt(py), "#333"))
        parts.append(_text(_MARGIN_L - 8, _fmt(py + 4), f"1e{dec}", 11, "end"))
    parts.append(_text(_MARGIN_L + pw // 2, _HEIGHT - 10, x_label, 12, "middle"))
    rotate = f' transform="rotate(-90 15 {mid})"'
    parts.append(_text(15, mid, "NMSE", 12, "middle", rotate))
    lx = _WIDTH - _MARGIN_R + 10
    for i, (label, pts) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        xy = [(_fmt(sx(x)), _fmt(sy(math.log10(max(y, y_floor))))) for x, y in pts]
        coords = " ".join(f"{px},{py}" for px, py in xy)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        for px, py in xy:
            parts.append(f'<circle cx="{px}" cy="{py}" r="2.5" fill="{color}"/>')
        ly_pos = _MARGIN_T + 15 + 16 * i
        parts.append(_line(lx, ly_pos - 4, lx + 20, ly_pos - 4, color, 1.5))
        parts.append(_text(lx + 25, ly_pos, label, 11))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def records_to_series(records):
    """Group AggregateRecords into {scheme label: [(value, nmse_mean)]}, in
    the increasing value order run_sweep emits each label's records in."""
    series = {}
    for rec in records:
        series.setdefault(rec.scheme, []).append((rec.value, rec.nmse_mean))
    return series
