"""Small deterministic SVG chart writer for experiment figures."""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from .corpusio import write_lines

__all__ = ["line_chart", "bar_chart", "GROUP_COLORS"]

GROUP_COLORS = {
    "natural": "#2a7f3f",
    "reversed": "#c23b22",
    "parity-negation": "#1f5fa8",
}
_FALLBACK_COLORS = ("#7a5195", "#ef8a62", "#67a9cf", "#999999")

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 70, 160, 40, 50


def _color(label: str, index: int) -> str:
    return GROUP_COLORS.get(label, _FALLBACK_COLORS[index % len(_FALLBACK_COLORS)])


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi == lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _svg_header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]


def _axes(lo_x, hi_x, lo_y, hi_y, xlabel, ylabel) -> list[str]:
    parts = []
    x0, x1 = _ML, _W - _MR
    y0, y1 = _H - _MB, _MT
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    for tx in _ticks(lo_x, hi_x):
        px = x0 + (x1 - x0) * ((tx - lo_x) / (hi_x - lo_x) if hi_x > lo_x else 0)
        parts.append(
            f'<text x="{px:.1f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tx:.4g}</text>'
        )
    for ty in _ticks(lo_y, hi_y):
        py = y0 - (y0 - y1) * ((ty - lo_y) / (hi_y - lo_y) if hi_y > lo_y else 0)
        parts.append(
            f'<text x="{x0 - 8}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{ty:.4g}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {(y0 + y1) / 2:.1f})">{ylabel}</text>'
    )
    return parts


def line_chart(
    path: str | Path,
    series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
    title: str,
    xlabel: str = "step",
    ylabel: str = "value",
) -> None:
    xs_all = [x for xs, _ in series.values() for x in xs]
    ys_all = [y for _, ys in series.values() for y in ys]
    if not xs_all:
        raise ValueError("line_chart: no data")
    lo_x, hi_x = min(xs_all), max(xs_all)
    lo_y, hi_y = min(ys_all), max(ys_all)
    if hi_y == lo_y:
        hi_y = lo_y + 1.0
    x0, x1 = _ML, _W - _MR
    y0, y1 = _H - _MB, _MT

    def px(x):
        return x0 + (x1 - x0) * ((x - lo_x) / (hi_x - lo_x) if hi_x > lo_x else 0)

    def py(y):
        return y0 - (y0 - y1) * (y - lo_y) / (hi_y - lo_y)

    parts = _svg_header(title) + _axes(lo_x, hi_x, lo_y, hi_y, xlabel, ylabel)
    for i, (label, (xs, ys)) in enumerate(series.items()):
        color = _color(label, i)
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = _MT + 16 + 18 * i
        parts.append(
            f'<line x1="{x1 + 10}" y1="{ly - 4}" x2="{x1 + 34}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
        parts.append(
            f'<text x="{x1 + 40}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    write_lines(path, parts)


def bar_chart(
    path: str | Path,
    categories: Sequence[str],
    series: Mapping[str, Sequence[float]],
    title: str,
    ylabel: str = "value",
) -> None:
    """Grouped bars: one cluster per category, one bar per series label."""
    values = [v for vs in series.values() for v in vs]
    if not values:
        raise ValueError("bar_chart: no data")
    lo_y, hi_y = 0.0, max(values) * 1.05
    x0, x1 = _ML, _W - _MR
    y0, y1 = _H - _MB, _MT
    parts = _svg_header(title) + _axes(0, len(categories), lo_y, hi_y, "", ylabel)
    cluster = (x1 - x0) / max(1, len(categories))
    width = cluster * 0.8 / max(1, len(series))
    for ci, cat in enumerate(categories):
        for si, (label, vals) in enumerate(series.items()):
            v = vals[ci]
            h = (y0 - y1) * (v - lo_y) / (hi_y - lo_y)
            bx = x0 + ci * cluster + cluster * 0.1 + si * width
            parts.append(
                f'<rect x="{bx:.2f}" y="{y0 - h:.2f}" width="{width:.2f}" '
                f'height="{h:.2f}" fill="{_color(label, si)}"/>'
            )
        parts.append(
            f'<text x="{x0 + ci * cluster + cluster / 2:.1f}" y="{y0 + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">{cat}</text>'
        )
    for si, label in enumerate(series):
        ly = _MT + 16 + 18 * si
        parts.append(
            f'<rect x="{x1 + 10}" y="{ly - 12}" width="14" height="10" '
            f'fill="{_color(label, si)}"/>'
        )
        parts.append(
            f'<text x="{x1 + 30}" y="{ly - 2}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    write_lines(path, parts)
