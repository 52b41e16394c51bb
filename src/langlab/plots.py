"""Deterministic SVG line and bar charts for experiment figures, in one frame."""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

from .corpusio import write_lines

__all__ = ["line_chart", "bar_chart"]

_GROUP_COLORS = {"natural": "#2a7f3f", "reversed": "#c23b22", "parity-negation": "#1f5fa8"}
_FALLBACK_COLORS = ("#7a5195", "#ef8a62", "#67a9cf", "#999999")

_W, _H = 720, 440
_X0, _X1, _Y0, _Y1 = 70, _W - 160, _H - 50, 40  # the plot area's left, right, bottom, top


def _color(label: str, index: int) -> str:
    return _GROUP_COLORS.get(label, _FALLBACK_COLORS[index % len(_FALLBACK_COLORS)])


def _text(x, y, size: int, body, anchor: str = "", after: str = "") -> str:
    """A sans-serif <text> element; after holds more attributes."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{after}>{body}</text>')


def _offset(v: float, lo: float, hi: float, span: int) -> float:
    """v's pixels from the start of a span-pixel axis from lo to hi; 0 if hi <= lo."""
    return span * ((v - lo) / (hi - lo) if hi > lo else 0)


def _height(v: float, lo: float, hi: float) -> float:
    """v's pixels above the x axis, on a y axis from lo to hi."""
    return (_Y0 - _Y1) * (v - lo) / (hi - lo)


def _chart(path, title, lo_x, hi_x, lo_y, hi_y, xlabel, ylabel, marks) -> None:
    """Write the SVG at path: the title, the axes with five ticks each (a
    zero-width range is ticked from lo to lo + 1), the axis labels, marks."""
    ticks = [[lo + ((lo + 1.0 if hi == lo else hi) - lo) * i / 4 for i in range(5)]
             for lo, hi in ((lo_x, hi_x), (lo_y, hi_y))]
    mid_y = f"{(_Y0 + _Y1) / 2:.1f}"
    frame = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        _text(f"{_W / 2:.1f}", 24, 15, title, "middle"),
        f'<line x1="{_X0}" y1="{_Y0}" x2="{_X1}" y2="{_Y0}" stroke="black"/>',
        f'<line x1="{_X0}" y1="{_Y0}" x2="{_X0}" y2="{_Y1}" stroke="black"/>',
        *(_text(f"{_X0 + _offset(tx, lo_x, hi_x, _X1 - _X0):.1f}", _Y0 + 18, 11,
                f"{tx:.4g}", "middle") for tx in ticks[0]),
        *(_text(_X0 - 8, f"{_Y0 - _offset(ty, lo_y, hi_y, _Y0 - _Y1) + 4:.1f}", 11,
                f"{ty:.4g}", "end") for ty in ticks[1]),
        _text(f"{(_X0 + _X1) / 2:.1f}", _H - 12, 12, xlabel, "middle"),
        _text(18, mid_y, 12, ylabel, "middle", f' transform="rotate(-90 18 {mid_y})"'),
    ]
    write_lines(path, chain(frame, marks, ["</svg>"]))


def line_chart(path: str | Path, series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
               title: str, xlabel: str, ylabel: str) -> None:
    """One polyline and legend row per label; series maps a label to (xs, ys)."""
    xs_all = [x for xs, _ in series.values() for x in xs]
    ys_all = [y for _, ys in series.values() for y in ys]
    if not xs_all:
        raise ValueError("line_chart: no data")
    lo_x, hi_x = min(xs_all), max(xs_all)
    lo_y, hi_y = min(ys_all), max(ys_all)
    if hi_y == lo_y:
        hi_y = lo_y + 1.0

    def marks():
        for i, (label, (xs, ys)) in enumerate(series.items()):
            color, ly = _color(label, i), _Y1 + 16 + 18 * i
            points = " ".join(f"{_X0 + _offset(x, lo_x, hi_x, _X1 - _X0):.2f},"
                              f"{_Y0 - _height(y, lo_y, hi_y):.2f}" for x, y in zip(xs, ys))
            yield (f'<polyline points="{points}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
            yield (f'<line x1="{_X1 + 10}" y1="{ly - 4}" x2="{_X1 + 34}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="3"/>')
            yield _text(_X1 + 40, ly, 12, label)

    _chart(path, title, lo_x, hi_x, lo_y, hi_y, xlabel, ylabel, marks())


def bar_chart(path: str | Path, categories: Sequence[str],
              series: Mapping[str, Sequence[float]], title: str, ylabel: str) -> None:
    """Grouped bars: one cluster per category, one bar per series label."""
    values = [v for vs in series.values() for v in vs]
    if not values:
        raise ValueError("bar_chart: no data")
    hi_y = max(values) * 1.05 or 1.0  # all zero: a y axis from 0 to 1
    cluster = (_X1 - _X0) / max(1, len(categories))
    width = cluster * 0.8 / max(1, len(series))

    def marks():
        for ci, cat in enumerate(categories):
            for si, (label, vals) in enumerate(series.items()):
                h = _height(vals[ci], 0.0, hi_y)
                bx = _X0 + ci * cluster + cluster * 0.1 + si * width
                yield (f'<rect x="{bx:.2f}" y="{_Y0 - h:.2f}" width="{width:.2f}" '
                       f'height="{h:.2f}" fill="{_color(label, si)}"/>')
            yield _text(f"{_X0 + ci * cluster + cluster / 2:.1f}", _Y0 + 18, 11, cat, "middle")
        for si, label in enumerate(series):
            ly = _Y1 + 16 + 18 * si
            yield (f'<rect x="{_X1 + 10}" y="{ly - 12}" width="14" height="10" '
                   f'fill="{_color(label, si)}"/>')
            yield _text(_X1 + 30, ly - 2, 12, label)

    _chart(path, title, 0, len(categories), 0.0, hi_y, "", ylabel, marks())
