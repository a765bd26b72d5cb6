"""Dependency-free deterministic SVG charts of data plus fitted curves.

Identical inputs produce byte-identical files: no timestamps, no
generated identifiers, fixed float formatting.
"""

from __future__ import annotations

import math
from pathlib import Path

from .dataio import RawSeries
from .models import FAMILIES

__all__ = ["render_plot"]

_DATA_COLOR = "#333333"

_WIDTH = 900
_HEIGHT = 560
_MARGIN_LEFT = 78
_MARGIN_RIGHT = 170
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 64
_TARGET_TICKS = 6


def _nice_step(span: float) -> float:
    """Round span / _TARGET_TICKS to 1, 2 or 5 times a power of ten."""
    raw = span / _TARGET_TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def _fmt_tick(v: float) -> str:
    return f"{v:g}"


def render_plot(raw: RawSeries | None, fits, path) -> None:
    """Write an SVG chart: scatter markers for the data and one polyline
    per fitted curve, with a legend and linear axes in original units.

    ``fits`` is a sequence of (ModelKind, RawSeries) pairs holding the
    denormalized fitted curves.
    """
    fits = list(fits) if fits is not None else []
    if raw is None and not fits:
        raise ValueError("nothing to plot: no data and no fits")

    all_t: list[float] = []
    all_y: list[float] = []
    if raw is not None:
        all_t.extend(float(t) for t in raw.times)
        all_y.extend(float(v) for v in raw.values)
    for _, curve in fits:
        all_t.extend(float(t) for t in curve.times)
        all_y.extend(float(v) for v in curve.values)

    t_lo, t_hi = min(all_t), max(all_t)
    if t_hi <= t_lo:
        t_lo, t_hi = t_lo - 1.0, t_hi + 1.0
    y_lo = 0.0 if min(all_y) >= 0.0 else min(all_y)
    y_hi = max(all_y)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    y_hi *= 1.06

    plot_l = _MARGIN_LEFT
    plot_r = _WIDTH - _MARGIN_RIGHT
    plot_t = _MARGIN_TOP
    plot_b = _HEIGHT - _MARGIN_BOTTOM

    def px(t: float) -> float:
        return plot_l + (t - t_lo) / (t_hi - t_lo) * (plot_r - plot_l)

    def py(y: float) -> float:
        return plot_b - (y - y_lo) / (y_hi - y_lo) * (plot_b - plot_t)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
    ]

    for v in _ticks(y_lo, y_hi):
        y = py(v)
        out.append(
            f'<line x1="{plot_l}" y1="{y:.2f}" x2="{plot_r}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{plot_l - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif">{_fmt_tick(v)}</text>'
        )
    for v in _ticks(t_lo, t_hi):
        x = px(v)
        out.append(
            f'<line x1="{x:.2f}" y1="{plot_b}" x2="{x:.2f}" y2="{plot_b + 5}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{plot_b + 20}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{_fmt_tick(v)}</text>'
        )

    out.append(
        f'<line x1="{plot_l}" y1="{plot_b}" x2="{plot_r}" y2="{plot_b}" '
        f'stroke="#000000" stroke-width="1.5"/>'
    )
    out.append(
        f'<line x1="{plot_l}" y1="{plot_t}" x2="{plot_l}" y2="{plot_b}" '
        f'stroke="#000000" stroke-width="1.5"/>'
    )

    for kind, curve in fits:
        color = FAMILIES[kind].color
        points = " ".join(
            f"{px(float(t)):.2f},{py(float(v)):.2f}"
            for t, v in zip(curve.times, curve.values)
        )
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>'
        )

    if raw is not None:
        for t, v in zip(raw.times, raw.values):
            out.append(
                f'<circle cx="{px(float(t)):.2f}" cy="{py(float(v)):.2f}" r="3.5" '
                f'fill="{_DATA_COLOR}"/>'
            )

    legend_x = plot_r + 18
    legend_y = plot_t + 10
    entries: list[tuple[str, str, str]] = []
    if raw is not None:
        entries.append(("data", _DATA_COLOR, "circle"))
    entries.extend((kind.display_name, FAMILIES[kind].color, "line") for kind, _ in fits)
    for i, (label, color, marker) in enumerate(entries):
        ly = legend_y + i * 22
        if marker == "circle":
            out.append(f'<circle cx="{legend_x + 10}" cy="{ly}" r="3.5" fill="{color}"/>')
        else:
            out.append(
                f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 20}" y2="{ly}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
        out.append(
            f'<text x="{legend_x + 27}" y="{ly + 4}" text-anchor="start" '
            f'font-size="13" font-family="sans-serif">{label}</text>'
        )

    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")
