"""Minimal self-contained SVG line charts (no plotting dependency).

Output is a pure function of the input series: fixed palette, fixed float
formatting, no timestamps, so identical inputs give identical bytes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

__all__ = ["RateSeries", "render_rate_chart"]

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_WIDTH, _HEIGHT = 720, 480
_ML, _MR, _MT, _MB = 64, 16, 28, 48  # margins


@dataclass
class RateSeries:
    """One curve: simulated means vs N, with std-dev and asymptote overlays
    (an asymptote of None leaves its point out of the overlay)."""

    label: str
    n_values: list[float]
    mean: list[float]
    std: list[float]
    asymptote: list[float | None]


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    # count ticks by index: where step is below the spacing of doubles near
    # lo, adding it to a tick would leave the tick unchanged
    first = math.ceil(lo / step)
    last = math.floor(hi / step + 1e-9)
    return [round(k * step, 10) for k in range(first, last + 1)]


def render_rate_chart(series: list[RateSeries], title: str = "") -> str:
    """Rate-versus-N chart: markers + solid line per series, dashed std-dev,
    thin asymptote overlay, legend.  Returns the SVG document as a string."""
    if not series or not any(s.n_values for s in series):
        raise ValueError("nothing to plot")

    overlays = [
        [(x, a) for x, a in zip(s.n_values, s.asymptote) if a is not None] for s in series
    ]
    xs = [x for s in series for x in s.n_values]
    ys = [y for s in series for y in s.mean] + [a for ov in overlays for _, a in ov]
    ys += [y for s in series for y in s.std]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(0.0, min(ys)), max(ys)
    if x_hi == x_lo:
        # a single N: the axis also spans 0 to 1, a width that no magnitude
        # of N rounds away or overflows
        x_lo, x_hi = min(0.0, x_lo), max(1.0, x_hi)
    pad = 0.05 * (y_hi - y_lo) or 1.0
    y_hi += pad

    pw = _WIDTH - _ML - _MR
    ph = _HEIGHT - _MT - _MB

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return _MT + (1.0 - (y - y_lo) / (y_hi - y_lo)) * ph

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.0f}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(title)}</text>'
        )

    # axes, grid, ticks
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#444" stroke-width="1"/>'
    )
    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        out.append(
            f'<line x1="{x:.2f}" y1="{_MT + ph}" x2="{x:.2f}" y2="{_MT + ph + 4}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_MT + ph + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        out.append(
            f'<line x1="{_ML}" y1="{y:.2f}" x2="{_ML + pw}" y2="{y:.2f}" '
            'stroke="#ddd" stroke-width="0.5"/>'
        )
        out.append(
            f'<text x="{_ML - 6}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>'
        )
    out.append(
        f'<text x="{_ML + pw / 2:.0f}" y="{_HEIGHT - 10}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12">receive diversity branches N</text>'
    )
    out.append(
        f'<text x="16" y="{_MT + ph / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_MT + ph / 2:.0f})">rate (bits/symbol)</text>'
    )

    def polyline(pts, color, width, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{d}/>'
        )

    for k, s in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        if overlays[k]:
            polyline(overlays[k], color, 1.0)
        polyline(list(zip(s.n_values, s.mean)), color, 1.8)
        for x, y in zip(s.n_values, s.mean):
            out.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3.2" fill="{color}"/>'
            )
        polyline(list(zip(s.n_values, s.std)), color, 1.2, dash="5,4")

    # legend
    ly = _MT + 10
    for k, s in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        out.append(
            f'<line x1="{_ML + 10}" y1="{ly}" x2="{_ML + 34}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        out.append(
            f'<text x="{_ML + 40}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{_escape(s.label)}</text>'
        )
        ly += 16
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    # what XML 1.0 cannot hold, not even as a reference, becomes U+FFFD
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return re.sub(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]", "\ufffd", text)
