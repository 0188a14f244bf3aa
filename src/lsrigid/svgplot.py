"""Minimal SVG line plots: axes, ticks and polylines, nothing else."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

_COLORS = ["#1f6fb2", "#c2452d", "#3a8a3f", "#7a4fa3", "#b8860b"]


@dataclass(frozen=True)
class Series:
    label: str
    xs: Sequence[float]
    ys: Sequence[float]


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _fmt(x: float) -> str:
    if abs(x) >= 1000 or (x != 0 and abs(x) < 0.01):
        return f"{x:.2e}"
    return f"{x:.4g}"


def line_plot(
    path,
    series: Sequence[Series],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    width, height, margin = 720, 460, 64
    inner_w = width - 2 * margin
    inner_h = height - 2 * margin
    xs_all = [x for s in series for x in s.xs]
    ys_all = [y for s in series for y in s.ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * inner_w

    def py(y: float) -> float:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 16}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{xlabel}</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 18 {height / 2:.1f})">{ylabel}</text>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{height - margin}" x2="{x:.1f}" '
            f'y2="{height - margin + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{height - margin + 18}" text-anchor="middle" '
            f'font-size="10" font-family="sans-serif">{_fmt(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{margin - 5}" y1="{y:.1f}" x2="{margin}" y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{y + 3:.1f}" text-anchor="end" '
            f'font-size="10" font-family="sans-serif">{_fmt(t)}</text>'
        )
    for k, s in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.xs, s.ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - margin}" y="{margin + 14 * (k + 1)}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif" fill="{color}">{s.label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
