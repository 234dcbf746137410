"""Minimal native SVG line plots (no plotting dependency).

Deterministic output: same data, byte-identical file.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 800, 500
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if lo == hi:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def write_line_plot(
    path: str | Path,
    x: np.ndarray,
    series: dict[str, np.ndarray],
    x_label: str,
    y_label: str,
    title: str = "",
) -> None:
    x = np.asarray(x, dtype=float)
    x_lo, x_hi = float(x.min()), float(x.max())
    y_all = np.concatenate([np.asarray(y, dtype=float) for y in series.values()])
    y_lo, y_hi = float(y_all.min()), float(y_all.max())
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
        if y_lo == y_hi:  # from 2**53 up, y +- 1 can round back to y
            y_lo, y_hi = float(np.nextafter(y_lo, -np.inf)), float(np.nextafter(y_hi, np.inf))

    inner_w = WIDTH - MARGIN_L - MARGIN_R
    inner_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(v: float) -> float:
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * inner_w

    def sy(v: float) -> float:
        return MARGIN_T + (1.0 - (v - y_lo) / (y_hi - y_lo)) * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{title}</text>',
    ]
    # Axes and ticks
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    parts.append(
        f'<path d="M {x0} {MARGIN_T} L {x0} {y0} L {WIDTH - MARGIN_R} {y0}" '
        'stroke="black" fill="none"/>'
    )
    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{y0 + 20}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{tick:.4g}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{py + 4:.2f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">{tick:.3g}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + inner_w / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + inner_h / 2:.1f}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 18 {MARGIN_T + inner_h / 2:.1f})">'
        f"{y_label}</text>"
    )
    # Series.  sx and sy run on whole arrays (same operations, so the same
    # bits as per point); the x cells are formatted once into a template that
    # takes each series' y values, and bit-identical series share one string.
    points = " ".join(f"{xv:.2f},%.2f" for xv in sx(x).tolist())
    pts_of: dict[bytes, str] = {}
    for idx, (label, y) in enumerate(series.items()):
        y = np.asarray(y, dtype=float)
        key = y.tobytes()
        if key not in pts_of:
            pts_of[key] = points % tuple(sy(y).tolist())
        pts = pts_of[key]
        color = COLORS[idx % len(COLORS)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_T + 16 + 16 * idx
        lx = WIDTH - MARGIN_R - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="12" font-family="sans-serif">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
