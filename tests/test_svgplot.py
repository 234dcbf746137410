"""SVG line plots: the array-wise writer against the per-point reference."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sfwm_sim.svgplot import (
    COLORS,
    HEIGHT,
    MARGIN_B,
    MARGIN_L,
    MARGIN_R,
    MARGIN_T,
    WIDTH,
    _ticks,
    write_line_plot,
)


def reference_line_plot(x, series, x_label, y_label, title=""):
    """The plot text as formatted point by point, one scalar ``sx``/``sy`` call each."""
    x = np.asarray(x, dtype=float)
    x_lo, x_hi = float(x.min()), float(x.max())
    y_all = np.concatenate([np.asarray(y, dtype=float) for y in series.values()])
    y_lo, y_hi = float(y_all.min()), float(y_all.max())
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    inner_w = WIDTH - MARGIN_L - MARGIN_R
    inner_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(v):
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * inner_w

    def sy(v):
        return MARGIN_T + (1.0 - (v - y_lo) / (y_hi - y_lo)) * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{title}</text>',
    ]
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
    for idx, (label, y) in enumerate(series.items()):
        y = np.asarray(y, dtype=float)
        pts = " ".join(f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(x, y))
        color = COLORS[idx % len(COLORS)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_T + 16 + 16 * idx
        lx = WIDTH - MARGIN_R - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="12" font-family="sans-serif">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# Bounded so that no difference of two values overflows.
VALUES = st.floats(-1e150, 1e150, allow_nan=False)


@st.composite
def plots(draw):
    """An x axis and up to 9 series: new arrays, repeats of an earlier one, or constants."""
    n = draw(st.integers(2, 24))
    x = draw(arrays(np.float64, n, elements=VALUES).filter(lambda x: x.min() < x.max()))
    series = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(["new", "repeat", "constant"]))
        if kind == "repeat" and series:
            series.append(series[draw(st.integers(0, len(series) - 1))].copy())
        elif kind == "constant":
            series.append(np.full(n, draw(VALUES)))
        else:
            series.append(draw(arrays(np.float64, n, elements=VALUES)))
    y_all = np.concatenate(series)
    # A constant plot is widened to y +- 1, which is no range at all from 2**53 up.
    assume(y_all.min() < y_all.max() or abs(y_all[0]) < 2.0**52)
    return x, {f"s{i}": y for i, y in enumerate(series)}


SPECTRUM_X = np.linspace(-10.0, 10.0, 9)
SPECTRUM_Y = np.exp(-SPECTRUM_X**2 / 8.0)

# Points whose pixel coordinates fall within an ulp or so of a two-decimal
# rounding tie (x.125, x.375, ...), so that another operation order in sx or
# sy shows in the text.  The first two points fix the ranges at [0, 3] and [0, 1].
TIES = np.arange(100, 400) + np.tile([0.125, 0.375, 0.625, 0.875], 75)
EDGE_X = np.concatenate([[0.0, 3.0], (TIES - MARGIN_L) / (WIDTH - MARGIN_L - MARGIN_R) * 3.0])
EDGE_Y = np.concatenate([[0.0, 1.0], 1.0 - (TIES - MARGIN_T) / (HEIGHT - MARGIN_T - MARGIN_B)])


@settings(max_examples=150, deadline=None)
@given(plot=plots())
@example(plot=(SPECTRUM_X, {"a": np.full(9, -3.5), "b": np.full(9, -3.5)}))  # y_lo == y_hi
@example(plot=(SPECTRUM_X, {f"s{i}": SPECTRUM_Y * (i % 3 - 1) for i in range(8)}))
@example(plot=(SPECTRUM_X, {"zero": np.zeros(9), "negative zero": np.full(9, -0.0)}))
@example(plot=(EDGE_X, {"edges": EDGE_Y}))
def test_plot_is_the_per_point_bytes(tmp_path_factory, plot):
    x, series = plot
    path = tmp_path_factory.mktemp("svg") / "plot.svg"
    write_line_plot(path, x, series, "detuning (THz)", "flux", "title")
    assert path.read_text() == reference_line_plot(x, series, "detuning (THz)", "flux", "title")


def test_series_may_be_lists_and_integer_arrays(tmp_path):
    x = [0, 1, 2, 3]
    series = {"list": [3, 1, 4, 1], "ints": np.array([5, 9, 2, 6]), "again": [3.0, 1.0, 4.0, 1.0]}
    write_line_plot(tmp_path / "plot.svg", x, series, "x", "y")
    assert (tmp_path / "plot.svg").read_text() == reference_line_plot(x, series, "x", "y")
