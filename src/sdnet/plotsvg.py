"""Minimal self-contained SVG 1.1 line plots with error bars.

No plotting dependencies; output bytes are deterministic for identical
inputs (fixed geometry and %.6g number formatting). The file is UTF-8
written in binary mode, and its text is XML-escaped.
"""

from __future__ import annotations

from pathlib import Path
from xml.sax.saxutils import escape

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50


def _num(x: float) -> str:
    return f"{float(x):.6g}"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def render_line_plot(path, xs, means, sds, title: str = "",
                     xlabel: str = "", ylabel: str = "") -> None:
    """One series of (x, mean +- sd) points joined by a polyline."""
    title, xlabel, ylabel = escape(title), escape(xlabel), escape(ylabel)
    xs = [float(v) for v in xs]
    means = [float(v) for v in means]
    sds = [float(v) for v in sds]
    if not (len(xs) == len(means) == len(sds)) or not xs:
        raise ValueError("xs, means and sds must be equal-length and nonempty")
    x_lo, x_hi = min(xs), max(xs)
    y_lo = min(m - s for m, s in zip(means, sds))
    y_hi = max(m + s for m, s in zip(means, sds))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # axes
    x0, y0 = px(x_lo), py(y_lo)
    x1, y1 = px(x_hi), py(y_hi)
    parts.append(f'<line x1="{_num(x0)}" y1="{_num(y0)}" x2="{_num(x1)}" '
                 f'y2="{_num(y0)}" stroke="black"/>')
    parts.append(f'<line x1="{_num(x0)}" y1="{_num(y0)}" x2="{_num(x0)}" '
                 f'y2="{_num(y1)}" stroke="black"/>')
    for t in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{_num(px(t))}" y1="{_num(y0)}" '
                     f'x2="{_num(px(t))}" y2="{_num(y0 + 5)}" stroke="black"/>')
        parts.append(f'<text x="{_num(px(t))}" y="{_num(y0 + 20)}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{_num(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{_num(x0 - 5)}" y1="{_num(py(t))}" '
                     f'x2="{_num(x0)}" y2="{_num(py(t))}" stroke="black"/>')
        parts.append(f'<text x="{_num(x0 - 8)}" y="{_num(py(t) + 4)}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{_num(t)}</text>')
    parts.append(f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    parts.append(f'<text x="18" y="{HEIGHT / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {HEIGHT / 2:.1f})">{ylabel}</text>')
    # error bars with caps
    for x, m, s in zip(xs, means, sds):
        cx = px(x)
        top, bot = py(m + s), py(m - s)
        parts.append(f'<line x1="{_num(cx)}" y1="{_num(top)}" x2="{_num(cx)}" '
                     f'y2="{_num(bot)}" stroke="steelblue"/>')
        for yy in (top, bot):
            parts.append(f'<line x1="{_num(cx - 4)}" y1="{_num(yy)}" '
                         f'x2="{_num(cx + 4)}" y2="{_num(yy)}" stroke="steelblue"/>')
    pts = " ".join(f"{_num(px(x))},{_num(py(m))}" for x, m in zip(xs, means))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="steelblue" '
                 f'stroke-width="2"/>')
    for x, m in zip(xs, means):
        parts.append(f'<circle cx="{_num(px(x))}" cy="{_num(py(m))}" r="3" '
                     f'fill="steelblue"/>')
    parts.append("</svg>")
    Path(path).write_bytes(("\n".join(parts) + "\n").encode("utf-8"))
