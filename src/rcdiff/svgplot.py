"""Dependency-free SVG line plots (axes, ticks, error bars, legend)."""

from __future__ import annotations

from dataclasses import dataclass

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
WIDTH, HEIGHT = 640, 440  # of every plot, in pixels
N_TICKS = 5  # per axis


@dataclass(frozen=True)
class Series:
    name: str
    x: list
    y: list
    err: list | None = None   # half-width of the error bar, same length as y


def _ticks(lo: float, hi: float) -> list:
    step = (hi - lo) / (N_TICKS - 1)
    return [lo + i * step for i in range(N_TICKS)]


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def render_line_plot(
    path,
    series: list,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Write a minimal line plot; output depends only on the inputs."""
    ml, mr, mt, mb = 64, 16, 36, 48
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb

    xs = [v for s in series for v in s.x]
    ys = []
    for s in series:
        for i, v in enumerate(s.y):
            e = s.err[i] if s.err is not None else 0.0
            ys.extend([v - e, v + e])
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = (min(ys), max(ys)) if ys else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.06 * (y_hi - y_lo) or 1.0
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def py(v):
        return mt + ph - (v - y_lo) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="11">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{ml}" y="{mt - 14}" font-size="13">{title}</text>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        out.append(
            f'<line x1="{px(tx):.1f}" y1="{mt + ph}" x2="{px(tx):.1f}" '
            f'y2="{mt + ph + 4}" stroke="black"/>'
            f'<text x="{px(tx):.1f}" y="{mt + ph + 18}" text-anchor="middle">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        out.append(
            f'<line x1="{ml - 4}" y1="{py(ty):.1f}" x2="{ml}" y2="{py(ty):.1f}" stroke="black"/>'
            f'<text x="{ml - 8}" y="{py(ty) + 4:.1f}" text-anchor="end">{_fmt(ty)}</text>'
        )
    out.append(
        f'<text x="{ml + pw / 2:.0f}" y="{HEIGHT - 10}" text-anchor="middle">{xlabel}</text>'
    )
    out.append(
        f'<text x="14" y="{mt + ph / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {mt + ph / 2:.0f})">{ylabel}</text>'
    )
    for si, s in enumerate(series):
        color = PALETTE[si % len(PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.x, s.y))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for i, (x, y) in enumerate(zip(s.x, s.y)):
            out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="{color}"/>')
            if s.err is not None and s.err[i] > 0:
                out.append(
                    f'<line x1="{px(x):.2f}" y1="{py(y - s.err[i]):.2f}" '
                    f'x2="{px(x):.2f}" y2="{py(y + s.err[i]):.2f}" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
        out.append(
            f'<text x="{ml + pw - 6}" y="{mt + 14 + 14 * si}" text-anchor="end" '
            f'fill="{color}">{s.name}</text>'
        )
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
