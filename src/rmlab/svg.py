"""Self-contained SVG emission: accuracy heatmaps and best-of-N line charts.

Hand-rolled so reports need no external renderer; output is deterministic
given the data (fixed float formatting, no timestamps).
"""

from __future__ import annotations

CELL = 72
MARGIN = 90
CHART_W = 560
CHART_H = 340
PALETTE = ["#27496d", "#00909e", "#8bc34a", "#dae1e7"]


def _esc(text) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _cell_color(value: float) -> str:
    t = max(0.0, min(1.0, value))
    # two-stop lerp: deep blue (low) to warm yellow (high)
    c0 = (39, 73, 109)
    c1 = (252, 211, 77)
    rgb = tuple(round(a + t * (b - a)) for a, b in zip(c0, c1))
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def heatmap_svg(row_labels, col_labels, values, title: str) -> str:
    """Grid heatmap of [0, 1] values with per-cell labels; rows are train envs."""
    n_rows, n_cols = len(row_labels), len(col_labels)
    width = MARGIN + n_cols * CELL + 20
    height = MARGIN + n_rows * CELL + 30
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="12">',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="15">'
        f'{_esc(title)}</text>',
    ]
    for j, label in enumerate(col_labels):
        x = MARGIN + j * CELL + CELL / 2
        parts.append(f'<text x="{x:.0f}" y="{MARGIN - 10}" text-anchor="middle">'
                     f'{_esc(label)}</text>')
    for i, label in enumerate(row_labels):
        y = MARGIN + i * CELL + CELL / 2 + 4
        parts.append(f'<text x="{MARGIN - 10}" y="{y:.0f}" text-anchor="end">'
                     f'{_esc(label)}</text>')
    for i in range(n_rows):
        for j in range(n_cols):
            val = values[i][j]
            x, y = MARGIN + j * CELL, MARGIN + i * CELL
            fill = _cell_color(val)
            text_fill = "#1b1b1b" if val > 0.45 else "#f5f5f5"
            parts.append(f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                         f'fill="{fill}" stroke="#ffffff"/>')
            parts.append(f'<text x="{x + CELL / 2:.0f}" y="{y + CELL / 2 + 4:.0f}" '
                         f'text-anchor="middle" fill="{text_fill}">{val:.3f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def line_chart_svg(series: dict, title: str, x_label: str, y_label: str) -> str:
    """Multi-series line chart; series maps name -> nonempty [(x, y), ...]."""
    pad_l, pad_r, pad_t, pad_b = 64, 140, 40, 46
    plot_w = CHART_W - pad_l - pad_r
    plot_h = CHART_H - pad_t - pad_b

    xs = sorted({x for pts in series.values() for x, _ in pts})
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    y_pad = 0.08 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(x):
        span = (x_hi - x_lo) or 1.0
        return pad_l + plot_w * (x - x_lo) / span

    def py(y):
        return pad_t + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CHART_W}" height="{CHART_H}" '
        f'viewBox="0 0 {CHART_W} {CHART_H}" font-family="monospace" font-size="11">',
        f'<text x="{CHART_W / 2:.0f}" y="20" text-anchor="middle" font-size="14">'
        f'{_esc(title)}</text>',
        f'<rect x="{pad_l}" y="{pad_t}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#999"/>',
        f'<text x="{pad_l + plot_w / 2:.0f}" y="{CHART_H - 10}" text-anchor="middle">'
        f'{_esc(x_label)}</text>',
        f'<text x="16" y="{pad_t + plot_h / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {pad_t + plot_h / 2:.0f})">{_esc(y_label)}</text>',
    ]
    for x in xs:
        parts.append(f'<text x="{px(x):.1f}" y="{pad_t + plot_h + 16}" '
                     f'text-anchor="middle">{x:g}</text>')
    for frac in (0.0, 0.5, 1.0):
        y_val = y_lo + frac * (y_hi - y_lo)
        parts.append(f'<text x="{pad_l - 6}" y="{py(y_val):.1f}" '
                     f'text-anchor="end">{y_val:.2f}</text>')
        parts.append(f'<line x1="{pad_l}" y1="{py(y_val):.1f}" '
                     f'x2="{pad_l + plot_w}" y2="{py(y_val):.1f}" '
                     f'stroke="#ddd" stroke-width="0.5"/>')
    for k, name in enumerate(sorted(series)):
        color = PALETTE[k % len(PALETTE)]
        pts = sorted(series[name])
        path = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                     f'stroke-width="1.8"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="2.4" '
                         f'fill="{color}"/>')
        ly = pad_t + 14 + 16 * k
        parts.append(f'<line x1="{pad_l + plot_w + 8}" y1="{ly - 4}" '
                     f'x2="{pad_l + plot_w + 26}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{pad_l + plot_w + 30}" y="{ly}">{_esc(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
