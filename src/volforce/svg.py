"""Minimal static SVG emission (no plotting runtime dependency)."""

from __future__ import annotations

import numpy as np


def _axis_map(values, lo_px, hi_px):
    vmin, vmax = float(np.min(values)), float(np.max(values))
    if vmax == vmin:
        vmax = vmin + 1.0
    scale = (hi_px - lo_px) / (vmax - vmin)

    def to_px(v):
        return lo_px + (float(v) - vmin) * scale

    return to_px, vmin, vmax


def _frame(x0, y0, x1, y1, title, xlabel, ylabel):
    parts = [
        f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
        'fill="white" stroke="black" stroke-width="1"/>',
        f'<text x="{(x0 + x1) / 2}" y="{y0 - 8}" text-anchor="middle" '
        f'font-size="13">{title}</text>',
        f'<text x="{(x0 + x1) / 2}" y="{y1 + 30}" text-anchor="middle" '
        f'font-size="11">{xlabel}</text>',
        f'<text x="{x0 - 38}" y="{(y0 + y1) / 2}" text-anchor="middle" font-size="11" '
        f'transform="rotate(-90 {x0 - 38} {(y0 + y1) / 2})">{ylabel}</text>',
    ]
    return parts


def _ticks(to_px, vmin, vmax, axis, fixed_px, n=5):
    parts = []
    for v in np.linspace(vmin, vmax, n):
        px = to_px(v)
        label = f"{v:.3g}"
        if axis == "x":
            parts.append(f'<text x="{px:.1f}" y="{fixed_px + 14}" text-anchor="middle" '
                         f'font-size="9">{label}</text>')
        else:
            parts.append(f'<text x="{fixed_px - 4}" y="{px:.1f}" text-anchor="end" '
                         f'font-size="9">{label}</text>')
    return parts


def document(width, height, elements) -> str:
    body = "\n".join(elements)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">\n{body}\n</svg>\n')


def regression_figure(pred, target, slope, intercept, r2) -> str:
    """Scatter of prediction vs target with the OLS line, plus residual histogram."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    width, height = 760, 360
    el = []
    # left panel: scatter + fit
    x0, y0, x1, y1 = 60, 40, 360, 300
    el += _frame(x0, y0, x1, y1, f"prediction vs target (R&#178;={r2:.3f})",
                 "target force (mN)", "predicted force (mN)")
    both = np.concatenate([pred, target])
    tx, tmin, tmax = _axis_map(target, x0 + 5, x1 - 5)
    ty, pmin, pmax = _axis_map(both, y1 - 5, y0 + 5)
    el += _ticks(tx, tmin, tmax, "x", y1)
    el += _ticks(ty, pmin, pmax, "y", x0)
    step = max(1, len(pred) // 1500)  # cap point count
    for t, p in zip(target[::step], pred[::step]):
        el.append(f'<circle cx="{tx(t):.1f}" cy="{ty(p):.1f}" r="1.6" '
                  'fill="steelblue" fill-opacity="0.5"/>')
    el.append(f'<line x1="{tx(tmin):.1f}" y1="{ty(slope * tmin + intercept):.1f}" '
              f'x2="{tx(tmax):.1f}" y2="{ty(slope * tmax + intercept):.1f}" '
              'stroke="crimson" stroke-width="1.5"/>')
    # right panel: residual histogram
    x0, y0, x1, y1 = 440, 40, 720, 300
    el += _frame(x0, y0, x1, y1, "residuals", "prediction - target (mN)", "count")
    res = pred - target
    counts, edges = np.histogram(res, bins=30)
    bx, bmin, bmax = _axis_map(edges, x0 + 5, x1 - 5)
    by, _, _ = _axis_map([0, counts.max() if counts.max() else 1], y1 - 5, y0 + 5)
    el += _ticks(bx, bmin, bmax, "x", y1, n=5)
    for c, e0, e1 in zip(counts, edges[:-1], edges[1:]):
        if c == 0:
            continue
        el.append(f'<rect x="{bx(e0):.1f}" y="{by(c):.1f}" '
                  f'width="{max(bx(e1) - bx(e0) - 0.5, 0.5):.1f}" '
                  f'height="{by(0) - by(c):.1f}" fill="gray"/>')
    return document(width, height, el)


def sweep_figure(rows) -> str:
    """MAE vs horizon, one polyline per history length."""
    width, height = 520, 380
    x0, y0, x1, y1 = 70, 40, 470, 320
    el = _frame(x0, y0, x1, y1, "error over prediction horizon",
                "horizon f (frames)", "MAE (mN)")
    fs = sorted({r["f"] for r in rows})
    ps = sorted({r["p"] for r in rows})
    maes = [r["mae"] for r in rows]
    fx, fmin, fmax = _axis_map(fs if len(fs) > 1 else [0, 1], x0 + 15, x1 - 15)
    fy, mmin, mmax = _axis_map(maes or [0.0], y1 - 15, y0 + 15)
    el += _ticks(fx, fmin, fmax, "x", y1, n=len(fs))
    el += _ticks(fy, mmin, mmax, "y", x0)
    colors = ["steelblue", "crimson", "seagreen", "darkorange", "purple"]
    for i, p in enumerate(ps):
        pts = sorted((r["f"], r["mae"]) for r in rows if r["p"] == p)
        path = " ".join(f"{fx(f):.1f},{fy(m):.1f}" for f, m in pts)
        color = colors[i % len(colors)]
        el.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                  'stroke-width="1.5"/>')
        for f, m in pts:
            el.append(f'<circle cx="{fx(f):.1f}" cy="{fy(m):.1f}" r="2.5" fill="{color}"/>')
        el.append(f'<text x="{x1 - 60}" y="{y0 + 16 + 14 * i}" font-size="11" '
                  f'fill="{color}">p = {p}</text>')
    return document(width, height, el)
