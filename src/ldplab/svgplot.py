"""Minimal self-contained SVG line charts.

Deliberately dependency-free so that emitted charts are byte-reproducible
and embed no external assets.  Draws polyline series and a shaded
confidence band over a linear x axis and a log-10 y axis.
"""

from __future__ import annotations

import math

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")

_MARGINS = (64.0, 16.0, 44.0, 52.0)  # left, right, top, bottom


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _nice_step(span: float) -> float:
    if span <= 0:
        return 1.0
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _linear_ticks(lo: float, hi: float) -> list:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _tick_label(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:g}"


class _Frame:
    """Coordinate transform from data space to the plot rectangle."""

    def __init__(self, width, height, x_range, y_range):
        ml, mr, mt, mb = _MARGINS
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range  # log10 of the data range
        self.px0, self.px1 = ml, width - mr
        self.py0, self.py1 = height - mb, mt  # y grows upward

    def tx(self, x):
        return self.px0 + (x - self.x0) / (self.x1 - self.x0) * (self.px1 - self.px0)

    def ty(self, y):
        return self.py0 + (math.log10(y) - self.y0) / (self.y1 - self.y0) * (self.py1 - self.py0)


def line_chart(
    series,
    band=None,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    width: int = 720,
    height: int = 480,
    comment: str = "",
) -> str:
    """Render series (dicts with keys x, y, label and optional color/dash)
    and an optional band (dict with keys x, lo, hi and optional color/label)
    into an SVG string on a log-10 y axis; points with y <= 0 are dropped
    and the band's lower edge is floored.  ``comment`` is embedded as an XML comment for
    provenance (digest, version)."""
    clean = []
    for i, s in enumerate(series):
        x = np.asarray(s["x"], dtype=np.float64)
        y = np.asarray(s["y"], dtype=np.float64)
        keep = np.isfinite(x) & np.isfinite(y) & (y > 0)
        if keep.sum() == 0:
            continue
        clean.append(
            {
                "x": x[keep],
                "y": y[keep],
                "label": s.get("label", f"series {i}"),
                "color": s.get("color", PALETTE[i % len(PALETTE)]),
                "dash": s.get("dash"),
            }
        )
    if not clean and band is None:
        raise ValueError("nothing to plot")

    xs = np.concatenate([s["x"] for s in clean]) if clean else np.asarray(band["x"], float)
    ys = np.concatenate([s["y"] for s in clean]) if clean else np.asarray(band["hi"], float)
    band_clean = None
    if band is not None:
        bx = np.asarray(band["x"], dtype=np.float64)
        blo = np.asarray(band["lo"], dtype=np.float64).copy()
        bhi = np.asarray(band["hi"], dtype=np.float64)
        keep = np.isfinite(bx) & np.isfinite(blo) & np.isfinite(bhi) & (bhi > 0)
        if keep.sum() > 0:
            bx, blo, bhi = bx[keep], blo[keep], bhi[keep]
            floor = min(float(ys[ys > 0].min() if np.any(ys > 0) else 1.0), float(bhi.min())) / 10.0
            blo = np.maximum(blo, floor)
            band_clean = {
                "x": bx,
                "lo": blo,
                "hi": bhi,
                "color": band.get("color", PALETTE[0]),
                "label": band.get("label"),
            }
            xs = np.concatenate([xs, bx])
            ys = np.concatenate([ys, blo, bhi])

    ys = ys[ys > 0]
    ylo, yhi = math.log10(ys.min()), math.log10(ys.max())
    xlo, xhi = float(xs.min()), float(xs.max())
    if xhi <= xlo:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi <= ylo:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    pad = 0.04 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    fr = _Frame(width, height, (xlo, xhi), (ylo, yhi))
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
    ]
    if comment:
        out.append(f"<!-- {_escape(comment)} -->")
    out.append(f'<rect width="{width}" height="{height}" fill="#ffffff"/>')
    if title:
        out.append(
            f'<text x="{_fmt(width / 2)}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{_escape(title)}</text>'
        )

    # gridlines and ticks
    lo_d, hi_d = math.floor(ylo), math.ceil(yhi)
    step = max(1, int(math.ceil((hi_d - lo_d) / 8.0)))
    y_ticks = [(10.0**d, f"1e{d:d}") for d in range(lo_d, hi_d + 1, step) if ylo <= d <= yhi]
    for v, label in y_ticks:
        py = fr.ty(v)
        out.append(
            f'<line x1="{_fmt(fr.px0)}" y1="{_fmt(py)}" x2="{_fmt(fr.px1)}" y2="{_fmt(py)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(fr.px0 - 6)}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    for v in _linear_ticks(xlo, xhi):
        px = fr.tx(v)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(fr.py0)}" x2="{_fmt(px)}" y2="{_fmt(fr.py1)}" '
            f'stroke="#eeeeee" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{_fmt(fr.py0 + 16)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_tick_label(v)}</text>'
        )

    if band_clean is not None:
        pts_hi = [(fr.tx(x), fr.ty(y)) for x, y in zip(band_clean["x"], band_clean["hi"])]
        pts_lo = [(fr.tx(x), fr.ty(y)) for x, y in zip(band_clean["x"][::-1], band_clean["lo"][::-1])]
        path = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts_hi + pts_lo)
        out.append(f'<polygon points="{path}" fill="{band_clean["color"]}" fill-opacity="0.18"/>')

    for s in clean:
        pts = " ".join(f"{_fmt(fr.tx(x))},{_fmt(fr.ty(y))}" for x, y in zip(s["x"], s["y"]))
        dash = f' stroke-dasharray="{s["dash"]}"' if s["dash"] else ""
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{s["color"]}" stroke-width="1.8"{dash}/>'
        )

    # axes on top of grid
    out.append(
        f'<line x1="{_fmt(fr.px0)}" y1="{_fmt(fr.py0)}" x2="{_fmt(fr.px1)}" y2="{_fmt(fr.py0)}" '
        f'stroke="#000000" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{_fmt(fr.px0)}" y1="{_fmt(fr.py0)}" x2="{_fmt(fr.px0)}" y2="{_fmt(fr.py1)}" '
        f'stroke="#000000" stroke-width="1"/>'
    )
    if xlabel:
        out.append(
            f'<text x="{_fmt((fr.px0 + fr.px1) / 2)}" y="{_fmt(fr.py0 + 34)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_escape(xlabel)}</text>'
        )
    if ylabel:
        cx, cy = fr.px0 - 44, (fr.py0 + fr.py1) / 2
        out.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="12" transform="rotate(-90 {_fmt(cx)} {_fmt(cy)})">{_escape(ylabel)}</text>'
        )

    # legend
    entries = [(s["label"], s["color"], s["dash"]) for s in clean]
    if band_clean is not None and band_clean["label"]:
        entries.append((band_clean["label"], band_clean["color"], None))
    ly = fr.py1 + 10
    for label, color, dash in entries:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<line x1="{_fmt(fr.px1 - 150)}" y1="{_fmt(ly)}" x2="{_fmt(fr.px1 - 126)}" '
            f'y2="{_fmt(ly)}" stroke="{color}" stroke-width="2.5"{dash_attr}/>'
        )
        out.append(
            f'<text x="{_fmt(fr.px1 - 120)}" y="{_fmt(ly + 4)}" font-family="sans-serif" '
            f'font-size="11">{_escape(label)}</text>'
        )
        ly += 16

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
