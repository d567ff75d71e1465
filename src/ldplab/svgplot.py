"""Minimal self-contained SVG line charts.

Deliberately dependency-free so that emitted charts are byte-reproducible
and embed no external assets.  Draws polyline series and a shaded
confidence band over a linear x axis and a log-10 y axis.
"""

from __future__ import annotations

import math

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")

_WIDTH, _HEIGHT = 720, 480  # the chart's size in pixels
_MARGINS = (64.0, 16.0, 44.0, 52.0)  # left, right, top, bottom


def _fmt(v) -> str:
    """A pixel coordinate: a float to two decimals, an int as it is."""
    return str(v) if isinstance(v, int) else f"{v:.2f}"


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

    def __init__(self, x_range, y_range):
        ml, mr, mt, mb = _MARGINS
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range  # log10 of the data range
        self.px0, self.px1 = ml, _WIDTH - mr
        self.py0, self.py1 = _HEIGHT - mb, mt  # y grows upward

    def tx(self, x):
        return self.px0 + (x - self.x0) / (self.x1 - self.x0) * (self.px1 - self.px0)

    def ty(self, y):
        return self.ty_log10(math.log10(y))

    def ty_log10(self, log_y):
        """ty of a y whose log10 is ``log_y``, a float or an array."""
        return self.py0 + (log_y - self.y0) / (self.y1 - self.y0) * (self.py1 - self.py0)

    def points(self, x, y) -> str:
        """An SVG points list of the data points (x[k], y[k]), float64 arrays:
        "px,py" of each.  The pixels are tx and ty on whole arrays, with
        their operations in the same order, so each bit is the same; log10
        is math.log10 of each value, since np.log10 may differ in the last
        bit."""
        px = self.tx(x)
        py = self.ty_log10(np.fromiter(map(math.log10, y.tolist()), np.float64, y.size))
        return " ".join(["%.2f,%.2f"] * px.size) % tuple(np.column_stack([px, py]).ravel().tolist())


def line_chart(series, band, title: str, xlabel: str, ylabel: str, comment: str = "") -> str:
    """Render series (dicts with keys x, y, label and optional color/dash)
    and a band (dict with keys x, lo, hi, label, drawn in PALETTE[0]) into an
    SVG string on a log-10 y axis; points with y <= 0 are dropped and the
    band's lower edge is floored.  When no series point is left the axes span
    the band.  ``comment`` is embedded as an XML comment for provenance
    (digest, version)."""
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
                "label": s["label"],
                "color": s.get("color", PALETTE[i % len(PALETTE)]),
                "dash": s.get("dash"),
            }
        )
    xs = np.concatenate([s["x"] for s in clean]) if clean else np.asarray(band["x"], float)
    ys = np.concatenate([s["y"] for s in clean]) if clean else np.asarray(band["hi"], float)
    bx = np.asarray(band["x"], dtype=np.float64)
    blo = np.asarray(band["lo"], dtype=np.float64)
    bhi = np.asarray(band["hi"], dtype=np.float64)
    keep = np.isfinite(bx) & np.isfinite(blo) & np.isfinite(bhi) & (bhi > 0)
    bx, blo, bhi = bx[keep], blo[keep], bhi[keep]
    if bx.size:
        floor = min(float(ys[ys > 0].min() if np.any(ys > 0) else 1.0), float(bhi.min())) / 10.0
        blo = np.maximum(blo, floor)
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

    fr = _Frame((xlo, xhi), (ylo, yhi))
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
    ]
    if comment:
        out.append(f"<!-- {_escape(comment)} -->")
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    out.append(_text(_WIDTH / 2, 22, title, 15, "middle"))

    # gridlines and ticks
    lo_d, hi_d = math.floor(ylo), math.ceil(yhi)
    step = max(1, int(math.ceil((hi_d - lo_d) / 8.0)))
    y_ticks = [(10.0**d, f"1e{d:d}") for d in range(lo_d, hi_d + 1, step) if ylo <= d <= yhi]
    for v, label in y_ticks:
        py = fr.ty(v)
        out.append(_line(fr.px0, py, fr.px1, py, "#dddddd", 1))
        out.append(_text(fr.px0 - 6, py + 4, label, 11, "end"))
    for v in _linear_ticks(xlo, xhi):
        px = fr.tx(v)
        out.append(_line(px, fr.py0, px, fr.py1, "#eeeeee", 1))
        out.append(_text(px, fr.py0 + 16, _tick_label(v), 11, "middle"))

    if bx.size:  # the upper edge left to right, then the lower edge back
        path = fr.points(np.concatenate([bx, bx[::-1]]), np.concatenate([bhi, blo[::-1]]))
        out.append(f'<polygon points="{path}" fill="{PALETTE[0]}" fill-opacity="0.18"/>')

    for s in clean:
        pts = fr.points(s["x"], s["y"])
        dash = f' stroke-dasharray="{s["dash"]}"' if s["dash"] else ""
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{s["color"]}" stroke-width="1.8"{dash}/>'
        )

    # axes on top of grid
    out.append(_line(fr.px0, fr.py0, fr.px1, fr.py0, "#000000", 1))
    out.append(_line(fr.px0, fr.py0, fr.px0, fr.py1, "#000000", 1))
    out.append(_text((fr.px0 + fr.px1) / 2, fr.py0 + 34, xlabel, 12, "middle"))
    cx, cy = fr.px0 - 44, (fr.py0 + fr.py1) / 2
    out.append(_text(cx, cy, ylabel, 12, "middle", f' transform="rotate(-90 {_fmt(cx)} {_fmt(cy)})"'))

    # legend
    entries = [(s["label"], s["color"], s["dash"]) for s in clean]
    if bx.size:
        entries.append((band["label"], PALETTE[0], None))
    ly = fr.py1 + 10
    for label, color, dash in entries:
        out.append(_line(fr.px1 - 150, ly, fr.px1 - 126, ly, color, 2.5, dash))
        out.append(_text(fr.px1 - 120, ly + 4, label, 11))
        ly += 16

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _line(x1, y1, x2, y2, stroke: str, width, dash=None) -> str:
    """A <line> element from (x1, y1) to (x2, y2) in pixels, dashed by ``dash`` if given."""
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="{width}"{dash_attr}/>'
    )


def _text(x, y, body: str, size: int, anchor: str | None = None, extra: str = "") -> str:
    """A sans-serif <text> element of ``body``, escaped, at (x, y) in pixels, plus the attributes ``extra``."""
    anchor_attr = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}"{anchor_attr} font-family="sans-serif" '
        f'font-size="{size}"{extra}>{_escape(body)}</text>'
    )
