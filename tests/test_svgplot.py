import hashlib
import re

import numpy as np

from ldplab import svgplot
from ldplab.montecarlo import tail_from_counts


def _points_one_by_one(frame, x, y):
    """The points list drawn one point at a time through _Frame.tx and
    _Frame.ty, as every chart was drawn before its points were arrays."""
    return " ".join(f"{frame.tx(px):.2f},{frame.ty(py):.2f}" for px, py in zip(x, y))


def test_chart_from_arrays_equals_the_chart_drawn_point_by_point(monkeypatch):
    # a T = 4000 tail whose last runs hit by t ~ 2600, so its last p_hat rows
    # are 0 (dropped from the line) and its band's lower edge 0 (floored),
    # with two dashed overlays anchored at the first step
    rng = np.random.default_rng(26)
    n, T = 4096, 4000
    t_grid = np.arange(1, T + 1)
    hits = rng.geometric(0.004, n)
    tail = tail_from_counts(t_grid, (hits[None, :] > t_grid[:, None]).sum(axis=1), n, 0.05)
    assert tail.p_hat[-1] == 0 and tail.ci_low[-1] == 0
    ts = t_grid[t_grid >= 3].astype(np.float64)
    series = [
        {"x": tail.t_grid, "y": tail.p_hat, "label": "empirical", "color": svgplot.PALETTE[0]},
        {"x": ts, "y": np.exp(-0.004 * (ts - 3)), "label": "geometric", "dash": "5,4"},
        {"x": ts, "y": np.exp(-0.05 * (ts / np.log(ts) - 3 / np.log(3))), "label": "t/log t", "dash": "5,4"},
    ]
    band = {"x": tail.t_grid, "lo": tail.ci_low, "hi": tail.ci_high, "label": "Wilson 95%"}
    args = (series, band, "tail", "t", "P(F_t > eps)", "digest=0123456789abcdef")

    svg = svgplot.line_chart(*args)
    # recorded when every <line> and <text> element was written out by hand
    assert hashlib.sha256(svg.encode()).hexdigest() == "9817b3af6b38ea9e0ff9afe938e96b2845a7fea10197bef0cd9fd6310ccf4096"
    monkeypatch.setattr(svgplot._Frame, "points", _points_one_by_one)
    assert svg.splitlines() == svgplot.line_chart(*args).splitlines()

    # the band is its upper edge left to right, then its lower edge back,
    # drawn below it (a pixel's y grows downward)
    polygon = re.search(r'<polygon points="([^"]*)"', svg).group(1)
    pixels = np.array([point.split(",") for point in polygon.split(" ")], dtype=np.float64)
    upper, lower = pixels[:T], pixels[T:][::-1]
    assert len(pixels) == 2 * T and np.array_equal(upper[:, 0], lower[:, 0])
    assert np.all(np.diff(upper[:, 0]) > 0) and np.all(lower[:, 1] >= upper[:, 1])
    lines = re.findall(r'<polyline points="([^"]*)"', svg)
    assert [len(pts.split(" ")) for pts in lines] == [int((tail.p_hat > 0).sum()), ts.size, ts.size]
