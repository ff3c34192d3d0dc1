"""Deterministic SVG rendering of solved trees and coverage networks.

Every edge becomes one ``<path>`` stroke; input points are filled dots and
branch points are smaller, lighter dots so the two are visually distinct.
Coverage results additionally get a dashed tube of radius r around each edge
and open-circle markers at energetic points (read from ``report.energetic``).
Output depends only on the result contents, so re-rendering the same result
yields byte-identical SVG.
"""

from __future__ import annotations

import numpy as np

from .io import IoError, ResultFile

_PAD_FRACTION = 0.08


def _tokens(values) -> list[str]:
    """``.4f`` text of every value from one %-format, ``-0.0000`` read as ``0.0000``
    (a token has four decimals, so only a whole token can match it)."""
    return (("%.4f " * len(values)) % tuple(values)).replace("-0.0000", "0.0000").split()


def _fmt(x: float) -> str:
    return _tokens((x,))[0]


def _project(vertices: np.ndarray, dim: int, project: bool) -> np.ndarray:
    if dim == 2:
        return vertices
    if dim == 3:
        if not project:
            raise IoError(
                "3-dimensional result: rendering requires an orthographic "
                "projection (pass project=True / --project)"
            )
        return vertices[:, :2]
    raise IoError(f"field 'dim': cannot render {dim}-dimensional results")


def render_svg(result: ResultFile, *, project: bool = False) -> str:
    """Render a ResultFile to an SVG document string."""
    pts = _project(result.vertices, result.dim, project)
    r_tube = result.r if result.problem == "mdm" else None

    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    margin = 0.0 if r_tube is None else r_tube
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9)) + 2.0 * margin
    pad = _PAD_FRACTION * span
    x0, y0 = lo[0] - margin - pad, lo[1] - margin - pad
    w = float(hi[0] - lo[0]) + 2.0 * (margin + pad)
    h = float(hi[1] - lo[1]) + 2.0 * (margin + pad)

    stroke = span / 150.0
    r_dot = span / 70.0
    r_branch = span / 105.0

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" '
        f'viewBox="{_fmt(x0)} {_fmt(-y0 - h)} {_fmt(w)} {_fmt(h)}">',
    ]
    if result.dim == 3:
        out.append("<!-- orthographic projection of a 3-dimensional result (z dropped) -->")
    # SVG's y axis points down; flip so the picture matches the coordinates.
    out.append('<g class="frame" transform="scale(1,-1)">')

    # Each coordinate and each constant attribute is formatted once.
    xy = _tokens(pts.ravel().tolist())
    xs, ys = xy[0::2], xy[1::2]
    paths = [f"M {xs[i]} {ys[i]} L {xs[j]} {ys[j]}" for i, j in result.edges]

    if r_tube is not None:
        tube = (
            f'fill="none" stroke="#9ecae1" stroke-width="{_fmt(2.0 * r_tube)}" '
            f'stroke-linecap="round" stroke-dasharray="{_fmt(4 * stroke)} {_fmt(3 * stroke)}" '
            'stroke-opacity="0.45"'
        )
        out.extend(f'<path class="tube" d="{d}" {tube}/>' for d in paths)

    edge = f'fill="none" stroke="#1f3552" stroke-width="{_fmt(stroke)}" stroke-linecap="round"'
    out.extend(f'<path class="edge" d="{d}" {edge}/>' for d in paths)

    n_term = result.n_terminals if result.n_terminals is not None else len(pts)
    dots = (
        ("terminal", f'r="{_fmt(r_dot)}" fill="#d1495b"'),
        ("branch", f'r="{_fmt(r_branch)}" fill="#30638e"'),
    )
    for (kind, attrs), part in zip(dots, (slice(n_term), slice(n_term, None))):
        out.extend(f'<circle class="{kind}" cx="{x}" cy="{y}" {attrs}/>' for x, y in zip(xs[part], ys[part]))

    marker = f'r="{_fmt(1.6 * r_dot)}" fill="none" stroke="#e8a13c" stroke-width="{_fmt(0.8 * stroke)}"'
    q = _tokens([v for row in result.report.get("energetic", []) for v in row[:2]])
    out.extend(f'<circle class="energetic" cx="{x}" cy="{y}" {marker}/>' for x, y in zip(q[0::2], q[1::2]))

    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
