"""Static vector-graphic figures with delimited numeric sidecars.

Two figure kinds for two-dimensional problems:

* ``contour_transport``: density contour ellipses (1 and 2 sigma) of source
  and target, the standard basis arrows and their images under a chosen
  transport map, and a transported coordinate grid.
* ``interpolation_filmstrip``: the interpolation curves' covariance ellipses
  at a sequence of parameters, one column per frame, optionally overlaying
  several geometries.

The SVG is written by hand (ellipses, lines, polygons); every figure also
writes a CSV sidecar with the numbers behind each element, so the graphic is
regenerable and diffs stay readable.  Degenerate covariances are drawn as
segments along their surviving eigenvector.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .couplings import AffineTransportMap
from .errors import BadParameter, UnsupportedDimension
from .geodesics import GEODESIC_KINDS, geodesic_point
from .linalg import GaussianSpec, _degenerate

CONTOUR_TRANSPORT = "contour_transport"
INTERPOLATION_FILMSTRIP = "interpolation_filmstrip"
FIGURE_KINDS = (CONTOUR_TRANSPORT, INTERPOLATION_FILMSTRIP)

_COLORS = {
    "source": "#555555",
    "target": "#1f77b4",
    "wasserstein": "#999999",
    "knothe_rosenblatt": "#d62728",
    "adapted": "#1f77b4",
    "grid": "#bbbbbb",
    "grid_image": "#7fb07f",
    "arrow": "#222222",
    "arrow_image": "#d62728",
}


@dataclass(frozen=True, eq=False)
class EllipseParams:
    """Level-set ellipse of a 2-d Gaussian: center plus major/minor axis vectors."""

    center: np.ndarray
    major: np.ndarray
    minor: np.ndarray
    degenerate: bool


def ellipse_params(mean, cov, level: float) -> EllipseParams:
    """Axis representation of ``{x : (x-m)^T C^{-1} (x-m) = level^2}``.

    For degenerate covariance the minor axis collapses and the set is the
    segment ``center +/- major``.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if mean.shape != (2,) or cov.shape != (2, 2):
        raise UnsupportedDimension("contour ellipses require dimension 2")
    w, V = np.linalg.eigh((cov + cov.T) / 2.0)
    w = np.clip(w, 0.0, None)
    return EllipseParams(
        center=mean,
        major=level * math.sqrt(w[1]) * V[:, 1],
        minor=level * math.sqrt(w[0]) * V[:, 0],
        degenerate=_degenerate(w[0], cov),
    )


class _Canvas:
    """Collects drawing primitives in math coordinates; renders SVG with y up."""

    def __init__(self):
        self.elements = []  # (type, payload, style)
        self._xs: list[float] = []
        self._ys: list[float] = []

    def _track(self, *points):
        for p in points:
            self._xs.append(float(p[0]))
            self._ys.append(float(p[1]))

    def line(self, p0, p1, color, width=0.02, dash=None):
        self._track(p0, p1)
        self.elements.append(("line", (np.asarray(p0, float), np.asarray(p1, float)), (color, width, dash)))

    def ellipse(self, params: EllipseParams, color, width=0.03, dash=None):
        c, u, v = params.center, params.major, params.minor
        self._track(c + u, c - u, c + v, c - v)
        if params.degenerate:
            self.line(c - u, c + u, color, width, dash)
        else:
            self.elements.append(("ellipse", params, (color, width, dash)))

    def arrow(self, origin, tip, color, width=0.035):
        origin = np.asarray(origin, float)
        tip = np.asarray(tip, float)
        self.line(origin, tip, color, width)
        d = tip - origin
        norm = float(np.hypot(*d))
        if norm > 0:
            d = d / norm
            side = np.array([-d[1], d[0]])
            h = 0.12 * max(norm, 0.5)
            for wing in (side, -side):
                self.line(tip, tip - h * d + 0.5 * h * wing, color, width)

    def render(self, width_px: int = 640) -> str:
        if not self._xs:
            self._xs, self._ys = [0.0, 1.0], [0.0, 1.0]
        xmin, xmax = min(self._xs), max(self._xs)
        ymin, ymax = min(self._ys), max(self._ys)
        span = max(xmax - xmin, ymax - ymin, 1e-9)
        pad = 0.05 * span
        xmin, xmax = xmin - pad, xmax + pad
        ymin, ymax = ymin - pad, ymax + pad
        k = width_px / (xmax - xmin)
        height_px = (ymax - ymin) * k

        def sx(x):
            return (x - xmin) * k

        def sy(y):
            return (ymax - y) * k

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px:.0f}" '
            f'height="{height_px:.0f}" viewBox="0 0 {width_px:.0f} {height_px:.0f}">',
            '<rect width="100%" height="100%" fill="white"/>',
        ]
        for etype, payload, (color, width, dash) in self.elements:
            style = f'stroke="{color}" stroke-width="{width * k:.3f}" fill="none"'
            if dash:
                style += f' stroke-dasharray="{dash}"'
            if etype == "line":
                p0, p1 = payload
                parts.append(
                    f'<line x1="{sx(p0[0]):.3f}" y1="{sy(p0[1]):.3f}" '
                    f'x2="{sx(p1[0]):.3f}" y2="{sy(p1[1]):.3f}" {style}/>'
                )
            else:
                e: EllipseParams = payload
                rx = float(np.hypot(*e.major))
                ry = float(np.hypot(*e.minor))
                angle = math.degrees(math.atan2(e.major[1], e.major[0]))
                # screen y points down, so rotation angle flips sign
                parts.append(
                    f'<ellipse cx="0" cy="0" rx="{rx * k:.3f}" ry="{ry * k:.3f}" '
                    f'transform="translate({sx(e.center[0]):.3f} {sy(e.center[1]):.3f}) '
                    f'rotate({-angle:.3f})" {style}/>'
                )
        parts.append("</svg>")
        return "\n".join(parts)


def _row(record, label, *values, flag=""):
    vals = list(values) + [""] * (6 - len(values))
    return {
        "record": record,
        "label": label,
        **{f"v{i}": (repr(float(v)) if v != "" else "") for i, v in enumerate(vals)},
        "flag": flag,
    }


def data_path_for(svg_path) -> Path:
    return Path(svg_path).with_suffix(".csv")


def _save(canvas: _Canvas, rows: list[dict], out_path) -> tuple[Path, Path]:
    """Write the SVG to ``out_path`` and its CSV sidecar beside it; returns both paths."""
    out_path, data_path = Path(out_path), data_path_for(out_path)
    out_path.write_text(canvas.render())
    fields = ["record", "label", "v0", "v1", "v2", "v3", "v4", "v5", "flag"]
    with open(data_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    return out_path, data_path


def contour_transport_figure(
    mu: GaussianSpec,
    nu: GaussianSpec,
    transport: AffineTransportMap,
    out_path,
    *,
    grid_lines: int = 7,
) -> tuple[Path, Path]:
    """Write the transport figure and its data sidecar; returns both paths."""
    if mu.dim != 2 or nu.dim != 2:
        raise UnsupportedDimension("contour_transport figures require dimension 2")
    if grid_lines < 2:
        raise BadParameter("need at least 2 grid lines")
    canvas = _Canvas()
    rows = []
    rows.append(_row("offset", transport.kind, *transport.offset))
    rows.append(_row("matrix", transport.kind, *transport.matrix.ravel()))

    for label, spec, color in (("source", mu, _COLORS["source"]), ("target", nu, _COLORS["target"])):
        for level in (1.0, 2.0):
            e = ellipse_params(spec.mean, spec.cov, level)
            canvas.ellipse(e, color, dash="4 3" if level == 2.0 else None)
            rows.append(
                _row(
                    "ellipse",
                    f"{label}_{level:.0f}sigma",
                    *e.center,
                    *e.major,
                    *e.minor,
                    flag="degenerate" if e.degenerate else "",
                )
            )

    span = 2.0 * math.sqrt(float(np.max(np.diag(mu.cov))))
    ticks = np.linspace(-span, span, grid_lines)
    for i, c in enumerate(ticks):
        for label, p0, p1 in (
            (f"h{i}", mu.mean + np.array([-span, c]), mu.mean + np.array([span, c])),
            (f"v{i}", mu.mean + np.array([c, -span]), mu.mean + np.array([c, span])),
        ):
            canvas.line(p0, p1, _COLORS["grid"], width=0.012)
            rows.append(_row("grid", label, *p0, *p1))
            q0, q1 = transport(p0), transport(p1)
            canvas.line(q0, q1, _COLORS["grid_image"], width=0.012)
            rows.append(_row("grid_image", label, *q0, *q1))

    for i, e_i in enumerate(np.eye(2)):
        origin, tip = mu.mean, mu.mean + e_i
        canvas.arrow(origin, tip, _COLORS["arrow"])
        rows.append(_row("arrow", f"e{i + 1}", *origin, *tip))
        img_origin, img_tip = transport(origin), transport(tip)
        canvas.arrow(img_origin, img_tip, _COLORS["arrow_image"])
        rows.append(_row("arrow_image", f"e{i + 1}", *img_origin, *img_tip))

    return _save(canvas, rows, out_path)


def filmstrip_figure(
    mu: GaussianSpec,
    nu: GaussianSpec,
    out_path,
    *,
    kinds=GEODESIC_KINDS,
    frames: int = 5,
) -> tuple[Path, Path]:
    """Write the interpolation filmstrip (frames side by side) and its sidecar.

    Each frame shows the 1-sigma ellipse of every requested geometry at the
    same parameter, translated horizontally so the evolution reads left to
    right; a degenerate interpolant appears as a segment.
    """
    if mu.dim != 2 or nu.dim != 2:
        raise UnsupportedDimension("interpolation filmstrips require dimension 2")
    if frames < 2:
        raise BadParameter("filmstrip needs at least 2 frames")
    canvas = _Canvas()
    rows = []
    spacing = 3.5 * math.sqrt(max(float(np.max(np.diag(mu.cov))), float(np.max(np.diag(nu.cov)))))
    ts = np.linspace(0.0, 1.0, frames)
    for kind in kinds:
        for frame, t in enumerate(ts):
            point = geodesic_point(mu, nu, float(t), kind)
            shift = np.array([frame * spacing, 0.0])
            e = ellipse_params(point.mean + shift, point.cov, 1.0)
            canvas.ellipse(e, _COLORS.get(kind, "#000000"))
            rows.append(
                _row(
                    "frame",
                    kind,
                    float(t),
                    point.mean[0],
                    point.mean[1],
                    point.cov[0, 0],
                    point.cov[0, 1],
                    point.cov[1, 1],
                    flag="degenerate" if point.degenerate else "",
                )
            )
    return _save(canvas, rows, out_path)
