"""Deterministic CSV and SVG renderings of a model's transition surface.

The input is a full n x n transition matrix over the flat composite
states, every entry finite and non-negative. The SVG draws gridlines
every n_w cells, so the quadrant block structure is visible. Output
bytes depend only on the input values; there is no plotting dependency.
"""

from __future__ import annotations

from html import escape
from typing import TextIO

import numpy as np

from . import cells
from .quantizer import QuantizerConfig

_DARK = (8, 48, 107)  # deep blue anchor for the color ramp


def _color(value: float, vmax: float) -> str:
    """The ramp's color for 0 < value <= vmax."""
    t = (value / vmax) ** 0.5
    r = round(255 + (_DARK[0] - 255) * t)
    g = round(255 + (_DARK[1] - 255) * t)
    b = round(255 + (_DARK[2] - 255) * t)
    return f"#{r:02x}{g:02x}{b:02x}"


def _svg(mat: np.ndarray, cfg: QuantizerConfig, title: str) -> str:
    n = mat.shape[0]
    cell = 3  # pixels per state
    left, top, right, bottom = 64, 28, 8, 40
    width = left + n * cell + right
    height = top + n * cell + bottom
    vmax = float(mat.max())
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{left}" y="18" font-family="sans-serif" '
            f'font-size="13">{escape(title)}</text>'
        )
    # Only the positive cells are drawn, in row-major order.
    rows, cols = np.nonzero(mat > 0.0)
    for i, j, v in zip(rows.tolist(), cols.tolist(), mat[rows, cols].tolist()):
        parts.append(
            f'<rect x="{left + j * cell}" y="{top + i * cell}" '
            f'width="{cell}" height="{cell}" fill="{_color(v, vmax)}"/>'
        )
    x0, y0 = left, top
    x1, y1 = left + n * cell, top + n * cell
    # Gridlines between quadrants: every n_w states on both axes.
    for j in range(0, n + 1, cfg.n_w):
        parts.append(
            f'<line x1="{x0 + j * cell}" y1="{y0}" x2="{x0 + j * cell}" '
            f'y2="{y1}" stroke="#999999" stroke-width="1"/>'
        )
    for i in range(0, n + 1, cfg.n_w):
        parts.append(
            f'<line x1="{x0}" y1="{y0 + i * cell}" x2="{x1}" '
            f'y2="{y0 + i * cell}" stroke="#999999" stroke-width="1"/>'
        )
    # Each quadrant is labelled by its delay bucket at its middle state.
    mids = [(k, k * cfg.n_w + cfg.n_w // 2) for k in range(cfg.n_d)]
    for k, j in mids:
        parts.append(
            f'<text x="{x0 + j * cell + cell // 2}" y="{y1 + 16}" '
            f'font-family="sans-serif" font-size="10" '
            f'text-anchor="middle">d{k}</text>'
        )
    for k, i in mids:
        parts.append(
            f'<text x="{x0 - 6}" y="{y0 + i * cell + cell // 2 + 4}" '
            f'font-family="sans-serif" font-size="10" '
            f'text-anchor="end">d{k}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_matrix_csv(mat: np.ndarray, cfg: QuantizerConfig, sink: TextIO) -> None:
    labels = [f"d{k}w{l}" for k in range(cfg.n_d) for l in range(cfg.n_w)]
    sink.write("from/to," + ",".join(labels) + "\n")
    for i, lab in enumerate(labels):
        sink.write(lab + "," + ",".join(map(repr, mat[i].tolist())) + "\n")


def heatmap_export(
    data: np.ndarray,
    cfg: QuantizerConfig,
    csv_sink: TextIO,
    svg_sink: TextIO,
    title: str = "",
) -> None:
    """Render a full (n_states, n_states) transition matrix to CSV and SVG.

    Every entry must be finite and >= 0; nothing is written otherwise.
    """
    data = np.asarray(cells.check_reals("data", data), dtype=np.float64)
    n = cfg.n_states
    if data.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix for this grid, got shape {data.shape}")
    bad = ~(np.isfinite(data) & (data >= 0.0))
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), n)
        raise ValueError(f"entry ({i}, {j}) must be finite and >= 0, got {float(data[i, j])!r}")
    _write_matrix_csv(data, cfg, csv_sink)
    svg_sink.write(_svg(data, cfg, title))
