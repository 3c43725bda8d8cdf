"""CSV and SVG rendering of transition surfaces."""

import csv
import io
from xml.dom import minidom

import numpy as np
import pytest

from mdi.heatmap import decrease_share, heatmap_export
from mdi.quantizer import QuantizerConfig
from mdi.trainer import TransitionModel


def grid_cfg(n_d=2, n_w=3) -> QuantizerConfig:
    return QuantizerConfig.uniform(-1.0, 1.0, -0.3, 0.3, n_d=n_d, n_w=n_w)


def render(data, cfg, title=""):
    csv_buf, svg_buf = io.StringIO(), io.StringIO()
    heatmap_export(data, cfg, csv_buf, svg_buf, title=title)
    return csv_buf.getvalue(), svg_buf.getvalue()


def test_matrix_rendering_has_quadrant_gridlines():
    cfg = grid_cfg()
    n = cfg.n_states
    P = np.full((n, n), 1.0 / n)
    text, svg = render(P, cfg)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][1] == "d0w0"
    assert len(rows) == n + 1
    assert all(float(v) == pytest.approx(1.0 / n) for v in rows[1][1:])
    # Gridlines every n_w cells on both axes: n_d + 1 vertical lines.
    assert svg.count("<line") == 2 * (cfg.n_d + 1)


def test_rendering_is_deterministic():
    cfg = grid_cfg()
    rng = np.random.default_rng(4)
    P = rng.dirichlet(np.ones(cfg.n_states), size=cfg.n_states)
    assert render(P, cfg, title="t") == render(P, cfg, title="t")


def test_zero_cells_render_white_and_nonzero_colored():
    cfg = grid_cfg()
    P = np.zeros((cfg.n_states, cfg.n_states))
    P[4, 1] = 1.0
    _, svg = render(P, cfg, title="one move")
    # Only the occupied cell draws a color rectangle (one background rect).
    assert svg.count("<rect") == 2
    assert "#08306b" in svg  # full-intensity cell uses the dark anchor
    assert "one move" in svg
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_title_is_escaped_into_well_formed_svg():
    cfg = grid_cfg()
    title = 'a < b & "c"'
    _, svg = render(np.eye(cfg.n_states), cfg, title=title)
    text = minidom.parseString(svg).getElementsByTagName("text")[0]
    assert text.firstChild.data == title


def test_matrix_values_round_trip_through_csv():
    cfg = grid_cfg(n_d=3, n_w=4)
    rng = np.random.default_rng(9)
    P = rng.dirichlet(np.ones(cfg.n_states), size=cfg.n_states)
    text, _ = render(P, cfg)
    rows = list(csv.reader(io.StringIO(text)))
    assert [row[0] for row in rows[1:]] == rows[0][1:]
    assert np.array_equal(np.array([row[1:] for row in rows[1:]], dtype=float), P)


def test_unrenderable_shapes_are_rejected():
    cfg = grid_cfg()
    # A distribution over the states, flat or on the grid, is not a surface.
    for shape in ((5,), (3, 5), (cfg.n_states,), (cfg.n_d, cfg.n_w)):
        with pytest.raises(ValueError):
            render(np.ones(shape), cfg)


def test_unrenderable_entries_are_rejected_before_any_write():
    cfg = grid_cfg()
    for bad in (np.nan, np.inf, -np.inf, -0.5):
        P = np.eye(cfg.n_states)
        P[2, 4] = P[3, 1] = bad
        csv_buf, svg_buf = io.StringIO(), io.StringIO()
        with pytest.raises(ValueError, match=r"\(2, 4\)"):
            heatmap_export(P, cfg, csv_buf, svg_buf)
        assert csv_buf.getvalue() == svg_buf.getvalue() == ""
    # Nor is a string or bool matrix cast to numbers.
    for dtype in (bool, str):
        csv_buf, svg_buf = io.StringIO(), io.StringIO()
        with pytest.raises(ValueError, match=r"data must be real numbers.*data\[0, 0\]"):
            heatmap_export(np.eye(cfg.n_states, dtype=dtype), cfg, csv_buf, svg_buf)
        assert csv_buf.getvalue() == svg_buf.getvalue() == ""
    # Negative zero is a zero: a blank cell, written as repr spells it.
    P = np.eye(cfg.n_states)
    P[2, 4] = -0.0
    text, svg = render(P, cfg)
    assert svg.count("<rect") == 1 + cfg.n_states
    assert text.splitlines()[3].split(",")[5] == "-0.0"


def test_decrease_share_counts_only_wholly_rising_columns():
    # Delay buckets [-1.5, -0.5), [-0.5, 0.5), [0.5, 1.5]: only the last is
    # wholly a rise. Window midpoints -0.2 (a decrease), 0 and 0.2.
    cfg = QuantizerConfig((-1.5, -0.5, 0.5, 1.5), (-0.3, -0.1, 0.1, 0.3))

    def share(*cells):
        counts = np.zeros((3, 3, 3, 3), dtype=np.uint64)
        for cell, n in cells:
            counts[cell] = n
        return decrease_share(TransitionModel(cfg, counts))

    elsewhere = [((0, 0, 1, 0), 7), ((2, 2, 0, 2), 11), ((0, 0, 2, 1), 5)]
    assert share(*elsewhere, ((0, 0, 2, 0), 3), ((1, 2, 2, 0), 1), ((2, 1, 2, 2), 2)) == 4 / 6
    # Two cells of 2**63 in one column sum to 2**64, which uint64 wraps to 0.
    assert share(((0, 0, 2, 0), 2**63), ((1, 0, 2, 0), 2**63), ((0, 0, 2, 2), 2**62)) == 0.8
    assert np.isnan(share(*elsewhere))
    assert np.isnan(share())
