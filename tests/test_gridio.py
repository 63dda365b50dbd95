import numpy as np
import pytest

from fwmpairs import gridio
from fwmpairs.spectrum import GaussianLobe


def reference_heatmap_rects(rgb):
    """Heatmap rects from the per-pixel run loop the renderer used
    before, as the reference of its vectorized run search."""
    width, height, margin = 640.0, 520.0, 60.0
    pw, ph = width - 2 * margin, height - 2 * margin
    rows, cols = rgb.shape[:2]
    cell_w, cell_h = pw / cols, ph / rows
    parts = []
    for r in range(rows):
        y = margin + ph - (r + 1) * cell_h
        run_start = 0
        while run_start < cols:
            color = rgb[r, run_start]
            run_end = run_start + 1
            while run_end < cols and np.array_equal(rgb[r, run_end], color):
                run_end += 1
            x = margin + run_start * cell_w
            w_run = (run_end - run_start) * cell_w
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{w_run + 0.5:.2f}" '
                f'height="{cell_h + 0.5:.2f}" '
                f'fill="rgb({color[0]},{color[1]},{color[2]})"/>')
            run_start = run_end
    return parts


def noisy_lobe_grid():
    lam_s = np.linspace(670.0, 690.0, 301)
    lam_i = np.linspace(565.0, 578.0, 301)
    ds = (lam_s[:, None] - 680.0) / 3.0
    di = (lam_i[None, :] - 571.0) / 1.5
    values = np.exp(-0.5 * (ds**2 + di**2))
    values += 0.05 * np.random.default_rng(5).random(values.shape)
    return lam_s, lam_i, values


def constant_grid():
    return (np.linspace(670.0, 680.0, 21), np.linspace(567.0, 571.0, 11),
            np.full((21, 11), 3.0))


def reference_grid_csv(lam_s, lam_i, intensity) -> bytes:
    """Grid CSV bytes from the per-value writer the module used before,
    one ``repr(float)`` per cell, as the reference of its row writer."""
    rows = [gridio.CSV_CORNER + ","
            + ",".join(repr(float(v)) for v in lam_i)]
    for r, ls in enumerate(lam_s):
        rows.append(repr(float(ls)) + ","
                    + ",".join(repr(float(v)) for v in intensity[r]))
    return ("\n".join(rows) + "\n").encode("utf-8")


def edge_value_grid():
    # every edge value in every row and column, and on both axes
    edges = np.array([-0.0, 5e-324, 1e308, 0.1, 1 / 3])
    return edges, edges[::-1], np.array([np.roll(edges, k)
                                         for k in range(len(edges))])


@pytest.mark.parametrize("grid", [edge_value_grid, noisy_lobe_grid])
def test_grid_csv_matches_the_per_value_writer(tmp_path, grid):
    path = tmp_path / "grid.csv"
    gridio.write_grid_csv(path, *grid())
    assert path.read_bytes() == reference_grid_csv(*grid())


def float_parsed_grid_csv(path):
    """(lam_s, lam_i, intensity) of a grid CSV parsed one ``float()`` per
    cell, as the reference of the reader's numpy parse."""
    header, *rows = [ln.split(",") for ln in
                     path.read_text(encoding="utf-8").split("\n") if ln]
    return (np.array([float(row[0]) for row in rows]),
            np.array([float(v) for v in header[1:]]),
            np.array([[float(v) for v in row[1:]] for row in rows]))


def edge_intensity_grid():
    # subnormals, the largest decade, signed and unsigned zeros, in every
    # row and column, on increasing axes
    edges = np.array([0.0, -0.0, 5e-324, 2.2e-308, 1e308,
                      np.finfo(float).max, 0.1, 1 / 3])
    return (np.linspace(670.0, 677.0, len(edges)),
            np.linspace(567.0, 571.0, len(edges)),
            np.array([np.roll(edges, k) for k in range(len(edges))]))


@pytest.mark.parametrize("grid", [edge_intensity_grid, noisy_lobe_grid])
def test_grid_csv_parse_matches_float(tmp_path, grid):
    path = tmp_path / "grid.csv"
    gridio.write_grid_csv(path, *grid())
    for got, want in zip(gridio.load_grid_csv(path),
                         float_parsed_grid_csv(path)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("grid", [noisy_lobe_grid, constant_grid])
def test_svg_heatmap_matches_the_per_pixel_loop(tmp_path, monkeypatch, grid):
    rasters = []
    colormap = gridio._colormap

    def recorded(norm):
        rasters.append(colormap(norm))
        return rasters[-1]

    monkeypatch.setattr(gridio, "_colormap", recorded)
    lobe = GaussianLobe(center_s_nm=680.0, center_i_nm=571.0,
                        sigma_major_nm=3.0, sigma_minor_nm=1.5,
                        orientation_rad=0.3, amplitude=1.0,
                        process_label="C")
    path = tmp_path / "grid.svg"
    gridio.render_svg_heatmap(path, *grid(), lobes=[lobe], title="t")
    (rgb,) = rasters
    want = reference_heatmap_rects(rgb)
    lines = path.read_text(encoding="utf-8").split("\n")
    # three header lines, then the heatmap, then the lobe contour
    assert lines[3:3 + len(want)] == want
    assert lines[3 + len(want)].startswith("<g transform=")
    assert sum('fill="rgb(' in line for line in lines) == len(want)
    if grid is constant_grid:
        assert len(want) == rgb.shape[0]
    else:
        assert len(want) > 10 * rgb.shape[0]
