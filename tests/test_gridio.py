import numpy as np
import pytest

from fwmpairs import gridio
from fwmpairs.errors import GridFormatError
from fwmpairs.config import MAX_GRID_POINTS, GaussianLobe


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
    one ``repr(float)`` per cell and the whole text at once, as the
    reference of its row writer."""
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


def whole_text_load_grid_csv(path):
    """``load_grid_csv`` on the whole text of the file at once, the
    reference of the line-by-line reader."""
    text = path.read_text(encoding="utf-8")
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if len(lines) < 2:
        raise GridFormatError(f"{path}: needs a header row and data rows")
    header = lines[0].split(",")
    rows, cols = len(lines) - 1, len(header) - 1
    if rows * cols > MAX_GRID_POINTS:
        raise GridFormatError(
            f"{path}: {rows} x {cols} grid has {rows * cols} cells, more "
            f"than the {MAX_GRID_POINTS} allowed")
    try:
        lam_i = np.array(header[1:], dtype=float)
    except ValueError:
        raise GridFormatError(f"{path}: row 0: non-numeric axis value")
    ncol = len(header)
    lam_s = np.empty(rows)
    values = np.empty((rows, cols))
    for r, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if len(parts) != ncol:
            raise GridFormatError(
                f"{path}: row {r}: expected {ncol} columns, got {len(parts)}")
        try:
            row = np.array(parts, dtype=float)
        except ValueError:
            raise GridFormatError(f"{path}: row {r}: non-numeric value")
        lam_s[r - 1] = row[0]
        values[r - 1] = row[1:]
    for r0, c0, cells in ((0, 1, lam_i[None, :]), (1, 0, lam_s[:, None]),
                          (1, 1, values)):
        for r, c in np.argwhere(~np.isfinite(cells))[:1]:
            raise GridFormatError(
                f"{path}: non-finite value at (row {r + r0}, col {c + c0})")
    for r, c in np.argwhere(values < 0)[:1]:
        raise GridFormatError(
            f"{path}: negative intensity at (row {r + 1}, col {c + 1})")
    gridio._check_axis(lam_i, f"{path}: lambda_i axis")
    gridio._check_axis(lam_s, f"{path}: lambda_s axis")
    return lam_s, lam_i, values


GOOD_CSV = "c,567.0,568.0,569.0\n670.0,1.0,2.0,3.0\n671.0,4.0,5.0,6.0\n"
# more than MAX_GRID_POINTS cells, rejected before a value is parsed
TOO_LARGE_CSV = ("c" + ",1" * 1024 + "\n" + "x\n" * 1025)
CSV_CASES = {
    "good": GOOD_CSV,
    "crlf": GOOD_CSV.replace("\n", "\r\n"),
    "lone cr": GOOD_CSV.replace("\n", "\r"),
    "blank lines": "\n \n" + GOOD_CSV.replace("\n", "\n\t\n", 1) + "\n\n",
    "no final newline": GOOD_CSV[:-1],
    "spaces and float spellings": (
        "c, 567 ,5.68e2,+569.0\n670,1_0,.5,1E0\n671,-0.0,1e-320,0.25\n"),
    "case-blind nan": GOOD_CSV.replace("5.0", "NaN"),
    "empty": "",
    "blank only": "\n  \n",
    "header only": "c,567.0,568.0\n",
    "ragged row": GOOD_CSV + "672.0,1.0\n",
    "non-numeric axis": "c,567.0,x,569.0\n670.0,1.0,2.0,3.0\n",
    "non-numeric value": GOOD_CSV.replace("5.0", "five"),
    "hex value": GOOD_CSV.replace("5.0", "0x5p0"),
    "non-finite value": GOOD_CSV.replace("5.0", "inf"),
    "overflowing value": GOOD_CSV.replace("5.0", "1e999"),
    "non-finite axis": GOOD_CSV.replace("671.0", "nan"),
    "negative value": GOOD_CSV.replace("6.0", "-6.0"),
    "one idler value": "c,567.0\n670.0,1.0\n671.0,2.0\n",
    "decreasing axis": GOOD_CSV.replace("671.0", "669.0"),
    "non-uniform axis": GOOD_CSV.replace("569.0", "569.5"),
    "too large": TOO_LARGE_CSV,
    "too large but ragged": TOO_LARGE_CSV.replace("\nx\n", "\nx,y\n", 1),
}


def outcome(load, path):
    try:
        return [a.tobytes() for a in load(path)]
    except GridFormatError as exc:
        return str(exc)


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_line_reader_matches_the_whole_text_reader(tmp_path, case):
    path = tmp_path / "grid.csv"
    path.write_bytes(CSV_CASES[case].encode("utf-8"))
    want = outcome(whole_text_load_grid_csv, path)
    assert outcome(gridio.load_grid_csv, path) == want
    if case == "too large":
        assert "1025 x 1024 grid has 1049600 cells" in want


def test_grid_csv_io_memory_stays_within_bounds(tmp_path):
    # numpy reports its buffers to tracemalloc; the whole-text writer
    # peaked at 7.3 grids and the whole-text reader at 6.2
    import tracemalloc
    path = tmp_path / "grid.csv"
    for points in (301, 451):
        values = np.random.default_rng(points).random((points, points))
        axes = (np.linspace(670.0, 700.0, points),
                np.linspace(567.0, 576.0, points))
        peaks = []
        for call in (lambda: gridio.write_grid_csv(path, *axes, values),
                     lambda: gridio.load_grid_csv(path)):
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append((peak - before) / values.nbytes)
        assert peaks[0] <= 0.5, peaks
        assert peaks[1] <= 2.0, peaks


@pytest.mark.parametrize("axis, message", [
    # subnormal: the plot scale, pixels over the span, overflows
    ([0.0, 5e-324], "step 5e-324 is not a normal float"),
    # the difference of two finite values overflows
    ([-1e308, 1e308], "step inf is not a normal float"),
    ([-1e308, 0.0, 1e308], "span from -1e+308 to 1e+308 exceeds the float "
                           "range"),
    # the smallest steps of an axis near 1 are normal
    ([1.0, 1.0 + 2**-52, 1.0 + 2**-51], None)])
def test_axis_step_and_span_stay_in_the_normal_floats(axis, message):
    axis = np.array(axis)
    if message is None:
        gridio._check_axis(axis, "axis")
        return
    with pytest.raises(GridFormatError) as err:
        gridio._check_axis(axis, "axis")
    assert str(err.value) == f"axis: {message}"


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


def re_im(value):
    """The [re, im] lists that jsi_meta.json wrote by hand for each
    complex value of a dict, or for one value."""
    if isinstance(value, dict):
        return {k: [v.real, v.imag] for k, v in value.items()}
    return [value.real, value.imag]


@pytest.mark.parametrize("value, minus_zero", [
    pytest.param(0.6 + 0.1j, False, id="complex"),
    pytest.param(np.complex128(-0.25 + 1e-300j), False, id="complex128"),
    pytest.param(complex(0.79, -0.0), True, id="minus_zero_imag"),
    pytest.param(np.complex128(complex(1.0, -0.0)), True,
                 id="complex128_minus_zero_imag"),
    pytest.param({"e": 0.6 + 0.1j, "o": np.complex128(0.79j),
                  "z": complex(0.0, -0.0)}, True, id="dict")])
def test_complex_values_encode_as_re_im_pairs(value, minus_zero):
    text = gridio.canonical_json(value)
    assert text == gridio.canonical_json(re_im(value))
    assert ("-0.0" in text) == minus_zero
