"""File formats: grid CSV, density-matrix JSON, PGM and SVG.

Everything written here is byte-deterministic for identical inputs:
floats are serialized with ``repr`` (shortest round-trip form), keys are
sorted, no timestamps are embedded.  Input JSON documents are read by
``read_document``: ``config.read_json_document`` parses them and
``config.convert`` checks each value, and a malformed grid CSV or
document raises GridFormatError (exit code 3) naming the file, the entry
and the rule.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .config import BASIS_LABELS, MAX_GRID_POINTS, convert, read_json_document
from .errors import ConfigError, DomainError, GridFormatError
from .tomography import validate_density

CSV_CORNER = "lambda_s_nm\\lambda_i_nm"


def canonical_json(obj) -> str:
    return json.dumps(_sanitize(obj), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return None if not math.isfinite(v) else v
    if isinstance(obj, complex):
        return _sanitize([obj.real, obj.imag])
    return obj


def write_json(path: Path, obj) -> None:
    Path(path).write_text(canonical_json(obj), encoding="utf-8")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# grid CSV: row 1 = lambda_i axis, column 1 = lambda_s axis


def write_grid_csv(path: Path, lam_s_nm, lam_i_nm, intensity) -> None:
    lam_s = np.asarray(lam_s_nm, dtype=float)
    lam_i = np.asarray(lam_i_nm, dtype=float)
    values = np.asarray(intensity, dtype=float)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_CORNER + "," + ",".join(map(repr, lam_i.tolist()))
                 + "\n")
        # a row's Python floats and text at a time, never the whole grid's
        for ls, row in zip(lam_s.tolist(), values):
            fh.write(",".join(map(repr, [ls, *row.tolist()])) + "\n")


def _data_lines(fh):
    """The non-blank lines of the text file ``fh``, each without its line
    break (a CRLF or a lone CR reads as one)."""
    try:
        for line in fh:
            if line.strip():
                yield line[:-1] if line.endswith("\n") else line
    except UnicodeDecodeError as exc:
        raise GridFormatError(f"{fh.name}: not UTF-8 text ({exc.reason})")


def load_grid_csv(path: Path):
    """Parse and validate a grid CSV; returns (lam_s, lam_i, intensity).

    Blank lines are skipped.  The file is read line by line, twice: the
    first pass counts the rows, so a grid of more than
    ``MAX_GRID_POINTS`` cells is rejected before any value is parsed; the
    second parses one row at a time into the preallocated arrays, so the
    file's text is never held whole."""
    with open(path, encoding="utf-8") as fh:
        lines = _data_lines(fh)
        header = next(lines, "").split(",")
        rows = sum(1 for _ in lines)
        if rows < 1:
            raise GridFormatError(
                f"{path}: needs a header row and data rows")
        cols = len(header) - 1
        if rows * cols > MAX_GRID_POINTS:
            raise GridFormatError(
                f"{path}: {rows} x {cols} grid has {rows * cols} cells, "
                f"more than the {MAX_GRID_POINTS} allowed")
        # numpy parses each cell string as float() does, a row at a time
        try:
            lam_i = np.array(header[1:], dtype=float)
        except ValueError:
            raise GridFormatError(f"{path}: row 0: non-numeric axis value")
        ncol = len(header)
        lam_s = np.empty(rows)
        values = np.empty((rows, cols))
        fh.seek(0)
        lines = _data_lines(fh)
        next(lines)
        for r, line in enumerate(lines, start=1):
            parts = line.split(",")
            if len(parts) != ncol:
                raise GridFormatError(f"{path}: row {r}: expected {ncol} "
                                      f"columns, got {len(parts)}")
            try:
                row = np.array(parts, dtype=float)
            except ValueError:
                raise GridFormatError(f"{path}: row {r}: non-numeric value")
            lam_s[r - 1] = row[0]
            values[r - 1] = row[1:]
    # (row, col) as in the file: row 0 is the header, col 0 the lambda_s axis
    for r0, c0, cells in ((0, 1, lam_i[None, :]), (1, 0, lam_s[:, None]),
                          (1, 1, values)):
        for r, c in np.argwhere(~np.isfinite(cells))[:1]:
            raise GridFormatError(
                f"{path}: non-finite value at (row {r + r0}, col {c + c0})")
    for r, c in np.argwhere(values < 0)[:1]:
        raise GridFormatError(
            f"{path}: negative intensity at (row {r + 1}, col {c + 1})")
    _check_axis(lam_i, f"{path}: lambda_i axis")
    _check_axis(lam_s, f"{path}: lambda_s axis")
    return lam_s, lam_i, values


def _check_axis(axis: np.ndarray, what: str) -> None:
    if len(axis) < 2:
        raise GridFormatError(f"{what}: needs at least 2 values")
    with np.errstate(over="ignore"):  # past the float range: inf
        steps = np.diff(axis)
        span = axis[-1] - axis[0]
    if np.any(steps <= 0):
        raise GridFormatError(f"{what}: not strictly increasing")
    # the plot scale divides by the span and the spacing check by the
    # steps' mean: a subnormal step or an infinite span overflows them
    normal = (steps >= np.finfo(float).tiny) & (steps < np.inf)
    for step in steps[~normal][:1].tolist():
        raise GridFormatError(f"{what}: step {step!r} is not a normal float")
    if span == np.inf:
        raise GridFormatError(f"{what}: span from {float(axis[0])!r} to "
                              f"{float(axis[-1])!r} exceeds the float range")
    rel = (steps.max() - steps.min()) / steps.mean()
    if rel > 1e-6:
        raise GridFormatError(
            f"{what}: non-uniform spacing ({rel:.2e} relative)")


def read_document(path: Path, types: dict) -> dict:
    """The value of each key of ``types`` in the JSON object of file
    ``path``, checked by ``config.convert`` against the key's type; the
    document's other keys are not read.  Raises GridFormatError naming
    the file, the entry and the rule broken."""
    try:
        doc = read_json_document(path)
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: expected an object")
        for key in types:
            if key not in doc:
                raise ConfigError(f"{path}: {key}: missing required key")
        return {key: convert(doc[key], typ, f"{path}: {key}")
                for key, typ in types.items()}
    except ConfigError as exc:
        raise GridFormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# density matrices


def density_to_json(rho: np.ndarray, metrics: dict | None = None,
                    extra: dict | None = None) -> dict:
    doc = {
        "basis": list(BASIS_LABELS),
        "matrix": [[[float(rho[r, c].real), float(rho[r, c].imag)]
                    for c in range(4)] for r in range(4)],
    }
    if metrics is not None:
        doc["metrics"] = metrics
    if extra:
        doc.update(extra)
    return doc


def load_density(path: Path) -> np.ndarray:
    """The density matrix of file ``path``, checked by
    ``tomography.validate_density``; raises GridFormatError naming the
    file and the rule broken."""
    doc = read_document(path, {"basis": "basis",
                               "matrix": (((float, float),) * 4,) * 4})
    rho = np.array([[complex(*pair) for pair in row]
                    for row in doc["matrix"]])
    try:
        return validate_density(rho)
    except DomainError as exc:
        raise GridFormatError(f"{path}: matrix: {exc}") from None


# ---------------------------------------------------------------------------
# images

_COLOR_STOPS = np.array([
    (68, 1, 84), (71, 44, 122), (59, 81, 139), (44, 113, 142),
    (33, 144, 141), (39, 173, 129), (92, 200, 99), (170, 220, 50),
    (253, 231, 37),
], dtype=float)


def _colormap(norm: np.ndarray) -> np.ndarray:
    pos = np.clip(norm, 0.0, 1.0) * (len(_COLOR_STOPS) - 1)
    low = np.floor(pos).astype(int)
    high = np.minimum(low + 1, len(_COLOR_STOPS) - 1)
    t = (pos - low)[..., None]
    rgb = _COLOR_STOPS[low] * (1 - t) + _COLOR_STOPS[high] * t
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def write_pgm(path: Path, values: np.ndarray) -> None:
    """8-bit binary P5 graymap of values in [0, 1], rows top to bottom."""
    v = np.asarray(values, dtype=float)
    pix = np.clip(np.rint(v * 255), 0, 255).astype(np.uint8)
    h, w = pix.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())


_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})

# radius of a lobe's drawn contour, in sigmas: the 1/e^2 level
CONTOUR_SIGMAS = 2.0
# most raster cells per axis of the heatmap
HEATMAP_CELLS = 180


def render_svg_heatmap(path: Path, lam_s_nm, lam_i_nm, intensity,
                       lobes=(), title: str = "") -> None:
    """Publication-style SVG: colormapped heatmap, axis ticks, optional
    Gaussian-lobe contour ellipses.

    The intensity raster is box-downsampled to at most ``HEATMAP_CELLS``
    per axis; each lobe is drawn as its 1/e^2 contour, the ellipse at
    ``CONTOUR_SIGMAS`` sigma.
    """
    lam_s = np.asarray(lam_s_nm, dtype=float)
    lam_i = np.asarray(lam_i_nm, dtype=float)
    v = np.asarray(intensity, dtype=float)

    def shrink(arr, n_target, axis):
        n = arr.shape[axis]
        if n <= n_target:
            return arr
        factor = int(np.ceil(n / n_target))
        pad = (-n) % factor
        if pad:
            arr = np.concatenate(
                [arr, np.repeat(arr.take([-1], axis=axis), pad, axis=axis)],
                axis=axis)
        shape = list(arr.shape)
        shape[axis] = arr.shape[axis] // factor
        shape.insert(axis + 1, factor)
        return arr.reshape(shape).mean(axis=axis + 1)

    raster = shrink(shrink(v, HEATMAP_CELLS, 0), HEATMAP_CELLS, 1)
    top = raster.max()
    norm = raster / top if top > 0 else np.zeros_like(raster)
    rgb = _colormap(norm)

    # plot geometry: x = lambda_i (scan axis), y = lambda_s
    width, height, margin = 640.0, 520.0, 60.0
    pw, ph = width - 2 * margin, height - 2 * margin
    i0, i1 = lam_i[0], lam_i[-1]
    s0, s1 = lam_s[0], lam_s[-1]

    def px(li):
        return margin + (li - i0) / (i1 - i0) * pw

    def py(ls):
        return margin + (s1 - ls) / (s1 - s0) * ph

    rows, cols = norm.shape  # rows: lambda_s, cols: lambda_i
    cell_w = pw / cols
    cell_h = ph / rows
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    # one rect per run of equal colours along a row
    changes = np.any(rgb[:, 1:] != rgb[:, :-1], axis=2)
    for r in range(rows):
        y = margin + ph - (r + 1) * cell_h  # row 0 = smallest lambda_s
        starts = np.concatenate([[0], np.flatnonzero(changes[r]) + 1])
        bounds = [*starts.tolist(), cols]
        for run_start, run_end, color in zip(bounds[:-1], bounds[1:],
                                             rgb[r, starts].tolist()):
            x = margin + run_start * cell_w
            w_run = (run_end - run_start) * cell_w
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{w_run + 0.5:.2f}" '
                f'height="{cell_h + 0.5:.2f}" '
                f'fill="rgb({color[0]},{color[1]},{color[2]})"/>')

    for j, lobe in enumerate(lobes):
        cx = px(lobe.center_i_nm)
        cy = py(lobe.center_s_nm)
        # ellipse axes in plot pixels; orientation measured in data space
        rx_major = CONTOUR_SIGMAS * lobe.sigma_major_nm
        rx_minor = CONTOUR_SIGMAS * lobe.sigma_minor_nm
        # a tiny axis span or a huge lobe overflows these: refused below
        with np.errstate(over="ignore", invalid="ignore"):
            sx = pw / (i1 - i0)
            sy = ph / (s1 - s0)
            # major axis direction in (lambda_s, lambda_i) = (cos t, sin t)
            ang = np.degrees(np.arctan2(-np.cos(lobe.orientation_rad) * sy,
                                        np.sin(lobe.orientation_rad) * sx))
            rpx = rx_major * np.hypot(np.sin(lobe.orientation_rad) * sx,
                                      np.cos(lobe.orientation_rad) * sy)
            rpy = rx_minor * np.hypot(np.cos(lobe.orientation_rad) * sx,
                                      np.sin(lobe.orientation_rad) * sy)
        if not np.isfinite([sx, sy, ang, rpx, rpy]).all():
            raise DomainError(
                f"lobes[{j}]: 1/e2 contour is not finite in plot pixels "
                f"(scale {sx:.3g} x {sy:.3g} px/nm, radii "
                f"{rpx:.3g} x {rpy:.3g} px)")
        parts.append(
            f'<g transform="translate({cx:.2f},{cy:.2f}) rotate({ang:.2f})">'
            f'<ellipse rx="{rpx:.2f}" ry="{rpy:.2f}" fill="none" '
            f'stroke="white" stroke-width="1.5"/></g>')
        if lobe.process_label:
            parts.append(
                f'<text x="{cx:.2f}" y="{cy - rpy - 4:.2f}" fill="white" '
                f'font-size="12" text-anchor="middle">'
                f'{lobe.process_label.translate(_XML_TEXT)}</text>')

    parts.append(
        f'<rect x="{margin:.0f}" y="{margin:.0f}" width="{pw:.0f}" '
        f'height="{ph:.0f}" fill="none" stroke="black"/>')
    for tick in np.linspace(i0, i1, 6):
        x = px(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{margin + ph:.0f}" '
                     f'x2="{x:.2f}" y2="{margin + ph + 5:.0f}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{margin + ph + 18:.0f}" '
                     f'font-size="11" text-anchor="middle">{tick:.1f}</text>')
    for tick in np.linspace(s0, s1, 6):
        y = py(tick)
        parts.append(f'<line x1="{margin - 5:.0f}" y1="{y:.2f}" '
                     f'x2="{margin:.0f}" y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{margin - 8:.0f}" y="{y + 4:.2f}" '
                     f'font-size="11" text-anchor="end">{tick:.1f}</text>')
    parts.append(
        f'<text x="{margin + pw / 2:.0f}" y="{height - 12:.0f}" '
        f'font-size="13" text-anchor="middle">idler wavelength (nm)</text>')
    parts.append(
        f'<text x="16" y="{margin + ph / 2:.0f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{margin + ph / 2:.0f})">signal wavelength (nm)</text>')
    if title:
        parts.append(f'<text x="{margin + pw / 2:.0f}" y="30" '
                     f'font-size="14" text-anchor="middle">'
                     f'{title.translate(_XML_TEXT)}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8",
                          newline="\n")
