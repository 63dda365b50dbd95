"""End to end, the fast paths against the slow ones they replaced.

One run takes the package as it is; the other swaps in, all at once, the
references kept in ``references.py``: the bisection of the LP
characteristic equation (with a cold index table, so the table is built
from it), the serial bisection of the phase-matched centers and the lobe
fit on the union support of the peeled lobes.  Both runs compute the
criterion-2 normalized overlaps |O|^2, the criterion-4 predicted and
fitted centers and the criterion-6 metrics at a 1 nm and an 8 nm window
about the B-C intersection, for the default 10 cm fiber and the
15 + 15 mm cross-spliced one.  The cross-spliced JSI is fitted on a
121 x 121 grid over the default band: on the default 301 x 301 grid its
fit takes about 2 300 model evaluations on either path, some 16 s.  On
the smaller grid a lobe leaves its own nodes during the joint fit, so
the run also covers the fit's switch to every lobe on all the joint
nodes.
"""

from collections import OrderedDict

import numpy as np
import pytest

import references
from fwmpairs import dispersion, pipeline
from fwmpairs.config import FiberSpec, PipelineConfig, SpectralWindow
from fwmpairs.estimation import trace_spectral
from fwmpairs.fields import normalize_overlaps, process_overlap
from fwmpairs.tomography import metrics_block

# fiber, and the grid points per axis of its JSI
FIBERS = {"10cm": (FiberSpec(), 301),
          "15+15mm_cross": (FiberSpec(segments=((0.015, False),
                                                (0.015, True))), 121)}

# Bounds, each from a tolerance the local tests hold:
# - both index tables lie within 1e-12 of the bisection
#   (test_index_table_matches_bisection), so two center searches may
#   settle in neighbouring dyadic parts of a bracket, which are at most
#   1e-5 nm wide (the phasematched_centers contract);
PREDICTED_NM = 1e-5
# - the windowed lobe fit matches the whole-grid one to 1e-9 relative,
#   at most 7e-7 nm at 700 nm (test_supported_fit_matches_the_full_grid),
#   and our Levenberg-Marquardt matches MINPACK's to 1e-6 nm
#   (test_levenberg_marquardt_matches_minpack);
FITTED_NM = 1e-6
# - a center moved by PREDICTED_NM moves the pump, signal and idler
#   fields of an overlap by at most 1e-5 nm in about 600 nm, so |O|^2 by
#   about 1e-5 / 600 relative; taken as 1e-7;
OVERLAP_REL = 1e-7
# - a window centred on the B-C intersection moves with the centers, by
#   at most PREDICTED_NM; concurrence, purity and Bell fidelity change by
#   less than 0.1 per nm of window size over 0.5 to 3 nm
#   (test_criterion_06_window_optimization's sweep), so by less than 1e-6
#   for the shift; taken as 1e-5.
METRICS_ABS = 1e-5


def outputs(fiber, points):
    """The compared quantities of one fiber, from a cold index table,
    with its JSI on ``points`` x ``points`` nodes."""
    cfg = PipelineConfig.parse({"grid": {"points_s": points,
                                         "points_i": points}})
    sim = pipeline.Simulation(cfg, fiber=fiber)
    in_band = [p for p in sim.matched if p.label in "ABCD"]
    raw = {p.label: process_overlap(fiber, p, 620.0, sim.centers[p.label])
           for p in in_band}
    jsi = sim.jsi()
    fit = pipeline._fit_in_band_lobes(sim, jsi.lambda_s_axis,
                                      jsi.lambda_i_axis, jsi.combined)
    (bs, bi), (cs, ci) = sim.centers["B"], sim.centers["C"]
    mid_s, mid_i = 0.5 * (bs + cs), 0.5 * (bi + ci)
    metrics = {}
    for width in (1.0, 8.0):
        window = SpectralWindow((mid_s - width / 2, mid_s + width / 2),
                                (mid_i - width / 2, mid_i + width / 2))
        metrics[width] = metrics_block(
            trace_spectral(sim.amplitudes(), sim.matched, window))
    return {
        "overlaps": {k: abs(v) ** 2
                     for k, v in normalize_overlaps(raw).items()},
        "predicted": {label: sim.centers[label] for label in "ABCD"},
        "fitted": {lobe.process_label: (lobe.center_s_nm, lobe.center_i_nm)
                   for lobe in fit.lobes},
        "metrics": metrics,
    }


@pytest.mark.parametrize("name", sorted(FIBERS))
def test_fast_paths_match_the_references_end_to_end(monkeypatch, name):
    fiber, points = FIBERS[name]
    monkeypatch.setattr(dispersion, "_PANEL_CACHE", OrderedDict())
    fast = outputs(fiber, points)
    monkeypatch.setattr(dispersion, "_PANEL_CACHE", OrderedDict())
    monkeypatch.setattr(dispersion, "_solve_u_array",
                        references.bisect_u_array)
    monkeypatch.setattr(pipeline, "phasematched_centers",
                        references.serial_centers)
    monkeypatch.setattr(pipeline, "fit_lobes", references.union_support_fit)
    slow = outputs(fiber, points)

    assert sorted(fast["overlaps"]) == sorted(slow["overlaps"])
    for label, value in slow["overlaps"].items():
        assert abs(fast["overlaps"][label] - value) <= OVERLAP_REL * value
    for label, center in slow["predicted"].items():
        assert np.max(np.abs(np.subtract(fast["predicted"][label],
                                         center))) <= PREDICTED_NM, label
    assert sorted(fast["fitted"]) == sorted(slow["fitted"]) == list("ABCD")
    for label, center in slow["fitted"].items():
        assert np.max(np.abs(np.subtract(fast["fitted"][label],
                                         center))) <= FITTED_NM, label
    for width, metrics in slow["metrics"].items():
        for key, value in metrics.items():
            assert abs(fast["metrics"][width][key] - value) <= METRICS_ABS, \
                (width, key)
