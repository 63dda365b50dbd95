"""End to end, the fast paths against the slow ones they replaced.

One run takes the package as it is; the other swaps in, all at once, the
references kept in ``references.py``: the bisection of the LP
characteristic equation (with a cold index table, so the table is built
from it), the serial bisection of the phase-matched centers, the
overlaps solved channel by channel and the lobe fit on the union support
of the peeled lobes.  A third run swaps in the block-scan peel alone and
must give the package's outputs bit for bit.  The runs compute the
criterion-2 normalized overlaps |O|^2, the criterion-4 predicted and
fitted centers and the criterion-6 metrics at a 1 nm and an 8 nm window
about the B-C intersection, for the default 10 cm fiber and the
15 + 15 mm cross-spliced one, each JSI on the default 301 x 301 grid.

The barrier MLE's schedule is held to the one it replaced (a tenfold
cut of tau at centred points that are centred to 1e-8) through the KKT
certificate: on the tomography tests' records and on a seeded record of
the cross-spliced fiber's 1 nm state with its bootstrap, both schedules
must return log-likelihoods within their dual gaps and metrics within
the bound those gaps imply.

The overlaps of all channels at once are held bit for bit to the
overlaps solved one channel at a time, on both fibers' matched channels
and on the ten {g, e, o} channels.  The lobe fit seeded by the peel on
one residual grid is held bit for bit to the one seeded by the block-scan
peel, on both fibers' JSIs, a one-lobe JSI and seeded measured-like
grids.

The mode images superposed from one basis solve are held to 1e-12 (a
rounding bound) and to equal PGM bytes against the images superposed
from cached per-mode profiles and renormalized, for every image of
``modes`` at its default wavelength and at 560 and 700 nm.
"""

from collections import OrderedDict

import numpy as np
import pytest

import references
from fwmpairs import dispersion, pipeline, spectrum, tomography
from fwmpairs.config import (FiberSpec, ModeSuperposition, PipelineConfig,
                             SpectralWindow)
from fwmpairs.estimation import trace_spectral
from fwmpairs.fields import (basis_fields, default_grid, intensity_image,
                             normalize_overlaps, process_overlap)
from fwmpairs.gridio import write_pgm
from fwmpairs.processes import enumerate_processes
from fwmpairs.tomography import (bootstrap_metrics, expected_counts,
                                 metrics_block, sample_counts)
from test_spectrum import benchmark_style_lobes
from test_tomography import kkt_records

FIBERS = {"10cm": FiberSpec(),
          "15+15mm_cross": FiberSpec(segments=((0.015, False),
                                               (0.015, True)))}

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


def window_state(sim, width):
    """The two-photon state of a ``width`` nm window about the B-C
    intersection."""
    (bs, bi), (cs, ci) = sim.centers["B"], sim.centers["C"]
    mid_s, mid_i = 0.5 * (bs + cs), 0.5 * (bi + ci)
    window = SpectralWindow((mid_s - width / 2, mid_s + width / 2),
                            (mid_i - width / 2, mid_i + width / 2))
    return trace_spectral(sim.amplitudes(), sim.matched, window)


def outputs(fiber):
    """The compared quantities of one fiber, from a cold index table,
    with its JSI on the default grid."""
    sim = pipeline.Simulation(PipelineConfig.parse({}), fiber=fiber)
    in_band = [p for p in sim.matched if p.label in "ABCD"]
    raw = pipeline.process_overlap(fiber, in_band, 620.0, sim.centers)
    jsi = sim.jsi()
    fit = pipeline._fit_in_band_lobes(sim, jsi.lambda_s_axis,
                                      jsi.lambda_i_axis, jsi.combined)
    metrics = {width: metrics_block(window_state(sim, width))
               for width in (1.0, 8.0)}
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
    fiber = FIBERS[name]
    monkeypatch.setattr(dispersion, "_PANEL_CACHE", OrderedDict())
    fast = outputs(fiber)
    with monkeypatch.context() as patch:
        patch.setattr(dispersion, "_PANEL_CACHE", OrderedDict())
        patch.setattr(spectrum, "_peel", references.block_scan_peel)
        assert outputs(fiber) == fast
    monkeypatch.setattr(dispersion, "_PANEL_CACHE", OrderedDict())
    monkeypatch.setattr(dispersion, "_solve_u_array",
                        references.bisect_u_array)
    monkeypatch.setattr(pipeline, "phasematched_centers",
                        references.serial_centers)
    monkeypatch.setattr(pipeline, "process_overlap",
                        references.serial_overlaps)
    monkeypatch.setattr(pipeline, "fit_lobes", references.union_support_fit)
    slow = outputs(fiber)

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


# ---------------------------------------------------------------------------
# the overlaps of all channels at once against one channel at a time


@pytest.mark.parametrize("case", [*sorted(FIBERS), "ten_channels",
                                  "off_center"])
def test_overlaps_match_the_serial_reference_bitwise(case):
    # the fibers' phase-matched channels; the ten {g, e, o} channels,
    # which take the LP01 fields too, at one point near the lobes and at
    # seeded centers of their own
    if case in FIBERS:
        fiber = FIBERS[case]
        sim = pipeline.Simulation(PipelineConfig.parse({}), fiber=fiber)
        processes, centers = sim.matched, sim.centers
    else:
        fiber = FiberSpec()
        processes = enumerate_processes({"g", "e", "o"})
        rng = np.random.default_rng(31)
        centers = {p.label: ((677.0, 571.0) if case == "ten_channels"
                             else (rng.uniform(640.0, 720.0),
                                   rng.uniform(540.0, 600.0)))
                   for p in processes}
    assert len(processes) >= 5
    assert (process_overlap(fiber, processes, 620.0, centers)
            == references.serial_overlaps(fiber, processes, 620.0, centers))


# ---------------------------------------------------------------------------
# the mode images from one basis solve against the cached profiles

# a peak-1 image value is |sum of at most two unit-norm basis values|^2;
# the two paths round the superposition and the normalizations in a
# different order, a few ulp (1e-16) of a value at most 1 each, and the
# reference's renormalization divides by 1 to 3e-16; 1e-12 leaves room
IMAGE_ABS = 1e-12


@pytest.mark.parametrize("lam_nm", [pipeline.MODES_WAVELENGTH_NM, 560.0,
                                    700.0])
def test_mode_images_match_the_cached_profile_reference(tmp_path, lam_nm):
    # every image of ``modes``: its seven states and the e/o mixture
    fiber = FiberSpec()
    grid = default_grid(fiber)
    basis = basis_fields(fiber, lam_nm / 1000.0, grid)
    states = {name: ModeSuperposition.named(name)
              for name in pipeline.MODE_IMAGE_STATES}
    states["mix_eo"] = [(0.5, states["e"]), (0.5, states["o"])]
    for name, state in states.items():
        got = intensity_image(basis, state)
        ref = references.cached_intensity_image(fiber, lam_nm / 1000.0,
                                                state, grid)
        assert np.max(np.abs(got - ref)) <= IMAGE_ABS, name
        write_pgm(tmp_path / "got.pgm", got)
        write_pgm(tmp_path / "ref.pgm", ref)
        assert ((tmp_path / "got.pgm").read_bytes()
                == (tmp_path / "ref.pgm").read_bytes()), name


# ---------------------------------------------------------------------------
# the peel on one residual grid against the block scan


def lobe_fit(case, centers):
    """The lobe fit of one case, run when called: a fiber's in-band
    lobes on its JSI, the one lobe of a pump in mode e on the default
    JSI, or four lobes on a seeded measured-like grid, scaled by 2^1000
    or 2^-1000 where the case names the power."""
    if case in FIBERS or case == "pump_e":
        cfg = PipelineConfig.parse(
            {"pump": {"transverse_state": "e"}} if case == "pump_e" else {})
        sim = pipeline.Simulation(cfg, fiber=FIBERS.get(case, FiberSpec()))
        jsi = sim.jsi()
        return lambda: pipeline._fit_in_band_lobes(
            sim, jsi.lambda_s_axis, jsi.lambda_i_axis, jsi.combined)
    seed, power = case if isinstance(case, tuple) else (case, 0)
    ls, li, grid = benchmark_style_lobes(seed, centers)
    return lambda: spectrum.fit_lobes(ls, li, np.ldexp(grid, power), 4)


@pytest.mark.parametrize("case", [*sorted(FIBERS), "pump_e", *range(1, 6),
                                  (6, 1000), (6, -1000)], ids=str)
def test_peel_matches_the_block_scan_reference_bitwise(monkeypatch, centers,
                                                       case):
    fit = lobe_fit(case, centers)
    new = fit()
    monkeypatch.setattr(spectrum, "_peel", references.block_scan_peel)
    # the lobes, their R^2, the residual norm and the evaluations; a
    # float's repr gives back its bits
    assert repr(new) == repr(fit())
    if case == "pump_e":
        assert len(new.lobes) == 1


# ---------------------------------------------------------------------------
# the barrier MLE's schedule against the one it replaced


def reference_schedule(patch):
    patch.setattr(tomography, "_TAU_CUT", 0.1)
    patch.setattr(tomography, "_CENTRE_TOL", 1e-8)


def metric_bounds(counts, gap_a, gap_b):
    """How far apart the metrics of two states of each record can be
    when each state's log-likelihood is certified within its dual gap of
    the maximum.

    Along any segment of physical states p_k <= 1, so the likelihood
    sum_k c_k log p_k has curvature at most -x^T A^T diag(c) A x in the
    Frobenius coordinates x of rho.  The maximizer rho* is optimal over
    the segment to rho, so the first-order term is <= 0 and
    ll* - ll(rho) >= lam |rho - rho*|_F^2 / 2, with lam the smallest
    eigenvalue of A^T diag(c) A.  So |rho_a - rho_b|_F <= delta =
    sqrt(2 / lam) (sqrt(gap_a) + sqrt(gap_b)).  Then
    - Bell fidelity moves by at most |rho_a - rho_b|_op <= delta, its
      square root by at most sqrt(delta);
    - purity, tr((rho_a + rho_b)(rho_a - rho_b)), by at most 2 delta;
    - concurrence by at most 4 sqrt(2 delta).  It moves by at most the
      summed change of its lambda_i, the singular values of
      T = sqrt(rho)^T S sqrt(rho) (S = sigma_y x sigma_y), and that sum
      is at most 2 |T_a - T_b|_F (Mirsky, four values).  Every factor
      has operator norm <= 1, so |T_a - T_b|_F <= 2 |sqrt(rho_a) -
      sqrt(rho_b)|_F, and |sqrt(rho_a) - sqrt(rho_b)|_F^2 <=
      |rho_a - rho_b|_1 <= 2 delta (Powers-Stormer; the trace norm of a
      4 x 4 matrix is at most twice its Frobenius norm).
    The concurrence bound is loose, since it goes through the square
    root; the log-likelihoods carry the tight comparison.
    """
    amat = tomography._operators()[0]
    lam = np.linalg.eigvalsh(amat.T @ (counts[:, :, None] * amat))[:, 0]
    delta = np.sqrt(2.0 / lam) * (np.sqrt(gap_a) + np.sqrt(gap_b))
    return {"concurrence": 4.0 * np.sqrt(2.0 * delta),
            "bell_fidelity": delta,
            "bell_fidelity_unsquared": np.sqrt(delta),
            "purity": 2.0 * delta}


def assert_within_certificate(counts, new, ref):
    """``new`` and ``ref`` are ``_solve`` outputs for ``counts``."""
    (rho, ll, *_, gap, conv), (rho_ref, ll_ref, *_, gap_ref, conv_ref) = \
        new, ref
    assert np.all(conv) and np.all(conv_ref)
    # ll <= ll* <= ll + gap for each, so they differ by at most the larger
    assert np.all(np.abs(ll - ll_ref) <= np.maximum(gap, gap_ref))
    bounds = metric_bounds(counts, gap, gap_ref)
    got, want = metrics_block(rho), metrics_block(rho_ref)
    for key, bound in bounds.items():
        assert np.all(np.abs(got[key] - want[key]) <= bound), key
    return bounds


def test_mle_schedule_matches_the_reference_within_the_certificate(
        monkeypatch):
    records = kkt_records()
    counts = np.array([r.counts for r in records])
    n0 = np.array([r.n0 for r in records])
    new = tomography._solve(counts, n0)
    with monkeypatch.context() as patch:
        reference_schedule(patch)
        ref = tomography._solve(counts, n0)
    assert_within_certificate(counts, new, ref)


def solved_qst(monkeypatch, record, reference):
    """The ``_solve`` counts and outputs of the MLE and of a 34-resample
    bootstrap of ``record``, and the bootstrap result, under the
    reference schedule or the package's."""
    solve, solved = tomography._solve, []

    def keep(counts, *args):
        solved.append((counts, solve(counts, *args)))
        return solved[-1][1]

    with monkeypatch.context() as patch:
        if reference:
            reference_schedule(patch)
        patch.setattr(tomography, "_solve", keep)
        tomography.mle_reconstruct(record)
        boot = bootstrap_metrics(record, n_samples=34, seed=4242)
    return solved, boot


def test_qst_of_the_1nm_state_matches_the_reference_schedule(monkeypatch):
    # a seeded record of the cross-spliced fiber's 1 nm state (purity
    # 0.975, on the rank boundary) at the config's n0, with the
    # benchmark's 34 resamples
    cfg = PipelineConfig.parse({})
    sim = pipeline.Simulation(cfg, fiber=FIBERS["15+15mm_cross"])
    n0 = cfg.tomography.counts_scale
    record = sample_counts(expected_counts(window_state(sim, 1.0), n0),
                           seed=4242, n0=n0)
    (mle, resampled), boot = solved_qst(monkeypatch, record, False)
    (mle_ref, resampled_ref), boot_ref = solved_qst(monkeypatch, record,
                                                    True)
    assert np.array_equal(resampled[0], resampled_ref[0])
    assert_within_certificate(mle[0], mle[1], mle_ref[1])
    bounds = assert_within_certificate(resampled[0], resampled[1],
                                       resampled_ref[1])
    assert boot.unconverged == boot_ref.unconverged == 0
    # |mean(a) - mean(b)| <= mean |a_i - b_i|, and centring is a
    # projection, so |std(a) - std(b)| <= |a - b|_2 / sqrt(n - 1)
    size = len(resampled[0])
    for key in boot.means:
        bound = bounds[key]
        assert abs(boot.means[key] - boot_ref.means[key]) <= bound.mean()
        assert (abs(boot.stds[key] - boot_ref.stds[key])
                <= np.sqrt((bound ** 2).sum() / (size - 1)))
