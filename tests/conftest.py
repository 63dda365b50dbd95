import numpy as np
import pytest

from fwmpairs.config import FiberSpec, PipelineConfig, PumpSpec
from fwmpairs.fields import normalize_overlaps, process_overlap
from fwmpairs.processes import enumerate_processes, phasematched_center

# the config's default band of the phase-matched idler centers
BAND_I_NM = PipelineConfig.parse({}).center_band_nm

# measured lobe centers (lambda_s, lambda_i) in nm used as references
MEASURED_CENTERS = {
    "A": (680.7, 568.1),
    "B": (678.7, 570.0),
    "C": (677.2, 571.6),
    "D": (675.3, 573.3),
}


@pytest.fixture(scope="session")
def fiber():
    return FiberSpec()


@pytest.fixture(scope="session")
def pump():
    return PumpSpec()


@pytest.fixture(scope="session")
def processes_eo():
    return enumerate_processes({"e", "o"})


@pytest.fixture(scope="session")
def centers(fiber, processes_eo):
    return {p.label: phasematched_center(p, fiber, 620.0, BAND_I_NM)
            for p in processes_eo}


@pytest.fixture(scope="session")
def overlaps_abcd(fiber, processes_eo, centers):
    """Normalized overlaps over the four in-band channels."""
    in_band = [p for p in processes_eo if p.label in "ABCD"]
    return normalize_overlaps(process_overlap(fiber, in_band, 620.0, centers))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240620)
