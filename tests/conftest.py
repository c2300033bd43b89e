import numpy as np
import pytest

from hdrkit.camera import gamma_crf
from hdrkit.image_io import RadianceMap
from hdrkit.nn import _blas_thread_control
from hdrkit.pipeline import normalize_hdr
from hdrkit.synth import synth_scenes


@pytest.fixture(scope="session")
def identity_crf():
    return gamma_crf(1.0)


@pytest.fixture(scope="session")
def small_scene():
    """One normalized 48x48 blob scene."""
    scene = synth_scenes(2, 48, seed=101)[1]
    norm, _ = normalize_hdr(scene)
    return norm


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def random_map(rng):
    return RadianceMap.from_array(rng.random((12, 10, 3)).astype(np.float32) * 3.0)


@pytest.fixture(params=[1, 2])
def blas_threads(request):
    """BLAS set to one thread, then two, for the test; put back after."""
    if _blas_thread_control() is None:
        pytest.skip("no OpenBLAS thread control found")
    get, put = _blas_thread_control()
    before = get()
    put(request.param)
    yield request.param
    put(before)
