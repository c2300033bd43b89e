import numpy as np
import pytest
from hypothesis import settings

from hdrkit.camera import gamma_crf
from hdrkit.image_io import LdrImage, RadianceMap
from hdrkit.nn import BatchNorm, _blas_thread_control, mse_loss
from hdrkit.pipeline import dropout_stream, normalize_hdr
from hdrkit.synth import synth_scenes

# The property tests replay the same examples on every run, so a fresh
# checkout cannot fail on an input that no earlier run drew.  A separate CI
# step explores with ``--hypothesis-profile=explore``: fresh random examples,
# each test's own max_examples, and the blob that reproduces a failure.
settings.register_profile("replay", derandomize=True)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile("replay")


def ldr_image(data, exposure: float = 1.0) -> LdrImage:
    """An exposure of (H, W, 3) ``data``, as 8-bit codes."""
    data = np.asarray(data, dtype=np.uint8)
    return LdrImage(width=data.shape[1], height=data.shape[0], data=data, exposure=exposure)


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


def shards_on_fresh_clones(net, x, y, cfg, step):
    """One ``ParallelTrainer`` step's shards of ``(x, y)``, each run on its own
    fresh clone of ``net`` with its own dropout stream: the batch loss and
    summed gradients that the step must give when no state passes from one
    shard to the next, and the batchnorm ``(running_mean, running_var)``
    pairs, one momentum step per shard from ``net``'s, in worker order."""
    n = x.shape[0]
    size = -(-n // cfg.workers)
    stats = [(b.bn.running_mean.copy(), b.bn.running_var.copy())
             for b in net.blocks if b.bn is not None]
    mom = BatchNorm.momentum
    loss, grads = 0.0, None
    for w in range(cfg.workers):
        sl = slice(min(w * size, n), min((w + 1) * size, n))
        if sl.start == sl.stop:
            continue
        clone = net.clone()
        bns = [b.bn for b in clone.blocks if b.bn is not None]
        for bn in bns:
            bn.momentum = 1.0  # its running statistics become the shard's batch statistics
        pred = clone.forward(x[sl], train=True, rng=dropout_stream(cfg.seed, step, w))
        part, dpred = mse_loss(pred, y[sl])
        clone.backward(dpred)
        factor = (sl.stop - sl.start) / n
        if grads is None:
            grads = [factor * g for g in clone.grads()]
        else:
            for acc, g in zip(grads, clone.grads()):
                acc += factor * g
        loss += factor * part
        stats = [((1.0 - mom) * mean + mom * bn.running_mean,
                  (1.0 - mom) * var + mom * bn.running_var) for (mean, var), bn in zip(stats, bns)]
    return loss, grads, stats


def running_statistics(net):
    """The ``(running_mean, running_var)`` arrays of ``net``'s batchnorm layers."""
    return [(b.bn.running_mean, b.bn.running_var) for b in net.blocks if b.bn is not None]
