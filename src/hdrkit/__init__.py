"""HDR imaging toolkit: exposure simulation, radiance merging, tone mapping,
TMQI scoring, and small CNN regressors trained from scratch."""

__version__ = "0.1.0"

from .camera import (
    Crf,
    ExposureLadder,
    ExposureStack,
    adaptive_stack,
    expose,
    fixed_stack,
    gamma_crf,
    geometric_ladder,
    load_crf,
)
from .image_io import (
    LdrImage,
    RadianceMap,
    decode_hdr,
    encode_hdr,
    read_pfm,
    read_ppm,
    write_pfm,
    write_ppm,
)
from .imgproc import (
    LabImage,
    bilateral_filter,
    entropy,
    lab_to_rgb,
    luminance,
    rgb_to_lab,
)
from .merge import debevec_merge, hat_weight
from .nn import (
    GradCheckReport,
    LayerSpec,
    Network,
    NetworkSpec,
    grad_check,
    load_checkpoint,
    mse_loss,
    save_checkpoint,
    sgd_step,
)
from .pipeline import (
    ParallelTrainer,
    TrainConfig,
    build_ldr2hdr_net,
    build_tonemap_net,
    decompose_tonemap_channels,
    extract_patches,
    hyperparam_search,
    infer_ldr2hdr,
    infer_tonemap,
    normalize_hdr,
    reassemble,
    recompose_tonemap,
    train,
)
from .tmo import TmqiScore, ToneMap, drago, mertens_fuse, reinhard_global, select_best_tmo, tmqi
