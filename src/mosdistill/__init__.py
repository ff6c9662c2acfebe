"""Desk-scale moving-object segmentation with decoupled class distillation.

Pipeline: SemanticKITTI-format ingestion -> polar BEV motion features ->
a small hand-differentiated student network with dynamic upsampling,
trained with weighted cross-entropy, Lovasz-softmax, and a weighted
decoupled class distillation loss against any frozen teacher's logits.
"""

import os

# One BLAS thread unless the caller chose otherwise: the parallelism is
# --threads frame workers, and BLAS threads on top of them oversubscribe the
# cores.  Set before the imports below load numpy; a process that imported
# numpy before this package keeps the BLAS threading it started with.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .bev import (  # noqa: E402
    BevGrid,
    CellIndexMap,
    CellLabelGrid,
    HeightImage,
    MotionTensor,
    back_project,
    cell_labels,
    height_image,
    motion_residuals,
    project_to_cells,
)
from .geometry import AlignedSequence, align_to_current, transform_points  # noqa: E402
from .kitti_io import (  # noqa: E402
    Calibration,
    ClassMap,
    LabelArray,
    PointCloud,
    Pose,
    read_calib,
    read_labels,
    read_poses,
    read_scan,
    remap_labels,
)
from .losses import (  # noqa: E402
    DistillConfig,
    KdSplit,
    LogitGrid,
    LossResult,
    frame_weights,
    kd_split,
    lovasz_softmax,
    softmax_probs,
    total_loss,
    wdcd_frame,
    weighted_cross_entropy,
)
from .metrics import ConfusionMatrix, accumulate, iou  # noqa: E402
from .nnet import DySample, Network, SgdState, bilinear_upsample, build_network  # noqa: E402
from .synthbench import SceneConfig, gen_scene, gen_sequence  # noqa: E402
from .teacher import read_logits, synth_teacher, write_logits  # noqa: E402

__version__ = "0.1.0"
