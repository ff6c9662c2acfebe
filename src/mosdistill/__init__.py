"""Desk-scale moving-object segmentation with decoupled class distillation.

Pipeline: SemanticKITTI-format ingestion -> polar BEV motion features ->
a small hand-differentiated student network with dynamic upsampling,
trained with weighted cross-entropy, Lovasz-softmax, and a weighted
decoupled class distillation loss against any frozen teacher's logits.
"""

from .bev import (
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
from .geometry import AlignedSequence, align_to_current, transform_points
from .kitti_io import (
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
from .losses import (
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
from .metrics import ConfusionMatrix, accumulate, iou
from .nnet import DySample, Network, SgdState, bilinear_upsample, build_network
from .synthbench import SceneConfig, gen_scene, gen_sequence
from .teacher import read_logits, synth_teacher, write_logits

__version__ = "0.1.0"
