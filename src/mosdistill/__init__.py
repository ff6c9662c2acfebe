"""Desk-scale moving-object segmentation with decoupled class distillation.

Pipeline: SemanticKITTI-format ingestion -> polar BEV motion features ->
a small hand-differentiated student network with dynamic upsampling,
trained with weighted cross-entropy, Lovasz-softmax, and a weighted
decoupled class distillation loss against any frozen teacher's logits.
"""

import os

# One BLAS thread unless the caller chose otherwise: the parallelism is
# --threads frame workers, and BLAS threads on top of them oversubscribe the
# cores.  Set before any submodule loads numpy; a process that imported
# numpy before this package keeps the BLAS threading it started with.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
