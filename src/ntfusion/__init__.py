"""Ensemble fusion by neuron transplantation.

Train small ensembles, concatenate them layer-wise into one wide model,
structurally prune the lowest-L2-norm units back to a single member's
architecture, and fine-tune; plus averaging/alignment baselines, sweep
experiments, checkpoints, and deterministic reporting.
"""

from .data import (
    BatchPlan,
    Dataset,
    batches,
    load_csv,
    load_idx,
    synth_blobs,
    synth_shapes,
    train_test_split,
)
from .errors import NTError
from .fusion import (
    EnsembleBundle,
    FusionPlan,
    align_average,
    concat_fuse,
    fuse,
    fuse_iterative,
    fuse_recursive,
    nt_fuse,
    transplant_fraction,
    vanilla_average,
)
from .network import (
    LayerKind,
    LayerSpec,
    Network,
    batchnorm,
    conv,
    flatten,
    forward,
    init_network,
    linear,
    maxpool,
    relu,
)
from .pruning import KeepPolicy, magnitude_prune, prune_to_architecture
from .tensor import RngStream, conv2d, matmul, row_l2_norms
from .training import History, KdConfig, StepDecay, TrainConfig, distill, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "BatchPlan", "Dataset", "batches", "load_csv", "load_idx", "synth_blobs",
    "synth_shapes", "train_test_split", "NTError", "EnsembleBundle", "FusionPlan", "align_average",
    "concat_fuse", "fuse", "fuse_iterative", "fuse_recursive", "nt_fuse",
    "transplant_fraction", "vanilla_average", "LayerKind", "LayerSpec", "Network",
    "batchnorm", "conv", "flatten", "forward", "init_network", "linear", "maxpool",
    "relu", "KeepPolicy", "magnitude_prune", "prune_to_architecture", "RngStream",
    "conv2d", "matmul", "row_l2_norms", "History", "KdConfig", "StepDecay",
    "TrainConfig", "distill", "evaluate", "train",
]
