"""Point-supervised instance edge detection toolkit.

A numpy reference implementation of the computable core of
point-supervised instance edge detection: annotation geometry, tunnel-target
rasterization, the training losses with analytical gradients, reference
forward kernels for the query-based decoder, and the ODS/OIS evaluation
pipeline.
"""

from .annotations import (
    Dataset,
    ImageRecord,
    InstanceAnnotation,
    Keypoint,
    ParseError,
    parse_dataset,
    subsample_keypoints,
)
from .kernels import (
    CoefSet,
    DecoderSchedule,
    FeatureMap,
    QuerySet,
    coef_head,
    cross_attention_cost,
    default_schedule,
    dense_head,
    scaled_dot_attention,
)
from .losses import (
    FocalConfig,
    LossResult,
    UndefinedLossError,
    dice_loss,
    finite_diff_check,
    gradient_ratio,
    penalty_reduced_focal,
)
from .metrics import (
    EdgeIndex,
    EvalConfig,
    EvalSummary,
    MatchResult,
    PRPoint,
    binarize,
    edge_nodes,
    evaluate,
    fscore,
    image_pr,
    index_edges,
    match_instance,
    thin,
)
from .pgm import read_graymap, write_graymap
from .raster import (
    TUNNEL_VALUE,
    BitMap,
    GrayMap,
    TunnelTarget,
    build_tunnel_target,
    rasterize_polyline,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # annotations
    "Dataset",
    "ImageRecord",
    "InstanceAnnotation",
    "Keypoint",
    "ParseError",
    "parse_dataset",
    "subsample_keypoints",
    # raster
    "TUNNEL_VALUE",
    "BitMap",
    "GrayMap",
    "TunnelTarget",
    "build_tunnel_target",
    "rasterize_polyline",
    # pgm
    "read_graymap",
    "write_graymap",
    # losses
    "FocalConfig",
    "LossResult",
    "UndefinedLossError",
    "dice_loss",
    "finite_diff_check",
    "gradient_ratio",
    "penalty_reduced_focal",
    # kernels
    "CoefSet",
    "DecoderSchedule",
    "FeatureMap",
    "QuerySet",
    "coef_head",
    "cross_attention_cost",
    "default_schedule",
    "dense_head",
    "scaled_dot_attention",
    # metrics
    "EdgeIndex",
    "EvalConfig",
    "EvalSummary",
    "MatchResult",
    "PRPoint",
    "binarize",
    "edge_nodes",
    "evaluate",
    "fscore",
    "image_pr",
    "index_edges",
    "match_instance",
    "thin",
]
