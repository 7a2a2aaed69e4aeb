"""Bounding-box localisation of brain tumors in FLAIR MR volumes.

Six stages: representative-slice selection, normalisation plus atlas-guided
contrast enhancement, five-class intensity clustering (EM or K-means),
per-slice tumor-map extraction, quadrant voting across the six maps, and
the minimal bounding rectangle. Includes the evaluation protocol
(cumulative ground-truth boxes, box Dice) and a synthetic phantom generator
so everything is testable without the restricted dataset.
"""

from .clustering import (
    ClusterConfig,
    EmResult,
    GmmModel,
    KMeansResult,
    LabelMap,
    em_gmm_1d,
    hard_assign,
    kmeans_1d,
    segment_slice,
)
from .components import Component, connected_components
from .config import RunConfig
from .errors import (
    ConfigurationError,
    EmptyGroundTruthError,
    FormatError,
    NoTumorDetectedError,
    TruncatedDataError,
    TumorBoxError,
    UnsupportedFeatureError,
    ValidationError,
)
from .evaluate import (
    CaseResult,
    CohortResult,
    binarize_gt,
    cumulative_gt,
    dice_box,
    evaluate_case,
    evaluate_cohort,
    evaluate_manifest,
    gt_box,
    read_manifest,
)
from .mha import read_mha, write_mha
from .phantom import PhantomSpec, generate_phantom
from .pipeline import (
    BBox,
    ExtractParams,
    FuseResult,
    PipelineReport,
    PipelineResult,
    TumorMap,
    bounding_box,
    extract_tumor_map,
    fuse_maps,
    run_pipeline,
    select_representatives,
)
from .preprocess import (
    Atlas,
    brain_threshold,
    build_atlas,
    enhance_contrast,
    load_atlas,
    normalize,
    save_atlas,
)
from .volume import Slice, Volume, extract_slice

__version__ = "0.1.0"
