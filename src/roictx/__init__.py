"""Context-mining RoI operators with verified gradients."""

from .errors import DegenerateBoxError, FormatError, NumericError, \
    RoictxError, ShapeError, TrainingError
from .geometry import Box, iou, load_roi_csv, save_roi_csv
from .gradcheck import GradCheckReport, check
from .losses import softmax
from .mining import CandidateGridSpec, ContextMiner, ContextScorer, \
    DIRECTIONS, MinedRoIFeature, MiningConfig, SelectionRecord, build_layout, \
    candidate_pool_for_cell, fixed_context_variant, mine_context, \
    mine_context_backward, mine_many, mined_to_record, roi_map
from .roi_ops import RangeMaxTable, RoIMap, roi_align, roi_align_backward, \
    roi_pool, roi_pool_backward
from .attacks import SplitMix64, apply_patch, apply_patches, patch_region, \
    region_pixel_window
from .synth import SynthConfig, SynthScene, TrainResult, generate, train_head
from .tensor import concat_channels, load_ften, save_ften

__version__ = "0.1.0"
