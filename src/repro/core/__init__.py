"""Core contribution: context-enhanced join operators and cost model."""

from .calibration import CalibrationReport, calibrate, calibrated_params
from .conditions import JoinCondition, ThresholdCondition, TopKCondition
from .eselect import (
    PRESCREEN_MARGIN,
    TOPK_PRESCREEN_PAD,
    SelectionResult,
    eselect,
    eselect_index,
    exact_threshold_select,
    exact_topk_select,
    guarded_topk_select,
)
from .precision import (
    PRECISIONS,
    join_with_precision,
    precision_error_bound,
    quantize_fp16,
    tensor_join_fp16,
)
from .cost_model import (
    AccessPathDecision,
    CostParams,
    PrecisionDecision,
    choose_access_path,
    choose_scan_precision,
    crossover_selectivity,
    e_selection_cost,
    index_join_cost,
    index_probe_cost,
    naive_nlj_cost,
    precision_code_bytes,
    prefetch_nlj_cost,
    quantized_recall_estimate,
    quantized_scan_join_cost,
    scan_join_cost_filtered,
    tensor_join_cost,
)
from .index_join import DEFAULT_PROBE_K, build_index_for_join, index_join
from .join import STRATEGIES, ejoin
from .nlj import naive_nlj, prefetch_nlj
from .parallel import parallel_join, partition_rows
from .quantized_join import (
    QUANT_METHODS,
    QuantizedRelation,
    quantized_eselect,
    quantized_tensor_join,
)
from .result import JoinResult, JoinStats
from .tensor_join import resolve_batch_shape, tensor_join, tensor_join_non_batched

__all__ = [
    "AccessPathDecision",
    "CalibrationReport",
    "CostParams",
    "PRECISIONS",
    "PRESCREEN_MARGIN",
    "SelectionResult",
    "TOPK_PRESCREEN_PAD",
    "exact_threshold_select",
    "exact_topk_select",
    "guarded_topk_select",
    "calibrate",
    "calibrated_params",
    "eselect",
    "eselect_index",
    "join_with_precision",
    "precision_error_bound",
    "quantize_fp16",
    "tensor_join_fp16",
    "DEFAULT_PROBE_K",
    "JoinCondition",
    "JoinResult",
    "JoinStats",
    "PrecisionDecision",
    "QUANT_METHODS",
    "QuantizedRelation",
    "choose_scan_precision",
    "precision_code_bytes",
    "quantized_eselect",
    "quantized_recall_estimate",
    "quantized_scan_join_cost",
    "quantized_tensor_join",
    "STRATEGIES",
    "ThresholdCondition",
    "TopKCondition",
    "build_index_for_join",
    "choose_access_path",
    "crossover_selectivity",
    "e_selection_cost",
    "ejoin",
    "index_join",
    "index_join_cost",
    "index_probe_cost",
    "naive_nlj",
    "naive_nlj_cost",
    "parallel_join",
    "partition_rows",
    "prefetch_nlj",
    "prefetch_nlj_cost",
    "resolve_batch_shape",
    "scan_join_cost_filtered",
    "tensor_join",
    "tensor_join_cost",
    "tensor_join_non_batched",
]
