"""Core contribution: context-enhanced join operators and cost model."""

from .conditions import JoinCondition, ThresholdCondition, TopKCondition
from .eselect import SelectionResult, eselect, select_group
from .precision import precision_error_bound, tensor_join_fp16
from .cost_model import (
    CostParams,
    choose_access_path,
    crossover_selectivity,
)
from .index_join import DEFAULT_PROBE_K, index_join
from .join import ejoin
from .nlj import naive_nlj, prefetch_nlj
from .quantized_join import QuantizedRelation, quantized_eselect, quantized_tensor_join
from .result import JoinResult, JoinStats
from .tensor_join import resolve_batch_shape, tensor_join, tensor_join_non_batched

__all__ = [
    "CostParams",
    "SelectionResult",
    "eselect",
    "select_group",
    "precision_error_bound",
    "tensor_join_fp16",
    "DEFAULT_PROBE_K",
    "JoinCondition",
    "JoinResult",
    "JoinStats",
    "QuantizedRelation",
    "quantized_eselect",
    "quantized_tensor_join",
    "ThresholdCondition",
    "TopKCondition",
    "choose_access_path",
    "crossover_selectivity",
    "ejoin",
    "index_join",
    "naive_nlj",
    "prefetch_nlj",
    "resolve_batch_shape",
    "tensor_join",
    "tensor_join_non_batched",
]
