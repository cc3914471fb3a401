"""Lineage core: index representations, capture config, composition,
queries, and provenance semantics."""

from .capture import CaptureConfig, CaptureMode, QueryLineage
from .composer import NodeLineage, compose_node, merge_binary
from .persist import load_lineage, save_lineage
from .refresh import AggregateRefresher, multi_backward, multi_forward
from .indexes import (
    NO_MATCH,
    GrowableRidIndex,
    LineageIndex,
    RidArray,
    RidIndex,
    compose,
    invert_rid_array,
    invert_rid_index,
)

__all__ = [
    "AggregateRefresher",
    "CaptureConfig",
    "CaptureMode",
    "GrowableRidIndex",
    "LineageIndex",
    "NO_MATCH",
    "NodeLineage",
    "QueryLineage",
    "RidArray",
    "RidIndex",
    "load_lineage",
    "save_lineage",
    "compose",
    "compose_node",
    "invert_rid_array",
    "invert_rid_index",
    "merge_binary",
    "multi_backward",
    "multi_forward",
]
