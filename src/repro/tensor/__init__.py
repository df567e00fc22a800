"""Tape-based autograd engine and NN operators."""

from .tensor import (ConsumedGraphError, Node, Tensor, graph_order,
                     is_grad_enabled, no_grad)
from .ops import (
    concat,
    cross_entropy,
    embedding,
    grouped_swiglu,
    precision_cast,
    put_rows,
    rmsnorm,
    rope_rotate,
    scaled_dot_product_attention,
    scatter_add_rows,
    shard,
    softmax,
    take_rows,
)

__all__ = [
    "ConsumedGraphError",
    "Node",
    "Tensor",
    "graph_order",
    "is_grad_enabled",
    "no_grad",
    "concat",
    "cross_entropy",
    "embedding",
    "grouped_swiglu",
    "precision_cast",
    "put_rows",
    "rmsnorm",
    "rope_rotate",
    "scaled_dot_product_attention",
    "scatter_add_rows",
    "shard",
    "softmax",
    "take_rows",
]
