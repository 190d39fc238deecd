"""Bitsliced evaluation: compiled kernels, lane packing, Python-int words."""

from .engine import BitslicedKernel, KernelStats
from .pack import (
    lane_bit_matrix,
    lanes_where,
    pack_lane_bits,
    unpack_lanes,
)
from .wordengine import (
    HAVE_NUMPY,
    BigIntEngine,
    compact_numpy,
    compact_python,
)

__all__ = [
    "BigIntEngine",
    "BitslicedKernel",
    "HAVE_NUMPY",
    "KernelStats",
    "compact_numpy",
    "compact_python",
    "lane_bit_matrix",
    "lanes_where",
    "pack_lane_bits",
    "unpack_lanes",
]
