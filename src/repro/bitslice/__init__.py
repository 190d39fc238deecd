"""Bitsliced evaluation: compiled kernels, lane packing, word engines."""

from .engine import BitslicedKernel, KernelStats
from .pack import (
    lane_bit_matrix,
    lanes_where,
    pack_lane_bits,
    unpack_lanes,
    unpack_lanes_array,
)
from .wordengine import (
    AUTO_ENGINE,
    HAVE_NUMPY,
    BigIntEngine,
    NumpyEngine,
    WordEngine,
    available_engines,
    get_engine,
)

__all__ = [
    "AUTO_ENGINE",
    "BigIntEngine",
    "BitslicedKernel",
    "HAVE_NUMPY",
    "KernelStats",
    "NumpyEngine",
    "WordEngine",
    "available_engines",
    "get_engine",
    "lane_bit_matrix",
    "lanes_where",
    "pack_lane_bits",
    "unpack_lanes",
    "unpack_lanes_array",
]
