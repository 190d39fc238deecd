"""Bitsliced evaluation engine: expression DAG -> executable kernel.

The paper's sampler is a fixed sequence of bitwise word instructions; its
running time is the instruction count, independent of the data — that is
the whole constant-time argument.  This engine preserves that structure
in Python: the DAG is compiled **once** into straight-line Python source
(one line per gate, no branches, no data-dependent control flow at all)
and ``exec``-compiled into a callable.  The line count *is* the modeled
cycle count used to reproduce Table 2.

The reference interpreter in :func:`repro.boolfunc.expr.evaluate` computes
the same function ~10x slower; a hypothesis test pins the two together.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

from ..boolfunc.expr import (
    Expr,
    circuit_depth,
    gate_counts,
    input_variables,
    to_python_source,
)


@dataclass(frozen=True)
class KernelStats:
    """Static cost metrics of a compiled kernel (machine-model cycles)."""

    gates: dict[str, int]
    depth: int
    num_inputs: int
    num_outputs: int

    @property
    def word_ops(self) -> int:
        """Bitwise word instructions per kernel invocation.

        One invocation processes a whole ``w``-lane batch, so the
        modeled per-sample cost is ``word_ops / w`` — the quantity the
        paper reports as cycles (Table 2 counts cycles per 64 samples).
        """
        return self.gates["total"]


class BitslicedKernel:
    """A compiled straight-line evaluator for a set of output roots."""

    def __init__(self, roots: Sequence[Expr],
                 function_name: str = "kernel") -> None:
        self.roots = tuple(roots)
        self.source = to_python_source(self.roots, function_name)
        namespace: dict = {}
        exec(compile(self.source, f"<bitsliced:{function_name}>", "exec"),
             namespace)
        self._function = namespace[function_name]
        variables = input_variables(self.roots)
        self._num_inputs = (max(variables) + 1) if variables else 0
        self.stats = KernelStats(
            gates=gate_counts(self.roots),
            depth=circuit_depth(self.roots),
            num_inputs=self._num_inputs,
            num_outputs=len(self.roots),
        )

    @property
    def num_inputs(self) -> int:
        """Highest input variable index + 1 (length ``inputs`` needs)."""
        return self._num_inputs

    def __call__(self, inputs: Sequence, mask) -> tuple:
        """Evaluate all outputs over ``mask``-wide words.

        ``inputs[i]`` must carry variable ``b_i``; every lane of every
        output is computed unconditionally — there is no early exit by
        construction.

        The generated source uses only ``& | ^ ~``, so any word type
        with those operators works; the sampler passes Python ints
        with the all-ones ``width``-bit mask
        (:mod:`repro.bitslice.wordengine`).
        """
        if len(inputs) < self._num_inputs:
            raise ValueError(
                f"kernel needs {self._num_inputs} input words, "
                f"got {len(inputs)}")
        return self._function(inputs, mask)


#: Kernels memoized by the identity of their root expressions.  A
#: kernel is immutable once built (source, exec'd function, stats —
#: per-run state lives in the sampler), and ``Expr`` nodes hash by
#: identity, so the cache hits exactly when callers share a compiled
#: circuit — which the sampler-circuit cache makes the common case.
_KERNEL_CACHE: dict[tuple, BitslicedKernel] = {}
_KERNEL_CACHE_LOCK = threading.Lock()


def shared_kernel(roots: Sequence[Expr],
                  function_name: str = "kernel") -> BitslicedKernel:
    """A (possibly shared) compiled kernel for ``roots``.

    Topological sort + source generation + ``exec`` costs tens of
    milliseconds per circuit; samplers built over the same circuit —
    every signer checkout, every keygen in a warm worker — reuse one
    kernel instead of re-paying it.
    """
    key = (tuple(roots), function_name)
    with _KERNEL_CACHE_LOCK:
        kernel = _KERNEL_CACHE.get(key)
        if kernel is None:
            kernel = BitslicedKernel(roots, function_name)
            _KERNEL_CACHE[key] = kernel
    return kernel
