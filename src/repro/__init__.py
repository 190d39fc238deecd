"""repro — constant-time discrete Gaussian sampling via Boolean
minimization, a reproduction of Karmakar, Roy, Vercauteren & Verbauwhede,
"Pushing the speed limit of constant-time discrete Gaussian sampling.
A case study on the Falcon signature scheme" (DAC 2019).

Quick start::

    import repro

    # The paper's sampler: sigma, n -> bitsliced constant-time sampler.
    # Words are Python ints; a seed gives the same samples with or
    # without NumPy (which only speeds up the lane transpose).
    sampler = repro.compile_sampler(sigma=2, precision=64)
    values = sampler.sample_many(1000)   # super-batched kernel passes

    # The Falcon case study (Table 1):
    sk = repro.falcon.SecretKey.generate(n=256, seed=1)
    sk.use_base_sampler("bitsliced")
    signature = sk.sign(b"message")
    assert sk.public_key.verify(b"message", signature)

Subpackages
-----------
``repro.core``       Knuth-Yao machinery, the Fig. 4 compiler, samplers.
``repro.boolfunc``   Cube algebra, QMC/espresso minimizers, DAGs, Eqn 2.
``repro.bitslice``   Compiled kernels, lane packing, Python-int words.
``repro.baselines``  CDT samplers (Table 1) and convolution extension.
``repro.falcon``     The complete Falcon signature scheme.
``repro.ct``         Op-count cycle model and the dudect leakage test.
``repro.rng``        Keccak/SHAKE and ChaCha from scratch.
``repro.analysis``   Distribution statistics, histograms, tables.
"""

from . import analysis, baselines, bitslice, boolfunc, core, ct, falcon, rng
from .core import (
    BitslicedSampler,
    GaussianParams,
    KnuthYaoSampler,
    compile_sampler,
    compile_sampler_circuit,
    probability_matrix,
)

__version__ = "1.0.0"

__all__ = [
    "BitslicedSampler",
    "GaussianParams",
    "KnuthYaoSampler",
    "analysis",
    "baselines",
    "bitslice",
    "boolfunc",
    "compile_sampler",
    "compile_sampler_circuit",
    "core",
    "ct",
    "falcon",
    "probability_matrix",
    "rng",
]
