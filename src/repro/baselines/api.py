"""Common interface for all integer Gaussian samplers.

Every sampler backend — the three CDT baselines of Table 1, the
column-scanning reference, and the paper's bitsliced sampler — exposes
the same surface so the Falcon harness and the dudect experiment can
swap them freely:

* ``sample_magnitude()``: one draw from the folded (non-negative)
  distribution;
* ``sample()``: one signed draw (uniform sign, zero unaffected);
* ``counter``: an :class:`~repro.ct.opcount.OpCounter` accumulating the
  abstract-operation trace;
* ``name`` / ``constant_time``: identification for reports.

All backends sample the *same* distribution: the ``n``-bit truncated
matrix rows of :func:`repro.core.gaussian.probability_matrix`, with the
same restart-on-truncation-failure semantics.  A shared test asserts
pairwise distributional agreement.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..ct.opcount import OpCounter
from ..rng.source import RandomSource, default_source

#: Registry of concrete backends by ``name``.  Populated by the
#: :func:`register_backend` decorator as backend modules are imported
#: (importing :mod:`repro.baselines` pulls them all in); the CLI, the
#: Falcon harness and the benchmark sweeps instantiate through
#: :func:`make_sampler` so a new backend is a one-decorator addition.
SAMPLER_BACKENDS: dict[str, type["IntegerSampler"]] = {}


def register_backend(cls: type["IntegerSampler"]) -> type["IntegerSampler"]:
    """Class decorator: register an :class:`IntegerSampler` by its name."""
    if not cls.name or cls.name == "abstract":
        raise ValueError("backend classes must set a concrete name")
    SAMPLER_BACKENDS[cls.name] = cls
    return cls


def available_backends() -> list[str]:
    """Registered backend names, sorted (CLI choices, sweep axes)."""
    return sorted(SAMPLER_BACKENDS)


def make_sampler(name: str, params, source: RandomSource | None = None,
                 **kwargs) -> "IntegerSampler":
    """Instantiate a registered backend.

    ``kwargs`` are forwarded to the backend constructor — e.g.
    ``make_sampler("bitsliced", params, batch_width=128)`` sets the
    bitsliced sampler's lanes per batch.
    """
    try:
        cls = SAMPLER_BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown sampler backend {name!r}; "
                         f"choose from {available_backends()}") from None
    return cls(params, source=source, **kwargs)


class IntegerSampler(ABC):
    """Abstract signed integer sampler with operation accounting."""

    #: Human-readable backend name (used in benchmark tables).
    name: str = "abstract"
    #: Whether the backend's operation trace is input-independent.
    constant_time: bool = False

    def __init__(self, source: RandomSource | None = None) -> None:
        self.source = source if source is not None else default_source()
        self.counter = OpCounter()
        self._sign_buffer = 0
        self._sign_bits_left = 0

    @abstractmethod
    def sample_magnitude(self) -> int:
        """One non-negative draw from the folded distribution."""

    def sample(self) -> int:
        """One signed draw: magnitude plus a uniform sign bit.

        The sign bit is always consumed (constant flow); it is ignored
        for magnitude 0, whose probability the folded table does not
        double (Sec. 3.2).
        """
        magnitude = self.sample_magnitude()
        sign = self._take_sign_bit()
        # Branchless negate: sign is 0 or 1, so x ^ -1 (+1) == -x and
        # x ^ 0 (+0) == x — same values as `-magnitude if sign else
        # magnitude` without a secret-selected arm.
        return (magnitude ^ -sign) + sign

    def sample_many(self, count: int) -> list[int]:
        return [self.sample() for _ in range(count)]

    def _take_sign_bit(self) -> int:
        if self._sign_bits_left == 0:
            self._sign_buffer = self.source.read_bytes(1)[0]
            self.counter.rng(1)
            self._sign_bits_left = 8
        bit = self._sign_buffer & 1
        self._sign_buffer >>= 1
        self._sign_bits_left -= 1
        return bit


class LazyUniform:
    """An n-bit uniform integer whose bytes materialize on demand.

    Real CDT implementations compare the random value against table
    entries most-significant byte first and only draw further bytes on
    ties; the number of PRNG bytes consumed therefore depends on the
    secret sample — one of the timing leaks the paper's sampler removes.
    """

    def __init__(self, source: RandomSource, num_bytes: int,
                 counter: OpCounter) -> None:
        self.source = source
        self.num_bytes = num_bytes
        self.counter = counter
        self._bytes = bytearray()

    def byte(self, index: int) -> int:
        """Byte ``index`` (0 = most significant), drawing if needed."""
        if index >= self.num_bytes:
            raise IndexError("byte index beyond precision")
        while len(self._bytes) <= index:
            self._bytes.extend(self.source.read_bytes(1))
            self.counter.rng(1)
        return self._bytes[index]

    def materialize_all(self) -> int:
        """The full value as an integer (MSB-first), drawing the rest."""
        while len(self._bytes) < self.num_bytes:
            self._bytes.extend(self.source.read_bytes(1))
            self.counter.rng(1)
        return int.from_bytes(bytes(self._bytes), "big")

    @property
    def bytes_drawn(self) -> int:
        return len(self._bytes)

    def less_than_bytes(self, entry: bytes) -> bool:
        """Early-exit bytewise ``r < entry`` comparison (the leak).

        Counts one load + one compare per byte examined and a branch
        for the exit decision.
        """
        for index in range(self.num_bytes):
            r_byte = self.byte(index)
            e_byte = entry[index]
            self.counter.load()
            self.counter.compare()
            # ct: vartime(secret-early-exit): the Table-1 lazy bytewise compare — the leak the paper's sampler removes, kept as the study object
            if r_byte != e_byte:
                self.counter.branch()
                return r_byte < e_byte
        self.counter.branch()
        return False  # r == entry means r < entry is false
