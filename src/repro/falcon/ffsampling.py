"""Fast Fourier sampling over NTRU lattices (Falcon's ffSampling).

Signing must produce a lattice point close to a target without leaking
the secret basis' geometry.  Falcon uses the Ducas–Prest fast Fourier
nearest-plane: an ``ffLDL*`` decomposition of the basis Gram matrix is
precomputed as a binary tree (splitting the ring tower in half at each
level), and sampling walks the tree, calling an integer Gaussian
sampler ``D_{Z, sigma_leaf, c}`` at each of the ``2n`` leaves — the
exact place the paper's constant-time base sampler gets exercised.

The tree over ``R_n = R[x]/(x^n + 1)`` is a :class:`FlatLdlTree`,
stored level by level:

* inner node (ring size m >= 2): the LDL factor ``L10`` (FFT vector,
  length m); node ``j``'s children, over ``R_{m/2}`` and built from
  the split of its diagonal blocks, sit at ``2j`` / ``2j + 1`` on the
  next level (with NumPy a level's L10 factors are one contiguous
  array);
* leaf (m == 1): the per-slot ``L10`` scalar and the two standard
  deviations ``sigma / sqrt(d_ii)`` handed to SamplerZ.

:func:`build_flat_ldl_tree` builds it, and :func:`ff_sampling_batch`
walks it for a whole *batch* of targets at once, either on NumPy
real/imaginary planes (:func:`_walk_planes`) or on plain per-lane
Python lists (:func:`_walk_batch`).  Both walks execute bit-identical
IEEE operations and call the leaf sampler in the same order, so scalar
and vectorized signing produce identical signatures for a fixed seed
(the differential tests pin this).

Every key of one degree has the same tree shape, so one walk can also
serve the lanes of several keys: each :class:`KeyGroup` names a tree, a
leaf sampler and the contiguous lanes they serve.  Each lane then uses
its own key's L10 rows, and at each leaf every group's lanes are drawn
by that group's sampler, so a key's sampler sees exactly the calls a
walk over its lanes alone would make.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import NamedTuple, Sequence

from ..ctlint.annotations import secret_params
from .fft import (
    HAVE_NUMPY,
    _merge_roots_array,
    _split_div_tables,
    add_fft,
    adj_fft,
    cdiv,
    cmul,
    div_fft,
    merge_fft,
    mul_fft,
    split_fft,
    split_fft_array,
    sub_fft,
)

if HAVE_NUMPY:
    import numpy as _np
else:  # pragma: no cover - exercised in the no-numpy CI job
    _np = None


def _ldl_2x2(g00, g01, g11):
    """LDL* of a Hermitian 2x2 over the FFT slots.

    ``G = [[g00, g01], [g01*, g11]] = L D L*`` with
    ``L = [[1, 0], [l10, 1]]``, ``D = diag(d00, d11)``:
    ``l10 = g01* / g00``? — careful: Falcon uses ``l10 = g10 / g00``
    with ``g10 = adj(g01)``; ``d11 = g11 - |l10|^2 g00``.
    """
    l10 = div_fft(adj_fft(g01), g00)
    correction = mul_fft(mul_fft(l10, adj_fft(l10)), g00)
    d11 = sub_fft(g11, correction)
    return l10, g00, d11


# -- the flat tree + batched walk -----------------------------------------

@dataclass
class FlatLdlTree:
    """ffLDL* tree in flattened, level-major contiguous storage.

    ``levels[l]`` holds the L10 factors of all ``2^l`` inner nodes at
    ring size ``m = n / 2^l`` — a NumPy ``(2^l, m)`` complex array when
    NumPy is available, else a list of per-node lists.  Node ``j``'s
    children live at rows ``2j`` (child0) and ``2j + 1`` (child1) of
    the next level.  Leaves store the per-slot L10 scalar and the two
    *normalized* sigmas handed to SamplerZ.
    """

    n: int
    levels: list
    leaf_l10: list[complex]
    leaf_sigma0: list[float]
    leaf_sigma1: list[float]
    _scalar_levels: list | None = field(default=None, repr=False)

    @property
    def depth(self) -> int:
        """Leaf level index (``log2 n``); equals ``len(levels)``."""
        return len(self.levels)

    def scalar_levels(self) -> list:
        """Levels as plain per-node Python lists (cached)."""
        if self._scalar_levels is None:
            if self.levels and _np is not None \
                    and isinstance(self.levels[0], _np.ndarray):
                self._scalar_levels = [
                    [list(row) for row in level.tolist()]
                    for level in self.levels]
            else:
                self._scalar_levels = self.levels
        return self._scalar_levels

    def leaf_sigmas(self) -> list[float]:
        """All leaf sigmas in leaf order (Table 1 reports their range)."""
        out = []
        for s0, s1 in zip(self.leaf_sigma0, self.leaf_sigma1):
            out.extend((s0, s1))
        return out


def _build_flat_ldl_tree_lists(g00, g01, g11,
                               sigma: float) -> FlatLdlTree:
    """:func:`build_flat_ldl_tree` without NumPy, over Python lists."""
    grams = [(g00, g01, g11)]
    levels = []
    while True:
        factors = [_ldl_2x2(*gram) for gram in grams]
        if len(grams[0][0]) == 1:
            break
        levels.append([l10 for l10, _, _ in factors])
        grams = [(even, odd, even) for _, d00, d11 in factors
                 for even, odd in (split_fft(d00), split_fft(d11))]
    return FlatLdlTree(
        n=len(g00), levels=levels,
        leaf_l10=[l10[0] for l10, _, _ in factors],
        leaf_sigma0=[sigma / (d00[0].real ** 0.5) for _, d00, _ in factors],
        leaf_sigma1=[sigma / (d11[0].real ** 0.5)
                     for _, _, d11 in factors])


def build_flat_ldl_tree(g00: Sequence[complex], g01: Sequence[complex],
                        g11: Sequence[complex],
                        sigma: float) -> FlatLdlTree:
    """ffLDL* of the Gram matrix (FFT form) + normalization, flat.

    Level-synchronous: every node of a level takes :func:`_ldl_2x2`,
    and its diagonal blocks ``d00`` / ``d11`` split into the Gram
    matrices ``(even, odd, even)`` of child0 / child1 on the next
    level.  At the leaves each variance ``d`` becomes the SamplerZ
    sigma ``sigma / sqrt(d)`` (all in ``[sigma_min, SIGMA_MAX]`` for
    valid keys).  With NumPy a level factors in one array pass
    (hand-rolled complex kernels, Python ``** 0.5`` for the sigmas);
    without it, node by node over lists.  Both bodies build
    bit-identical trees (pinned by the tests).
    """
    if _np is None:
        return _build_flat_ldl_tree_lists(g00, g01, g11, sigma)
    n = len(g00)
    G00 = _np.asarray(g00, dtype=_np.complex128).reshape(1, n)
    G01 = _np.asarray(g01, dtype=_np.complex128).reshape(1, n)
    G11 = _np.asarray(g11, dtype=_np.complex128).reshape(1, n)
    levels = []
    m = n
    while True:
        L10 = cdiv(_np.conj(G01), G00)
        D11 = G11 - cmul(cmul(L10, _np.conj(L10)), G00)
        if m == 1:
            leaf_l10 = L10[:, 0].tolist()
            leaf_sigma0 = [sigma / (d ** 0.5)
                           for d in G00[:, 0].real.tolist()]
            leaf_sigma1 = [sigma / (d ** 0.5)
                           for d in D11[:, 0].real.tolist()]
            return FlatLdlTree(n=n, levels=levels, leaf_l10=leaf_l10,
                               leaf_sigma0=leaf_sigma0,
                               leaf_sigma1=leaf_sigma1)
        levels.append(L10)
        d00_even, d00_odd = split_fft_array(G00)
        d11_even, d11_odd = split_fft_array(D11)
        nodes = G00.shape[0]
        G00 = _np.empty((2 * nodes, m // 2), dtype=_np.complex128)
        G00[0::2] = d00_even
        G00[1::2] = d11_even
        G01 = _np.empty((2 * nodes, m // 2), dtype=_np.complex128)
        G01[0::2] = d00_odd
        G01[1::2] = d11_odd
        G11 = G00
        m //= 2


#: Rows of at most this many slots get their per-slot tables tiled
#: across lanes, so their table steps act on flat arrays; longer rows
#: broadcast the tables, which costs little per slot and no memory.
_TILE_MAX_SLOTS = 16


def _run(ops) -> None:
    """Apply a list of ``(ufunc, in1, in2, out)`` steps in order."""
    for ufunc, first, second, out in ops:
        ufunc(first, second, out)


class _PlaneLevel:
    """One tree level of :func:`_walk_planes`: buffers and ufunc steps.

    The walk is depth first, so one node per level is live at a time:
    every node of a level reuses these buffers, and its arithmetic is
    compiled here, once per walk, into ``(ufunc, in1, in2, out)`` steps
    over fixed views.  A plane array has shape ``(2, lanes, m)`` (real
    parts in row 0, imaginary parts in row 1); ``targets`` and
    ``samples`` stack two of them (``t0, t1`` and ``z0, z1``) and are
    owned by the parent level.  Intermediates live in ``scratch``, one
    flat buffer all levels share: no intermediate outlives its step
    list, and no step list spans a child's walk.

    Each step is one IEEE operation of the complex kernels, in their
    operand order:

    * split (``split_fft_array``): ``hi + lo`` and ``hi - lo``, then a
      Smith quotient by ``2 + 0j`` (the complex ``/ 2.0``) and by
      ``2 * roots`` (:func:`~repro.falcon.fft._split_div_tables`), as
      ``((ar*A + ai*B)/denom, (ai*A - ar*B)/denom)`` with ``(A, B)`` =
      ``(1, 0)`` for the even half;
    * merge (``merge_fft_array``): ``twist = roots * odd`` by
      ``cmul``'s formula, then ``even +/- twist`` into the slots;
    * adjust: ``t0 + cmul(t1 - z1, l10)``, with ``l10`` either one
      ``(nodes, m)`` row per node broadcast across lanes or a
      ``(nodes, lanes, m)`` stack holding each lane's own row.
    """

    def __init__(self, l10, targets, samples, scratch, carve) -> None:
        nodes, m = l10.shape[0], l10.shape[-1]
        lanes = targets.shape[2]
        half = m // 2
        tile = half <= _TILE_MAX_SLOTS
        add, sub, mul, div = (_np.add, _np.subtract, _np.multiply,
                              _np.divide)

        def flat(array):
            return array.reshape(-1)

        def region(start, *shape):
            return scratch[start:start + prod(shape)].reshape(shape)

        def table(*rows):
            """Per-slot rows facing data viewed by :func:`by_rows`."""
            rows = _np.array(rows)[:, None, :]
            if tile:
                return flat(_np.broadcast_to(
                    rows, (len(rows), 2 * lanes, half)))
            return rows

        def by_rows(array):
            return flat(array) if tile else array.reshape(-1, 2 * lanes,
                                                          half)

        roots = _merge_roots_array(m)
        coeff_a, coeff_b, denom = _split_div_tables(m)
        ones = _np.ones(half)
        smith_a = table(ones, coeff_a)
        smith_b = table(0.0 * ones, coeff_b)
        denoms = table(2.0 * ones, denom)
        roots_re, roots_im = table(roots.real), table(roots.imag)

        #: Children's targets (even, odd) and samples (z0, z1); the
        #: leaves only write the samples' real rows.
        self.split = split = carve(2, 2, lanes, half)
        self.kids = carve(2, 2, lanes, half)
        self.l10_re, self.l10_im = l10.real, l10.imag

        t0, t1 = flat(targets[0]), flat(targets[1])
        self.t1, self.z1 = t1, flat(samples[1])
        # Scratch layout in units of one (2, 2, lanes, half) array:
        # adjusted | sums | prod_a | prod_b, with adjust's products
        # over sums and prod_a and merge's twist planes over adjusted.
        unit = 4 * lanes * half
        adjusted = region(0, 2, lanes, m)
        self.adjusted = flat(adjusted)
        # One row per node broadcasts over all 2 * lanes plane rows;
        # per-lane rows over the lane axis of each plane.
        rows = (2 * lanes, m) if l10.ndim == 2 else (2, lanes, m)
        self.adjusted_planes = adjusted.reshape(rows)
        self.products = region(unit, 2, *rows)
        prod_re, prod_im = self.products.reshape(2, 2, lanes * m)
        self.adjust_tail = [
            (sub, prod_re[0], prod_im[1], flat(adjusted[0])),
            (add, prod_im[0], prod_re[1], flat(adjusted[1])),
            (add, t0, self.adjusted, self.adjusted),
        ]

        sums, prod_a, prod_b = region(unit, 3, 2, 2, lanes * half)

        def split_steps(source):
            steps = [
                (add, source[0::2], source[1::2], flat(sums[0])),
                (sub, source[0::2], source[1::2], flat(sums[1])),
                (mul, by_rows(sums), smith_a, by_rows(prod_a)),
                (mul, by_rows(sums), smith_b, by_rows(prod_b)),
            ]
            for side in (0, 1):
                a_re, a_im = prod_a[side]
                b_re, b_im = prod_b[side]
                steps += [(add, a_re, b_im, flat(split[side, 0])),
                          (sub, a_im, b_re, flat(split[side, 1]))]
            return steps + [(div, by_rows(split), denoms, by_rows(split))]

        self.split_t1 = split_steps(t1)
        self.split_adjusted = split_steps(self.adjusted)

        odd, even = self.kids[1], flat(self.kids[0])
        by_re, by_im, twist = region(0, 3, 2, lanes * half)

        def merge_steps(target):
            slots = flat(target)
            return [
                (mul, by_rows(odd), roots_re, by_rows(by_re)),
                (mul, by_rows(odd), roots_im, by_rows(by_im)),
                (sub, by_re[0], by_im[1], twist[0]),
                (add, by_im[0], by_re[1], twist[1]),
                (add, even, flat(twist), slots[0::2]),
                (sub, even, flat(twist), slots[1::2]),
            ]

        self.merge_z0 = merge_steps(samples[0])
        self.merge_z1 = merge_steps(samples[1])

    def adjust(self, node: int) -> None:
        """``adjusted`` <- ``t0 + (t1 - z1) * l10[node]``."""
        planes, products = self.adjusted_planes, self.products
        _np.subtract(self.t1, self.z1, self.adjusted)
        _np.multiply(planes, self.l10_re[node], products[0])
        _np.multiply(planes, self.l10_im[node], products[1])
        _run(self.adjust_tail)


class KeyGroup(NamedTuple):
    """Lanes ``lanes`` of a batched walk, sampled under one key.

    ``tree`` supplies the lanes' L10 rows and leaf sigmas; ``sampler_z``
    draws their leaves through ``sample_lanes(centers, sigma)``.
    """

    tree: FlatLdlTree
    sampler_z: object
    lanes: slice


def _lane_rows(rows: list, counts: list[int], axis: int = 0):
    """One row per lane from one row per key group, stacked on ``axis``.

    A lone group's row is returned as it is: it broadcasts across the
    lanes, so a one-key walk copies nothing.
    """
    if len(rows) == 1:
        return rows[0]
    return _np.repeat(_np.stack(rows, axis=axis), counts, axis=axis)


@secret_params("er", "br", "bi")
def _sample_leaf(tree: FlatLdlTree, node: int, er, br, bi, sample_lanes):
    """Sample leaf ``node`` for every lane: ``(z0s, z1s)``.

    ``er`` are the lanes' ``t0`` real parts, ``br``/``bi`` their ``t1``
    real/imaginary parts.  ``z1`` is drawn at center ``t1.real``, then
    ``z0`` at the real part of ``t0 + (t1 - z1) * l10``, which is
    ``er + ((br - z1) * l10.real - bi * l10.imag)`` op for op (the
    complex form's ``bi - 0.0`` is exact).
    """
    l10 = tree.leaf_l10[node]
    lr, li = l10.real, l10.imag
    z1s = sample_lanes(br, tree.leaf_sigma1[node])
    centers = [a + ((b - z) * lr - c * li)
               for a, b, c, z in zip(er, br, bi, z1s)]
    return sample_lanes(centers, tree.leaf_sigma0[node]), z1s


@secret_params("er", "br", "bi")
def _sample_leaves(leaves: list, node: int, er, br, bi):
    """Sample leaf ``node`` for every lane, key group by key group.

    ``leaves`` holds ``(tree, sample_lanes, lanes)`` per group, in lane
    order; each group's lanes go through its own sampler (z1, then z0),
    and the results are concatenated.
    """
    if len(leaves) == 1:  # one key: its sampler takes the lists as is
        tree, sample_lanes, _ = leaves[0]
        return _sample_leaf(tree, node, er, br, bi, sample_lanes)
    z0s: list = []
    z1s: list = []
    for tree, sample_lanes, lanes in leaves:
        z0, z1 = _sample_leaf(tree, node, er[lanes], br[lanes],
                              bi[lanes], sample_lanes)
        z0s += z0
        z1s += z1
    return z0s, z1s


def _walk_nodes(levels: list, index: int, node: int, leaf) -> None:
    """Depth-first walk of :func:`_walk_planes` below ``node``.

    A module-level function, not a closure in the walk: a recursive
    closure refers to itself, and that cycle would keep every walk's
    buffers alive until the cyclic garbage collector ran.
    """
    if index == len(levels):
        leaf(node)
        return
    level = levels[index]
    _run(level.split_t1)
    _walk_nodes(levels, index + 1, 2 * node + 1, leaf)
    _run(level.merge_z1)
    level.adjust(node)
    _run(level.split_adjusted)
    _walk_nodes(levels, index + 1, 2 * node, leaf)
    _run(level.merge_z0)


@secret_params("t0", "t1")
def _walk_planes(groups: list, leaves: list, t0, t1):
    """The NumPy walk: ``(lanes, n)`` complex targets in, samples out.

    Targets travel as real/imaginary planes through per-level
    :class:`_PlaneLevel` buffers, updated with ``out=`` ufuncs; every
    slot performs the IEEE operations of the complex kernels
    (:func:`~repro.falcon.fft.split_fft_array`, ``cmul``,
    :func:`~repro.falcon.fft.merge_fft_array`), so the samples equal
    the list walk's bit for bit.  With several key groups each level's
    L10 rows are gathered once per walk into a ``(nodes, lanes, m)``
    stack (:func:`_lane_rows`); one group reads its tree in place.
    """
    lanes, n = len(t0), groups[0].tree.n
    counts = [group.lanes.stop - group.lanes.start for group in groups]
    # One allocation per walk, carved into every buffer; all of them
    # live until the walk returns.
    arena = _np.empty(8 * lanes * (2 * n - 1) + 16 * lanes * (n // 2))
    offset = 0

    def carve(*shape):
        nonlocal offset
        size = prod(shape)
        offset += size
        return arena[offset - size:offset].reshape(shape)

    targets = carve(2, 2, lanes, n)
    targets[0, 0], targets[0, 1] = t0.real, t0.imag
    targets[1, 0], targets[1, 1] = t1.real, t1.imag
    samples = carve(2, 2, lanes, n)
    scratch = carve(16 * lanes * (n // 2))
    levels = []
    leaf_targets, leaf_samples = targets, samples
    for depth in range(groups[0].tree.depth):
        l10 = _lane_rows([group.tree.levels[depth] for group in groups],
                         counts, axis=1)
        level = _PlaneLevel(l10, leaf_targets, leaf_samples, scratch, carve)
        levels.append(level)
        leaf_targets, leaf_samples = level.split, level.kids
    leaf_samples[:, 1] = 0.0  # leaves write the real rows only
    leaf_in = leaf_targets[:, :, :, 0]
    leaf_out = leaf_samples[:, 0, :, 0]

    def leaf(node: int) -> None:
        (er, _), (br, bi) = leaf_in.tolist()
        leaf_out[0], leaf_out[1] = _sample_leaves(leaves, node, er, br, bi)

    _walk_nodes(levels, 0, 0, leaf)
    z0 = _np.empty((lanes, n), dtype=_np.complex128)
    z1 = _np.empty((lanes, n), dtype=_np.complex128)
    z0.real, z0.imag = samples[0]
    z1.real, z1.imag = samples[1]
    return z0, z1


@secret_params("t0", "t1")
def _walk_batch(leaves: list, lane_levels: list, depth: int, level: int,
                node: int, t0, t1):
    """The list walk: per-lane coefficient lists in, samples out.

    ``lane_levels[i]`` is the L10 level list of lane ``i``'s tree.
    """
    if level == depth:
        z0s, z1s = _sample_leaves(
            leaves, node, [a[0].real for a in t0], [b[0].real for b in t1],
            [b[0].imag for b in t1])
        return ([[complex(z)] for z in z0s], [[complex(z)] for z in z1s])

    halves = [split_fft(lane) for lane in t1]
    z1_even, z1_odd = _walk_batch(leaves, lane_levels, depth, level + 1,
                                  2 * node + 1, [h[0] for h in halves],
                                  [h[1] for h in halves])
    z1 = [merge_fft(e, o) for e, o in zip(z1_even, z1_odd)]

    halves = [split_fft(add_fft(a, mul_fft(sub_fft(b, z),
                                           levels[level][node])))
              for a, b, z, levels in zip(t0, t1, z1, lane_levels)]
    z0_even, z0_odd = _walk_batch(leaves, lane_levels, depth, level + 1,
                                  2 * node, [h[0] for h in halves],
                                  [h[1] for h in halves])
    z0 = [merge_fft(e, o) for e, o in zip(z0_even, z0_odd)]
    return z0, z1


@secret_params("t0", "t1")
def ff_sampling_batch(t0, t1, tree: FlatLdlTree | None = None,
                      sampler_z=None, *,
                      groups: Sequence[KeyGroup] | None = None):
    """Batched ffSampling over a flat tree.

    ``t0``/``t1`` are either NumPy ``(batch, n)`` complex arrays (the
    vectorized spine, walked on real/imaginary planes by
    :func:`_walk_planes`) or lists of per-lane coefficient lists (the
    scalar spine); the result uses the same representation.  The walk
    is the Ducas–Prest recursion, depth first: each node samples its
    second half (child1) first, adjusts the first half's target with
    ``L10``, then samples child0.  At each leaf the lanes are sampled
    in batch order, so both spines issue identical sampler calls.

    ``sampler_z`` exposes ``sample_lanes(centers, sigma)`` (e.g.
    :class:`~repro.falcon.samplerz.RejectionSamplerZ`): each leaf draws
    every lane's z1 in one call, then every lane's z0 in another.

    ``tree`` and ``sampler_z`` serve every lane.  To walk the lanes of
    several keys at once, pass ``groups`` instead: one
    :class:`KeyGroup` per key, all of one degree, whose lane slices
    cover the batch in order.  Each group's sampler sees the calls a
    walk over its lanes alone would make.
    """
    if groups is None:
        groups = [KeyGroup(tree, sampler_z, slice(0, len(t0)))]
    n = groups[0].tree.n
    start = 0
    leaves = []
    for group in groups:
        if group.tree.n != n or group.lanes.start != start:
            raise ValueError("key groups must share one degree and cover "
                             "the lanes in order")
        start = group.lanes.stop
        leaves.append((group.tree, group.sampler_z.sample_lanes,
                       group.lanes))
    if start != len(t0):
        raise ValueError("key groups must share one degree and cover "
                         "the lanes in order")
    if _np is not None and isinstance(t0, _np.ndarray):
        return _walk_planes(groups, leaves, t0, t1)
    lane_levels = []
    for group in groups:
        lane_levels += [group.tree.scalar_levels()] * (group.lanes.stop
                                                       - group.lanes.start)
    return _walk_batch(leaves, lane_levels, groups[0].tree.depth, 0, 0,
                       t0, t1)
