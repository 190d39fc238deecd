"""Reference ffLDL* tree and ffSampling walk, for differential tests.

The recursive node objects and the one-target Ducas–Prest recursion,
written straight from the spec.  The library builds and walks only the
flat tree (:func:`repro.falcon.build_flat_ldl_tree`,
:func:`repro.falcon.ff_sampling_batch`); the tests pin both against
this reference bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.falcon import FlatLdlTree
from repro.falcon.ffsampling import _ldl_2x2
from repro.falcon.fft import add_fft, merge_fft, mul_fft, split_fft, sub_fft


@dataclass
class LdlLeaf:
    """Bottom of the tower: one complex slot, two sigmas."""

    l10: complex
    sigma0: float
    sigma1: float


@dataclass
class LdlNode:
    """Inner node: L-factor over R_n plus two half-size children."""

    l10: list[complex]
    child0: "LdlNode | LdlLeaf"
    child1: "LdlNode | LdlLeaf"


def build_ldl_tree(g00: list[complex], g01: list[complex],
                   g11: list[complex]) -> LdlNode | LdlLeaf:
    """Recursive ffLDL* of the Gram matrix (given in FFT form).

    Diagonal entries of D are real-positive in every slot (Gram of a
    full-rank basis); their imaginary parts are numerical noise.
    """
    n = len(g00)
    l10, d00, d11 = _ldl_2x2(g00, g01, g11)
    if n == 1:
        return LdlLeaf(l10=l10[0], sigma0=d00[0].real,
                       sigma1=d11[0].real)
    d00_even, d00_odd = split_fft(d00)
    d11_even, d11_odd = split_fft(d11)
    child0 = build_ldl_tree(d00_even, d00_odd, d00_even)
    child1 = build_ldl_tree(d11_even, d11_odd, d11_even)
    return LdlNode(l10=l10, child0=child0, child1=child1)


def normalize_tree(tree: LdlNode | LdlLeaf, sigma: float) -> None:
    """Replace leaf variances ``d`` by sigmas ``sigma / sqrt(d)``."""
    if isinstance(tree, LdlLeaf):
        tree.sigma0 = sigma / (tree.sigma0 ** 0.5)
        tree.sigma1 = sigma / (tree.sigma1 ** 0.5)
        return
    normalize_tree(tree.child0, sigma)
    normalize_tree(tree.child1, sigma)


def tree_leaf_sigmas(tree: LdlNode | LdlLeaf) -> list[float]:
    """All leaf sigmas, in leaf order."""
    if isinstance(tree, LdlLeaf):
        return [tree.sigma0, tree.sigma1]
    return tree_leaf_sigmas(tree.child0) + tree_leaf_sigmas(tree.child1)


def ff_sampling(t0: list[complex], t1: list[complex],
                tree: LdlNode | LdlLeaf,
                sampler_z) -> tuple[list[complex], list[complex]]:
    """Sample ``(z0, z1)`` integer-coefficient pair near ``(t0, t1)``.

    The Ducas–Prest recursion: sample the second half first, adjust the
    first half's target with the L-factor, recurse.  Returns FFT-domain
    vectors whose inverse FFTs are (exactly) integer polynomials.
    """
    if isinstance(tree, LdlLeaf):
        z1 = complex(sampler_z(t1[0].real, tree.sigma1))
        adjusted = t0[0] + (t1[0] - z1) * tree.l10
        z0 = complex(sampler_z(adjusted.real, tree.sigma0))
        return [z0], [z1]

    t1_even, t1_odd = split_fft(t1)
    z1_even, z1_odd = ff_sampling(t1_even, t1_odd, tree.child1, sampler_z)
    z1 = merge_fft(z1_even, z1_odd)

    t0_adjusted = add_fft(t0, mul_fft(sub_fft(t1, z1), tree.l10))
    t0_even, t0_odd = split_fft(t0_adjusted)
    z0_even, z0_odd = ff_sampling(t0_even, t0_odd, tree.child0, sampler_z)
    z0 = merge_fft(z0_even, z0_odd)
    return z0, z1


def flatten_ldl_tree(tree: LdlNode | LdlLeaf) -> FlatLdlTree:
    """Flatten a (normalized) recursive tree into level-major lists.

    Pure value copying: the flat tree is exactly as precise as the
    recursive one it came from.
    """
    levels: list = []
    frontier: list = [tree]
    while not isinstance(frontier[0], LdlLeaf):
        levels.append([node.l10 for node in frontier])
        frontier = [child for node in frontier
                    for child in (node.child0, node.child1)]
    leaf_l10 = [leaf.l10 for leaf in frontier]
    leaf_sigma0 = [leaf.sigma0 for leaf in frontier]
    leaf_sigma1 = [leaf.sigma1 for leaf in frontier]
    return FlatLdlTree(n=len(leaf_l10), levels=levels,
                       leaf_l10=leaf_l10, leaf_sigma0=leaf_sigma0,
                       leaf_sigma1=leaf_sigma1)


def reference_tree(secret_key) -> LdlNode | LdlLeaf:
    """``secret_key``'s ffLDL* tree, built and normalized recursively
    over Python lists (a NumPy-leg key holds its Gram rows as arrays)."""
    tree = build_ldl_tree(*(row if isinstance(row, list) else row.tolist()
                            for row in secret_key._gram))
    normalize_tree(tree, secret_key.params.sigma)
    return tree
