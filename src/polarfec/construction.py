"""Polar code construction: frozen/information set selection.

The synthetic-channel reliabilities are computed with the Bhattacharyya
parameter recursion over a binary erasure channel proxy.  Indices are kept
in the same natural (non-bit-reversed) order the encoder butterfly uses, so
a frozen index addresses a position of the source vector directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .batch import _encode_systematic, butterfly

# Most unit messages validate_domination encodes in one batch.
DOMINATION_BLOCK = 4096


def is_power_of_two(n):
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters of the erasure-proxy construction.

    design_erasure_prob is the initial Bhattacharyya parameter z0 of the
    proxy channel, in (0, 1).
    """

    design_erasure_prob: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.design_erasure_prob < 1.0):
            raise ValueError(
                f"design_erasure_prob must lie in (0, 1), got {self.design_erasure_prob}"
            )


@dataclass(frozen=True)
class CodeSpec:
    """A polar code: block length, payload size and the frozen index set.

    Attributes
    ----------
    block_len : int
        Codeword length N, a power of two.
    info_len : int
        Number of information bits K, 1 <= K <= N.
    frozen_set : tuple of int
        The N-K source positions pinned to zero, sorted ascending.
    info_set : tuple of int
        The K information positions, sorted ascending.
    """

    block_len: int
    info_len: int
    frozen_set: tuple = ()
    info_set: tuple = ()

    def __post_init__(self):
        n, k = self.block_len, self.info_len
        if not is_power_of_two(n):
            raise ValueError(f"block_len must be a power of two, got {n}")
        if not (1 <= k <= n):
            raise ValueError(f"info_len must be in [1, {n}], got {k}")
        frozen = tuple(sorted(int(i) for i in self.frozen_set))
        info = tuple(sorted(int(i) for i in self.info_set))
        object.__setattr__(self, "frozen_set", frozen)
        object.__setattr__(self, "info_set", info)
        if len(frozen) != n - k or len(info) != k:
            raise ValueError("frozen/info set sizes must be N-K and K")
        if set(frozen) & set(info):
            raise ValueError("frozen_set and info_set must be disjoint")
        if set(frozen) | set(info) != set(range(n)):
            raise ValueError("frozen_set and info_set must partition [0, N)")
        mask = np.zeros(n, dtype=bool)
        mask[list(frozen)] = True
        mask.flags.writeable = False
        object.__setattr__(self, "_frozen_mask", mask)

    def __reduce__(self):
        # An unpickled array is writeable, so a copy rebuilds its mask.
        return CodeSpec, (self.block_len, self.info_len, self.frozen_set, self.info_set)

    @property
    def stages(self):
        """n = log2(N), the number of butterfly stages."""
        return self.block_len.bit_length() - 1

    @property
    def rate(self):
        """Code rate K/N as an exact rational."""
        return Fraction(self.info_len, self.block_len)

    def frozen_mask(self):
        """Boolean mask of length N, True at frozen positions; made once per
        CodeSpec and read-only, so every caller sees the same mask."""
        return self._frozen_mask


def bhattacharyya_reliabilities(n_bits, z0):
    """Bhattacharyya parameter of each synthetic channel, natural index order.

    Starting from the scalar z0, each recursion level expands every value z
    into the pair (2z - z^2, z^2): the degraded channel lands at the even
    offspring index, the upgraded one at the odd.  Larger z means a less
    reliable channel.
    """
    z = np.array([float(z0)])
    while len(z) < n_bits:
        z = np.stack([2.0 * z - z * z, z * z], axis=1).reshape(-1)
    return z


def bhattacharyya_construct(n_bits, k_info, params=None):
    """Build a CodeSpec by freezing the N-K least reliable synthetic channels.

    Parameters
    ----------
    n_bits : int
        Block length N, a power of two.
    k_info : int
        Information payload K, 1 <= K <= N.
    params : ConstructionParams, optional
        Erasure-proxy design point; defaults to z0 = 0.5.

    Returns
    -------
    CodeSpec

    Ties in reliability are broken by freezing the smaller index, which makes
    the construction fully deterministic.
    """
    if not is_power_of_two(n_bits):
        raise ValueError(f"n_bits must be a power of two, got {n_bits}")
    if not (1 <= k_info <= n_bits):
        raise ValueError(f"k_info must be in [1, {n_bits}], got {k_info}")
    if params is None:
        params = ConstructionParams()
    z = bhattacharyya_reliabilities(n_bits, params.design_erasure_prob)
    # Stable argsort on -z: descending reliability-cost, ties by lower index.
    order = np.argsort(-z, kind="stable")
    frozen = tuple(sorted(int(i) for i in order[: n_bits - k_info]))
    info = tuple(sorted(set(range(n_bits)) - set(frozen)))
    return CodeSpec(n_bits, k_info, frozen, info)


@lru_cache(maxsize=64)
def validate_domination(spec):
    """Check that two-pass systematic encoding is exact for this code.

    Exact means every codeword carries its message verbatim on info_set and
    its transform is zero on frozen_set.  The encoder is GF(2)-linear, so it
    is exact for all 2^K messages if and only if it is exact for the K unit
    messages.  They are encoded as frame-minor batches of at most
    DOMINATION_BLOCK, successive column blocks of the K x K identity, so
    the check holds about 3.5 * N * DOMINATION_BLOCK bytes at most, however
    large K is.  The verdict is cached per hashable, frozen CodeSpec.
    """
    k, info, frozen = spec.info_len, list(spec.info_set), list(spec.frozen_set)
    for lo in range(0, k, DOMINATION_BLOCK):
        units = np.eye(k, min(DOMINATION_BLOCK, k - lo), -lo, dtype=np.uint8)
        codewords = _encode_systematic(units, spec)
        if not np.array_equal(codewords[info], units):
            return False
        butterfly(codewords)
        if codewords[frozen].any():
            return False
    return True


def _check_exact_encoding(spec):
    """spec, if two-pass systematic encoding is exact for it
    (validate_domination); ValueError otherwise.  The one rule for a code a
    sweep or the CLI is given."""
    if not validate_domination(spec):
        raise ValueError("two-pass systematic encoding is not exact for this frozen set")
    return spec


def to_spec_text(spec):
    """Serialize a CodeSpec to the plain-text exchange format.

    Line 1: "N K".  Line 2: space-separated frozen indices, ascending
    (empty line when nothing is frozen).
    """
    indices = " ".join(str(i) for i in spec.frozen_set)
    return f"{spec.block_len} {spec.info_len}\n{indices}\n"


def parse_spec_text(text):
    """Parse the plain-text format produced by to_spec_text."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty code spec")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"first line must be 'N K', got {lines[0]!r}")
    n, k = int(head[0]), int(head[1])
    frozen = tuple(int(t) for t in lines[1].split()) if len(lines) > 1 else ()
    info = tuple(sorted(set(range(n)) - set(frozen)))
    return CodeSpec(n, k, frozen, info)
