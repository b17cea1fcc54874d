"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written by a different route than the
library code it checks: matrix products instead of butterflies, exhaustive
marginalization instead of message passing, closed-form tail formulas
instead of sampled noise.
"""

import math
from functools import lru_cache
from itertools import product

import numpy as np


@lru_cache(maxsize=None)
def kron_generator_matrix(n_bits):
    """Polar generator matrix as an explicit Kronecker power.

    Row-vector convention x = u . G; entry G[i, j] = 1 iff the bit support
    of j is a subset of the bit support of i, built here with np.kron.
    Built once per n_bits and returned read-only, since matrix_encode asks
    for it on every call.
    """
    kernel = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    g = np.array([[1]], dtype=np.uint8)
    while g.shape[0] < n_bits:
        g = np.kron(kernel, g) % 2
    g.flags.writeable = False
    return g


def matrix_encode(u):
    """Encode by explicit matrix multiplication over GF(2)."""
    u = np.asarray(u, dtype=np.uint8)
    return (u @ kron_generator_matrix(len(u))) % 2


def systematic_matrix_encode(messages, spec):
    """Systematic codewords of (frames, K) messages from the generator matrix.

    Solves u_A G_AA = m over GF(2) for the information part u_A of the
    source (u is zero on the frozen set).  G[i, j] = 1 needs j <= i, so G_AA
    is unit lower triangular and the solve runs from the last information
    index down; the codewords are then u G.  No butterfly and no two-pass
    encoder is involved.
    """
    info = list(spec.info_set)
    g = kron_generator_matrix(spec.block_len).astype(float)
    g_aa = g[np.ix_(info, info)]
    messages = np.asarray(messages, dtype=float)
    u_info = np.zeros_like(messages)
    for col in reversed(range(len(info))):
        u_info[:, col] = (messages[:, col] + u_info[:, col + 1 :] @ g_aa[col + 1 :, col]) % 2
    return ((u_info @ g[info]) % 2).astype(np.uint8)


def bhattacharyya_digit_fold(index, stages, z0):
    """Reliability of one synthetic channel by folding over the index bits,
    most significant first: 0 -> degraded 2z - z^2, 1 -> upgraded z^2."""
    z = z0
    for level in reversed(range(stages)):
        z = z * z if (index >> level) & 1 else 2 * z - z * z
    return z


def two_pass_exact_algebraic(spec):
    """Algebraic exactness test for the two-pass systematic encoder.

    Writing the two passes out over GF(2) and using that the transform is an
    involution, the encoder is exact iff for every pair (i, k) of
    information indices the number of frozen indices j with
    support(k) subset support(j) subset support(i) is even.  This checks
    that count directly from the index combinatorics, with no encoding.
    """
    info = list(spec.info_set)
    frozen = list(spec.frozen_set)
    for i in info:
        for k in info:
            count = sum(1 for j in frozen if (k & ~j) == 0 and (j & ~i) == 0)
            if count % 2:
                return False
    return True


def solve_systematic_bruteforce(message, spec):
    """Systematic codeword by exhaustive search over source vectors.

    Enumerates every source vector that is zero on the frozen set, encodes
    it by matrix multiplication, and returns the unique codeword matching
    the message on the information set.
    """
    info = list(spec.info_set)
    message = np.asarray(message, dtype=np.uint8)
    matches = []
    for bits in product((0, 1), repeat=spec.info_len):
        u = np.zeros(spec.block_len, dtype=np.uint8)
        u[info] = bits
        x = matrix_encode(u)
        if np.array_equal(x[info], message):
            matches.append(x)
    assert len(matches) == 1, "systematic solution must be unique"
    return matches[0]


def genie_sc_posteriors(llrs, spec):
    """Exact per-bit posterior LLRs of sequential decoding, by enumeration.

    For each source position in order, conditions on the decisions already
    made (frozen bits forced to zero), marginalizes over every completion of
    the later source bits, and computes log P(u_i=0 | y) / P(u_i=1 | y).
    Channel weights come from the LLRs: P(y_j | x_j = b) is proportional to
    exp(+llr_j / 2) for b = 0 and exp(-llr_j / 2) for b = 1.

    Returns (decisions, posterior_llrs); ties decide bit 0.
    """
    llrs = np.asarray(llrs, dtype=float)
    n_bits = spec.block_len
    frozen = set(spec.frozen_set)
    decisions = np.zeros(n_bits, dtype=np.uint8)
    posteriors = np.zeros(n_bits)
    for i in range(n_bits):
        weight = {0: 0.0, 1: 0.0}
        for bit in (0, 1):
            if i in frozen and bit == 1:
                continue
            free_tail = [j for j in range(i + 1, n_bits) if j not in frozen]
            for tail in product((0, 1), repeat=len(free_tail)):
                u = np.zeros(n_bits, dtype=np.uint8)
                u[:i] = decisions[:i]
                u[i] = bit
                u[free_tail] = tail
                x = matrix_encode(u)
                log_w = float(np.sum(np.where(x == 0, llrs / 2.0, -llrs / 2.0)))
                weight[bit] += math.exp(log_w)
        if weight[1] == 0.0:
            posteriors[i] = math.inf
        elif weight[0] == 0.0:
            posteriors[i] = -math.inf
        else:
            posteriors[i] = math.log(weight[0] / weight[1])
        decisions[i] = 0 if (i in frozen or posteriors[i] >= 0) else 1
    return decisions, posteriors


def fixed_sc_saturations(llrs, frozen, total_bits, fraction_bits):
    """Fixed-point min-sum SC decode on whole-node integer arrays, counting
    every clamp.

    The channel LLRs are scaled by 2^fraction_bits, rounded half away from
    zero and clamped to +/-(2^(total_bits-1) - 1), each clamp counted; then
    every node, frozen and rate-0 subtrees included, runs its F as
    sign*min over the whole left and right halves (which never clamps) and
    its G as one array sum clamped the same way.  Leaves decide one bit
    each, 1 iff the value is negative and the index is not frozen.

    Returns (u_hat, clamps).
    """
    max_mag = (1 << (total_bits - 1)) - 1
    scaled = np.floor(np.abs(np.asarray(llrs, dtype=float)) * 2.0**fraction_bits + 0.5)
    clamps = int(np.count_nonzero(scaled > max_mag))
    values = (np.sign(llrs) * np.minimum(scaled, max_mag)).astype(np.int64)
    frozen = np.asarray(frozen, dtype=bool)
    u_hat = np.zeros(len(values), dtype=np.uint8)

    def node(alpha, base):
        nonlocal clamps
        if len(alpha) == 1:
            u_hat[base] = alpha[0] < 0 and not frozen[base]
            return u_hat[base : base + 1].astype(np.int64)
        a, b = np.split(alpha, 2)
        left = node(np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b)), base)
        out = b + (1 - 2 * left) * a
        clamps += int(np.count_nonzero(np.abs(out) > max_mag))
        right = node(np.clip(out, -max_mag, max_mag), base + len(a))
        return np.concatenate([left ^ right, right])

    node(values, 0)
    return u_hat, clamps


def q_function(x):
    """Gaussian tail probability P(Z > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def uncoded_bpsk_ber(ebn0_db):
    """Closed-form bit error rate of uncoded BPSK at a given Eb/N0."""
    return q_function(math.sqrt(2.0 * 10.0 ** (ebn0_db / 10.0)))


def gf16_poly_eval(coeffs_desc, x, mul):
    """Evaluate a GF(16) polynomial (descending coefficients) at x by Horner."""
    acc = 0
    for c in coeffs_desc:
        acc = mul(acc, x) ^ c
    return acc
