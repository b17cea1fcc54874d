"""RS(15,11) over GF(16): the hard-decision baseline code.

Field: GF(2^4) modulo x^4 + x + 1, primitive element alpha = 2.  The code is
narrow-sense with generator (x - a)(x - a^2)(x - a^3)(x - a^4), systematic
(11 information symbols followed by 4 parity symbols), correcting up to two
symbol errors.  Codewords are lists of symbols in descending polynomial
order: received[i] is the coefficient of x^(14-i).

Every GF(16) kernel runs on words packed two symbols to a byte, as
np.packbits packs their MSB-first bits: symbol 2j in the high nibble of
byte j, and a zero pad nibble after the 11 info or the 15 code symbols.
Encoding and syndromes are one GF(16)-linear map, a gather per byte from a
(bytes, 256) table and an XOR, and decoding reads a table of packed info
corrections indexed by the syndrome.  The symbol-row API (rs_*_rows), the
scalar rs_encode and rs_syndromes and the sweep, which packs its bits
directly, all run these kernels; the symbol calls pack and unpack around
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .batch import _as_bit_array

FIELD_POLY = 0x13  # x^4 + x + 1
N_SYMBOLS = 15
K_SYMBOLS = 11
N_PARITY = N_SYMBOLS - K_SYMBOLS
BITS_PER_SYMBOL = 4
T_CORRECTABLE = N_PARITY // 2


def _build_tables():
    exp = np.zeros(30, dtype=np.int64)
    log = np.zeros(16, dtype=np.int64)
    v = 1
    for i in range(15):
        exp[i] = v
        log[v] = i
        v <<= 1
        if v & 0x10:
            v ^= FIELD_POLY
    exp[15:] = exp[:15]
    return exp, log


GF16_EXP, GF16_LOG = _build_tables()


def gf16_mul(a, b):
    """Multiply two GF(16) elements."""
    if not (0 <= a < 16 and 0 <= b < 16):
        raise ValueError("GF(16) elements lie in [0, 15]")
    if a == 0 or b == 0:
        return 0
    return int(GF16_EXP[GF16_LOG[a] + GF16_LOG[b]])


def gf16_inv(a):
    """Multiplicative inverse of a nonzero GF(16) element."""
    if not (0 < a < 16):
        raise ValueError("cannot invert outside (0, 15]")
    return int(GF16_EXP[(15 - GF16_LOG[a]) % 15])


def _compute_generator():
    g = [1]
    for j in range(1, N_PARITY + 1):
        root = int(GF16_EXP[j])
        nxt = [0] * (len(g) + 1)
        for i, c in enumerate(g):
            nxt[i] ^= gf16_mul(c, root)
            nxt[i + 1] ^= c
        g = nxt
    return tuple(reversed(g))  # descending powers


# (x-a)(x-a^2)(x-a^3)(x-a^4) = x^4 + 13x^3 + 12x^2 + 8x + 7
GENERATOR_POLY = _compute_generator()

_GF16_MUL = np.array([[gf16_mul(a, b) for b in range(16)] for a in range(16)], dtype=np.uint8)
# A map's output c sits in nibble 3 - c of a uint16, so its big-endian bits
# are the output symbols in order, MSB first, as np.packbits would pack them.
_OUTPUT_SHIFTS = np.arange(4 * (N_PARITY - 1), -1, -4, dtype=np.uint16)
# Bytes of a packed word of K_SYMBOLS and of N_SYMBOLS symbols.
_INFO_BYTES = -(-K_SYMBOLS // 2)
_CODE_BYTES = -(-N_SYMBOLS // 2)


def _pack_symbols(symbols):
    """Symbol rows (..., n) as (..., ceil(n/2)) bytes, two symbols a byte in
    np.packbits order: symbol 2j in the high nibble of byte j, and a zero
    pad nibble after an odd n.  The symbols are not checked."""
    syms = np.asarray(symbols, dtype=np.uint8)
    n = syms.shape[-1]
    packed = np.zeros((*syms.shape[:-1], -(-n // 2)), dtype=np.uint8)
    np.left_shift(syms[..., 0::2], 4, out=packed)
    packed[..., : n // 2] |= syms[..., 1::2]
    return packed


def _unpack_symbols(packed, n):
    """The first n symbols of packed rows; the inverse of _pack_symbols."""
    symbols = np.empty((*packed.shape[:-1], 2 * packed.shape[-1]), dtype=np.uint8)
    np.right_shift(packed, 4, out=symbols[..., 0::2])
    np.bitwise_and(packed, 15, out=symbols[..., 1::2])
    return symbols[..., :n]


def _gf16_map_table(matrix):
    """Byte table of the GF(16)-linear map by a matrix M of shape (P, N_PARITY).

    Entry [j, v] is the map of the packed byte v at byte j, that is of
    symbol v >> 4 at position 2j and v & 15 at position 2j + 1, with output
    c in nibble 3 - c of a uint16.  A pad position past P maps to 0, so a
    row's map is the XOR over its bytes of one gather each.
    """
    m = np.asarray(matrix)
    m = np.concatenate([m, np.zeros((len(m) % 2, N_PARITY), dtype=m.dtype)])
    per_symbol = np.bitwise_or.reduce(_GF16_MUL[:, m].astype(np.uint16) << _OUTPUT_SHIFTS, axis=-1)
    high, low = per_symbol[:, 0::2], per_symbol[:, 1::2]  # (16, bytes): value, byte
    return np.ascontiguousarray((high[:, None] ^ low[None, :]).reshape(256, -1).T)


def _gf16_map_packed(packed, table):
    """GF(16)-linear map of packed symbol rows (..., bytes): a uint16 per row
    with output c in nibble 3 - c."""
    out = table[0][packed[..., 0]]
    for j in range(1, len(table)):
        out ^= table[j][packed[..., j]]
    return out


def _parity_rows():
    """Parity of a unit message at each info position: x^(14-p) mod g(x)."""
    rem = list(GENERATOR_POLY[1:])  # x^4 mod g, descending coefficients
    rows = []
    for _ in range(K_SYMBOLS):
        rows.append(rem)
        lead = rem[0]
        rem = [c ^ gf16_mul(lead, gc) for c, gc in zip(rem[1:] + [0], GENERATOR_POLY[1:])]
    return rows[::-1]


# Encoding is linear, so parity = XOR of info[p] * parity(unit message at p).
_PARITY_TABLE = _gf16_map_table(_parity_rows())
# Syndrome S_j = sum over i of received[i] * alpha^(j * (14 - i)).
_SYNDROME_TABLE = _gf16_map_table(
    [
        [int(GF16_EXP[j * (N_SYMBOLS - 1 - i) % 15]) for j in range(1, N_PARITY + 1)]
        for i in range(N_SYMBOLS)
    ]
)


@dataclass(frozen=True)
class RsDecodeResult:
    """Decoded information symbols plus a decode-failure flag.

    On failure the info field carries the received systematic part
    unchanged (best effort); failure is a result value, not an error.
    """

    info: tuple
    failure: bool


def _check_symbol_rows(rows, expected_len=None, one_word=False):
    """The rows as an array, checked for row length (any, when expected_len
    is None), for being a single row when one_word is set, and, before any
    cast, to be integers in [0, 15]."""
    arr = np.asarray(rows)
    if arr.ndim < 1 or expected_len not in (None, arr.shape[-1]) or (one_word and arr.ndim != 1):
        count = "" if expected_len is None else f"{expected_len} "
        raise ValueError(f"expected {count}symbols per row, got shape {arr.shape}")
    if arr.size and not (
        0 <= arr.min() and arr.max() <= 15 and (arr.dtype.kind != "f" or not (arr % 1).any())
    ):
        raise ValueError("symbols must lie in [0, 15] and be integers")
    return arr


def rs_encode(info_symbols):
    """Systematically encode 11 information symbols into a 15-symbol codeword.

    Parity is the remainder of info(x) * x^4 modulo the generator; every
    syndrome of the result is zero.
    """
    return rs_encode_rows(_check_symbol_rows(info_symbols, K_SYMBOLS, one_word=True)).tolist()


def rs_syndromes(received):
    """Evaluate the received polynomial at alpha^1 .. alpha^4."""
    return rs_syndromes_rows(_check_symbol_rows(received, N_SYMBOLS, one_word=True)).tolist()


def rs_decode(received):
    """Correct up to two symbol errors in a 15-symbol word.

    Syndromes, then Berlekamp-Massey for the error locator, Chien search for
    its roots and the Forney formula for magnitudes.  Failure is declared
    when the locator degree exceeds 2, when the root count mismatches the
    locator degree, or when correction leaves a nonzero syndrome.  Patterns
    beyond two errors may be miscorrected to a nearby codeword; that is
    inherent to bounded-distance decoding.
    """
    r = np.asarray(_check_symbol_rows(received, N_SYMBOLS, one_word=True), dtype=np.uint8).tolist()
    synd = rs_syndromes(r)
    if max(synd) == 0:
        return RsDecodeResult(tuple(r[:K_SYMBOLS]), False)

    locator = _berlekamp_massey(synd)
    degree = len(locator) - 1
    if degree > T_CORRECTABLE:
        return RsDecodeResult(tuple(r[:K_SYMBOLS]), True)

    positions = _chien_search(locator)
    if len(positions) != degree:
        return RsDecodeResult(tuple(r[:K_SYMBOLS]), True)

    corrected = list(r)
    if not _forney_correct(corrected, synd, locator, positions):
        return RsDecodeResult(tuple(r[:K_SYMBOLS]), True)
    if max(rs_syndromes(corrected)) != 0:
        return RsDecodeResult(tuple(r[:K_SYMBOLS]), True)
    return RsDecodeResult(tuple(corrected[:K_SYMBOLS]), False)


def _berlekamp_massey(synd):
    """Minimal LFSR (error locator, ascending coefficients) for the syndromes."""
    locator = [1]
    prev = [1]
    length = 0
    shift = 1
    prev_disc = 1
    for n in range(N_PARITY):
        disc = synd[n]
        for i in range(1, length + 1):
            if i < len(locator) and locator[i]:
                disc ^= gf16_mul(locator[i], synd[n - i])
        if disc == 0:
            shift += 1
            continue
        coef = gf16_mul(disc, gf16_inv(prev_disc))
        if 2 * length <= n:
            saved = list(locator)
            locator = locator + [0] * max(0, len(prev) + shift - len(locator))
            for i in range(len(prev)):
                locator[i + shift] ^= gf16_mul(coef, prev[i])
            length = n + 1 - length
            prev = saved
            prev_disc = disc
            shift = 1
        else:
            locator = locator + [0] * max(0, len(prev) + shift - len(locator))
            for i in range(len(prev)):
                locator[i + shift] ^= gf16_mul(coef, prev[i])
            shift += 1
    while len(locator) > 1 and locator[-1] == 0:
        locator.pop()
    return locator


def _chien_search(locator):
    """Symbol positions whose locator value X = alpha^(14-i) inverts a root."""
    positions = []
    for i in range(N_SYMBOLS):
        x_inv = int(GF16_EXP[(15 - (14 - i)) % 15])
        val = 0
        for k in range(len(locator) - 1, -1, -1):
            val = gf16_mul(val, x_inv) ^ locator[k]
        if val == 0:
            positions.append(i)
    return positions


def _forney_correct(word, synd, locator, positions):
    """Apply Forney error magnitudes in place; False if a magnitude is undefined."""
    # Omega(x) = S(x) * Lambda(x) mod x^4 with S(x) = S1 + S2 x + S3 x^2 + S4 x^3
    omega = [0] * N_PARITY
    for i in range(N_PARITY):
        if synd[i]:
            for k in range(len(locator)):
                if i + k < N_PARITY and locator[k]:
                    omega[i + k] ^= gf16_mul(synd[i], locator[k])
    for pos in positions:
        x_inv = int(GF16_EXP[(15 - (14 - pos)) % 15])
        num = 0
        for k in range(N_PARITY - 1, -1, -1):
            num = gf16_mul(num, x_inv) ^ omega[k]
        # Formal derivative keeps odd-power terms only in characteristic 2.
        den = locator[1] if len(locator) > 1 else 0
        if len(locator) > 3 and locator[3]:
            den ^= gf16_mul(locator[3], gf16_mul(x_inv, x_inv))
        if den == 0:
            return False
        word[pos] ^= gf16_mul(num, gf16_inv(den))
    return True


def rs_encode_rows(info_rows):
    """Row-wise systematic encoding of a (frames, 11) symbol array.

    Matches rs_encode on every row; the rows are packed and run through
    _encode_packed, the sweep's encoder.
    """
    info = _check_symbol_rows(info_rows, K_SYMBOLS)
    return _unpack_symbols(_encode_packed(_pack_symbols(info)), N_SYMBOLS)


def rs_syndromes_rows(received_rows):
    """Row-wise syndromes of a (frames, 15) symbol array, shape (frames, 4)."""
    received = _check_symbol_rows(received_rows, N_SYMBOLS)
    syndromes = _gf16_map_packed(_pack_symbols(received), _SYNDROME_TABLE)
    return ((syndromes[..., None] >> _OUTPUT_SHIFTS) & 15).astype(np.uint8)


def rs_decode_rows(received_rows):
    """Row-wise rs_decode of a (frames, 15) symbol array.

    Returns (info, failure): a (frames, 11) uint8 array and a (frames,) bool
    array, equal row by row to rs_decode's info and failure.  The rows are
    packed and run through _decode_packed, the sweep's decoder.
    """
    received = _check_symbol_rows(received_rows, N_SYMBOLS)
    info, failure = _decode_packed(_pack_symbols(received))
    return _unpack_symbols(info, K_SYMBOLS), failure


def _encode_packed(info):
    """Packed codewords (..., _CODE_BYTES) of packed info rows (..., _INFO_BYTES)
    whose pad nibble is 0; the codewords' pad nibble is 0 too.  The rows are
    not checked.

    The parity map's uint16 holds p0 p1 p2 p3 from its top nibble down, and
    the codeword places them after the 11th info symbol: p0 in the low
    nibble of the last info byte, then p1 p2, then p3 and the pad.
    """
    parity = _gf16_map_packed(info, _PARITY_TABLE)
    code = np.zeros((*info.shape[:-1], _CODE_BYTES), dtype=np.uint8)
    code[..., :_INFO_BYTES] = info
    code[..., _INFO_BYTES - 1] |= (parity >> 12).astype(np.uint8)
    code[..., _INFO_BYTES] = parity >> 4  # the assignment keeps the low byte
    code[..., _INFO_BYTES + 1] = parity << 4
    return code


@lru_cache(maxsize=1)
def _syndrome_decoder():
    """Packed info-part correction and failure flag for each syndrome, indexed
    by the syndrome map's uint16.

    A bounded-distance t=2 decoder succeeds exactly when the syndrome is that
    of an error pattern of weight <= 2, which distance 5 makes unique; every
    other syndrome fails and passes the received info through unchanged.
    """
    # The weight-1 patterns, value v at position p in row 15p + v - 1, their
    # syndromes and their packed info parts (zero for a parity position).  A
    # weight-2 pattern's syndrome and info part are the XORs of its two parts'.
    values = np.arange(1, 16, dtype=np.uint8)
    unit = (np.eye(N_SYMBOLS, dtype=np.uint8)[:, None, :] * values[None, :, None]).reshape(-1, N_SYMBOLS)
    syndrome = _gf16_map_packed(_pack_symbols(unit), _SYNDROME_TABLE)
    info = _pack_symbols(unit[:, :K_SYMBOLS])
    position = np.repeat(np.arange(N_SYMBOLS), values.size)
    first, second = np.nonzero(position[:, None] < position[None, :])
    index = np.concatenate([[0], syndrome, syndrome[first] ^ syndrome[second]])
    error = np.concatenate([np.zeros((1, _INFO_BYTES), dtype=np.uint8), info, info[first] ^ info[second]])

    correction = np.zeros((16**N_PARITY, _INFO_BYTES), dtype=np.uint8)
    failure = np.ones(16**N_PARITY, dtype=bool)
    correction[index] = error
    failure[index] = False
    return correction, failure


def _decode_packed(received):
    """Bounded-distance decode of packed received rows (..., _CODE_BYTES).

    Returns (info, failure): the packed decoded info rows (..., _INFO_BYTES),
    pad nibble 0, and the failure flags.  The syndrome's entry in the table
    of the weight <= 2 error patterns is XORed onto the received info.  The
    rows are not checked.
    """
    correction, failure = _syndrome_decoder()
    index = _gf16_map_packed(received, _SYNDROME_TABLE)
    info = received[..., :_INFO_BYTES] ^ correction[index]
    info[..., -1] &= 0xF0  # the pad nibble held the first parity symbol
    return info, failure[index]


def symbols_to_bits(symbols):
    """Unpack GF(16) symbol rows into bits, most significant bit first.

    The symbols must be integers in [0, 15], checked before any cast.
    """
    syms = _check_symbol_rows(symbols)
    return np.unpackbits(_pack_symbols(syms), axis=-1, count=BITS_PER_SYMBOL * syms.shape[-1])


def bits_to_symbols(bits):
    """Pack bit rows (MSB first, groups of four) into GF(16) symbols.

    The bits must be 0 or 1, checked before any cast (batch's bit rule).
    """
    arr = _as_bit_array(bits)
    if arr.ndim < 1 or arr.shape[-1] % BITS_PER_SYMBOL:
        raise ValueError("bit count must be a multiple of 4")
    return _unpack_symbols(np.packbits(arr, axis=-1), arr.shape[-1] // BITS_PER_SYMBOL)
