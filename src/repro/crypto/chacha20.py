"""ChaCha20 stream cipher and ChaCha20-Poly1305 AEAD (RFC 8439).

Herd pads all links with encrypted chaff whose ciphertext must look
uniformly random to an observer, while remaining *predictable to the
mix* that shares the symmetric key (§3.6.1: "the ciphertext of the
chaff packets from the idle clients is predictable to the mix").  A
stream cipher in counter mode gives exactly that property, and is what
the XOR network-coding decode at the mix relies on.

This module implements:

* the ChaCha20 block function three times: :func:`chacha20_block`,
  the readable RFC 8439 reference that the tests use as their oracle
  and no other code calls, and two kernels over N independent (key,
  nonce, counter) blocks at once — Python-int lanes for a small call
  (one onion cell, one AEAD record), numpy columns for a large one (a
  round of the SP data plane) — behind the one size test in
  :func:`_keystream_blocks`,
* :func:`chacha20_keystream_many` / :func:`chacha20_encrypt_many`, B
  independent streams per call — a round of the SP data plane seals,
  predicts and trial-decrypts every packet of the zone through these
  (DESIGN.md "Crypto batching seam"); ``chacha20_keystream`` /
  ``chacha20_encrypt`` are their B=1 case,
* Poly1305 twice: the RFC's Horner loop on Python ints for a few
  tags, and B tags in lockstep on numpy 26-bit limbs for a round's
  trial decryptions, behind the one size test in
  :func:`poly1305_mac_many` (``poly1305_mac`` is its B=1 case), and
* :class:`ChaCha20Poly1305`, the AEAD construction used by the
  DTLS-like record layer for hop-by-hop authenticated encryption,
  beside :func:`aead_seal_many` / :func:`aead_open_many`, which make
  one MAC call for all their tags: a batch of trial decryptions opens
  in two phases (every key block, then the authentic bodies), one
  record in one kernel call.  :func:`aead_open_drawn` is the second
  phase over key blocks the caller drew — a round's clients draw
  theirs beside their upstream packets (:func:`seal_plans_and_draw`)
  — and :func:`seal_record` / :func:`open_record` are one record over
  keystream the caller drew, so each end of an onion cell draws its
  record beside its layers in one call.  A record shorter than a tag
  is refused before any of this: no key block, no MAC lane.
"""

from __future__ import annotations

import hmac
import operator
import struct
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

_MASK32 = 0xFFFFFFFF


def _rotl32(v: int, c: int) -> int:
    return ((v << c) & _MASK32) | (v >> (32 - c))


def _quarter_round(state, a, b, c, d):
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 7)


_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """The ChaCha20 block function (RFC 8439 §2.3): 64 bytes of keystream."""
    if len(key) != 32:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("ChaCha20 nonce must be 12 bytes")
    if not 0 <= counter < 2 ** 32:
        raise ValueError("ChaCha20 block counter must fit in 32 bits")

    state = list(_CONSTANTS)
    state.extend(struct.unpack("<8I", key))
    state.append(counter)
    state.extend(struct.unpack("<3I", nonce))
    working = list(state)
    for _ in range(10):
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)
    out = [(working[i] + state[i]) & _MASK32 for i in range(16)]
    return struct.pack("<16I", *out)


def xor_bytes(*chunks: bytes) -> bytes:
    """XOR any number of equal-length byte strings."""
    if not chunks:
        raise ValueError("need at least one chunk")
    length = len(chunks[0])
    if any(len(c) != length for c in chunks):
        raise ValueError("all chunks must have equal length")
    out = 0
    for chunk in chunks:
        out ^= int.from_bytes(chunk, "little")
    return out.to_bytes(length, "little")


#: Below this many blocks in one call the int-lane kernel is faster
#: than the numpy one.  Both do a fixed number of operations per call
#: (≈800 big-int, ≈420 array) on operands that grow with the block
#: count: measured through :func:`_keystream_blocks`, the lanes cost
#: ≈25 µs + ≈2.5 µs a block and numpy ≈190–240 µs + ≈0.4 µs a block.
#: They tie near 85 blocks, and below 64 no measured call loses
#: (table in DESIGN.md §15).  A property of the input, not a setting.
_KERNEL_MIN_BLOCKS = 64

_U32 = np.dtype("<u4")
_U64 = np.dtype("<u8")
_CONSTANT_COLUMN = np.array(_CONSTANTS, dtype=_U32)[:, None]
#: Row gathers that line the diagonals up as columns, and back: rows
#: 4–7 / 8–11 / 12–15 (b / c / d of the four quarter rounds) move left
#: by one / two / three lanes.
_TO_DIAGONALS = np.array([0, 1, 2, 3, 5, 6, 7, 4,
                          10, 11, 8, 9, 15, 12, 13, 14])
_TO_COLUMNS = np.array([0, 1, 2, 3, 7, 4, 5, 6,
                        10, 11, 8, 9, 13, 14, 15, 12])


def _block_kernel(keys: Sequence[bytes], nonces: Sequence[bytes],
                  counts: Sequence[int], starts: Sequence[int],
                  total: int) -> bytes:
    """The block function on every column of a ``(16, total)`` ``<u4``
    state array at once — column j the initial state of block j;
    returns the blocks back to back.

    Rows 0–3 / 4–7 / 8–11 / 12–15 are a / b / c / d of four quarter
    rounds done side by side, so a half round is the quarter round
    written once over ``(4, N)`` slices, in place.  ``uint32`` adds
    wrap, which is the cipher's addition mod 2^32.
    """
    n_streams = len(keys)
    per_stream = np.asarray(counts, dtype=np.intp)
    initial = np.empty((16, total), dtype=_U32)
    initial[0:4] = _CONSTANT_COLUMN
    initial[4:12] = np.repeat(
        np.frombuffer(b"".join(keys), dtype=_U32).reshape(n_streams, 8),
        per_stream, axis=0).T
    first_block = np.cumsum(per_stream) - per_stream
    initial[12] = np.arange(total) + np.repeat(
        np.asarray(starts, dtype=np.int64) - first_block, per_stream)
    initial[13:16] = np.repeat(
        np.frombuffer(b"".join(nonces), dtype=_U32).reshape(n_streams, 3),
        per_stream, axis=0).T

    columns = initial.copy()
    diagonals = np.empty_like(columns)
    spare = np.empty((4, total), dtype=_U32)

    def rotl(x, n):
        np.left_shift(x, n, out=spare)
        np.right_shift(x, 32 - n, out=x)
        np.bitwise_or(x, spare, out=x)

    def half_round(state):
        a, b, c, d = state[0:4], state[4:8], state[8:12], state[12:16]
        a += b
        d ^= a
        rotl(d, 16)
        c += d
        b ^= c
        rotl(b, 12)
        a += b
        d ^= a
        rotl(d, 8)
        c += d
        b ^= c
        rotl(b, 7)

    # ``mode="clip"`` on constant, in-range indices: the same rows as
    # the default ``"raise"``, which buffers ``out`` first.
    for _ in range(10):
        half_round(columns)
        columns.take(_TO_DIAGONALS, axis=0, out=diagonals, mode="clip")
        half_round(diagonals)
        diagonals.take(_TO_COLUMNS, axis=0, out=columns, mode="clip")
    columns += initial
    return columns.T.tobytes()


#: One lane of the int kernel: a 32-bit word and 32 spare bits above it.
_LANE = b"\xff\xff\xff\xff\x00\x00\x00\x00"
#: The head of every block's initial state, and the counter's place
#: before the block's own counter is written in.
_CONSTANT_WORDS = struct.pack("<4I", *_CONSTANTS)
_NO_COUNTER = bytes(4)


def _lane_kernel(keys: Sequence[bytes], nonces: Sequence[bytes],
                 counts: Sequence[int], starts: Sequence[int],
                 total: int) -> bytes:
    """:func:`_block_kernel` for a small N, on four Python ints.

    Each int is one row of the 4 × 4 state — a / b / c / d — for all N
    blocks: 4·N lanes of 64 bits, lane ``w·N + j`` holding word ``w``
    of that row in block ``j``.  The state is built as bytes in block
    order — a stream's 16 words, counter word zero, once per block of
    the stream — and one transpose to ``<u8`` puts every word in its
    lane with four spare bytes above it; the counters go into their
    row as one list.  A half round is the quarter round
    written once over whole rows.  An add carries into the spare half
    of its own lane and a rotate shifts bits into the spare half of its
    own lane or of the one below; ``& mask`` drops both, which is the
    cipher's arithmetic mod 2^32.  The diagonals line up as columns
    when rows b / c / d turn by one / two / three words, i.e. by N /
    2N / 3N lanes.
    """
    n = total
    size = 32 * n
    mask = int.from_bytes(_LANE * (4 * n), "little")
    counters: List[int] = []
    for start, count in zip(starts, counts):
        counters += range(start, start + count)
    blocks = b"".join([(_CONSTANT_WORDS + key + _NO_COUNTER + nonce) * count
                       for key, nonce, count in zip(keys, nonces, counts)])
    state = np.frombuffer(blocks, dtype=_U32).reshape(n, 16).T.astype(_U64)
    state[12] = counters
    rows = state.tobytes()
    a0, b0, c0, d0 = [int.from_bytes(rows[i * size:(i + 1) * size],
                                     "little") for i in range(4)]
    one, two, three = 64 * n, 128 * n, 192 * n
    low1, low2, low3 = (1 << one) - 1, (1 << two) - 1, (1 << three) - 1

    a, b, c, d = a0, b0, c0, d0
    for _ in range(10):
        a = (a + b) & mask
        d ^= a
        d = ((d << 16) | (d >> 16)) & mask
        c = (c + d) & mask
        b ^= c
        b = ((b << 12) | (b >> 20)) & mask
        a = (a + b) & mask
        d ^= a
        d = ((d << 8) | (d >> 24)) & mask
        c = (c + d) & mask
        b ^= c
        b = ((b << 7) | (b >> 25)) & mask
        b = (b >> one) | ((b & low1) << three)
        c = (c >> two) | ((c & low2) << two)
        d = (d >> three) | ((d & low3) << one)
        a = (a + b) & mask
        d ^= a
        d = ((d << 16) | (d >> 16)) & mask
        c = (c + d) & mask
        b ^= c
        b = ((b << 12) | (b >> 20)) & mask
        a = (a + b) & mask
        d ^= a
        d = ((d << 8) | (d >> 24)) & mask
        c = (c + d) & mask
        b ^= c
        b = ((b << 7) | (b >> 25)) & mask
        b = (b >> three) | ((b & low3) << one)
        c = (c >> two) | ((c & low2) << two)
        d = (d >> one) | ((d & low1) << three)
    # Two words below 2^32 sum below 2^33: the final add needs no
    # mask, because only the low half of every lane is read — in
    # (row, word, block) order, which is block order already when
    # there is one block.
    out = b"".join([(x + x0).to_bytes(size, "little")
                    for x, x0 in ((a, a0), (b, b0), (c, c0), (d, d0))])
    words = np.frombuffer(out, dtype=_U32)[0::2]
    if n > 1:
        words = words.reshape(16, n).T
    return words.tobytes()


def _keystream_blocks(keys: Sequence[bytes], nonces: Sequence[bytes],
                      counts: Sequence[int],
                      counter: Union[int, Sequence[int]]) -> bytes:
    """The kernel entry point: ``counts[i]`` blocks of stream
    ``(keys[i], nonces[i])``, all streams back to back (``64 *
    sum(counts)`` bytes).  Stream i starts at block ``counter[i]``, or
    at block ``counter`` for every stream when it is an int — so one
    call can carry an AEAD record's blocks 0… beside onion layers'
    blocks 1….

    The one validation and the one branch of the cipher live here:
    :func:`_lane_kernel` takes a call for fewer than
    :data:`_KERNEL_MIN_BLOCKS` blocks and :func:`_block_kernel` any
    other, and each builds its state in its own representation.
    """
    starts = ([counter] * len(counts) if isinstance(counter, int)
              else counter)
    if not len(keys) == len(nonces) == len(counts) == len(starts):
        raise ValueError("need one key, one nonce, one block count and "
                         "one start counter per stream")
    if set(map(len, keys)) - {32}:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if set(map(len, nonces)) - {12}:
        raise ValueError("ChaCha20 nonce must be 12 bytes")
    if (min(starts, default=0) < 0
            or max(map(operator.add, starts, counts), default=0) > 2 ** 32):
        raise ValueError("ChaCha20 block counter must fit in 32 bits")
    if min(counts, default=0) < 0:
        raise ValueError("keystream length must be non-negative")
    total = sum(counts)
    if total < _KERNEL_MIN_BLOCKS:
        return _lane_kernel(keys, nonces, counts, starts, total)
    return _block_kernel(keys, nonces, counts, starts, total)


def chacha20_keystream_many(keys: Sequence[bytes],
                            nonces: Sequence[bytes], n_blocks: int,
                            counter: int = 0) -> List[bytes]:
    """``n_blocks`` blocks of keystream for each of B independent
    (key, nonce) streams, every stream starting at block ``counter``."""
    if n_blocks < 0:
        raise ValueError("keystream length must be non-negative")
    flat = _keystream_blocks(keys, nonces, [n_blocks] * len(keys),
                             counter)
    size = 64 * n_blocks
    return [flat[i * size:(i + 1) * size] for i in range(len(keys))]


def _encrypt_and_draw(keys: Sequence[bytes], nonces: Sequence[bytes],
                      messages: Sequence[bytes], counter: int,
                      draws: Sequence[Tuple[bytes, bytes]]
                      ) -> Tuple[List[bytes], bytes]:
    """Every message under its own (key, nonce) from block
    ``counter``, and block 0 of every ``(key, nonce)`` in ``draws``, in
    one kernel call: the messages, and the drawn blocks back to back."""
    counts = [(len(message) + 63) // 64 for message in messages]
    if draws:
        draw_keys, draw_nonces = zip(*draws)
        stream = _keystream_blocks(
            [*keys, *draw_keys], [*nonces, *draw_nonces],
            counts + [1] * len(draws),
            [counter] * len(counts) + [0] * len(draws))
    else:
        stream = _keystream_blocks(keys, nonces, counts, counter)
    padded = b"".join(message.ljust(64 * n, b"\x00")
                      for message, n in zip(messages, counts))
    # Both are whole blocks: XOR them as 64-bit words (xor_bytes
    # would convert the round — 77 KB at 100 clients — to an int
    # three times).
    mixed = (np.frombuffer(padded, dtype=_U64)
             ^ np.frombuffer(stream, dtype=_U64,
                             count=len(padded) // 8)).tobytes()
    out = []
    start = 0
    for message, n in zip(messages, counts):
        out.append(mixed[start:start + len(message)])
        start += 64 * n
    return out, stream[len(padded):]


def chacha20_encrypt_many(keys: Sequence[bytes], nonces: Sequence[bytes],
                          messages: Sequence[bytes],
                          counter: int = 1) -> List[bytes]:
    """Encrypt (or decrypt) B messages, each under its own (key,
    nonce), in one kernel call.  Lengths may differ and may be zero:
    message i takes exactly the blocks it needs."""
    return _encrypt_and_draw(keys, nonces, messages, counter, ())[0]


#: One planned cipher call: ``(key, nonce, message)``.  *Planning* is
#: the cheap per-packet Python (cleartext, nonce, key lookup) that the
#: protocol layers do one packet at a time; *sealing* hands any number
#: of plans to the kernel at once (DESIGN.md "Crypto batching seam").
CipherPlan = Tuple[bytes, bytes, bytes]


def seal_plans(plans: Sequence[CipherPlan]) -> List[bytes]:
    """Run every planned cipher call in one kernel call."""
    return seal_plans_and_draw(plans, ())[0]


def seal_plans_and_draw(plans: Sequence[CipherPlan],
                        draws: Sequence[Tuple[bytes, bytes]]
                        ) -> Tuple[List[bytes], bytes]:
    """:func:`seal_plans`, and in the same kernel call block 0 of every
    ``(key, nonce)`` in ``draws`` — a key block someone needs later,
    drawn now because its nonce is known now: the sealed messages, and
    the drawn blocks back to back."""
    if not plans and not draws:
        return [], b""
    keys, nonces, messages = zip(*plans) if plans else ((), (), ())
    return _encrypt_and_draw(keys, nonces, messages, 1, draws)


def chacha20_keystream(key: bytes, nonce: bytes, length: int,
                       counter: int = 0) -> bytes:
    """Generate ``length`` bytes of ChaCha20 keystream."""
    if length < 0:
        raise ValueError("keystream length must be non-negative")
    return chacha20_keystream_many([key], [nonce], (length + 63) // 64,
                                   counter)[0][:length]


def chacha20_encrypt(key: bytes, nonce: bytes, plaintext: bytes,
                     counter: int = 1) -> bytes:
    """Encrypt (or decrypt — the operation is symmetric) with ChaCha20."""
    return chacha20_encrypt_many([key], [nonce], [plaintext], counter)[0]


# --------------------------------------------------------------------------
# Poly1305 one-time authenticator (RFC 8439 §2.5)
# --------------------------------------------------------------------------

_P1305 = (1 << 130) - 5
_R_CLAMP = 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF


def _horner_mac(msg: bytes, key: bytes) -> bytes:
    """One tag as RFC 8439 §2.5.1 writes it: Horner's rule on Python
    ints, one 16-byte block a step."""
    r = int.from_bytes(key[:16], "little") & _R_CLAMP
    s = int.from_bytes(key[16:], "little")
    acc = 0
    for i in range(0, len(msg), 16):
        chunk = msg[i:i + 16]
        n = int.from_bytes(chunk, "little") + (1 << (8 * len(chunk)))
        acc = (acc + n) * r % _P1305
    acc = (acc + s) % (1 << 128)
    return acc.to_bytes(16, "little")


#: Below this many MACs in one call the Horner loop is faster than the
#: lockstep kernel.  The loop costs ≈0.55 µs a block a lane; the
#: kernel does ≈12 array operations a block, ≈60 µs + ≈10 µs a block
#: for one lane as for a hundred.  They tie at 24 lanes of 19 blocks (a
#: downstream trial), 48 lanes of 3 and 96 of 1; no call in the tree
#: has between 9 and 200 (table in DESIGN.md §15).  A property of the
#: input, not a setting.
_LOCKSTEP_MIN_LANES = 32

_MASK26 = (1 << 26) - 1
#: Row i, column j of the multiplication matrix is limb ``(i - j) mod
#: 5`` of ``r``, gathered from ``[r, 5·r]``: times 5 where it wraps
#: (``j > i``), because 2^130 = 5 mod p.
_R_MATRIX = np.array([[(i - j) % 5 + (5 if j > i else 0)
                       for j in range(5)] for i in range(5)])


def _limbs(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """128-bit numbers, given as ``(..., B)`` arrays of their low and
    high 64-bit halves, as ``(..., 5, B)`` limbs of 26 bits (limb 4
    holds the top 24)."""
    out = np.empty(low.shape[:-1] + (5,) + low.shape[-1:], dtype=_U64)
    out[..., 0, :] = low & _MASK26
    out[..., 1, :] = (low >> 26) & _MASK26
    out[..., 2, :] = ((low >> 52) | (high << 12)) & _MASK26
    out[..., 3, :] = (high >> 14) & _MASK26
    out[..., 4, :] = high >> 40
    return out


def _pad16(data: bytes) -> bytes:
    """The zeros that bring ``data`` to a multiple of 16 bytes."""
    return bytes(-len(data) % 16)


def _right_aligned(message: bytes, width: int) -> bytes:
    """``message`` as the last blocks of a ``width``-byte lane: a short
    final block gets its ``0x01`` pad and zeros (RFC 8439 §2.5.1), the
    blocks the lane does not have are zeros in front."""
    if len(message) % 16:
        message += b"\x01"
        message += _pad16(message)
    return message.rjust(width, b"\x00")


def _lockstep_macs(messages: Sequence[bytes],
                   keys: Sequence[bytes]) -> List[bytes]:
    """B Poly1305 tags at once: Horner's rule on a ``(5, B)`` ``<u8``
    array of 26-bit limbs, every lane one step a block.

    Lanes are right-aligned.  A lane shorter than the longest starts
    with all-zero blocks *without* the 2^128 bit, which leave its
    accumulator at 0 (``(0 + 0)·r``); a short final block carries its
    ``0x01`` pad in the data and no 2^128 bit either.

    Overflow: going into a multiplication a limb of ``h`` is below
    2^26 + 2^12 and a limb of the block below 2^26, so their sum is
    below 2^27 + 2^12; a matrix entry is below 5·2^26; a row is five
    such products, below 5 · (2^27 + 2^12) · 5·2^26 < 2^58.  A carry
    pass moves every limb's bits from 26 up into the next limb at
    once, limb 4's into limb 0 times 5: the first leaves limbs below
    2^26 + 5·2^32, the second below 2^26 + 5·(2^6 + 1) < 2^26 + 2^12.
    """
    lanes = len(keys)
    key_halves = np.frombuffer(b"".join(keys), dtype=_U64).reshape(lanes, 4)
    r = _limbs(key_halves[:, 0] & (_R_CLAMP % 2 ** 64),
               key_halves[:, 1] & (_R_CLAMP >> 64))
    matrix = np.concatenate((r, r * 5))[_R_MATRIX]

    lengths = np.array([len(message) for message in messages],
                       dtype=np.intp)
    n_blocks = (int(lengths.max(initial=0)) + 15) // 16
    width = 16 * n_blocks
    padded = b"".join(message if len(message) == width
                      else _right_aligned(message, width)
                      for message in messages)
    halves = np.frombuffer(padded, dtype=_U64).reshape(lanes, n_blocks, 2)
    blocks = _limbs(halves[:, :, 0].T, halves[:, :, 1].T)
    # The 2^128 bit of every full block a lane really has.
    index = np.arange(n_blocks)[:, None]
    first = n_blocks - (lengths + 15) // 16
    blocks[:, 4, :] |= ((index >= first) & (index < first + lengths // 16)
                        ).astype(_U64) << 24

    h = np.zeros((5, lanes), dtype=_U64)
    for block in blocks:
        h += block
        h = np.einsum("ijb,jb->ib", matrix, h)
        for _ in range(2):
            carry = h >> 26
            h &= _MASK26
            h[1:] += carry[:4]
            h[0] += 5 * carry[4]

    # h < 2p, its limbs not yet canonical.  h >= p exactly where h + 5
    # carries out of 130 bits, and there h - p = h + 5 - 2^130.
    over = (h[0] + 5) >> 26
    for i in range(1, 5):
        over = (h[i] + over) >> 26
    h[0] += over * 5
    for i in range(4):
        h[i + 1] += h[i] >> 26
    h &= _MASK26
    # (h + s) mod 2^128, in 64-bit halves; uint64 shifts and adds wrap.
    low = h[0] | (h[1] << 26) | (h[2] << 52)
    high = (h[2] >> 12) | (h[3] << 14) | (h[4] << 40)
    s_low, s_high = key_halves[:, 2], key_halves[:, 3]
    low += s_low
    high += s_high + (low < s_low)
    tags = np.stack((low, high), axis=1).tobytes()
    return [tags[i:i + 16] for i in range(0, 16 * lanes, 16)]


def poly1305_mac_many(messages: Sequence[bytes],
                      keys: Sequence[bytes]) -> List[bytes]:
    """The 16-byte Poly1305 tag of each message under its own 32-byte
    one-time key.  Lengths may differ and may be zero.

    The one size test of the MAC lives here: fewer than
    :data:`_LOCKSTEP_MIN_LANES` items run the Horner loop one by one,
    more run in lockstep on numpy limbs.
    """
    if len(messages) != len(keys):
        raise ValueError("need one Poly1305 key per message")
    if any(len(key) != 32 for key in keys):
        raise ValueError("Poly1305 key must be 32 bytes")
    if len(keys) < _LOCKSTEP_MIN_LANES:
        return [_horner_mac(message, key)
                for message, key in zip(messages, keys)]
    return _lockstep_macs(messages, keys)


def poly1305_mac(msg: bytes, key: bytes) -> bytes:
    """Compute the 16-byte Poly1305 tag of ``msg`` under a 32-byte key."""
    return poly1305_mac_many([msg], [key])[0]


def _mac_input(ciphertext: bytes, aad: bytes) -> bytes:
    """What the AEAD tag of (ciphertext, aad) is the Poly1305 MAC of
    (RFC 8439 §2.8)."""
    return (aad + _pad16(aad) + ciphertext + _pad16(ciphertext)
            + struct.pack("<QQ", len(aad), len(ciphertext)))


def _aead_tags(poly_keys: Sequence[bytes], ciphertexts: Sequence[bytes],
               aads: Sequence[bytes]) -> List[bytes]:
    """The AEAD tag of each (ciphertext, aad) under its one-time key
    (RFC 8439 §2.8), in one MAC call."""
    return poly1305_mac_many(
        [_mac_input(ciphertext, aad)
         for ciphertext, aad in zip(ciphertexts, aads)], poly_keys)


def _one_aad_per_item(keys, nonces, messages, aads):
    if aads is None:
        aads = [b""] * len(keys)
    if not len(keys) == len(nonces) == len(messages) == len(aads):
        raise ValueError("need one key, one nonce, one message and one "
                         "aad per item")
    return aads


def _refuse_short(data: bytes) -> None:
    if len(data) < ChaCha20Poly1305.TAG_LEN:
        raise ValueError("ciphertext shorter than the AEAD tag")


def aead_seal_many(keys: Sequence[bytes], nonces: Sequence[bytes],
                   plaintexts: Sequence[bytes],
                   aads: Optional[Sequence[bytes]] = None) -> List[bytes]:
    """AEAD_CHACHA20_POLY1305 (RFC 8439 §2.8) over B independent
    (key, nonce, plaintext, aad) items: ciphertext||tag each.

    One kernel call covers blocks 0…n of every stream: the first half
    of block 0 is the item's Poly1305 key (§2.6), blocks 1…n encrypt
    its body."""
    aads = _one_aad_per_item(keys, nonces, plaintexts, aads)
    streams = chacha20_encrypt_many(
        keys, nonces, [bytes(64) + plaintext for plaintext in plaintexts],
        counter=0)
    ciphertexts = [stream[64:] for stream in streams]
    tags = _aead_tags([stream[:32] for stream in streams], ciphertexts,
                      aads)
    return [ciphertext + tag
            for ciphertext, tag in zip(ciphertexts, tags)]


def _open_lanes(keys: Sequence[bytes], nonces: Sequence[bytes],
                sealed: Sequence[bytes], aads: Sequence[bytes],
                lanes: Sequence[int], poly_keys: Sequence[bytes]
                ) -> List[Optional[bytes]]:
    """The open both batch entry points share: the items at ``lanes``
    — each at least a tag long — checked under their Poly1305 keys in
    one MAC call, and only the authentic ones decrypted, in one kernel
    call.  Items with the same (ciphertext, aad) — a channel's members
    trying its one packet — share one MAC input, each still under its
    own key."""
    opened: List[Optional[bytes]] = [None] * len(sealed)
    if not lanes:
        return opened
    tag_len = ChaCha20Poly1305.TAG_LEN
    inputs: Dict[Tuple[bytes, bytes], bytes] = {}
    messages = []
    for i in lanes:
        item = sealed[i], aads[i]
        message = inputs.get(item)
        if message is None:
            message = inputs[item] = _mac_input(sealed[i][:-tag_len],
                                                aads[i])
        messages.append(message)
    tags = poly1305_mac_many(messages, poly_keys)
    authentic = [i for i, tag in zip(lanes, tags)
                 if hmac.compare_digest(sealed[i][-tag_len:], tag)]
    if authentic:
        plaintexts = chacha20_encrypt_many(
            [keys[i] for i in authentic], [nonces[i] for i in authentic],
            [sealed[i][:-tag_len] for i in authentic])
        for i, plaintext in zip(authentic, plaintexts):
            opened[i] = plaintext
    return opened


def aead_open_many(keys: Sequence[bytes], nonces: Sequence[bytes],
                   sealed: Sequence[bytes],
                   aads: Optional[Sequence[bytes]] = None
                   ) -> List[Optional[bytes]]:
    """Open B sealed items; ``None`` where authentication fails.

    One kernel call derives every item's Poly1305 key and one MAC call
    computes every tag; only the items whose tag verifies are
    decrypted (a second kernel call) — the shape of a downstream
    round, where every channel member tries every packet and at most
    one of them is addressed.  An item shorter than a tag is refused
    first: it costs no key block and no MAC lane."""
    aads = _one_aad_per_item(keys, nonces, sealed, aads)
    lanes = [i for i, data in enumerate(sealed)
             if len(data) >= ChaCha20Poly1305.TAG_LEN]
    if not lanes:
        return [None] * len(sealed)
    # The Poly1305 key of each (key, nonce): the first half of
    # keystream block 0 (RFC 8439 §2.6).
    blocks = chacha20_keystream_many([keys[i] for i in lanes],
                                     [nonces[i] for i in lanes], 1)
    return _open_lanes(keys, nonces, sealed, aads, lanes,
                       [block[:32] for block in blocks])


def aead_open_drawn(keys: Sequence[bytes], nonces: Sequence[bytes],
                    sealed: Sequence[bytes], poly_keys: Sequence[bytes],
                    aads: Optional[Sequence[bytes]] = None
                    ) -> List[Optional[bytes]]:
    """:func:`aead_open_many` over Poly1305 keys the caller drew — the
    first half of block 0 of each item's (key, nonce), one per item —
    so that its one kernel call is the authentic bodies'.  An item
    shorter than a tag still takes no MAC lane."""
    aads = _one_aad_per_item(keys, nonces, sealed, aads)
    if len(poly_keys) != len(keys):
        raise ValueError("need one Poly1305 key per item")
    lanes = [i for i, data in enumerate(sealed)
             if len(data) >= ChaCha20Poly1305.TAG_LEN]
    return _open_lanes(keys, nonces, sealed, aads, lanes,
                       [poly_keys[i] for i in lanes])


def seal_record(stream: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """One AEAD_CHACHA20_POLY1305 record (RFC 8439 §2.8),
    ciphertext||tag, over keystream the caller drew: block 0 of the
    record's (key, nonce), whose first half is the Poly1305 key (§2.6),
    then at least as many blocks as ``plaintext`` needs."""
    ciphertext = xor_bytes(plaintext, stream[64:64 + len(plaintext)])
    tag, = _aead_tags([stream[:32]], [ciphertext], [aad])
    return ciphertext + tag


def open_record(stream: bytes, data: bytes, aad: bytes = b"") -> bytes:
    """The plaintext of the record ``data`` (ciphertext||tag), over
    keystream drawn as for :func:`seal_record`; :class:`ValueError` if
    it is shorter than a tag or its tag is wrong, and then no byte of
    it is decrypted."""
    _refuse_short(data)
    tag_len = ChaCha20Poly1305.TAG_LEN
    ciphertext, tag = data[:-tag_len], data[-tag_len:]
    expected, = _aead_tags([stream[:32]], [ciphertext], [aad])
    if not hmac.compare_digest(tag, expected):
        raise ValueError("AEAD authentication failed")
    return xor_bytes(ciphertext, stream[64:64 + len(ciphertext)])


class ChaCha20Poly1305:
    """The AEAD_CHACHA20_POLY1305 construction (RFC 8439 §2.8).

    Provides ``encrypt(nonce, plaintext, aad)`` returning
    ciphertext||tag, and ``decrypt`` raising :class:`ValueError` on
    authentication failure.  Each is one kernel call for block 0 and
    the body — unlike a round of trial decryptions
    (:func:`aead_open_many`), one record is expected to be authentic —
    and :func:`seal_record` / :func:`open_record` over it; a caller
    with other streams to draw puts :meth:`keystream_request` into its
    own call instead.
    """

    TAG_LEN = 16

    def __init__(self, key: bytes):
        if len(key) != 32:
            raise ValueError("AEAD key must be 32 bytes")
        self._key = key

    def keystream_request(self, nonce: bytes,
                          body_length: int) -> Tuple[bytes, bytes, int]:
        """``(key, nonce, blocks)``: the stream a record of up to
        ``body_length`` bytes of ciphertext is sealed or opened over,
        from block 0."""
        return self._key, nonce, 1 + (max(body_length, 0) + 63) // 64

    def _stream(self, nonce: bytes, body_length: int) -> bytes:
        key, nonce, blocks = self.keystream_request(nonce, body_length)
        return _keystream_blocks([key], [nonce], [blocks], 0)

    def encrypt(self, nonce: bytes, plaintext: bytes,
                aad: bytes = b"") -> bytes:
        return seal_record(self._stream(nonce, len(plaintext)), plaintext,
                           aad)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        # A record shorter than a tag is refused before any cipher work.
        _refuse_short(data)
        return open_record(self._stream(nonce, len(data) - self.TAG_LEN),
                           data, aad)
