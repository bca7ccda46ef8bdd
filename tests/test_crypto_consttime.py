"""HL003 regression tests: every MAC/confirmation verification in the
crypto and wire layers is constant-time, and tampered tags are
rejected.

The audit for this gate found no ``==`` digest comparisons (onion
cells, obfuscation tags, and hop confirmations already used
``hmac.compare_digest``; the AEAD tag check joined them when its
hand-rolled comparison loop went); these tests pin that state so a
regression fails both at runtime (tampering accepted) and statically
(HL003).
"""

from pathlib import Path

import pytest

from repro.core.circuit import ClientHopHandshake, mix_process_create
from repro.core.client import seal_upstream
from repro.core.obfuscation import Bridge, ObfuscatedChannel
from repro.core.signaling import (
    KIND_VOIP,
    TrialKeys,
    make_downstream_packet,
    open_downstream_packet,
    open_downstream_packets,
)
from repro.crypto.chacha20 import ChaCha20Poly1305, aead_open_many
from repro.crypto.keys import SessionKey
from repro.crypto.onion import decode_cell, encode_cell
from repro.lint import LintConfig, run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_hl003_clean_in_crypto_and_wire_layers():
    paths = [
        REPO_ROOT / "src" / "repro" / "crypto",
        REPO_ROOT / "src" / "repro" / "core" / "wire.py",
        REPO_ROOT / "src" / "repro" / "core" / "circuit.py",
        REPO_ROOT / "src" / "repro" / "core" / "obfuscation.py",
        REPO_ROOT / "src" / "repro" / "core" / "signaling.py",
    ]
    result = run_lint([str(p) for p in paths],
                      LintConfig(select=("HL003",)))
    assert result.findings == []


def test_tampered_cell_mac_rejected_bytewise():
    """Flipping any single byte of the MAC must reject the cell — a
    prefix-sensitive (variable-time ==) implementation typically breaks
    this only for early bytes."""
    mac_key = b"\x11" * 32
    cell = encode_cell(b"voice frame", mac_key)
    assert decode_cell(cell, mac_key) == b"voice frame"
    for i in range(1, 9):  # the MAC is the cell's trailing bytes
        tampered = bytearray(cell)
        tampered[-i] ^= 0x01
        with pytest.raises(ValueError, match="MAC invalid"):
            decode_cell(bytes(tampered), mac_key)


def test_tampered_aead_tag_rejected_bytewise():
    """Flipping any single byte of the Poly1305 tag must reject the
    packet — on the single decrypt, on the batched one, and on both
    forms of the downstream trial decryption built on them."""
    key = SessionKey(b"\x33" * 32)
    nonce = b"\x07" * 12
    aead = ChaCha20Poly1305(key.key)
    sealed = aead.encrypt(nonce, b"voice frame", aad=b"hdr")
    packet = make_downstream_packet(key, 2, 9, KIND_VOIP, b"cell")
    assert aead.decrypt(nonce, sealed, aad=b"hdr") == b"voice frame"
    assert open_downstream_packet(key, 2, 9, packet) == (KIND_VOIP,
                                                         b"cell")
    tampered_sealed, tampered_packets = [], []
    for i in range(1, ChaCha20Poly1305.TAG_LEN + 1):
        for bit in (0x01, 0x80):
            bad = bytearray(sealed)
            bad[-i] ^= bit
            with pytest.raises(ValueError, match="authentication failed"):
                aead.decrypt(nonce, bytes(bad), aad=b"hdr")
            tampered_sealed.append(bytes(bad))
            bad = bytearray(packet)
            bad[-i] ^= bit
            assert open_downstream_packet(key, 2, 9, bytes(bad)) is None
            tampered_packets.append(bytes(bad))
    # Batched: the untampered item, in the middle, is the only one
    # that opens.
    n = len(tampered_sealed)
    batch = tampered_sealed[:n // 2] + [sealed] + tampered_sealed[n // 2:]
    opened = aead_open_many([key.key] * (n + 1), [nonce] * (n + 1),
                            batch, [b"hdr"] * (n + 1))
    assert opened == [None] * (n // 2) + [b"voice frame"] \
        + [None] * (n - n // 2)
    trials = [(key, 2, 9, p)
              for p in tampered_packets[:n // 2] + [packet]
              + tampered_packets[n // 2:]]
    members = (key,) * len(trials)
    trial_keys = TrialKeys(9, [(2, members)])
    _, trial_keys.blocks = seal_upstream([], trial_keys.requests)
    assert open_downstream_packets(
        trials, trial_keys.poly_keys(2, members)) == \
        [None] * (n // 2) + [(KIND_VOIP, b"cell")] + [None] * (n - n // 2)


def test_tampered_obfuscation_tag_rejected():
    bridge = Bridge(bridge_id="b-1", address="198.51.100.7",
                    secret=b"\x22" * 32)
    sender = ObfuscatedChannel(bridge)
    receiver = ObfuscatedChannel(bridge)
    datagram = sender.wrap(b"rtp payload")
    assert receiver.unwrap(datagram) == b"rtp payload"
    tampered = bytearray(datagram)
    tampered[-1] ^= 0x80
    with pytest.raises(ValueError, match="failed authentication"):
        receiver.unwrap(bytes(tampered))


def test_tampered_hop_confirmation_rejected():
    import random
    rng = random.Random(1234)
    handshake = ClientHopHandshake(circuit_id=5, rng=rng)
    reply, _mix_keys = mix_process_create(handshake.request(), rng=rng)
    bad = type(reply)(reply.circuit_id, reply.mix_ephemeral,
                     bytes(b ^ 0x01 for b in reply.confirmation))
    with pytest.raises(ValueError, match="confirmation failed"):
        handshake.finish(bad)
    # the untampered reply still completes the handshake
    good_handshake = ClientHopHandshake(circuit_id=6, rng=rng)
    good_reply, mix_keys = mix_process_create(good_handshake.request(),
                                              rng=rng)
    assert good_handshake.finish(good_reply) == mix_keys
