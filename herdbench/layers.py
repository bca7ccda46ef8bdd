"""The one table of span targets and the per-layer metrics they feed.

Layers are this repo's modules.  :data:`TARGETS` maps the dotted name
of each public entry point to the *span name* its calls are booked
under; :data:`PER_LAYER` lists every per-layer metric the traced pass
reports and where its value comes from.  ``BENCHMARK.json`` carries
the same metric list (``selftest`` checks the two agree).

Re-bindings are found, not listed: :meth:`herdbench.tracer.Tracer
.install` patches a function in every loaded ``repro`` module whose
namespace holds the very same object, and reports where it did in
``trace.bindings`` — a hand-kept list of ``from x import f`` sites
would silently lose spans the day another module imports the name.

To trace a new entry point, add one :class:`Target` row; to report a
new number, add one :data:`PER_LAYER` row (and the same name to
``BENCHMARK.json``).  Both are a change of their own (README.md).
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Tuple


class Target(NamedTuple):
    """One traced entry point."""

    span: str
    dotted: str
    #: ``count(counters, args, kwargs, result)`` — work counted where
    #: it happens (bytes, blocks, useful outcomes).
    count: Optional[Callable] = None


def _bump(counters, key: str, n: int = 1) -> None:
    counters[key] = counters.get(key, 0) + n


def _keystream_work(counters, args, kwargs, result) -> None:
    # Every chacha20_encrypt goes through chacha20_keystream, so bytes
    # and 64-byte blocks are counted here only (no double count).
    length = len(result)
    _bump(counters, "crypto.chacha20.bytes", length)
    _bump(counters, "crypto.chacha20.blocks", (length + 63) // 64)


def _chaff_predicted(counters, args, kwargs, result) -> None:
    _bump(counters, "core.network_coding.chaff_predicted")


def _payload_decoded(counters, args, kwargs, result) -> None:
    if result[0] is not None:
        _bump(counters, "core.network_coding.payload_decoded")


def _frame_encoded(counters, args, kwargs, result) -> None:
    _bump(counters, "core.wire.bytes", len(result))


def _frame_decoded(counters, args, kwargs, result) -> None:
    _bump(counters, "core.wire.bytes", len(args[0]))


def _group(span: str, prefix: str, names: str,
           count: Optional[Callable] = None) -> List[Target]:
    return [Target(span, f"{prefix}.{name}", count)
            for name in names.split()]


_OBS = "repro.obs.instrument"

TARGETS: Tuple[Target, ...] = tuple(
    # -- crypto ---------------------------------------------------------------
    [Target("crypto.chacha20",
            "repro.crypto.chacha20.chacha20_encrypt"),
     Target("crypto.chacha20",
            "repro.crypto.chacha20.chacha20_keystream",
            _keystream_work)]
    + _group("crypto.aead", "repro.crypto.chacha20.ChaCha20Poly1305",
             "encrypt decrypt")
    + _group("crypto.x25519", "repro.crypto.x25519",
             "x25519 x25519_base")
    + [Target("crypto.ed25519.sign",
              "repro.crypto.ed25519.SigningKey.sign"),
       Target("crypto.ed25519.verify",
              "repro.crypto.ed25519.VerifyKey.verify"),
       # Not in the issue's table: every read of this property
       # derives the public key with one scalar multiplication
       # (~4 ms); issuing a certificate reads it twice, so without
       # the span a fifth of a join is booked to core.directory.
       Target("crypto.ed25519.pubkey",
              "repro.crypto.ed25519.SigningKey.verify_key")]
    + _group("crypto.kdf", "repro.crypto.kdf",
             "hkdf_sha256 derive_keys")
    + _group("crypto.onion", "repro.crypto.onion",
             "wrap_onion unwrap_layer wrap_backward unwrap_backward")
    # -- core -----------------------------------------------------------------
    + [Target("core.client",
              "repro.core.client.HerdClient.upstream_packet"),
       # Client construction generates the identity and short-term
       # keys; without it a sixth of a join is unattributed.
       Target("core.client", "repro.core.client.HerdClient.__init__")]
    + _group("core.channel", "repro.core.channel",
             "encode_manifest decode_manifest")
    + _group("core.network_coding", "repro.core.network_coding",
             "make_chaff_packet make_payload_packet")
    + [Target("core.network_coding",
              "repro.core.network_coding.decode_round",
              _payload_decoded),
       Target("core.network_coding",
              "repro.core.network_coding.ChaffPredictor.predict",
              _chaff_predicted)]
    + _group("core.superpeer", "repro.core.superpeer.SuperPeer",
             "process_round combine_upstream broadcast_downstream")
    + _group("core.callmanager",
             "repro.core.callmanager.MixCallManager",
             "process_round process_upstream downstream_round")
    + [Target("core.callmanager", "repro.core.callmanager"
              ".ClientCallAgent.process_downstream"),
       Target("core.join", "repro.core.join.join_zone")]
    + _group("core.directory", "repro.core.directory.ZoneDirectory",
             "enroll publish_descriptor pick_mix")
    + [Target("core.allocation",
              "repro.core.mix.Mix.attach_client_to_channels"),
       Target("core.circuit",
              "repro.core.circuit.CircuitBuilder.build"),
       Target("core.circuit", "repro.core.mix.Mix.process_create")]
    + _group("core.rendezvous",
             "repro.core.rendezvous.RendezvousService",
             "build_standing_circuit register_callee establish_call")
    + [Target("core.rendezvous",
              "repro.core.rendezvous.CallSession.send_voice")]
    + _group("core.mix", "repro.core.mix.Mix",
             "forward_cell backward_cell inject_backward")
    + [Target("core.wire", "repro.core.wire.encode_cell_frame",
              _frame_encoded),
       Target("core.wire", "repro.core.wire.decode_cell_frame",
              _frame_decoded)]
    # -- wire planes (the emit loop is spanned by the workloads) ---------------
    + [Target("netsim.fabric.flush",
              "repro.simulation.roundsync.WireFabric.flush_round"),
       Target("netsim.fabric.finalize",
              "repro.simulation.roundsync.WireFabric.finalize"),
       Target("net.fabric.flush",
              "repro.net.transport.UdpFabric.flush_round"),
       Target("net.fabric.finalize",
              "repro.net.transport.UdpFabric.finalize")]
    + _group("netsim.taps", "repro.netsim.observer.LinkObserver",
             "record record_batch record_runs")
    + _group("netsim.taps", "repro.netsim.taps.TallyTap",
             "record record_batch record_runs record_round_runs")
    # -- observability ----------------------------------------------------------
    + _group("obs", f"{_OBS}.LiveZoneHook",
             "call_started client_event call_ended round_finished")
    + _group("obs", f"{_OBS}.CallManagerHook",
             "signaled granted blocked ended downstream_round")
    + _group("obs", f"{_OBS}.SuperPeerHook",
             "upstream_round downstream_broadcast")
    + [Target("obs", f"{_OBS}.Herdscope.snapshot"),
       Target("simulation.live",
              "repro.simulation.live.LiveZone.step")])


class LayerMetric(NamedTuple):
    """One per-layer metric of the traced pass.

    ``source`` says how the harness fills it in:

    * ``("busy", span)`` / ``("calls", span)`` — self seconds / span
      count of ``span`` inside timed operations, per operation;
    * ``("setup_busy", span)`` — self seconds of ``span`` inside the
      traced set-up (whole set-up, not per operation);
    * ``("finish_busy", span)`` — the same inside the end-of-run
      phase (``finalize``);
    * ``("counter", key)`` — a count made at a span boundary, per
      operation;
    * ``("total", key)`` — a whole-run count or time the workload
      reads off the program (``net_report()``, the call manager);
    * ``("derived", key)`` — computed by the harness from the above.
    """

    name: str
    unit: str
    better: str
    source: Tuple[str, str]


def _busy_calls(span: str) -> List[LayerMetric]:
    return [LayerMetric(f"{span}.busy_s", "s/op", "lower",
                        ("busy", span)),
            LayerMetric(f"{span}.calls", "1/op", "lower",
                        ("calls", span))]


def _setup(span: str) -> LayerMetric:
    return LayerMetric(f"{span}.setup_busy_s", "s", "lower",
                       ("setup_busy", span))


def _total(name: str, unit: str = "count",
           better: str = "lower") -> LayerMetric:
    return LayerMetric(name, unit, better, ("total", name))


PER_LAYER: Tuple[LayerMetric, ...] = tuple(
    _busy_calls("crypto.chacha20")
    + [LayerMetric("crypto.chacha20.bytes", "B/op", "lower",
                   ("counter", "crypto.chacha20.bytes")),
       LayerMetric("crypto.chacha20.us_per_block", "us", "lower",
                   ("derived", "crypto.chacha20.us_per_block"))]
    + _busy_calls("crypto.aead")
    + _busy_calls("crypto.x25519") + [_setup("crypto.x25519")]
    + _busy_calls("crypto.ed25519.sign")
    + [_setup("crypto.ed25519.sign")]
    + _busy_calls("crypto.ed25519.verify")
    + [_setup("crypto.ed25519.verify")]
    + _busy_calls("crypto.ed25519.pubkey")
    + [_setup("crypto.ed25519.pubkey")]
    + _busy_calls("crypto.kdf") + [_setup("crypto.kdf")]
    + _busy_calls("crypto.onion")
    + _busy_calls("core.client")
    + _busy_calls("core.channel")
    + _busy_calls("core.network_coding")
    + [LayerMetric("core.network_coding.chaff_predicted", "1/op",
                   "lower", ("counter",
                             "core.network_coding.chaff_predicted")),
       LayerMetric("core.network_coding.payload_decoded", "1/op",
                   "higher", ("counter",
                              "core.network_coding.payload_decoded"))]
    + _busy_calls("core.superpeer")
    + _busy_calls("core.callmanager")
    + [_total("core.callmanager.grants", better="higher"),
       _total("core.callmanager.blocked")]
    + _busy_calls("core.join") + [_setup("core.join")]
    + [LayerMetric("core.directory.busy_s", "s/op", "lower",
                   ("busy", "core.directory")),
       LayerMetric("core.allocation.busy_s", "s/op", "lower",
                   ("busy", "core.allocation"))]
    + _busy_calls("core.circuit") + [_setup("core.circuit")]
    + _busy_calls("core.rendezvous") + [_setup("core.rendezvous")]
    + _busy_calls("core.mix")
    + _busy_calls("core.wire")
    + [LayerMetric("core.wire.bytes", "B/op", "lower",
                   ("counter", "core.wire.bytes")),
       LayerMetric("netsim.fabric.emit_s", "s/op", "lower",
                   ("busy", "netsim.fabric.emit")),
       LayerMetric("netsim.fabric.flush_s", "s/op", "lower",
                   ("busy", "netsim.fabric.flush")),
       LayerMetric("netsim.fabric.finalize_s", "s", "lower",
                   ("finish_busy", "netsim.fabric.finalize")),
       _total("netsim.fabric.cells", better="higher"),
       LayerMetric("netsim.fabric.ns_per_cell", "ns", "lower",
                   ("derived", "netsim.fabric.ns_per_cell"))]
    + _busy_calls("netsim.taps")
    + [_total("netsim.taps.cells_observed", better="higher"),
       LayerMetric("net.fabric.emit_s", "s/op", "lower",
                   ("busy", "net.fabric.emit")),
       LayerMetric("net.fabric.flush_s", "s/op", "lower",
                   ("busy", "net.fabric.flush")),
       LayerMetric("net.fabric.finalize_s", "s", "lower",
                   ("finish_busy", "net.fabric.finalize")),
       _total("net.fabric.datagrams_sent", better="higher"),
       _total("net.fabric.datagrams_received", better="higher"),
       _total("net.fabric.retransmits"),
       _total("net.fabric.duplicates"),
       _total("net.fabric.malformed"),
       _total("net.fabric.barrier_attempts"),
       _total("net.fabric.send_wall_s", unit="s"),
       _total("net.fabric.bootstrap_s", unit="s")]
    + _busy_calls("obs")
    + [LayerMetric("simulation.live.self_s", "s/op", "lower",
                   ("busy", "simulation.live")),
       LayerMetric("trace.unattributed_share", "share", "lower",
                   ("derived", "trace.unattributed_share")),
       LayerMetric("trace.overhead_ratio", "ratio", "lower",
                   ("derived", "trace.overhead_ratio")),
       LayerMetric("trace.missing", "count", "lower",
                   ("derived", "trace.missing"))])


#: Spans the workloads record themselves (their own emit loop, once
#: per round), beside the targets above.
WORKLOAD_SPANS = ("netsim.fabric.emit", "net.fabric.emit")
