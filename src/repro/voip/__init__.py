"""VoIP substrate: codecs and call quality.

The paper's unit of traffic is "the payload rate of a single voice
call" using the G.711 codec at 8 KB/s (§4.1.3), and call quality is
assessed with the ITU-T G.107 E-Model as parameterized for VoIP by
Cole & Rosenbluth (§4.3.1).  This package provides:

* :mod:`repro.voip.codec` — codec models (G.711, G.729, plus an
  Opus-like wideband entry) with frame sizes and packet rates,
* :mod:`repro.voip.emodel` — the E-Model: R-factor from one-way delay
  and packet loss, MOS conversion, and the Fig. 7 quality bands,
* :mod:`repro.voip.fec` — the §3.6.4 error-correction model: closed-form
  effective loss, with the encoder / decoder as its Monte-Carlo oracle.
"""

from repro.voip.codec import Codec, G711, G729, OPUS_NB, CODECS
from repro.voip.emodel import (
    EModel,
    MOS_BANDS,
    mos_from_r,
    quality_band,
    r_factor,
)
from repro.voip.fec import (
    FecDecoder,
    FecEncoder,
    effective_loss,
    k_for_target_loss,
)
from repro.voip.jitterbuffer import (
    PlayoutBuffer,
    optimal_buffer_ms,
    quality_with_buffer,
)

__all__ = [
    "Codec",
    "G711",
    "G729",
    "OPUS_NB",
    "CODECS",
    "EModel",
    "MOS_BANDS",
    "mos_from_r",
    "quality_band",
    "r_factor",
    "FecDecoder",
    "FecEncoder",
    "effective_loss",
    "k_for_target_loss",
    "PlayoutBuffer",
    "optimal_buffer_ms",
    "quality_with_buffer",
]
