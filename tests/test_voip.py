"""Tests for the VoIP substrate: codecs and the E-Model."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.voip.codec import CODECS, G711, G729
from repro.voip.emodel import (
    EModel,
    delay_impairment,
    mos_from_r,
    quality_band,
    r_factor,
)


class TestCodec:
    def test_g711_is_the_papers_unit_rate(self):
        # §4.1.3: "the rate of a VoIP call using the G.711 codec (8KB/s)"
        assert G711.payload_rate_bps == 8000.0
        assert G711.bitrate_kbps == 64.0

    def test_g711_packet_rate(self):
        assert G711.packets_per_second == 50.0
        assert G711.payload_bytes == 160

    def test_g729_low_bitrate(self):
        assert G729.bitrate_kbps == 8.0

    def test_loss_impairment_zero_at_no_loss(self):
        assert G711.loss_impairment(0.0) == 0.0
        # G.729 has nonzero baseline impairment (γ1 = 11).
        assert G729.loss_impairment(0.0) == pytest.approx(11.0)

    def test_loss_impairment_monotone(self):
        values = [G711.loss_impairment(e) for e in (0.0, 0.01, 0.05, 0.2)]
        assert values == sorted(values)

    def test_loss_impairment_range_check(self):
        with pytest.raises(ValueError):
            G711.loss_impairment(-0.1)
        with pytest.raises(ValueError):
            G711.loss_impairment(1.1)

    def test_codec_registry(self):
        assert CODECS["G.711"] is G711
        assert set(CODECS) == {"G.711", "G.729a", "Opus-NB"}

    def test_cole_rosenbluth_g711_formula(self):
        # Ie = 30 ln(1 + 15 e): spot-check at 5% loss.
        assert G711.loss_impairment(0.05) == pytest.approx(
            30.0 * math.log(1.75), rel=1e-9)


class TestEModelFormulas:
    def test_delay_impairment_linear_below_knee(self):
        assert delay_impairment(100.0) == pytest.approx(2.4)

    def test_delay_impairment_knee_at_177ms(self):
        below = delay_impairment(177.0)
        above = delay_impairment(178.0)
        # Above the knee the slope jumps from 0.024 to 0.134.
        assert above - below > 0.1

    def test_delay_impairment_negative_rejected(self):
        with pytest.raises(ValueError):
            delay_impairment(-1.0)

    def test_r_factor_max_at_zero_delay_zero_loss(self):
        assert r_factor(0.0) == pytest.approx(94.2)

    def test_r_factor_clamped_to_zero(self):
        assert r_factor(2000.0, 0.5) == 0.0

    def test_r_factor_decreasing_in_delay(self):
        rs = [r_factor(d) for d in (0, 50, 100, 200, 400)]
        assert rs == sorted(rs, reverse=True)

    def test_r_factor_decreasing_in_loss(self):
        rs = [r_factor(100.0, e) for e in (0.0, 0.01, 0.05, 0.1)]
        assert rs == sorted(rs, reverse=True)

    def test_mos_range(self):
        assert mos_from_r(-5) == 1.0
        assert mos_from_r(120) == 4.5
        assert 4.3 < mos_from_r(93) < 4.5

    def test_mos_monotone(self):
        values = [mos_from_r(r) for r in range(0, 101, 10)]
        assert values == sorted(values)

    def test_quality_bands(self):
        assert quality_band(95) == "perfect"
        assert quality_band(85) == "high"
        assert quality_band(75) == "medium"
        assert quality_band(65) == "low"
        assert quality_band(30) == "poor"


class TestEModelEvaluator:
    def test_direct_transatlantic_call_is_high_or_better(self):
        # ~45 ms network OWD (EU-NA): the paper's Fig. 7 shows direct
        # calls between EU/NA/SA at high or perfect quality.
        quality = EModel().evaluate(45.0)
        assert quality.band in ("high", "perfect")

    def test_australia_call_is_medium(self):
        # AU↔EU client-to-client: ~165 ms backbone + 2×20 ms last mile
        # → medium band in Fig. 7 ("latencies between Australia and the
        # rest of the world were of medium quality").
        quality = EModel().evaluate(205.0)
        assert quality.band == "medium"

    def test_herd_extra_100ms_drops_at_most_one_band(self):
        # §4.3.3: Herd adds ~100 ms; quality drops ≤ 1 MOS level.
        bands = [b for _, b in reversed(
            [(t, b) for t, b in
             __import__("repro.voip.emodel", fromlist=["MOS_BANDS"])
             .MOS_BANDS])]
        direct = EModel().evaluate(45.0)
        herd = EModel().evaluate(145.0)
        assert abs(bands.index(direct.band) - bands.index(herd.band)) <= 1

    def test_loss_costs_at_most_one_band_at_few_percent(self):
        # §4.3.3: "packet loss never exceeded a few percents which
        # would result in the loss of at most one MOS level".
        clean = EModel().evaluate(45.0, 0.0)
        lossy = EModel().evaluate(45.0, 0.02)
        order = ["poor", "low", "medium", "high", "perfect"]
        assert order.index(clean.band) - order.index(lossy.band) <= 1

    def test_mouth_to_ear_adds_endpoint_delays(self):
        model = EModel()
        assert model.mouth_to_ear_ms(100.0) == pytest.approx(160.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EModel().evaluate(-1.0)

    def test_custom_codec(self):
        q711 = EModel(G711).evaluate(50.0, 0.02)
        q729 = EModel(G729).evaluate(50.0, 0.02)
        assert q729.r < q711.r  # G.729 strictly worse at equal loss


@given(delay=st.floats(min_value=0, max_value=1000),
       loss=st.floats(min_value=0, max_value=1))
def test_r_factor_always_in_range(delay, loss):
    assert 0.0 <= r_factor(delay, loss) <= 100.0


@given(r=st.floats(min_value=0, max_value=100))
def test_mos_always_in_range(r):
    assert 1.0 <= mos_from_r(r) <= 4.5


@given(delay=st.floats(min_value=0, max_value=500),
       loss=st.floats(min_value=0, max_value=0.5))
def test_band_consistent_with_r(delay, loss):
    codec = G711
    r = r_factor(delay, loss, codec)
    band = quality_band(r)
    thresholds = {"perfect": 90, "high": 80, "medium": 70, "low": 60,
                  "poor": 0}
    assert r >= thresholds[band]
