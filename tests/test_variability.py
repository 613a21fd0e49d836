"""Noise and dispersion tests, including the distribution checks."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from ftjsim.device import (DeviceParams, Direction, UpdateScheme, pulse_response,
                           step_weight, truncated_normal)
from ftjsim.variability import SIGMA_D2D_MAX, VariabilityParams, derive_seed, sample_endpoint_arrays

PARAMS = DeviceParams()
VP = VariabilityParams()
POT = Direction.POTENTIATE


class TestPulseResponse:
    def test_zero_sigma_equals_noiseless_step(self):
        w = np.random.default_rng(1).uniform(0, 1, 200)
        for amp, direction in ((PARAMS.v_set_full, POT), (PARAMS.v_reset_full, Direction.DEPRESS)):
            nu = PARAMS.nu_for(direction)
            np.testing.assert_array_equal(pulse_response(w, amp, PARAMS, None),
                                          step_weight(w, nu, direction, PARAMS.n_levels))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert truncated_normal(rng, 0.0, 200).tolist() == [0.0] * 200
        assert rng.bit_generator.state == before  # at sigma 0 nothing is drawn
        nu = PARAMS.nu_for(POT)
        assert pulse_response(0.3, PARAMS.v_set_full, PARAMS) == step_weight(
            0.3, nu, POT, PARAMS.n_levels)

    def test_empirical_std_in_window(self):
        rng = np.random.default_rng(12345)
        w = np.full(10_000, 0.5)
        dw = pulse_response(w, PARAMS.v_set_full, PARAMS) - w
        eps = truncated_normal(rng, VP.sigma_c2c, w.size)
        noisy = pulse_response(w, PARAMS.v_set_full, PARAMS, eps)
        sigma = np.std((noisy - w) / dw - 1.0)
        assert 0.095 <= sigma <= 0.105

    def test_same_seed_same_stream(self):
        def stream(rng, n):
            return [pulse_response(0.4, PARAMS.v_set_full, PARAMS,
                                   truncated_normal(rng, VP.sigma_c2c, 1)[0])
                    for _ in range(n)]
        # Fresh generators per draw: every element reproduces.
        assert stream(np.random.default_rng(99), 5) == stream(np.random.default_rng(99), 5)
        assert stream(np.random.default_rng(7), 100) == stream(np.random.default_rng(7), 100)

    @pytest.mark.parametrize("size", [1, 7, 1000])
    def test_truncated_normal_equals_whole_array_resampling(self, size):
        def reference(rng, sigma, n):
            """Reference copy of the earlier loop, which re-tested the whole array per round."""
            out = rng.normal(0.0, sigma, n)
            bad = np.abs(out) > 3 * sigma
            while bad.any():
                out[bad] = rng.normal(0.0, sigma, int(bad.sum()))
                bad = np.abs(out) > 3 * sigma
            return out
        for seed in range(30):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(truncated_normal(a, 0.2, size), reference(b, 0.2, size))
            assert a.bit_generator.state == b.bit_generator.state

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(4)
        for w0, amp, bound in ((0.0, PARAMS.v_set_full, 0.0), (1.0, PARAMS.v_reset_full, 1.0)):
            # sigma 1: jitter below -1 reverses the step past the endpoint.
            out = pulse_response(np.full(1000, w0), amp, PARAMS,
                                 truncated_normal(rng, 1.0, 1000))
            assert np.all((out >= 0.0) & (out <= 1.0))
            assert np.any(out == bound)

    def test_subthreshold_returns_input(self):
        w = np.linspace(0, 1, 11)
        eps = truncated_normal(np.random.default_rng(5), VP.sigma_c2c, w.size)
        for amp in (-1.2999, 1.2, 0.0):
            assert pulse_response(w, amp, PARAMS, eps) is w
            assert pulse_response(0.37, amp, PARAMS, eps[0]) == 0.37

    @pytest.mark.parametrize("scheme", [UpdateScheme.AMPLITUDE_RAMP, UpdateScheme.WIDTH_RAMP])
    @pytest.mark.parametrize("amp", [PARAMS.v_set_full, PARAMS.v_reset_full])
    def test_array_equals_scalar_calls(self, scheme, amp):
        params = replace(PARAMS, scheme=scheme)
        w = np.concatenate([np.linspace(0, 1, 51), np.random.default_rng(6).uniform(0, 1, 200)])
        out = pulse_response(w, amp, params)
        expected = np.array([pulse_response(float(x), amp, params) for x in w])
        np.testing.assert_array_equal(out, expected)

    def test_truncation_bound(self):
        rng = np.random.default_rng(1)
        eps = truncated_normal(rng, 0.1, size=50_000)
        assert np.max(np.abs(eps)) <= 3 * 0.1

    def test_truncated_law_ks(self):
        rng = np.random.default_rng(2)
        eps = truncated_normal(rng, 0.1, size=10_000)
        _, p_value = stats.kstest(eps, stats.truncnorm(-3, 3, scale=0.1).cdf)
        assert p_value > 0.01


class TestSamplePopulation:
    def test_log_conductance_std_window(self):
        rng = np.random.default_rng(12345)
        g_hrs, g_lrs = sample_endpoint_arrays(10_000, PARAMS, VP, rng)
        assert 0.097 <= np.std(np.log(g_hrs)) <= 0.103
        assert 0.097 <= np.std(np.log(g_lrs)) <= 0.103

    def test_zero_sigma_identical_devices(self):
        vp0 = VariabilityParams(sigma_d2d_hrs=0.0, sigma_d2d_lrs=0.0)
        g_hrs, g_lrs = sample_endpoint_arrays(100, PARAMS, vp0, np.random.default_rng(0))
        assert np.all(g_hrs == PARAMS.g_hrs) and np.all(g_lrs == PARAMS.g_lrs)

    def test_ordering_always_valid(self):
        g_hrs, g_lrs = sample_endpoint_arrays(10_000, PARAMS, VP, np.random.default_rng(4))
        assert np.all(g_hrs < g_lrs)

    def test_reorder_fraction_negligible_at_defaults(self):
        # ln(on_off) = 1.95 is nearly 14 combined sigmas away: no swap expected.
        rng = np.random.default_rng(8)
        g_hrs, g_lrs = sample_endpoint_arrays(10_000, PARAMS, VP, rng)
        log_gap = np.log(g_lrs) - np.log(g_hrs)
        assert np.all(log_gap > 0)
        assert math.log(PARAMS.conduction.on_off) > 6 * math.hypot(0.1, 0.1)

    def test_schedule_independence(self):
        # Device i's endpoints depend on the parent seed and i only.
        full = sample_endpoint_arrays(50, PARAMS, VP, np.random.default_rng(123))
        head = sample_endpoint_arrays(20, PARAMS, VP, np.random.default_rng(123))
        for a, b in zip(head, full):
            np.testing.assert_array_equal(a, b[:20])

    def test_one_device_major_draw(self):
        # Row i of one C-order (n, 2) standard-normal draw is device i: column 0
        # its HRS normal, column 1 its LRS normal.
        g_hrs, g_lrs = sample_endpoint_arrays(1000, PARAMS, VP, np.random.default_rng(77))
        z = np.random.default_rng(77).standard_normal((1000, 2))
        np.testing.assert_array_equal(g_hrs, PARAMS.g_hrs * np.exp(VP.sigma_d2d_hrs * z[:, 0]))
        np.testing.assert_array_equal(g_lrs, PARAMS.g_lrs * np.exp(VP.sigma_d2d_lrs * z[:, 1]))

    def test_prefix_stable_with_swaps(self):
        # At 1.5 per endpoint some pairs invert and are swapped; the first
        # devices still do not depend on how many are sampled.
        wide = VariabilityParams(sigma_d2d_hrs=1.5, sigma_d2d_lrs=1.5)
        full = sample_endpoint_arrays(50, PARAMS, wide, np.random.default_rng(31))
        head = sample_endpoint_arrays(20, PARAMS, wide, np.random.default_rng(31))
        for a, b in zip(head, full):
            np.testing.assert_array_equal(a, b[:20])
        z = np.random.default_rng(31).standard_normal((20, 2))
        swapped = head[0] != PARAMS.g_hrs * np.exp(1.5 * z[:, 0])
        assert swapped.any()
        np.testing.assert_array_equal(head[0][swapped], PARAMS.g_lrs * np.exp(1.5 * z[swapped, 1]))
        assert np.all(full[0] < full[1])

    @pytest.mark.parametrize("name", ["sigma_d2d_hrs", "sigma_d2d_lrs"])
    def test_spread_bounded_so_endpoints_stay_finite(self, name):
        for bad in (np.nextafter(SIGMA_D2D_MAX, math.inf), 1e300, math.inf, -0.1, math.nan):
            with pytest.raises(ValueError, match=name):
                VariabilityParams(**{name: bad})
        widest = VariabilityParams(**{name: SIGMA_D2D_MAX})
        g_hrs, g_lrs = sample_endpoint_arrays(10_000, PARAMS, widest, np.random.default_rng(3))
        assert np.isfinite(g_lrs).all() and (g_hrs > 0).all() and (g_hrs < g_lrs).all()

    def test_determinism(self):
        a = sample_endpoint_arrays(64, PARAMS, VP, np.random.default_rng(55))
        b = sample_endpoint_arrays(64, PARAMS, VP, np.random.default_rng(55))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_lognormal_ks(self):
        rng = np.random.default_rng(9)
        g_hrs, _ = sample_endpoint_arrays(10_000, PARAMS, VP, rng)
        z = np.log(g_hrs / PARAMS.g_hrs)
        _, p_value = stats.kstest(z, stats.norm(loc=0.0, scale=0.1).cdf)
        assert p_value > 0.01


class TestSeeds:
    def test_derive_seed_stable_and_distinct(self):
        s0 = derive_seed(12345, 0)
        assert s0 == derive_seed(12345, 0)
        assert s0 != derive_seed(12345, 1)
        assert s0 != derive_seed(12346, 0)
        assert 0 <= s0 < 2**64

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            VariabilityParams(sigma_c2c=-0.1)
