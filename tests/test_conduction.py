"""Conduction model and fitter tests.

Expected values marked "oracle:" were computed independently from the closed
formulas (see the inline expressions), not read back from the implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftjsim import conduction as cnd
from ftjsim.conduction import (
    K_B_EV,
    ConductionParams,
    SweepRecord,
    activation_factor,
    current,
    differential_conductance,
    fit_ohmic,
    fit_poole_frenkel,
    nonlinearity_ratio,
    shape_factor,
    voltage_at_current,
)
from ftjsim.errors import ConvergenceError, FitError

from conftest import sweep_from_csv, sweep_to_csv, synthetic_pf_sweep

P = ConductionParams()


class TestShapeFactor:
    def test_below_onset_is_one(self):
        assert shape_factor(0.1, 300.0, P) == 1.0

    def test_at_onset_is_one(self):
        for t in (250.0, 300.0, 360.0):
            assert shape_factor(P.v_pf_min, t, P) == 1.0

    def test_field_enhanced_value(self):
        # oracle: exp(0.4*(sqrt(0.3)-sqrt(0.2))/(k*300))
        expected = math.exp(0.4 * (math.sqrt(0.3) - math.sqrt(0.2)) / (K_B_EV * 300.0))
        assert shape_factor(0.3, 300.0, P) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(4.74, abs=5e-3)

    def test_frozen_above_clamp(self):
        h_clamp = shape_factor(P.v_clamp, 300.0, P)
        assert shape_factor(2.4, 300.0, P) == h_clamp
        assert shape_factor(10.0, 300.0, P) == h_clamp

    @pytest.mark.parametrize("v_edge", [0.2, 1.0])
    def test_continuity_at_edges(self, v_edge):
        lo = shape_factor(v_edge - 1e-9, 300.0, P)
        hi = shape_factor(v_edge + 1e-9, 300.0, P)
        assert hi == pytest.approx(lo, rel=1e-6)

    def test_non_decreasing(self):
        grid = np.linspace(0.0, 2.0, 400)
        h = shape_factor(grid, 300.0, P)
        assert np.all(np.diff(h) >= 0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            shape_factor(float("nan"), 300.0, P)
        with pytest.raises(ValueError):
            shape_factor(-0.1, 300.0, P)
        with pytest.raises(ValueError):
            shape_factor(0.1, 0.0, P)


def _two_branch_shape_factor(v, t, p):
    """Reference: the field factor written as an Ohmic and a field-enhanced branch."""
    v = np.asarray(v, dtype=float)
    kt = K_B_EV * t
    field = np.exp(p.beta * (np.sqrt(np.minimum(v, p.v_clamp)) - math.sqrt(p.v_pf_min)) / kt)
    return np.where(v <= p.v_pf_min, 1.0, field)


def _two_branch_current(v, g, t, p):
    v = np.asarray(v, dtype=float)
    a = math.exp(-p.e_a * (1.0 / (K_B_EV * t) - 1.0 / (K_B_EV * p.t_ref)))
    return np.asarray(g, dtype=float) * a * v * _two_branch_shape_factor(np.abs(v), t, p)


LAW_RECORDS = {
    "default": P,
    "beta0": ConductionParams(beta=0.0),
    "edges_0.1_0.7": ConductionParams(v_pf_min=0.1, v_clamp=0.7),
    "edges_0.25_1.5": ConductionParams(v_pf_min=0.25, v_clamp=1.5),
}


class TestBranchFreeLaw:
    """The clipped one-expression law equals the two-branch one bit for bit."""

    @pytest.mark.parametrize("record", sorted(LAW_RECORDS))
    @pytest.mark.parametrize("t", [250.0, 300.0, 350.0])
    def test_matches_two_branch_reference(self, record, t):
        p = LAW_RECORDS[record]
        edges = [0.0, p.v_pf_min, p.v_clamp, 3.0]
        v = np.unique(edges + [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
                      + list(np.linspace(0.0, 3.0, 301)))
        v = np.concatenate([-v, v])
        g = np.linspace(1e-10, 1e-7, v.size)
        h_ref = _two_branch_shape_factor(np.abs(v), t, p)
        i_ref = _two_branch_current(v, g, t, p)
        assert np.array_equal(shape_factor(np.abs(v), t, p), h_ref)
        assert np.array_equal(current(v, g, t, p), i_ref)
        # Scalar calls take the same path as arrays and give the same bits.
        assert [shape_factor(abs(x), t, p) for x in v.tolist()] == h_ref.tolist()
        assert [current(x, y, t, p) for x, y in zip(v.tolist(), g.tolist())] == i_ref.tolist()

    @pytest.mark.parametrize("record", sorted(LAW_RECORDS))
    def test_exactly_one_up_to_onset(self, record):
        p = LAW_RECORDS[record]
        for t in (250.0, 300.0, 350.0):
            assert (shape_factor(np.linspace(0.0, p.v_pf_min, 1000), t, p) == 1.0).all()


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf, 1.0],
                         ids=["zero", "negative", "nan", "inf", "one_kelvin"])
@pytest.mark.parametrize("call", [
    lambda t: current(0.5, 1e-8, t, P),
    lambda t: shape_factor(0.5, t, P),
    lambda t: activation_factor(t, P),
    lambda t: voltage_at_current(1e-9, 1e-8, t, P),
    lambda t: differential_conductance(0.5, 1e-8, t, P),
], ids=["current", "shape_factor", "activation_factor", "voltage_at_current",
        "differential_conductance"])
def test_rejects_non_physical_temperature(call, t):
    with pytest.raises(ValueError, match="temperature must be finite and > 0"):
        call(t)


class TestCurrent:
    def test_lrs_read_current(self):
        # R_on = 100 Mohm read at 100 mV.
        assert current(0.1, 1e-8, 300.0, P) == pytest.approx(1.0e-9, rel=1e-12)

    def test_hrs_read_current(self):
        # oracle: LRS value divided by the on/off ratio of 7
        assert current(0.1, 1e-8 / 7, 300.0, P) == pytest.approx(1.0e-9 / 7, rel=1e-12)
        assert current(0.1, 1e-8 / 7, 300.0, P) == pytest.approx(1.43e-10, rel=5e-3)

    def test_thermal_activation(self):
        # oracle: exp(-0.15*(1/(k*330) - 1/(k*300))) = 1.6946531632502189
        expected = 1e-9 * math.exp(-0.15 * (1 / (K_B_EV * 330) - 1 / (K_B_EV * 300)))
        assert current(0.1, 1e-8, 330.0, P) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.69e-9, rel=5e-3)

    def test_exactly_linear_at_reference(self):
        for v in (0.013, 0.1, 0.2, -0.15):
            assert current(v, 3.7e-9, P.t_ref, P) == 3.7e-9 * v

    @given(
        v=st.floats(0.001, 2.0),
        g=st.floats(1e-12, 1e-6),
        t=st.floats(200.0, 400.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_odd_symmetry(self, v, g, t):
        assert current(-v, g, t, P) == -current(v, g, t, P)

    def test_monotone_in_bias_and_state(self):
        grid = np.linspace(0.01, 2.0, 300)
        i = current(grid, 1e-8, 320.0, P)
        assert np.all(np.diff(i) > 0)
        g_grid = np.linspace(1e-9, 1e-8, 50)
        i_g = current(0.25, g_grid, 320.0, P)
        assert np.all(np.diff(i_g) > 0)

    def test_on_off_invariant_in_temperature(self):
        for t in np.linspace(300.0, 360.0, 13):
            for v in (0.05, 0.1, 0.25, 0.5):
                ratio = current(v, P.g_lrs_ref, t, P) / current(v, P.g_lrs_ref / P.on_off, t, P)
                assert abs(ratio / P.on_off - 1) < 1e-12

    def test_rejects_nonpositive_state(self):
        with pytest.raises(ValueError):
            current(0.1, 0.0, 300.0, P)

    @pytest.mark.parametrize("g", [math.nan, math.inf, np.array([1e-8, math.nan])])
    def test_rejects_non_finite_state(self, g):
        with pytest.raises(ValueError, match="g_state must be finite and > 0"):
            current(0.1, g, 300.0, P)

    def test_activation_factor_is_one_at_reference(self):
        assert activation_factor(P.t_ref, P) == 1.0


# Biases in each regime of the default model, edges included.
REGIME_V = {
    "ohmic": [0.001, 0.05, 0.1, P.v_pf_min],
    "field_enhanced": [np.nextafter(P.v_pf_min, 1.0), 0.3, 0.5, 0.8, np.nextafter(P.v_clamp, 0.0)],
    "frozen": [P.v_clamp, 1.5, 4.0, 6.0],
}


class TestVoltageAtCurrent:
    @pytest.mark.parametrize("regime", sorted(REGIME_V))
    @pytest.mark.parametrize("t", [P.t_ref, 350.0])
    def test_round_trip(self, regime, t):
        v = np.array(REGIME_V[regime])
        for g in (P.g_lrs_ref / P.on_off, P.g_lrs_ref, 3.3e-7):
            i = current(v, g, t, P)
            back = voltage_at_current(i, g, t, P)
            np.testing.assert_allclose(current(back, g, t, P), i, rtol=1e-13, atol=0)
            np.testing.assert_allclose(back, v, rtol=1e-13, atol=0)

    def test_zero_current_is_zero_bias(self):
        assert voltage_at_current(0.0, 1e-8, 300.0, P) == 0.0
        np.testing.assert_array_equal(voltage_at_current(np.zeros(3), 1e-8, 350.0, P), 0.0)

    def test_odd_and_broadcast(self):
        g = np.array([[1e-9], [1e-8]])
        i = current(np.array([0.05, 0.5, 2.0]), g, 320.0, P)
        v = voltage_at_current(i, g, 320.0, P)
        assert v.shape == (2, 3)
        np.testing.assert_array_equal(voltage_at_current(-i, g, 320.0, P), -v)

    def test_linear_without_field_lowering(self):
        # beta = 0 makes the law linear in all three regimes.
        p0 = ConductionParams(beta=0.0)
        for i in (1e-10, 5e-9, 3e-8):
            assert voltage_at_current(i, 1e-8, p0.t_ref, p0) == pytest.approx(i / 1e-8, rel=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            voltage_at_current(1e-9, 0.0, 300.0, P)
        with pytest.raises(ValueError):
            voltage_at_current(math.nan, 1e-8, 300.0, P)
        with pytest.raises(ValueError):
            voltage_at_current(1e-9, 1e-8, 0.0, P)

    def test_reports_window_non_convergence(self, monkeypatch):
        monkeypatch.setattr("ftjsim.conduction._WINDOW_MAX_ITERS", 1)
        with pytest.raises(ConvergenceError, match="unconverged"):
            voltage_at_current(current(0.5, 1e-8, 300.0, P), 1e-8, 300.0, P)


class TestDifferentialConductance:
    @pytest.mark.parametrize("v", [
        0.05, P.v_pf_min - 1e-3, P.v_pf_min + 1e-3, 0.5,
        P.v_clamp - 1e-3, P.v_clamp + 1e-3, 3.0,
    ])
    @pytest.mark.parametrize("t", [P.t_ref, 350.0])
    def test_matches_central_difference(self, v, t):
        h = 1e-6  # well inside the 1e-3 offsets from the regime edges
        fd = (current(v + h, 2e-9, t, P) - current(v - h, 2e-9, t, P)) / (2 * h)
        assert differential_conductance(v, 2e-9, t, P) == pytest.approx(fd, rel=1e-7)
        assert differential_conductance(-v, 2e-9, t, P) == differential_conductance(v, 2e-9, t, P)

    def test_outer_regimes_are_chord_slopes(self):
        # Below onset and above the clamp I is linear in v, so dI/dV = I/V.
        for v in (0.1, P.v_pf_min, P.v_clamp, 2.0):
            assert differential_conductance(v, 1e-8, 330.0, P) == pytest.approx(
                current(v, 1e-8, 330.0, P) / v, rel=1e-14)

    def test_rejects_nonpositive_state(self):
        with pytest.raises(ValueError):
            differential_conductance(0.5, -1e-9, 300.0, P)


class TestNonlinearity:
    def test_self_selection_value(self):
        # oracle: 2*exp(0.4*(sqrt(0.5)-sqrt(0.25))/(k*300)) = 49.2863...
        expected = 2 * math.exp(0.4 * (math.sqrt(0.5) - math.sqrt(0.25)) / (K_B_EV * 300.0))
        assert nonlinearity_ratio(0.5, 300.0, P) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(49.3, abs=0.05)

    def test_ohmic_pair_is_two(self):
        assert nonlinearity_ratio(0.1, 300.0, P) == 2.0

    def test_disabled_field_lowering_is_two(self):
        p0 = ConductionParams(beta=0.0)
        assert nonlinearity_ratio(0.5, 300.0, p0) == pytest.approx(2.0, rel=1e-12)

    def test_state_independent(self):
        r = nonlinearity_ratio(0.4, 310.0, P)
        for g in (1e-10, 1e-8):
            explicit = current(0.4, g, 310.0, P) / current(0.2, g, 310.0, P)
            assert explicit == pytest.approx(r, rel=1e-12)

    @pytest.mark.parametrize("v", [0.0, -0.5, 5e-324, math.nan])
    def test_rejects_bias_without_positive_half(self, v):
        # 5e-324 is positive, but v / 2 rounds to 0 and I(v / 2) would divide by 0.
        with pytest.raises(ValueError, match="v / 2 > 0"):
            nonlinearity_ratio(v, 300.0, P)


OHMIC_V = np.linspace(0.01, 0.1, 10)
PF_V = np.linspace(0.2, 0.3, 9)
TEMPS4 = [300.0, 320.0, 340.0, 360.0]


class TestFitOhmic:
    def test_noise_free_recovery(self):
        data = synthetic_pf_sweep(OHMIC_V, TEMPS4, phi_b=0.15, beta=0.0, ln_prefactor=-18.0)
        fit = fit_ohmic(data)
        assert fit.e_a == pytest.approx(0.15, rel=1e-9)
        assert fit.ln_prefactor == pytest.approx(-18.0, rel=1e-9)
        assert fit.max_flatness_residual < 1e-12
        assert not fit.warnings

    def test_zero_activation_gives_zero_slope(self):
        data = synthetic_pf_sweep(OHMIC_V, TEMPS4, phi_b=0.0, beta=0.0)
        assert abs(fit_ohmic(data).e_a) < 1e-12

    def test_one_percent_noise_within_five_percent(self):
        rng = np.random.default_rng(42)
        errs = []
        for _ in range(20):
            data = synthetic_pf_sweep(OHMIC_V, TEMPS4, phi_b=0.15, beta=0.0, noise=0.01, rng=rng)
            errs.append(abs(fit_ohmic(data).e_a / 0.15 - 1))
        assert max(errs) < 0.05

    def test_requires_two_temperatures(self):
        data = synthetic_pf_sweep(OHMIC_V, [300.0], phi_b=0.15, beta=0.0)
        with pytest.raises(FitError):
            fit_ohmic(data)

    def test_regime_violation_warning(self):
        # Field-enhanced data is visibly non-flat in ln(J/V).
        data = synthetic_pf_sweep(PF_V, TEMPS4, phi_b=0.15, beta=0.4)
        fit = fit_ohmic(data)
        assert any("regime violation" in w for w in fit.warnings)


class TestFitPooleFrenkel:
    def test_noise_free_recovery(self):
        for phi_b in (0.10, 0.15, 0.20):
            data = synthetic_pf_sweep(PF_V, TEMPS4, phi_b=phi_b, beta=0.4, ln_prefactor=-15.0)
            fit = fit_poole_frenkel(data)
            assert fit.phi_b == pytest.approx(phi_b, rel=1e-9)
            assert fit.beta == pytest.approx(0.4, rel=1e-9)
            assert fit.ln_prefactor == pytest.approx(-15.0, rel=1e-9)

    def test_zero_beta_gives_zero_slope(self):
        data = synthetic_pf_sweep(PF_V, TEMPS4, phi_b=0.15, beta=0.0)
        fit = fit_poole_frenkel(data)
        assert abs(fit.beta) < 1e-12
        for _, slope, _, _, _ in fit.per_temperature:
            assert abs(slope) < 1e-9

    def test_anchored_forward_model_identity(self):
        # Sweeps generated by the forward model report a barrier of
        # e_a + beta*sqrt(v_pf_min), by the algebra of the anchored exponent.
        vv, tt = np.meshgrid(PF_V, TEMPS4)
        j = np.array([
            current(v, P.g_lrs_ref, t, P) / P.area_ref
            for v, t in zip(vv.ravel(), tt.ravel())
        ])
        fit = fit_poole_frenkel(SweepRecord(vv.ravel(), j, tt.ravel()))
        expected = P.e_a + P.beta * math.sqrt(P.v_pf_min)
        assert fit.phi_b == pytest.approx(expected, rel=1e-9)
        assert fit.beta == pytest.approx(P.beta, rel=1e-9)
        assert fit.notes  # interpretation of the anchored barrier is documented

    def test_degenerate_grid_raises(self):
        data = synthetic_pf_sweep([0.25, 0.25, 0.25], TEMPS4, phi_b=0.15, beta=0.4)
        with pytest.raises(FitError):
            fit_poole_frenkel(data)

    def test_requires_three_voltages(self):
        data = synthetic_pf_sweep([0.22, 0.28], TEMPS4, phi_b=0.15, beta=0.4)
        with pytest.raises(FitError):
            fit_poole_frenkel(data)


def reference_log_conductance_samples(data):
    """(|V|, ln(J/V), T) over the unique (T, V) rows that np.unique(axis=0) sorts and
    groups, with each row's J averaged in sample order."""
    v, j, t = np.abs(data.voltage), np.abs(data.current_density), data.temperature
    uniq, inverse = np.unique(np.stack([t, v], axis=1), axis=0, return_inverse=True)
    inverse = inverse.ravel()
    j_avg = np.zeros(len(uniq))
    np.add.at(j_avg, inverse, j)
    j_avg /= np.bincount(inverse, minlength=len(uniq))
    return uniq[:, 1], np.log(j_avg / uniq[:, 1]), uniq[:, 0]


def shuffled_sweep_with_repeats(voltages, phi_b, beta, seed):
    """A noisy sweep, its +-V mirror, repeats of a third of its samples at fresh noise,
    and the temperatures interleaved, all in one random order."""
    rng = np.random.default_rng(seed)
    base = synthetic_pf_sweep(voltages, TEMPS4, phi_b=phi_b, beta=beta, noise=0.01, rng=rng)
    again = rng.choice(len(base), len(base) // 3)
    v = np.concatenate([base.voltage, -base.voltage, base.voltage[again]])
    j = np.concatenate([base.current_density,
                        -base.current_density * (1.0 + 0.01 * rng.standard_normal(len(base))),
                        base.current_density[again] * (1.0 + 0.01 * rng.standard_normal(again.size))])
    t = np.concatenate([base.temperature, base.temperature, base.temperature[again]])
    order = rng.permutation(v.size)
    return SweepRecord(v[order], j[order], t[order])


class TestDuplicateGrouping:
    """Repeated and mirrored (V, T) samples are averaged exactly as np.unique groups them."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("fit, voltages, beta", [(fit_ohmic, OHMIC_V, 0.0),
                                                      (fit_poole_frenkel, PF_V, 0.4)],
                             ids=["ohmic", "poole_frenkel"])
    def test_fits_equal_the_unique_rows_reference(self, monkeypatch, fit, voltages, beta, seed):
        data = shuffled_sweep_with_repeats(voltages, 0.15, beta, seed)
        got_samples = cnd._log_conductance_samples(data)
        want_samples = reference_log_conductance_samples(data)
        assert got_samples[0].size == voltages.size * len(TEMPS4) < len(data)
        for got, want in zip(got_samples, want_samples):
            assert got.tobytes() == want.tobytes()
        got = fit(data)
        monkeypatch.setattr(cnd, "_log_conductance_samples", reference_log_conductance_samples)
        want = fit(data)
        assert repr(got) == repr(want)


class TestSweepRecord:
    def test_csv_round_trip(self, tmp_path):
        data = synthetic_pf_sweep(PF_V, TEMPS4, phi_b=0.15, beta=0.4)
        path = tmp_path / "sweep.csv"
        sweep_to_csv(data, path)
        back = sweep_from_csv(path)
        np.testing.assert_array_equal(back.voltage, data.voltage)
        np.testing.assert_array_equal(back.current_density, data.current_density)
        np.testing.assert_array_equal(back.temperature, data.temperature)

    def test_restrict_window(self):
        data = synthetic_pf_sweep(np.linspace(0.02, 0.3, 15), [300.0, 320.0], phi_b=0.1, beta=0.0)
        low = data.restrict(0.0, 0.1)
        assert np.all(np.abs(low.voltage) <= 0.1)
        assert len(low) > 0

    def test_rejects_nonfinite_voltage(self):
        with pytest.raises(ValueError):
            SweepRecord(np.array([0.1, np.inf]), np.array([1e-9, 1e-9]), np.array([300.0, 300.0]))
