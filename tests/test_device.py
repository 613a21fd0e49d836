"""Device law tests: update staircase, DC loop, read, energy, area."""

import csv
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit

from ftjsim.conduction import K_B_EV, current
from ftjsim.device import (
    DC_READ_VOLTAGE,
    MAX_LEVELS,
    NU_BOUNDS,
    PULSE_READ_VOLTAGE,
    TRACE_CSV_HEADER,
    DeviceParams,
    Direction,
    UpdateScheme,
    TracePoint,
    dc_response,
    extract_memory_window,
    fit_update_curve,
    hysteresis_loop,
    level_table,
    pulse_response,
    run_sequence,
    step_weight,
    truncated_normal,
    update_curve,
    update_curve_inverse,
    write_energy,
    write_trace_csv,
)
from ftjsim.errors import FitError

from conftest import read_trace_csv

PARAMS = DeviceParams()
POT = Direction.POTENTIATE
DEP = Direction.DEPRESS


def conductance(w, params=PARAMS):
    """Small-signal conductance of the nominal device at state w."""
    return params.g_hrs + w * (params.g_lrs - params.g_hrs)


class TestUpdateCurve:
    def test_potentiation_midpoint(self):
        # oracle: (1-exp(-0.95))/(1-exp(-1.9)) = 0.7211151780228631
        expected = (1 - math.exp(-0.95)) / (1 - math.exp(-1.9))
        assert update_curve(0.5, 1.9, POT) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.7212, abs=2e-4)

    def test_depression_midpoint(self):
        # oracle: 1 - (1-exp(-2.15))/(1-exp(-4.3)) = 0.10433122311900134
        expected = 1 - (1 - math.exp(-2.15)) / (1 - math.exp(-4.3))
        assert update_curve(0.5, 4.3, DEP) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.1043, abs=2e-4)

    @pytest.mark.parametrize("nu", [0.05, 0.5, 1.9, 4.3, 12.0])
    def test_endpoints_exact(self, nu):
        assert update_curve(0.0, nu, POT) == 0.0
        assert update_curve(1.0, nu, POT) == 1.0
        assert update_curve(0.0, nu, DEP) == 1.0
        assert update_curve(1.0, nu, DEP) == 0.0

    @pytest.mark.parametrize("nu", [1e-4, 1e-3, 0.01, 0.1, 0.5])
    def test_small_nu_converges_to_line(self, nu):
        x = np.linspace(0.0, 1.0, 501)
        assert np.max(np.abs(update_curve(x, nu, POT) - x)) < nu / 8
        assert np.max(np.abs(update_curve(x, nu, DEP) - (1 - x))) < nu / 8

    @given(x=st.floats(0.0, 1.0), nu=st.floats(0.01, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_inverse_round_trip(self, x, nu):
        g = update_curve(x, nu, POT)
        assert update_curve_inverse(g, nu, POT) == pytest.approx(x, abs=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nu", [37.5, 40.0, 700.0])
    def test_inverse_silent_where_expm1_rounds_to_minus_one(self, nu):
        # Here the far endpoint takes log1p(-1) = -inf, which the clip maps to
        # its exact count 1; no divide-by-zero warning may escape.
        assert np.expm1(-nu) == -1.0
        assert update_curve_inverse(1.0, nu, POT) == 1.0
        assert update_curve_inverse(0.0, nu, DEP) == 1.0
        assert update_curve_inverse(np.array([0.0, 1.0]), nu, POT).tolist() == [0.0, 1.0]


class TestLevelTable:
    @pytest.mark.parametrize("n_levels", [2, 50, 64])
    @pytest.mark.parametrize("direction", [POT, DEP])
    @pytest.mark.parametrize("scheme", [UpdateScheme.AMPLITUDE_RAMP, UpdateScheme.WIDTH_RAMP])
    def test_equals_update_curve_bit_for_bit(self, scheme, direction, n_levels):
        nu = replace(PARAMS, scheme=scheme).nu_for(direction)
        table = level_table(nu, direction, n_levels)
        k = np.arange(n_levels + 1)
        assert table.tobytes() == update_curve(k / n_levels, nu, direction).tobytes()
        assert table.tobytes() == np.array([update_curve(i / n_levels, nu, direction)
                                            for i in k]).tobytes()
        assert not table.flags.writeable

    def test_step_weight_is_the_next_level(self):
        table = level_table(PARAMS.nu_p, POT, PARAMS.n_levels)
        assert np.array_equal(step_weight(table[:-1], PARAMS.nu_p, POT, PARAMS.n_levels),
                              table[1:])
        assert step_weight(table[-1], PARAMS.nu_p, POT, PARAMS.n_levels) == 1.0


class TestPulseResponse:
    def test_subthreshold_is_exact_noop(self):
        w, ws = 0.37, np.full(3, 0.37)
        for amp in (-0.8, 0.8, 1.2, -1.2999, 0.0):
            assert pulse_response(w, amp, PARAMS) is w  # bit-identical by construction
            assert pulse_response(ws, amp, PARAMS) is ws

    def test_full_potentiation_reaches_lrs(self):
        w = 0.0
        for _ in range(PARAMS.n_levels):
            w = pulse_response(w, PARAMS.v_set_full, PARAMS)
        assert w == 1.0
        assert conductance(w) == PARAMS.g_lrs

    def test_half_depression_level(self):
        # oracle: 25 of 50 depression steps at nu_d=4.3 -> normalized 0.10433...
        w = 1.0
        for _ in range(25):
            w = pulse_response(w, PARAMS.v_reset_full, PARAMS)
        expected = 1 - (1 - math.exp(-2.15)) / (1 - math.exp(-4.3))
        assert w == pytest.approx(expected, rel=1e-12)

    def test_saturation_at_endpoints(self):
        assert pulse_response(1.0, PARAMS.v_set_full, PARAMS) == 1.0
        assert pulse_response(0.0, PARAMS.v_reset_full, PARAMS) == 0.0

    def test_direction_monotonicity(self):
        rng = np.random.default_rng(3)
        for w0 in rng.uniform(0, 1, 25):
            w = float(w0)
            assert pulse_response(w, PARAMS.v_set_full, PARAMS) >= w
            assert pulse_response(w, PARAMS.v_reset_full, PARAMS) <= w

    def test_loop_closure(self):
        w = 0.0
        g0 = conductance(w)
        for _ in range(PARAMS.n_levels):
            w = pulse_response(w, PARAMS.v_set_full, PARAMS)
        for _ in range(PARAMS.n_levels):
            w = pulse_response(w, PARAMS.v_reset_full, PARAMS)
        assert conductance(w) == pytest.approx(g0, rel=1e-12)

    def test_width_ramp_swaps_shapes(self):
        widthed = pulse_response(0.0, PARAMS.v_set_full,
                                 replace(PARAMS, scheme=UpdateScheme.WIDTH_RAMP))
        assert widthed == pytest.approx(update_curve(1 / 50, 4.3, POT), rel=1e-12)

    @pytest.mark.parametrize("amp", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_nonfinite(self, amp):
        # Unchecked, nan and +inf would depress one level and -inf potentiate.
        for w in (0.5, np.full(3, 0.5)):
            with pytest.raises(ValueError, match="finite"):
                pulse_response(w, amp, PARAMS)

    def test_w_stays_in_unit_interval(self):
        rng = np.random.default_rng(11)
        w = 0.5
        for _ in range(300):
            amp = PARAMS.v_set_full if rng.random() < 0.5 else PARAMS.v_reset_full
            w = pulse_response(w, amp, PARAMS)
            assert 0.0 <= w <= 1.0


def kernel_states(params):
    """Every level value of both directions' tables, with its 1-ulp neighbours inside
    [0, 1], plus -0.0, 0, 1 and uniform random states."""
    levels = np.concatenate([level_table(params.nu_for(d), d, params.n_levels) for d in (POT, DEP)])
    states = np.concatenate([levels, np.nextafter(levels, -1.0), np.nextafter(levels, 2.0),
                             [-0.0, 0.0, 1.0], np.random.default_rng(5).uniform(0.0, 1.0, 200)])
    return states[(states >= 0.0) & (states <= 1.0)]


def kernel_jitters(n):
    """None, +-3 sigma and truncated-normal jitter at sigma 0.1, 1/3 and 10, each n long."""
    rng = np.random.default_rng(6)
    yield "none", None
    for sigma in (0.1, 1 / 3, 10.0):
        yield f"+3sigma_{sigma:.3g}", np.full(n, 3.0 * sigma)
        yield f"-3sigma_{sigma:.3g}", np.full(n, -3.0 * sigma)
        yield f"random_{sigma:.3g}", truncated_normal(rng, sigma, n)


class TestScalarKernel:
    """pulse_response on one float equals the array call, element by element and bit for bit."""

    @pytest.mark.filterwarnings("error")  # nu > 37 takes log1p(-1) in the array call
    @pytest.mark.parametrize("nu_p, nu_d", [(1.9, 4.3), (40.0, 700.0)], ids=["nominal", "steep"])
    @pytest.mark.parametrize("scheme", [UpdateScheme.AMPLITUDE_RAMP, UpdateScheme.WIDTH_RAMP])
    @pytest.mark.parametrize("direction", [POT, DEP])
    def test_scalar_equals_array(self, direction, scheme, nu_p, nu_d):
        params = replace(PARAMS, scheme=scheme, nu_p=nu_p, nu_d=nu_d)
        amp = params.v_set_full if direction is POT else params.v_reset_full
        w = kernel_states(params)
        for label, eps in kernel_jitters(w.size):
            want = pulse_response(w, amp, params, eps)
            got = [pulse_response(float(x), amp, params, None if eps is None else eps[i])
                   for i, x in enumerate(w)]
            assert all(type(g) is float for g in got), label
            assert np.array(got).view(np.uint64).tolist() == want.view(np.uint64).tolist(), label
        if nu_p > 37:
            assert np.expm1(-params.nu_for(direction)) == -1.0


class TestRunSequence:
    def test_full_loop_closes(self):
        trace = run_sequence(PARAMS.n_levels, PARAMS.n_levels, PARAMS)
        # The last read is of the final state, the first of the HRS start.
        assert trace[-1][2:] == trace[0][2:]

    def test_trace_extremes_give_on_off(self):
        trace = run_sequence(PARAMS.n_levels, PARAMS.n_levels, PARAMS)
        g = np.array([pt.conductance for pt in trace])
        assert g.max() / g.min() == pytest.approx(PARAMS.conduction.on_off, rel=1e-12)

    def test_conductance_is_inverse_resistance(self):
        trace = run_sequence(PARAMS.n_levels, PARAMS.n_levels, PARAMS)
        assert trace[0].conductance == pytest.approx(PARAMS.g_hrs, rel=1e-12)
        for pt in trace:
            assert pt.conductance * pt.resistance == pytest.approx(1.0, rel=1e-15, abs=0)

    def test_round_trip_nu_recovery(self):
        trace = run_sequence(PARAMS.n_levels, PARAMS.n_levels, PARAMS)
        pot = [pt for pt in trace if pt.direction == "potentiation"]
        dep = [pt for pt in trace if pt.direction == "depression"]
        fit_p = fit_update_curve([pt.count for pt in pot], [pt.conductance for pt in pot])
        fit_d = fit_update_curve([pt.count for pt in dep], [pt.conductance for pt in dep])
        assert fit_p.nu == pytest.approx(PARAMS.nu_p, rel=1e-6)
        assert fit_d.nu == pytest.approx(PARAMS.nu_d, rel=1e-6)
        assert fit_p.direction is POT and fit_d.direction is DEP

    def test_noise_perturbs_and_clamps(self):
        trace = run_sequence(50, 50, PARAMS, sigma_c2c=0.3, rng=np.random.default_rng(5))
        noiseless = run_sequence(50, 50, PARAMS)
        # The noiseless staircase reads both endpoints; every noisy state lies between them.
        lo, hi = min(pt.conductance for pt in noiseless), max(pt.conductance for pt in noiseless)
        assert all(lo <= pt.conductance <= hi for pt in trace)
        assert any(a.conductance != b.conductance for a, b in zip(trace, noiseless))

    def test_noisy_staircase_is_unbiased(self):
        # The level counter rounds to the nearest level, so per-step noise
        # must not systematically stretch or compress the fitted staircase.
        errs = []
        for s in range(30):
            rng = np.random.default_rng(1000 + s)
            trace = run_sequence(50, 0, PARAMS, sigma_c2c=0.10, rng=rng)
            pot = [pt for pt in trace if pt.direction == "potentiation"]
            fit = fit_update_curve([pt.count for pt in pot], [pt.conductance for pt in pot])
            errs.append(abs(fit.nu / PARAMS.nu_p - 1))
        assert np.mean(errs) < 0.05

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            run_sequence(PARAMS.n_levels + 1, 0, PARAMS)

    def test_noise_without_generator_rejected(self):
        with pytest.raises(ValueError, match="random generator"):
            run_sequence(5, 5, PARAMS, sigma_c2c=0.1)

    def test_trace_csv_round_trip(self, tmp_path):
        trace = run_sequence(10, 10, PARAMS)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        back = read_trace_csv(path)
        assert len(back) == len(trace)
        assert back[3].count == trace[3].count
        assert back[3].conductance == pytest.approx(trace[3].conductance, rel=1e-11)

    def test_trace_csv_bytes_match_csv_writer(self, tmp_path):
        trace = run_sequence(12, 7, PARAMS, 0.1, np.random.default_rng(3))
        write_trace_csv(tmp_path / "trace.csv", trace)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_CSV_HEADER)
            writer.writerows([c, d, f"{g:.12e}", f"{r:.12e}"] for c, d, g, r in trace)
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestFitUpdateCurve:
    @pytest.mark.parametrize("nu", [0.5, 1.9, 4.3])
    def test_noise_free_recovery(self, nu):
        params = DeviceParams(nu_p=nu, nu_d=nu)
        trace = run_sequence(50, 0, params)
        pot = [pt for pt in trace if pt.direction == "potentiation"]
        fit = fit_update_curve([pt.count for pt in pot], [pt.conductance for pt in pot])
        assert fit.nu == pytest.approx(nu, rel=1e-4)  # well inside the 0.1 % requirement

    def test_linear_limit(self):
        counts = np.arange(51)
        g = update_curve(counts / 50, 0.01, POT)
        line = counts / 50
        assert np.max(np.abs(g - line)) < 0.01  # within 1 % of a straight line
        fit = fit_update_curve(counts, g)
        assert fit.nu == pytest.approx(0.01, rel=1e-3)

    def test_noisy_recovery_statistics(self):
        errs = [abs(fit_update_curve(counts, g).nu / 1.9 - 1) for counts, g in noisy_traces()]
        assert np.mean(errs) < 0.25

    def test_non_monotone_warns_without_failing(self):
        fit = fit_update_curve(*non_monotone_trace())
        assert any("non-monotone" in w for w in fit.warnings)

    def test_too_few_points_raises(self):
        with pytest.raises(FitError):
            fit_update_curve([0, 1, 2], [0.0, 0.5, 1.0])

    def test_unsaturating_branch_is_bounded_and_warned(self):
        # No saturating exponential follows a branch that holds only counts 2 and 5:
        # nu runs to its lower search bound, quickly, and the fit says so.
        start = time.perf_counter()
        fit = fit_update_curve([2, 2, 2, 5, 5, 5], [1, 1, 1, 0.5, 0.5, 0.5])
        assert time.perf_counter() - start < 0.5
        assert fit.nu == pytest.approx(NU_BOUNDS[0], rel=1e-12)
        assert fit.warnings == ("nu at its search bound 1e-09; "
                                "the saturating exponential cannot follow this branch",)

    @pytest.mark.parametrize("rising", [True, False])
    def test_saturated_branch_is_warned(self, rising):
        # A branch at its last level from its first count fits every nu past
        # about 37 per normalized count equally: the returned nu is not a measurement.
        g = [0.0] + [1.0] * 10
        fit = fit_update_curve(range(11), g if rising else [1.0 - v for v in g])
        assert fit.rms_residual == 0.0
        assert fit.warnings == (f"branch saturated by its first pulse count; nu {fit.nu:g} "
                                "fits and so does any larger nu",)

    @pytest.mark.parametrize("case", ["noise_free", "noisy", "non_monotone"])
    def test_never_worse_than_curve_fit(self, case):
        traces = {"noise_free": noise_free_branches, "noisy": noisy_traces,
                  "non_monotone": lambda: [non_monotone_trace()]}[case]()
        for counts, g in traces:
            fit = fit_update_curve(counts, g)
            nu, rms = reference_fit(counts, g)
            assert fit.rms_residual <= rms * (1 + 1e-12)
            if case == "noise_free":
                assert fit.nu == pytest.approx(nu, rel=1e-6)


def noise_free_branches():
    """(counts, conductances) of both noiseless branches at nu = 0.5, 1.9 and 4.3."""
    branches = []
    for nu in (0.5, 1.9, 4.3):
        params = DeviceParams(nu_p=nu, nu_d=nu)
        trace = run_sequence(50, 50, params)
        for direction in ("potentiation", "depression"):
            branch = [pt for pt in trace if pt.direction == direction]
            branches.append(([pt.count for pt in branch], [pt.conductance for pt in branch]))
    return branches


def noisy_traces():
    """100 potentiation staircases at nu = 1.9 with 10 % relative noise on every step."""
    rng = np.random.default_rng(17)
    traces = []
    for _ in range(100):
        counts = np.arange(51)
        g = update_curve(counts / 50, 1.9, POT)
        steps = np.diff(g) * (1 + 0.10 * rng.standard_normal(50))
        traces.append((counts, np.clip(np.concatenate([[0.0], np.cumsum(steps)]), 0, None)))
    return traces


def non_monotone_trace():
    counts = np.arange(10)
    g = update_curve(counts / 9, 1.9, POT)
    g[4], g[5] = g[5], g[4]
    return counts, g


def reference_fit(counts, conductances):
    """(nu, rms residual) of the scipy curve_fit call the package made before its
    variable-projection fit, on the same normalization."""
    counts = np.asarray(counts, dtype=float)
    g = np.asarray(conductances, dtype=float)
    order = np.argsort(counts)
    counts, g = counts[order], g[order]
    x = counts / counts.max()
    g_norm = (g - g.min()) / (g.max() - g.min())
    y = g_norm if g[-1] >= g[0] else 1.0 - g_norm

    def family(xv, sigma0, nu):
        return sigma0 * -np.expm1(-nu * xv)

    popt, _ = curve_fit(
        family, x, y, p0=(1.0, 1.0),
        bounds=([1e-9, 1e-9], [np.inf, np.inf]),
        xtol=1e-14, ftol=1e-14, gtol=1e-14, maxfev=20000,
    )
    sigma0, nu = float(popt[0]), float(popt[1])
    return nu, float(np.sqrt(np.mean((family(x, sigma0, nu) - y) ** 2)))


class TestDcResponse:
    def test_full_set(self):
        assert dc_response(0.0, -1.6, PARAMS) == 1.0

    def test_window_is_inert(self):
        for w in (0.0, 0.37, 1.0):
            for v in (-0.59, 0.0, 0.5, 0.79):
                assert dc_response(w, v, PARAMS) == w

    def test_default_reset_coercive_from_window(self):
        # v_c_reset = v_c_set + memory window = -0.6 + 1.4 = +0.8 V
        assert PARAMS.v_c_reset == pytest.approx(PARAMS.v_c_set + 1.4)
        assert PARAMS.memory_window == pytest.approx(1.4)

    def test_partial_and_one_sided(self):
        half_set = dc_response(0.0, -1.1, PARAMS)
        assert half_set == pytest.approx(0.5)
        # One-sided: a weaker SET never undoes a stronger one.
        assert dc_response(half_set, -0.7, PARAMS) == half_set

    def test_full_reset(self):
        assert dc_response(1.0, 2.4, PARAMS) == 0.0


class TestHysteresisLoop:
    def test_window_matches_coercive_separation(self):
        loop = hysteresis_loop(PARAMS, -2.0, 3.0, 101)  # 0.05 V grid
        v_set, v_reset, window = extract_memory_window(loop)
        assert abs(window - 1.4) <= 0.05 + 1e-12
        assert v_set == pytest.approx(-0.6, abs=0.05)
        assert v_reset == pytest.approx(0.8, abs=0.05)

    def test_flat_loop_below_reset(self):
        loop = hysteresis_loop(PARAMS, -2.0, 0.5, 41)
        np.testing.assert_allclose(loop.r_up, loop.r_up[0], rtol=1e-12)
        np.testing.assert_allclose(loop.r_down, loop.r_up[0], rtol=1e-12)

    def test_branch_ratio_at_zero_bias(self):
        loop = hysteresis_loop(PARAMS, -2.0, 3.0, 101)
        i_up = np.argmin(np.abs(loop.v_up))
        i_down = np.argmin(np.abs(loop.v_down))
        ratio = loop.r_down[i_down] / loop.r_up[i_up]
        assert ratio == pytest.approx(PARAMS.conduction.on_off, rel=1e-9)

    def test_requires_start_below_set_coercive(self):
        with pytest.raises(ValueError):
            hysteresis_loop(PARAMS, -0.5, 3.0, 41)


def reference_dc_write(w, v_write, params):
    """The DC write law written per device, one scalar branch per regime."""
    if v_write <= params.v_c_set:
        target = min(1.0, (params.v_c_set - v_write) / (params.v_c_set - params.v_set_full))
        return max(w, target)
    if v_write >= params.v_c_reset:
        drop = min(1.0, (v_write - params.v_c_reset) / (params.v_reset_full - params.v_c_reset))
        return min(w, 1.0 - drop)
    return w


def reference_read(w, v_read, params):
    """Resistance v/I of the nominal device at state w, one scalar conduction call."""
    return v_read / current(v_read, conductance(w, params), params.conduction.t_ref,
                            params.conduction)


def reference_hysteresis_loop(params, v_min, v_max, n_steps):
    """hysteresis_loop stepped one write and one read at a time."""
    grid = np.linspace(v_min, v_max, n_steps)
    w = 0.0
    r_up = np.empty_like(grid)
    for i, v in enumerate(grid):
        w = reference_dc_write(w, float(v), params)
        r_up[i] = reference_read(w, DC_READ_VOLTAGE, params)
    r_down = np.empty_like(grid)
    for i, v in enumerate(grid[::-1]):
        w = reference_dc_write(w, float(v), params)
        r_down[i] = reference_read(w, DC_READ_VOLTAGE, params)
    return r_up, r_down


def reference_run_sequence(n_pot, n_dep, params, sigma_c2c=0.0, rng=None):
    """run_sequence from the HRS with one read after every pulse."""
    w = 0.0

    def read(count, direction):
        r = reference_read(w, PULSE_READ_VOLTAGE, params)
        return TracePoint(count, direction, 1.0 / r, r)

    def jitter():
        return truncated_normal(rng, sigma_c2c, 1)[0] if sigma_c2c else None

    points = [read(0, "potentiation")]
    for i in range(1, n_pot + 1):
        w = pulse_response(w, params.v_set_full, params, jitter())
        points.append(read(i, "potentiation"))
    points.append(read(0, "depression"))
    for i in range(1, n_dep + 1):
        w = pulse_response(w, params.v_reset_full, params, jitter())
        points.append(read(i, "depression"))
    return points


class TestArrayKernelEquivalence:
    """The array paths equal per-device references kept here, bit for bit."""

    def test_dc_response_equals_scalar_law(self):
        rng = np.random.default_rng(21)
        v = np.concatenate([np.linspace(-3.0, 3.0, 241), rng.uniform(-3.0, 3.0, 500),
                            [PARAMS.v_c_set, PARAMS.v_c_reset, PARAMS.v_set_full,
                             PARAMS.v_reset_full]])
        w = rng.uniform(0.0, 1.0, v.size)
        w[:8] = [0.0, 1.0, 0.0, 1.0, 0.5, 0.5, 0.0, 1.0]
        want = [reference_dc_write(float(a), float(b), PARAMS) for a, b in zip(w, v)]
        assert np.array_equal(dc_response(w, v, PARAMS), want)
        assert [dc_response(float(a), float(b), PARAMS) for a, b in zip(w, v)] == want

    def test_dc_response_rejects_nan_in_array(self):
        with pytest.raises(ValueError):
            dc_response(np.full(3, 0.5), np.array([-1.0, np.nan, 1.0]), PARAMS)
        with pytest.raises(ValueError):
            dc_response(0.0, float("inf"), PARAMS)

    @pytest.mark.parametrize("v_min, v_max, n_steps", [
        (-2.0, 3.0, 101), (-2.0, 0.5, 41), (-2.0, 3.0, 2), (-1.1, 0.0, 17), (-1.0, 1.6, 33),
        (-3.0, 2.4, 7),
    ], ids=["full", "flat_below_reset", "two_steps", "ends_in_window", "partial_both",
            "coarse"])
    def test_hysteresis_loop_equals_stepped_loop(self, v_min, v_max, n_steps):
        loop = hysteresis_loop(PARAMS, v_min, v_max, n_steps)
        r_up, r_down = reference_hysteresis_loop(PARAMS, v_min, v_max, n_steps)
        assert np.array_equal(loop.r_up, r_up)
        assert np.array_equal(loop.r_down, r_down)
        assert np.array_equal(loop.v_down, loop.v_up[::-1])

    @pytest.mark.parametrize("sigma_c2c", [0.0, 0.1, 1 / 3])
    @pytest.mark.parametrize("n_pot, n_dep", [(50, 50), (12, 0), (12, 9), (0, 9), (0, 0),
                                              (1024, 1024), (1000, 37)])
    @pytest.mark.parametrize("scheme", [UpdateScheme.AMPLITUDE_RAMP, UpdateScheme.WIDTH_RAMP])
    def test_run_sequence_equals_pulse_by_pulse(self, sigma_c2c, n_pot, n_dep, scheme):
        # Counts above the nominal 50 levels run on a 1024-level device.
        n_levels = MAX_LEVELS if max(n_pot, n_dep) > PARAMS.n_levels else PARAMS.n_levels
        params = replace(PARAMS, scheme=scheme, n_levels=n_levels)
        got_rng, want_rng = np.random.default_rng(8), CountingGenerator(8)
        got = run_sequence(n_pot, n_dep, params, sigma_c2c, got_rng)
        want = reference_run_sequence(n_pot, n_dep, params, sigma_c2c, want_rng)
        assert got == want
        assert got_rng.bit_generator.state == want_rng.rng.bit_generator.state
        if sigma_c2c == 1 / 3 and n_levels == MAX_LEVELS:  # the per-pulse draws resampled
            assert want_rng.drawn > n_pot + n_dep


class CountingGenerator:
    """A seeded Generator's ``normal`` that counts the values it draws."""

    def __init__(self, seed):
        self.rng, self.drawn = np.random.default_rng(seed), 0

    def normal(self, loc, scale, size):
        self.drawn += size
        return self.rng.normal(loc, scale, size)


class TestRead:
    def test_lrs_at_100mv(self):
        assert 0.1 / current(0.1, PARAMS.g_lrs, 300.0, PARAMS.conduction) == pytest.approx(
            1.0e8, rel=1e-12)

    def test_hrs_at_100mv(self):
        assert 0.1 / current(0.1, PARAMS.g_hrs, 300.0, PARAMS.conduction) == pytest.approx(
            7.0e8, rel=1e-12)

    def test_field_lowering_at_300mv(self):
        # oracle: resistance drops by h(0.3) = 4.7358 relative to the Ohmic value
        h = math.exp(0.4 * (math.sqrt(0.3) - math.sqrt(0.2)) / (K_B_EV * 300.0))
        assert 0.3 / current(0.3, PARAMS.g_lrs, 300.0, PARAMS.conduction) == pytest.approx(
            1.0e8 / h, rel=1e-12)


class TestWriteEnergy:
    def test_depression_below_picojoule(self):
        # oracle: (1e-8/7) * 2.4^2 * 5e-5 = 4.1142857e-13 J
        e = write_energy(PARAMS.g_hrs, 2.4, 50e-6)
        assert e == pytest.approx((1e-8 / 7) * 2.4**2 * 50e-6, rel=1e-12)
        assert e < 1e-12

    def test_potentiation_energy(self):
        # oracle: 1e-8 * 1.6^2 * 5e-5 = 1.28e-12 J
        assert write_energy(PARAMS.g_lrs, -1.6, 50e-6) == pytest.approx(1.28e-12, rel=1e-12)

    def test_vanishing_width(self):
        assert write_energy(PARAMS.g_lrs, -1.6, 1e-300) == pytest.approx(0.0, abs=1e-300)


class TestScaleArea:
    def test_submicron_current_below_picoamp(self):
        # oracle: 1e-9 A * (1 um^2 / 14400 um^2) = 6.944e-14 A
        small = replace(PARAMS, area=1.0)
        i = current(0.1, small.g_lrs, 300.0, small.conduction)
        assert i == pytest.approx(1e-9 / 14400, rel=1e-12)
        assert i < 1e-12

    def test_reference_area_is_identity(self):
        same = replace(PARAMS, area=PARAMS.conduction.area_ref)
        assert same.g_lrs == PARAMS.g_lrs
        assert same.g_hrs == PARAMS.g_hrs

    def test_doubling_area_doubles_current_everywhere(self):
        doubled = replace(PARAMS, area=2 * PARAMS.area)
        for w in (0.0, 0.3, 1.0):
            for v in (0.05, 0.25, 0.5):
                for t in (300.0, 340.0):
                    i1 = current(v, conductance(w), t, PARAMS.conduction)
                    i2 = current(v, conductance(w, doubled), t, doubled.conduction)
                    assert i2 == pytest.approx(2 * i1, rel=1e-12)

    def test_voltages_unchanged(self):
        small = replace(PARAMS, area=1.0)
        assert small.v_c_set == PARAMS.v_c_set
        assert small.v_pulse_threshold == PARAMS.v_pulse_threshold

    @pytest.mark.parametrize("area", [0.0, -1.0])
    def test_nonpositive_area_rejected(self, area):
        with pytest.raises(ValueError):
            replace(PARAMS, area=area)


class TestParamsValidation:
    def test_threshold_must_clear_half_select(self):
        with pytest.raises(ValueError):
            DeviceParams(v_pulse_threshold=1.1)  # 2.4/2 = 1.2 > 1.1

    def test_threshold_must_clear_coercive(self):
        with pytest.raises(ValueError):
            DeviceParams(v_c_reset=1.4, v_reset_full=2.4, v_pulse_threshold=1.3)

    def test_coercive_ordering(self):
        with pytest.raises(ValueError):
            DeviceParams(v_c_set=0.2)

    def test_infinite_write_amplitude_is_blamed_not_the_thickness(self):
        # v_set_full = -inf passes the coercive ordering; the amplitude check
        # must name it before the thickness check sees an infinite field.
        with pytest.raises(ValueError, match="half of every write amplitude"):
            DeviceParams(v_set_full=-math.inf)

    @pytest.mark.parametrize("thickness", [5e-324, 1e-320, 1e-310, math.inf])
    def test_thickness_must_give_a_finite_coercive_field(self, thickness):
        with pytest.raises(ValueError, match="no finite coercive field"):
            DeviceParams(hzo_thickness_nm=thickness)

    @pytest.mark.parametrize("scheme", ["width_ramp", "amplitude_ramp", None])
    def test_scheme_must_be_an_update_scheme(self, scheme):
        # A plain string would otherwise fall through nu_for to the amplitude-ramp shapes.
        with pytest.raises(ValueError, match="scheme"):
            DeviceParams(scheme=scheme)
