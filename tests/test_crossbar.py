"""Crossbar tests, including exhaustive brute-force oracles for small arrays."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from ftjsim import crossbar
from ftjsim.cli import main
from ftjsim.conduction import (ConductionParams, current, nonlinearity_ratio,
                               voltage_at_current)
from ftjsim.crossbar import (
    Crossbar,
    create_arrays,
    program_open_loop,
    program_open_loop_stack,
    program_write_verify,
    program_write_verify_stack,
    read_vmm,
    sneak_ratio,
    write_cell,
    write_cells,
)
from ftjsim.device import (
    DeviceParams,
    Direction,
    UpdateScheme,
    pulse_response,
    truncated_normal,
    update_curve,
)
from ftjsim.errors import ConvergenceError
from ftjsim.inference import map_weights
from ftjsim.variability import SIGMA_D2D_MAX, VariabilityParams

PARAMS = DeviceParams()
QUIET = VariabilityParams(sigma_c2c=0.0, sigma_d2d_hrs=0.0, sigma_d2d_lrs=0.0)
NOISY = VariabilityParams()


def make_xbar(rows, cols, vp=QUIET, params=PARAMS, seed=7):
    return Crossbar.create(rows, cols, params, vp, seed)


def conductance_at(xbar, r, c):
    """Small-signal conductance of one cell, computed apart from Crossbar.conductances."""
    g_hrs, g_lrs = float(xbar.g_hrs[r, c]), float(xbar.g_lrs[r, c])
    return g_hrs + float(xbar.w[r, c]) * (g_lrs - g_hrs)


def per_device_spawn_sampler(n, params, vp, rng):
    """Reference copy of the earlier endpoint sampler: one child stream per device."""
    g_hrs = np.empty(n)
    g_lrs = np.empty(n)
    for i, child in enumerate(rng.spawn(n)):
        g_hrs[i] = params.g_hrs * math.exp(child.normal(0.0, vp.sigma_d2d_hrs))
        g_lrs[i] = params.g_lrs * math.exp(child.normal(0.0, vp.sigma_d2d_lrs))
    inverted = g_hrs >= g_lrs
    g_hrs[inverted], g_lrs[inverted] = g_lrs[inverted].copy(), g_hrs[inverted].copy()
    return g_hrs, g_lrs


def jitter(xbar, mask):
    """The array's jitter for the cells of mask, in C order, from its own stream."""
    sigma = xbar.vp.sigma_c2c
    return truncated_normal(xbar._c2c_rng, sigma, int(mask.sum())) if sigma else None


def full_mask_open_loop(xbar, target):
    """Reference copy of the earlier open-loop loop, which masked the full array per pulse."""
    t_norm, _ = xbar._normalized_targets(target)
    p, n = xbar.params, xbar.params.n_levels
    levels = update_curve(np.arange(n + 1) / n, p.nu_for(Direction.POTENTIATE),
                          Direction.POTENTIATE)
    idx = np.clip(np.searchsorted(levels, t_norm), 1, len(levels) - 1)
    k = np.where((t_norm - levels[idx - 1]) <= (levels[idx] - t_norm), idx - 1, idx)
    w = np.zeros_like(xbar.w)
    for s in range(1, int(k.max()) + 1):
        mask = k >= s
        w[mask] = pulse_response(w[mask], p.v_set_full, p, jitter(xbar, mask))
    xbar.w[:] = w


def full_mask_write_verify(xbar, target, tol=0.05, max_iters=200):
    """Reference copy of the earlier write-verify loop, which re-read the full array per iteration."""
    t_norm, clipped = xbar._normalized_targets(target)
    target_g = xbar.g_hrs + t_norm * (xbar.g_lrs - xbar.g_hrs)
    p = xbar.params
    iters = np.zeros(xbar.w.shape, dtype=int)
    for _ in range(max_iters):
        g = xbar.conductances()
        active = np.abs(g - target_g) / target_g > tol
        if not active.any():
            break
        iters[active] += 1
        for amplitude, mask in ((p.v_set_full, active & (g < target_g)),
                                (p.v_reset_full, active & (g >= target_g))):
            if mask.any():
                xbar.w[mask] = pulse_response(xbar.w[mask], amplitude, p, jitter(xbar, mask))
    converged = np.abs(xbar.conductances() - target_g) / target_g <= tol
    return crossbar.WriteVerifyReport(
        converged_fraction=float(converged.mean()), mean_iterations=float(iters.mean()),
        max_iterations=int(iters.max()), clipped_cells=clipped)


def weight_like_targets(rows, cols, seed):
    """Both halves of a mapped Gaussian weight matrix: about half of each sits at the HRS."""
    g_pos, g_neg, _ = map_weights(np.random.default_rng(seed).normal(size=(rows, cols)), PARAMS)
    return g_pos, g_neg


# --- independent oracles -----------------------------------------------------


def vmm_oracle(xbar, x, t):
    """Dense per-cell sum through the scalar current path."""
    out = np.zeros(xbar.cols)
    for j in range(xbar.cols):
        for i in range(xbar.rows):
            out[j] += current(float(x[i]), conductance_at(xbar, i, j), t,
                              xbar.params.conduction)
    return out


def _invert_bisect(i_target, g, t, p, v_hi, iters=80):
    """Bisection inverse of the junction I(V), independent of scipy."""
    lo, hi = 0.0, v_hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if current(mid, g, t, p) < i_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def series_oracle(gs, v_total, t, p, iters=80):
    """Three-junction series current via nested bisection on the first bias."""
    def deficit(v1):
        i = current(v1, gs[0], t, p)
        v2 = _invert_bisect(i, gs[1], t, p, v_total)
        v3 = _invert_bisect(i, gs[2], t, p, v_total)
        return v1 + v2 + v3 - v_total

    lo, hi = 0.0, v_total
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if deficit(mid) < 0:
            lo = mid
        else:
            hi = mid
    return current(0.5 * (lo + hi), gs[0], t, p)


def sneak_oracle(xbar, r, c, v_read, t):
    """Exhaustive enumeration of every three-cell path."""
    if xbar.rows < 2 or xbar.cols < 2:
        return float("inf")
    p = xbar.params.conduction
    g = xbar.conductances()
    i_sel = current(v_read, float(g[r, c]), t, p)
    worst = 0.0
    for r2 in range(xbar.rows):
        for c2 in range(xbar.cols):
            if r2 == r or c2 == c:
                continue
            path = (float(g[r, c2]), float(g[r2, c2]), float(g[r2, c]))
            worst = max(worst, series_oracle(path, v_read, t, p))
    return i_sel / worst


# --- construction -------------------------------------------------------------


class TestConstruction:
    G_HRS, G_LRS = PARAMS.g_hrs, PARAMS.g_lrs

    @pytest.mark.parametrize("g_hrs, g_lrs", [
        (G_LRS, G_HRS),        # swapped
        (G_HRS, G_HRS),        # equal
        (0.0, G_LRS),          # zero
        (math.nan, G_LRS),
        (G_HRS, math.nan),
        (G_HRS, math.inf),
        (-math.inf, G_LRS),
    ])
    def test_bad_endpoints_refused(self, g_hrs, g_lrs):
        hrs, lrs = np.full((3, 4), self.G_HRS), np.full((3, 4), self.G_LRS)
        hrs[1, 2], lrs[1, 2] = g_hrs, g_lrs
        with pytest.raises(ValueError, match="0 < g_hrs < g_lrs"):
            Crossbar(np.zeros((3, 4)), hrs, lrs, PARAMS, QUIET, np.random.default_rng(0))

    def test_widest_population_builds(self):
        widest = VariabilityParams(sigma_d2d_hrs=SIGMA_D2D_MAX, sigma_d2d_lrs=SIGMA_D2D_MAX)
        xbars = create_arrays([(64, 64), (8, 8)], PARAMS, widest, 3)
        assert [x.w.shape for x in xbars] == [(64, 64), (8, 8)]


# --- write_cell ---------------------------------------------------------------


class TestWriteCell:
    def test_single_cell_array(self):
        xbar = make_xbar(1, 1)
        report = write_cell(xbar, 0, 0, PARAMS.v_set_full)
        assert report.disturbed == 0
        assert xbar.w[0, 0] > 0

    def test_default_writes_never_disturb(self):
        xbar = make_xbar(8, 8)
        for amp in (PARAMS.v_set_full, PARAMS.v_reset_full):
            assert write_cell(xbar, 3, 4, amp).disturbed == 0

    def test_half_select_immunity_exact(self):
        xbar = make_xbar(64, 64, vp=NOISY)
        rng = np.random.default_rng(0)
        w_before = None
        for _ in range(2000):
            r, c = int(rng.integers(64)), int(rng.integers(64))
            amp = PARAMS.v_set_full if rng.random() < 0.5 else PARAMS.v_reset_full
            w_before = xbar.w.copy()
            write_cell(xbar, r, c, amp)
            changed = np.argwhere(xbar.w != w_before)
            assert changed.shape[0] <= 1
            if changed.shape[0] == 1:
                assert tuple(changed[0]) == (r, c)

    def test_overdriven_write_disturbs_all_neighbors(self):
        # 3.0 V write -> 1.5 V half-select above the 1.3 V threshold.
        xbar = make_xbar(6, 5)
        xbar.w[:] = 0.5  # mid-state so every neighbor has room to move
        report = write_cell(xbar, 2, 2, 3.0)
        assert report.disturbed == 6 + 5 - 2
        # Every cell on the two lines, the selected one included, moved exactly one step.
        one_step = pulse_response(0.5, 3.0, PARAMS)
        on_lines = np.zeros((6, 5), dtype=bool)
        on_lines[2, :] = on_lines[:, 2] = True
        np.testing.assert_array_equal(xbar.w, np.where(on_lines, one_step, 0.5))

    def test_out_of_bounds(self):
        with pytest.raises(IndexError):
            write_cell(make_xbar(2, 2), 2, 0, PARAMS.v_set_full)


def reference_write_cell(xbar, r, c, amplitude, eps=None):
    """Reference copy of the earlier one-write-at-a-time write_cell; returns its disturb count.

    ``eps`` is the write's jitter on its selected cell (None: noiseless).
    """
    if not (0 <= r < xbar.rows and 0 <= c < xbar.cols):
        raise IndexError(f"cell ({r}, {c}) out of bounds for {xbar.rows}x{xbar.cols}")
    p, row, col = xbar.params, xbar.w[r, :], xbar.w[:, c]
    selected = pulse_response(row[c], amplitude, p, eps)
    new_row = pulse_response(row, amplitude / 2, p)
    disturbed = 0
    if new_row is not row:
        new_col = pulse_response(col, amplitude / 2, p)
        disturbed = int(np.count_nonzero(new_row != row) + np.count_nonzero(new_col != col)
                        - 2 * (new_row[c] != row[c]))
        row[:], col[:] = new_row, new_col
    row[c] = selected
    return disturbed


# Default potentiate and depress levels, a sub-threshold one and two over-driven ones
# (half amplitudes 1.5 V and 1.4 V reach the 1.3 V threshold).
WRITE_AMPLITUDES = (-1.6, 2.4, 1.0, 3.0, -2.8)


class TestWriteCells:
    @pytest.mark.parametrize(
        "seed, sigma", [(s, 0.0) for s in range(20)] + [(s, 0.3) for s in range(20)],
        ids=[str(s) for s in range(20)] + [f"{s}-noisy" for s in range(20)])
    def test_equals_sequential_writes(self, seed, sigma):
        vp = VariabilityParams(sigma_c2c=sigma, sigma_d2d_hrs=0.0, sigma_d2d_lrs=0.0)
        rng = np.random.default_rng(seed)
        rows, cols = (int(n) for n in rng.integers(1, 9, size=2))
        params = replace(PARAMS, scheme=(UpdateScheme.AMPLITUDE_RAMP,
                                         UpdateScheme.WIDTH_RAMP)[seed % 2])
        n = int(rng.integers(0, 201))
        # Alternate cases keep over-driven writes rare, so long sub-threshold runs occur.
        weights = (0.3, 0.3, 0.3, 0.05, 0.05) if seed % 4 < 2 else None
        r = rng.integers(rows, size=n)
        c = rng.integers(cols, size=n)
        amps = rng.choice(WRITE_AMPLITUDES, size=n, p=weights)
        batched = make_xbar(rows, cols, vp=vp, params=params)
        batched.w[:] = rng.random((rows, cols))
        sequential = make_xbar(rows, cols, vp=vp, params=params)
        sequential.w[:] = batched.w
        # One jitter per write, in write order, from the array's own stream.
        eps = truncated_normal(sequential._c2c_rng, sigma, n) if sigma else [None] * n
        expected = sum(reference_write_cell(sequential, int(ri), int(ci), float(a), e)
                       for ri, ci, a, e in zip(r, c, amps, eps))
        report = write_cells(batched, r, c, amps)
        assert np.array_equal(batched.w, sequential.w)
        assert report.disturbed == expected
        TestActiveSetProgramming.assert_same(batched, sequential)

    def test_out_of_bounds_anywhere_changes_nothing(self):
        xbar = make_xbar(4, 4)
        xbar.w[:] = 0.5
        for bad in ((4, 0), (0, 4), (-1, 2)):
            r, c = [0, 1, 2, bad[0], 3], [0, 1, 2, bad[1], 3]
            with pytest.raises(IndexError):
                write_cells(xbar, r, c, [-1.6, 3.0, 2.4, -1.6, -1.6])
            assert np.all(xbar.w == 0.5)

    @pytest.mark.parametrize("rows, cols, amps", [
        ([0, 1], [0], [-1.6, -1.6]),
        ([0], [0, 1], [-1.6]),
        ([0, 1], [0, 1], [-1.6]),
        ([[0, 1]], [[0, 1]], [[-1.6, -1.6]]),
    ])
    def test_ragged_inputs_rejected(self, rows, cols, amps):
        with pytest.raises(ValueError):
            write_cells(make_xbar(2, 2), rows, cols, amps)


# --- programming ---------------------------------------------------------------


class TestProgramOpenLoop:
    def test_endpoint_targets_exact(self):
        xbar = make_xbar(4, 4)
        target = np.full((4, 4), PARAMS.g_hrs)
        target[::2] = PARAMS.g_lrs
        program_open_loop(xbar, target)
        np.testing.assert_array_equal(xbar.w[::2], 1.0)
        np.testing.assert_array_equal(xbar.w[1::2], 0.0)

    def test_quantization_bound(self):
        xbar = make_xbar(1, 1)
        n = PARAMS.n_levels
        levels = update_curve(np.arange(n + 1) / n, PARAMS.nu_p, Direction.POTENTIATE)
        span = PARAMS.g_lrs - PARAMS.g_hrs
        for t_norm in np.linspace(0.05, 0.95, 19):
            target = np.array([[PARAMS.g_hrs + t_norm * span]])
            program_open_loop(xbar, target)
            k = int(np.argmin(np.abs(levels - t_norm)))
            local_step = max(
                levels[k] - levels[k - 1] if k > 0 else 0.0,
                levels[k + 1] - levels[k] if k < n else 0.0,
            )
            err = abs(xbar.conductances()[0, 0] - target[0, 0]) / span
            assert err <= local_step / 2 + 1e-15

    def test_noiseless_equals_successive_pulses(self):
        # Open-loop programming is k potentiating pulses from the HRS, k the nearest level.
        xbar = make_xbar(6, 6)
        n = PARAMS.n_levels
        levels = update_curve(np.arange(n + 1) / n, PARAMS.nu_p, Direction.POTENTIATE)
        t_norm = np.random.default_rng(8).uniform(0, 1, size=(6, 6))
        t_norm[0, :2] = 0.0, 1.0
        program_open_loop(xbar, PARAMS.g_hrs + t_norm * (PARAMS.g_lrs - PARAMS.g_hrs))
        for (r, c), t in np.ndenumerate(t_norm):
            w = 0.0
            for _ in range(int(np.argmin(np.abs(levels - t)))):
                w = pulse_response(w, PARAMS.v_set_full, PARAMS)
            assert xbar.w[r, c] == w

    def test_noisy_error_within_twice_quantization(self):
        rng = np.random.default_rng(21)
        span = PARAMS.g_lrs - PARAMS.g_hrs
        t_norm = rng.uniform(0.1, 0.9, size=(100, 100))
        target = PARAMS.g_hrs + t_norm * span

        quiet = make_xbar(100, 100, vp=QUIET)
        program_open_loop(quiet, target)
        base_err = np.abs(quiet.conductances() - target) / span

        noisy = make_xbar(100, 100, vp=VariabilityParams(
            sigma_c2c=0.10, sigma_d2d_hrs=0.0, sigma_d2d_lrs=0.0), seed=3)
        program_open_loop(noisy, target)
        noisy_err = np.abs(noisy.conductances() - target) / span
        assert noisy_err.mean() <= 2 * base_err.mean()


class TestProgramWriteVerify:
    def test_noiseless_full_convergence(self):
        rng = np.random.default_rng(2)
        xbar = make_xbar(16, 16)
        span = PARAMS.g_lrs - PARAMS.g_hrs
        # Mid-range continuous targets plus exact staircase levels.
        t_norm = rng.uniform(0.3, 0.95, size=(16, 16))
        levels = update_curve(rng.integers(0, 51, size=(8, 16)) / 50, PARAMS.nu_p,
                              Direction.POTENTIATE)
        t_norm[:8] = levels
        target = PARAMS.g_hrs + t_norm * span
        report = program_write_verify(xbar, target, tol=0.05)
        assert report.converged_fraction == 1.0
        assert report.max_iterations <= PARAMS.n_levels
        assert report.clipped_cells == 0

    def test_out_of_span_targets_clipped_with_warning(self):
        xbar = make_xbar(2, 2)
        target = np.array([[PARAMS.g_lrs * 2, PARAMS.g_hrs / 2],
                           [PARAMS.g_lrs, PARAMS.g_hrs]])
        report = program_write_verify(xbar, target, tol=0.05)
        assert report.clipped_cells == 2
        # Programming converges to the clipped (endpoint) targets within tol.
        g = xbar.conductances()
        assert g[0, 0] == pytest.approx(PARAMS.g_lrs, rel=0.05)
        assert g[0, 1] == pytest.approx(PARAMS.g_hrs, rel=0.05)

    def test_noisy_convergence_fraction(self):
        rng = np.random.default_rng(4)
        xbar = make_xbar(64, 64, vp=NOISY)
        span = PARAMS.g_lrs - PARAMS.g_hrs
        t_norm = rng.uniform(0.3, 0.95, size=(64, 64))
        target = PARAMS.g_hrs + t_norm * span
        report = program_write_verify(xbar, target, tol=0.05, max_iters=200)
        assert report.converged_fraction >= 0.90

    @pytest.mark.parametrize("max_iters", [-1, -3])
    def test_negative_budget_rejected(self, max_iters):
        xbar = make_xbar(4, 4)
        target = np.full((4, 4), PARAMS.g_hrs + 0.5 * (PARAMS.g_lrs - PARAMS.g_hrs))
        with pytest.raises(ValueError, match="max_iters"):
            program_write_verify(xbar, target, max_iters=max_iters)
        assert np.array_equal(xbar.w, np.zeros((4, 4)))

    def test_zero_budget_sends_no_pulse(self):
        a, b = make_xbar(4, 4, vp=NOISY), make_xbar(4, 4, vp=NOISY)
        target = np.full((4, 4), PARAMS.g_hrs + 0.5 * (PARAMS.g_lrs - PARAMS.g_hrs))
        report = program_write_verify(a, target, max_iters=0)
        assert report == full_mask_write_verify(b, target, max_iters=0)
        assert report.converged_fraction == 0.0 and report.max_iterations == 0
        TestActiveSetProgramming.assert_same(a, b)
        assert np.array_equal(a.w, np.zeros((4, 4)))


class TestActiveSetProgramming:
    """Carrying only unfinished cells leaves states, reports and draws bit-identical."""

    CASES = [(sigma, rows, cols, half) for sigma in (0.0, 0.1) for rows, cols in ((16, 64), (64, 4))
             for half in (0, 1)]

    @staticmethod
    def twin(rows, cols, sigma):
        vp = VariabilityParams(sigma_c2c=sigma)
        return make_xbar(rows, cols, vp=vp, seed=11), make_xbar(rows, cols, vp=vp, seed=11)

    @staticmethod
    def assert_same(a, b):
        assert np.array_equal(a.w, b.w)
        assert a._c2c_rng.bit_generator.state == b._c2c_rng.bit_generator.state

    @pytest.mark.parametrize("sigma, rows, cols, half", CASES)
    def test_open_loop_matches_full_mask(self, sigma, rows, cols, half):
        target = weight_like_targets(rows, cols, seed=5)[half]
        a, b = self.twin(rows, cols, sigma)
        program_open_loop(a, target)
        full_mask_open_loop(b, target)
        self.assert_same(a, b)

    @pytest.mark.parametrize("max_iters", [200, 2])
    @pytest.mark.parametrize("sigma, rows, cols, half", CASES)
    def test_write_verify_matches_full_mask(self, sigma, rows, cols, half, max_iters):
        target = weight_like_targets(rows, cols, seed=5)[half]
        a, b = self.twin(rows, cols, sigma)
        got = program_write_verify(a, target, tol=0.05, max_iters=max_iters)
        want = full_mask_write_verify(b, target, tol=0.05, max_iters=max_iters)
        assert got == want
        self.assert_same(a, b)

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_all_hrs_targets_send_no_pulse(self, sigma):
        a, b = self.twin(16, 64, sigma)
        a.w[:] = b.w[:] = 0.5  # open loop starts from the HRS whatever the state
        target = a.g_hrs.copy()
        program_open_loop(a, target)
        full_mask_open_loop(b, target)
        self.assert_same(a, b)
        assert np.array_equal(a.w, np.zeros((16, 64)))
        a, b = self.twin(16, 64, sigma)
        got = program_write_verify(a, target)
        assert got == full_mask_write_verify(b, target)
        self.assert_same(a, b)
        assert got.max_iterations == 0 and got.converged_fraction == 1.0


class TestStackedProgramming:
    """One stacked pass equals the reference loops run one array at a time, bit for bit."""

    @staticmethod
    def members(sigma):
        """Arrays of four shapes: the third with every target at its HRS, the last above its LRS.

        The last array's targets are all clipped to its LRS, so write-verify
        potentiates its cells toward the w = 1 endpoint.
        """
        vp = VariabilityParams(sigma_c2c=sigma)
        xbars = [make_xbar(rows, cols, vp=vp, seed=seed)
                 for (rows, cols), seed in zip(((16, 64), (64, 64), (64, 4), (8, 8)),
                                               (11, 12, 13, 14))]
        targets = [weight_like_targets(16, 64, seed=5)[0], weight_like_targets(64, 64, seed=6)[1],
                   xbars[2].g_hrs.copy(), 1.5 * xbars[3].g_lrs]
        return xbars, targets

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_open_loop_matches_one_at_a_time(self, sigma):
        xbars, targets = self.members(sigma)
        program_open_loop_stack(xbars, targets)
        for got, want, target in zip(xbars, self.members(sigma)[0], targets):
            full_mask_open_loop(want, target)
            TestActiveSetProgramming.assert_same(got, want)
        assert np.array_equal(xbars[2].w, np.zeros((64, 4)))

    @pytest.mark.parametrize("max_iters", [200, 2])
    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_write_verify_matches_one_at_a_time(self, sigma, max_iters):
        xbars, targets = self.members(sigma)
        got = program_write_verify_stack(xbars, targets, tol=0.05, max_iters=max_iters)
        ref = self.members(sigma)[0]
        assert got == [full_mask_write_verify(b, t, tol=0.05, max_iters=max_iters)
                       for b, t in zip(ref, targets)]
        for a, b in zip(xbars, ref):
            TestActiveSetProgramming.assert_same(a, b)
        assert got[2].max_iterations == 0
        assert got[3].clipped_cells == 64

    SHARED_SHAPES = ((64, 64), (64, 4), (8, 8))

    @classmethod
    def shared_members(cls, sigma):
        """An array with its own stream, then three sampled together that share one.

        Returns them, their targets and the references: the first array
        alone, and the shared three as one 1 x n array of the same seed,
        which draws the same endpoints and owns the same jitter stream.
        """
        vp = VariabilityParams(sigma_c2c=sigma)
        own = make_xbar(16, 64, vp=vp, seed=11)
        shared = create_arrays(cls.SHARED_SHAPES, PARAMS, vp, 12)
        targets = [weight_like_targets(16, 64, seed=5)[0], weight_like_targets(64, 64, seed=6)[1],
                   shared[1].g_hrs.copy(), weight_like_targets(8, 8, seed=7)[0]]
        n = sum(r * c for r, c in cls.SHARED_SHAPES)
        refs = [make_xbar(16, 64, vp=vp, seed=11), create_arrays([(1, n)], PARAMS, vp, 12)[0]]
        ref_targets = [targets[0], np.concatenate([t.ravel() for t in targets[1:]])[None, :]]
        return [own, *shared], targets, refs, ref_targets

    @staticmethod
    def assert_same_as_joined(xbars, refs):
        TestActiveSetProgramming.assert_same(xbars[0], refs[0])
        assert all(x._c2c_rng is xbars[1]._c2c_rng for x in xbars[2:])
        assert np.array_equal(np.concatenate([x.w.ravel() for x in xbars[1:]]), refs[1].w[0])
        assert np.array_equal(np.concatenate([x.g_hrs.ravel() for x in xbars[1:]]),
                              refs[1].g_hrs[0])
        assert xbars[1]._c2c_rng.bit_generator.state == refs[1]._c2c_rng.bit_generator.state

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_open_loop_shared_stream_draws_as_one_array(self, sigma):
        xbars, targets, refs, ref_targets = self.shared_members(sigma)
        program_open_loop_stack(xbars, targets)
        for ref, target in zip(refs, ref_targets):
            full_mask_open_loop(ref, target)
        self.assert_same_as_joined(xbars, refs)

    @pytest.mark.parametrize("max_iters", [200, 2])
    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_write_verify_shared_stream_draws_as_one_array(self, sigma, max_iters):
        xbars, targets, refs, ref_targets = self.shared_members(sigma)
        got = program_write_verify_stack(xbars, targets, tol=0.05, max_iters=max_iters)
        want = [full_mask_write_verify(ref, t, tol=0.05, max_iters=max_iters)
                for ref, t in zip(refs, ref_targets)]
        assert got[0] == want[0]
        assert sum(r.mean_iterations * x.w.size for r, x in zip(got[1:], xbars[1:])) == \
            pytest.approx(want[1].mean_iterations * refs[1].w.size, rel=1e-12)
        assert got[2].max_iterations == 0
        self.assert_same_as_joined(xbars, refs)

    def test_mixed_device_models_rejected(self):
        a, b = make_xbar(2, 2, vp=QUIET), make_xbar(2, 2, vp=NOISY)
        with pytest.raises(ValueError, match="share"):
            program_open_loop_stack([a, b], [a.g_hrs, b.g_hrs])
        with pytest.raises(ValueError, match="share"):
            program_write_verify_stack([a, b], [a.g_hrs, b.g_hrs])


class TestContinuousProgramming:
    def test_exact_targets(self):
        xbar = make_xbar(3, 3)
        rng = np.random.default_rng(1)
        target = PARAMS.g_hrs + rng.uniform(0, 1, (3, 3)) * (PARAMS.g_lrs - PARAMS.g_hrs)
        clipped = xbar.set_conductances(target)
        assert clipped == 0
        np.testing.assert_allclose(xbar.conductances(), target, rtol=1e-14)


# --- reads ---------------------------------------------------------------------


class TestReadVmm:
    def test_one_hot_reads_single_cell(self):
        xbar = make_xbar(4, 4)
        xbar.w[2, 1] = 0.7
        x = np.zeros(4)
        x[2] = 0.1
        currents = read_vmm(xbar, x)
        expected = current(0.1, conductance_at(xbar, 2, 1), 300.0, PARAMS.conduction)
        assert currents[1] == pytest.approx(expected, rel=1e-12)

    def test_linearity_in_ohmic_regime(self):
        xbar = make_xbar(5, 3, vp=NOISY)
        rng = np.random.default_rng(6)
        xbar.w[:] = rng.uniform(0, 1, xbar.w.shape)
        x = 0.05 * rng.uniform(-1, 1, 5)
        np.testing.assert_allclose(read_vmm(xbar, 2 * x), 2 * read_vmm(xbar, x), rtol=1e-12)

    def test_equals_dense_product_at_low_bias(self):
        xbar = make_xbar(8, 6, vp=NOISY)
        rng = np.random.default_rng(7)
        xbar.w[:] = rng.uniform(0, 1, xbar.w.shape)
        x = 0.1 * rng.uniform(-1, 1, 8)
        np.testing.assert_allclose(read_vmm(xbar, x), x @ xbar.conductances(), rtol=1e-12)

    def test_identity_endpoints_hand_computed(self):
        xbar = make_xbar(4, 4)
        xbar.w[:] = np.eye(4)
        x = np.array([0.1, 0.05, -0.1, 0.02])
        g_on, g_off = PARAMS.g_lrs, PARAMS.g_hrs
        expected = np.array([
            x[j] * g_on + (x.sum() - x[j]) * g_off for j in range(4)
        ])
        np.testing.assert_allclose(read_vmm(xbar, x), expected, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 4), (4, 3), (4, 4)])
    def test_brute_force_oracle(self, shape):
        xbar = make_xbar(*shape, vp=NOISY)
        rng = np.random.default_rng(8)
        xbar.w[:] = rng.uniform(0, 1, xbar.w.shape)
        for t in (300.0, 340.0):
            x = 0.3 * rng.uniform(-1, 1, shape[0])  # beyond the Ohmic regime
            np.testing.assert_allclose(read_vmm(xbar, x, t), vmm_oracle(xbar, x, t),
                                       rtol=1e-12)

    def test_batch_matches_single(self):
        xbar = make_xbar(6, 5, vp=NOISY)
        rng = np.random.default_rng(9)
        xbar.w[:] = rng.uniform(0, 1, xbar.w.shape)
        xs = 0.2 * rng.uniform(-1, 1, (7, 6))
        batch = read_vmm(xbar, xs)
        for i in range(7):
            np.testing.assert_allclose(batch[i], read_vmm(xbar, xs[i]), rtol=1e-14)

    @pytest.mark.parametrize("amplitude, t", [(0.1, 300.0), (0.3, 300.0), (0.3, 340.0)],
                             ids=["ohmic", "field_enhanced", "hot"])
    def test_pair_equals_difference_of_reads(self, amplitude, t):
        # One product over G+ - G- against two reads, relative to the sum of
        # the magnitudes both reads add up, which bounds their rounding.
        pos, neg = create_arrays([(12, 5), (12, 5)], PARAMS, NOISY, 21)
        rng = np.random.default_rng(10)
        pos.w[:], neg.w[:] = rng.uniform(0, 1, (2, 12, 5))
        for a in ("w", "g_hrs", "g_lrs"):  # a column whose currents cancel
            getattr(neg, a)[:, 0] = getattr(pos, a)[:, 0]
        x = amplitude * rng.uniform(-1, 1, (9, 12))
        paired = read_vmm(pos, x, t, neg=neg)
        unpaired = read_vmm(pos, x, t) - read_vmm(neg, x, t)
        magnitude = read_vmm(pos, np.abs(x), t) + read_vmm(neg, np.abs(x), t)
        assert np.all(np.abs(paired - unpaired) <= 1e-12 * magnitude)
        assert np.array_equal(paired[:, 0], np.zeros(9))

    def test_pair_shapes_must_match(self):
        with pytest.raises(ValueError, match="pair shapes differ"):
            read_vmm(make_xbar(3, 2), np.full(3, 0.05), neg=make_xbar(3, 3))

    def test_overrange_input_rejected(self):
        with pytest.raises(ValueError):
            read_vmm(make_xbar(2, 2), np.array([0.4, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        for x in (np.array([bad, 0.0]), np.array([[0.05, 0.0], [0.0, bad]])):
            with pytest.raises(ValueError, match="finite"):
                read_vmm(make_xbar(2, 2), x)


# --- sneak paths ----------------------------------------------------------------


class TestSneakRatio:
    def test_single_row_or_column_is_infinite(self):
        assert sneak_ratio(make_xbar(1, 4), 0, 2, 0.5) == float("inf")
        assert sneak_ratio(make_xbar(4, 1), 2, 0, 0.5) == float("inf")

    def test_all_lrs_matches_oracle_and_bound(self):
        xbar = make_xbar(3, 3)
        xbar.w[:] = 1.0
        ratio = sneak_ratio(xbar, 1, 1, 0.5)
        assert ratio == pytest.approx(sneak_oracle(xbar, 1, 1, 0.5, 300.0), rel=1e-12)
        # Self-selection bound: at least 3x the two-point nonlinearity factor.
        assert ratio >= 3 * nonlinearity_ratio(0.5, 300.0, PARAMS.conduction)

    def test_equal_cells_split_voltage_in_three(self):
        xbar = make_xbar(2, 2)
        xbar.w[:] = 1.0
        ratio = sneak_ratio(xbar, 0, 0, 0.5)
        i_sel = current(0.5, PARAMS.g_lrs, 300.0, PARAMS.conduction)
        i_path = current(0.5 / 3, PARAMS.g_lrs, 300.0, PARAMS.conduction)
        assert ratio == pytest.approx(i_sel / i_path, rel=1e-9)

    def test_ohmic_limit_collapses_to_three(self):
        p_lin = DeviceParams(conduction=ConductionParams(beta=0.0))
        xbar = Crossbar.create(3, 3, p_lin, QUIET, 7)
        xbar.w[:] = 1.0
        assert sneak_ratio(xbar, 0, 0, 0.5) == pytest.approx(3.0, rel=1e-9)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 4)])
    def test_mixed_state_oracle(self, shape):
        xbar = make_xbar(*shape, vp=NOISY)
        rng = np.random.default_rng(10)
        xbar.w[:] = rng.uniform(0, 1, xbar.w.shape)
        r, c = shape[0] // 2, shape[1] // 2
        ratio = sneak_ratio(xbar, r, c, 0.5)
        assert ratio == pytest.approx(sneak_oracle(xbar, r, c, 0.5, 300.0), rel=1e-12)


    def test_frozen_exponent_regime_oracle(self):
        # 4 V over three junctions leaves more than v_clamp on at least one.
        assert 4.0 / 3 > PARAMS.conduction.v_clamp
        xbar = make_xbar(4, 4, vp=NOISY)
        xbar.w[:] = np.random.default_rng(11).uniform(0, 1, xbar.w.shape)
        ratio = sneak_ratio(xbar, 1, 2, 4.0)
        assert ratio == pytest.approx(sneak_oracle(xbar, 1, 2, 4.0, 300.0), rel=1e-12)

    def test_solver_reports_iterations_and_residual(self):
        xbar = make_xbar(8, 8, vp=NOISY)
        xbar.w[:] = np.random.default_rng(12).uniform(0, 1, xbar.w.shape)
        paths = xbar.conductances()[:3]  # eight paths, one per column
        for v in (0.05, 0.5, 4.0):
            _, iterations, residual = crossbar._solve_series_paths(
                paths, v, 300.0, PARAMS.conduction)
            assert 1 <= iterations <= 20
            assert residual <= 1e-14

    def test_unconverged_paths_raise(self, monkeypatch):
        # The strongest Ohmic path is solved first and alone, so it is the
        # one reported when the cap stops it.
        monkeypatch.setattr(crossbar, "_SNEAK_MAX_ITERS", 1)
        xbar = make_xbar(4, 4, vp=NOISY)
        xbar.w[:] = np.random.default_rng(10).uniform(0, 1, xbar.w.shape)
        expected = r"1 of 1 paths unconverged after 1 iterations, worst relative residual"
        with pytest.raises(ConvergenceError, match=expected):
            sneak_ratio(xbar, 2, 2, 2.0)

    @staticmethod
    def all_paths_ratio(xbar, r, c, v_read):
        """Reference: every path solved in one batch, the strongest one kept."""
        g = xbar.conductances()
        rows, cols = np.arange(xbar.rows) != r, np.arange(xbar.cols) != c
        legs = np.broadcast_arrays(g[r, cols][None, :], g[np.ix_(rows, cols)],
                                   g[rows, c][:, None])
        i_paths, _, _ = crossbar._solve_series_paths(np.stack(legs).reshape(3, -1), v_read,
                                                     300.0, PARAMS.conduction)
        return current(v_read, float(g[r, c]), 300.0, PARAMS.conduction) / float(i_paths.max())

    @staticmethod
    def spy_solves(monkeypatch):
        """Path counts of every _solve_series_paths call, in call order."""
        counts = []
        solve = crossbar._solve_series_paths
        monkeypatch.setattr(crossbar, "_solve_series_paths",
                            lambda g, *args: counts.append(g.shape[1]) or solve(g, *args))
        return counts

    @pytest.mark.parametrize("shape, seed", [((2, 2), 1), ((3, 7), 2), ((8, 8), 3),
                                             ((16, 5), 4), ((32, 32), 5)])
    @pytest.mark.parametrize("v_read", [0.05, 0.5, 2.0, 4.0])
    def test_equals_all_paths_maximum_on_noisy_arrays(self, shape, seed, v_read):
        xbar = make_xbar(*shape, vp=NOISY, seed=seed)
        xbar.w[:] = np.random.default_rng(seed).uniform(0, 1, shape)
        r, c = shape[0] // 2, shape[1] - 1
        assert sneak_ratio(xbar, r, c, v_read) == self.all_paths_ratio(xbar, r, c, v_read)

    @pytest.mark.parametrize("v_read", [0.05, 0.5, 4.0])
    def test_equals_all_paths_maximum_on_tied_paths(self, monkeypatch, v_read):
        # Every path is the same three conductances: each ties the strongest.
        xbar = make_xbar(6, 5)
        xbar.w[:] = 0.5
        counts = self.spy_solves(monkeypatch)
        ratio = sneak_ratio(xbar, 2, 1, v_read)
        assert counts == [1, 19]
        assert ratio == self.all_paths_ratio(xbar, 2, 1, v_read)

    def test_non_ohmic_path_beating_the_strongest_ohmic_one_is_solved(self, monkeypatch):
        # Paths (big, small, big) and (mid, mid, big) on a 2 x 3 array, the
        # second 1 % stronger in Ohmic series.  At 0.5 V the small cell of the
        # first takes nearly all the bias, and its field factor makes that
        # path carry the more current.
        g0 = 1e-9
        big, small = 100 * g0, 0.1 * g0
        mid = 2 / ((2 / big + 1 / small) / 1.01 - 1 / big)
        g = np.array([[g0, big, mid], [big, small, mid]])
        xbar = Crossbar(np.zeros((2, 3)), g.copy(), 2 * g, PARAMS, QUIET,
                        np.random.default_rng(0))
        p = PARAMS.conduction
        ohmic = [1 / (2 / big + 1 / small), 1 / (2 / mid + 1 / big)]
        solved = [series_oracle(path, 0.5, 300.0, p) for path in
                  ((big, small, big), (mid, mid, big))]
        assert np.argmax(ohmic) == 1 and np.argmax(solved) == 0
        counts = self.spy_solves(monkeypatch)
        ratio = sneak_ratio(xbar, 0, 0, 0.5)
        assert counts == [1, 1]
        assert ratio == self.all_paths_ratio(xbar, 0, 0, 0.5)
        assert ratio == pytest.approx(current(0.5, g0, 300.0, p) / max(solved), rel=1e-12)

    @pytest.mark.parametrize("state", ["random", "all_lrs", "tied"])
    @pytest.mark.parametrize("v_read", [0.05, 0.5, 4.0])
    @pytest.mark.parametrize("scale", [0.5, 0.9, 1.0])
    def test_screen_keeps_exactly_the_bias_sum_test(self, state, v_read, scale):
        # The screened test gives the paths the sum test gives over every path,
        # at the strongest Ohmic path's current i* and below it, where more pass.
        xbar = make_xbar(9, 7, vp=QUIET if state == "tied" else NOISY, seed=5)
        xbar.w[:] = {"random": np.random.default_rng(5).uniform(0, 1, (9, 7)),
                     "all_lrs": 1.0, "tied": 0.5}[state]
        g, p, r, c = xbar.conductances(), PARAMS.conduction, 4, 2
        rows, cols = np.arange(9) != r, np.arange(7) != c
        legs = g[r, cols][None, :], g[np.ix_(rows, cols)], g[rows, c][:, None]
        k = int(np.argmin(1.0 / legs[0] + 1.0 / legs[1] + 1.0 / legs[2]))
        i = scale * crossbar._solve_series_paths(crossbar._path_legs(legs, [k]), v_read,
                                                 300.0, p)[0][0]
        bias = sum(voltage_at_current(i, leg, 300.0, p) for leg in legs)
        expected = np.flatnonzero(bias < v_read * (1.0 + crossbar._SNEAK_TIE_RTOL))
        got = crossbar._paths_below_read_bias(legs, i, v_read, 300.0, p)
        np.testing.assert_array_equal(got, expected)
        if state == "tied":
            assert got.size == 48

    def test_default_cli_value_is_pinned(self, tmp_path, monkeypatch):
        # Golden value of xbar_disturb.csv at the default config, whose master
        # seed 12345 drives every stream, the variability stream included, on
        # endpoints drawn by the earlier one-child-stream-per-device sampler,
        # after the 1000 array-drawn, noisy half-select writes; checked against
        # sneak_oracle on the written array to rel 1e-12.  That sampler
        # is patched back in so the pin keeps checking the solver through the
        # full CLI path, independent of how endpoints are sampled.
        monkeypatch.setattr(crossbar, "sample_endpoint_arrays", per_device_spawn_sampler)
        assert main(["--out", str(tmp_path), "xbar"]) == 0
        rows = dict(line.split(",") for line in
                    (tmp_path / "xbar_disturb.csv").read_text().strip().splitlines()[1:])
        assert float(rows["sneak_ratio_at_0.5V"]) == pytest.approx(1.229998870849e+02, rel=1e-12)


# --- pattern-level invariant ------------------------------------------------------


class TestEndpointPattern:
    def test_column_on_off_within_statistical_envelope(self):
        xbar = make_xbar(16, 16, vp=NOISY)
        target = np.where(np.arange(16)[:, None] % 2 == 0, PARAMS.g_lrs, PARAMS.g_hrs)
        target = np.broadcast_to(target, (16, 16)).copy()
        program_open_loop(xbar, target)
        g = xbar.conductances()
        ratio = g[0::2].mean(axis=0) / g[1::2].mean(axis=0)
        # d2d is lognormal (sigma 0.1 per endpoint); 6-sigma envelope on the mean ratio.
        assert np.all(ratio > PARAMS.conduction.on_off * np.exp(-0.6))
        assert np.all(ratio < PARAMS.conduction.on_off * np.exp(0.6))


def reference_snapshot_csv(xbar, path):
    """Reference copy of the earlier csv.writer snapshot."""
    g = xbar.conductances()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("row", "col", "w", "g_S"))
        for r in range(xbar.rows):
            for c in range(xbar.cols):
                writer.writerow([r, c, f"{xbar.w[r, c]:.12e}", f"{g[r, c]:.12e}"])


class TestSnapshot:
    # fill None is a uniform-random state; 0 and 1 are the all-HRS and all-LRS
    # arrays.  37 x 100 ends on a partial block of rows.
    @pytest.mark.parametrize("rows, cols, fill", [
        (64, 64, None), (1, 1, None), (3, 5, None), (1, 1024, None), (1024, 1, None),
        (37, 100, None), (64, 64, 0.0), (64, 64, 1.0)],
        ids=["64-64", "1-1", "3-5", "1-1024", "1024-1", "37-100", "64-64-zeros", "64-64-ones"])
    def test_bytes_match_csv_writer(self, tmp_path, rows, cols, fill):
        xbar = make_xbar(rows, cols, vp=NOISY)
        xbar.w[:] = np.random.default_rng(rows).random((rows, cols)) if fill is None else fill
        xbar.snapshot_csv(tmp_path / "snap.csv")
        reference_snapshot_csv(xbar, tmp_path / "ref.csv")
        assert (tmp_path / "snap.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_snapshot_csv(self, tmp_path):
        xbar = make_xbar(2, 3)
        xbar.w[:] = 0.25
        path = tmp_path / "snap.csv"
        xbar.snapshot_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "row,col,w,g_S"
        assert len(lines) == 1 + 2 * 3
