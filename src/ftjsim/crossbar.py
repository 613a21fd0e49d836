"""Crossbar array composition: half-biased writes, analog reads, sneak metrics.

Cell state is held as dense arrays (one entry per junction) so reads and
programming vectorize.  Every state update, from a half-select write to a
programming loop, applies the one pulse kernel ``device.pulse_response`` to
the cells a pulse reaches, with cycle-to-cycle jitter drawn from each array's
jitter stream; arrays sampled together by ``create_arrays`` share one stream
and draw from it as one array.  ``write_cells`` applies a sequence of
half-bias single-cell writes, drawn by the caller as three arrays, in a few
array passes: each write takes one jitter draw for its selected cell, in
write order, and a write whose half amplitude stays below the pulse
threshold changes only its own cell, so such writes commute across cells.  Wires are ideal (no line resistance) and
unselected lines are grounded during reads.  The sneak metric solves the
three-junction path with the largest Ohmic series current first, to a bias
residual of 1e-14 relative, and then, in one vectorised Newton iteration,
only the paths whose junction biases at that current sum to below the read
voltage: no other path can carry more.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conduction import (V_READ_SWEEP_MAX, activation_factor, current, differential_conductance,
                         shape_factor, voltage_at_current)
from .device import DeviceParams, Direction, level_table, pulse_response, truncated_normal
from .errors import ConvergenceError
from .table import write_columns
from .variability import VariabilityParams, sample_endpoint_arrays

SNAPSHOT_CSV_HEADER = ("row", "col", "w", "g_S")


@dataclass
class DisturbReport:
    disturbed: int  # half-selected cells whose state changed


@dataclass
class WriteVerifyReport:
    converged_fraction: float
    mean_iterations: float
    max_iterations: int
    clipped_cells: int


class Crossbar:
    """rows x cols array of junctions plus its device and noise model."""

    def __init__(
        self,
        w: np.ndarray,
        g_hrs: np.ndarray,
        g_lrs: np.ndarray,
        params: DeviceParams,
        vp: VariabilityParams,
        c2c_rng: np.random.Generator,
    ):
        if w.ndim != 2 or w.shape != g_hrs.shape or w.shape != g_lrs.shape:
            raise ValueError("state arrays must share one 2-D shape")
        if min(w.shape) < 1:
            raise ValueError("array dimensions must be >= 1")
        if not ((0 < g_hrs) & (g_hrs < g_lrs) & (g_lrs < np.inf)).all():
            raise ValueError("every cell needs finite endpoints with 0 < g_hrs < g_lrs")
        self.w = w
        self.g_hrs = g_hrs
        self.g_lrs = g_lrs
        self.params = params
        self.vp = vp
        self._c2c_rng = c2c_rng

    @property
    def rows(self) -> int:
        return self.w.shape[0]

    @property
    def cols(self) -> int:
        return self.w.shape[1]

    @classmethod
    def create(cls, rows: int, cols: int, params: DeviceParams, vp: VariabilityParams,
               seed: int) -> "Crossbar":
        """Sample a fresh array; ``seed`` spawns its endpoint and jitter streams."""
        return create_arrays([(rows, cols)], params, vp, seed)[0]

    def conductances(self) -> np.ndarray:
        """Small-signal conductance of every cell, in siemens."""
        return self.g_hrs + self.w * (self.g_lrs - self.g_hrs)

    def snapshot_csv(self, path: str | Path) -> None:
        """One CSV line per cell, row-major, with CRLF endings as csv.writer writes them."""
        rows, cols = np.indices(self.w.shape).reshape(2, -1)
        write_columns(path, SNAPSHOT_CSV_HEADER,
                      [rows, cols, self.w.ravel(), self.conductances().ravel()])

    def _normalized_targets(self, target: np.ndarray) -> tuple[np.ndarray, int]:
        """Targets mapped to w-space, clipped to the per-device span."""
        target = np.asarray(target, dtype=float)
        if target.shape != self.w.shape:
            raise ValueError(f"target shape {target.shape} != array shape {self.w.shape}")
        t_norm = (target - self.g_hrs) / (self.g_lrs - self.g_hrs)
        clipped = int(np.count_nonzero((t_norm < 0) | (t_norm > 1)))
        return np.clip(t_norm, 0.0, 1.0), clipped

    def set_conductances(self, target: np.ndarray) -> int:
        """Continuous (non-quantized, noiseless) programming; returns clip count.

        Idealized-programming path for analyses that separate quantization and
        noise from the mapping itself.
        """
        t_norm, clipped = self._normalized_targets(target)
        self.w[:] = t_norm
        return clipped


def create_arrays(shapes, params: DeviceParams, vp: VariabilityParams,
                  seed: int) -> list[Crossbar]:
    """Fresh arrays of the given (rows, cols) shapes, sampled as one population.

    ``seed`` spawns one endpoint stream and one jitter stream.  A single
    endpoint draw covers every cell, array after array in row-major order,
    and each array's endpoints are views into it; all the arrays share the
    jitter stream.  One shape gives exactly ``Crossbar.create``.
    """
    if any(rows < 1 or cols < 1 for rows, cols in shapes):
        raise ValueError("array dimensions must be >= 1")
    d2d_ss, c2c_ss = np.random.SeedSequence(seed).spawn(2)
    bounds = np.cumsum([0] + [rows * cols for rows, cols in shapes]).tolist()
    g_hrs, g_lrs = sample_endpoint_arrays(bounds[-1], params, vp, np.random.default_rng(d2d_ss))
    c2c_rng = np.random.default_rng(c2c_ss)
    return [Crossbar(np.zeros(shape), g_hrs[lo:hi].reshape(shape), g_lrs[lo:hi].reshape(shape),
                     params, vp, c2c_rng)
            for shape, lo, hi in zip(shapes, bounds, bounds[1:])]


def _write_own_cells(xbar: Crossbar, part: slice, r, c, amps, eps) -> None:
    """Apply the writes in ``part``, each changing only its own cell, in order per cell.

    Such writes commute across cells, so pass j applies every cell's j-th
    write at once, one kernel call per distinct amplitude; ``eps`` holds each
    write's jitter, or is None.
    """
    r, c, amps = r[part], c[part], amps[part]
    eps = None if eps is None else eps[part]
    cell = r * xbar.cols + c
    order = np.argsort(cell, kind="stable")
    first = np.flatnonzero(np.r_[True, np.diff(cell[order]) != 0])
    rank = np.empty(cell.size, dtype=np.intp)  # earlier writes to the same cell
    rank[order] = np.arange(cell.size) - np.repeat(first, np.diff(np.r_[first, cell.size]))
    for j in range(int(rank.max(initial=-1)) + 1):
        batch = np.flatnonzero(rank == j)
        for amp in dict.fromkeys(amps[batch].tolist()):
            sel = batch[amps[batch] == amp]
            xbar.w[r[sel], c[sel]] = pulse_response(xbar.w[r[sel], c[sel]], amp, xbar.params,
                                                    None if eps is None else eps[sel])


def write_cells(xbar: Crossbar, rows, cols, amplitudes) -> DisturbReport:
    """Apply single-cell writes under the half-bias scheme in order; report half-select fallout.

    Write i pulses cell (rows[i], cols[i]) at amplitudes[i]: the selected cell
    sees the full amplitude and every other cell on its row or column half of
    it, all through the same pulse response, in place.  Before any write, one
    jitter per write is drawn in write order from the array's c2c stream
    (nothing at sigma_c2c = 0); write i scales its selected cell's step by
    1 + jitter i, and the half-selected cells of an over-driven write step
    without jitter.  A write whose half amplitude is below the pulse threshold
    changes only its own cell, so runs of such writes go through a few array
    passes; a write whose half amplitude reaches the threshold is applied
    alone, in order.  Every cell is bounds-checked before any changes.
    """
    r, c, amps = np.asarray(rows), np.asarray(cols), np.asarray(amplitudes, dtype=float)
    if not (r.ndim == c.ndim == amps.ndim == 1 and r.size == c.size == amps.size):
        raise ValueError("rows, cols and amplitudes must be 1-D sequences of one length")
    outside = (r < 0) | (r >= xbar.rows) | (c < 0) | (c >= xbar.cols)
    if outside.any():
        i = int(np.argmax(outside))
        raise IndexError(f"cell ({r[i]}, {c[i]}) out of bounds for {xbar.rows}x{xbar.cols}")
    if not np.isfinite(amps).all():
        raise ValueError("write amplitudes must be finite")
    p, w, sigma = xbar.params, xbar.w, xbar.vp.sigma_c2c
    eps = truncated_normal(xbar._c2c_rng, sigma, amps.size) if sigma else None
    disturbed = lo = 0
    for i in np.flatnonzero(np.abs(amps / 2) >= p.v_pulse_threshold):
        _write_own_cells(xbar, slice(lo, i), r, c, amps, eps)
        ri, ci, amp = int(r[i]), int(c[i]), float(amps[i])
        row, col = w[ri, :], w[:, ci]
        selected = pulse_response(row[ci], amp, p, None if eps is None else eps[i])
        new_row = pulse_response(row, amp / 2, p)
        new_col = pulse_response(col, amp / 2, p)
        # The selected cell lies on both lines but is not half-selected.
        disturbed += int(np.count_nonzero(new_row != row) + np.count_nonzero(new_col != col)
                         - 2 * (new_row[ci] != row[ci]))
        row[:], col[:] = new_row, new_col
        row[ci] = selected
        lo = i + 1
    _write_own_cells(xbar, slice(lo, None), r, c, amps, eps)
    return DisturbReport(disturbed=disturbed)


# No command calls this; it stays because the benchmark's per-layer counters
# (benchmarks/layers.py) bind its name, and goes when they no longer do.
def write_cell(xbar: Crossbar, r: int, c: int, amplitude: float) -> DisturbReport:
    """``write_cells`` with one write: cell (r, c) pulsed at ``amplitude``."""
    return write_cells(xbar, [r], [c], [amplitude])


def _stack(xbars: list[Crossbar]) -> tuple:
    """Shared device model, the flat cell bounds of a stack and its jitter runs.

    A run is a maximal sequence of consecutive arrays that share one jitter
    stream; runs are given as their streams and their flat cell bounds.
    """
    model = (xbars[0].params, xbars[0].vp.sigma_c2c)
    if any((x.params, x.vp.sigma_c2c) != model for x in xbars):
        raise ValueError("stacked arrays must share device parameters and sigma_c2c")
    bounds = np.cumsum([0] + [x.w.size for x in xbars])
    firsts = [i for i, x in enumerate(xbars) if i == 0 or x._c2c_rng is not xbars[i - 1]._c2c_rng]
    runs = [xbars[i]._c2c_rng for i in firsts], bounds[firsts + [len(xbars)]]
    return (*model, bounds, runs)


def _jitter(runs: tuple, sigma: float, idx: np.ndarray):
    """Jitter of the ascending stacked cells idx, one draw per run from its stream, or None."""
    if sigma == 0:
        return None
    rngs, edges = runs
    if len(rngs) == 1:
        return truncated_normal(rngs[0], sigma, idx.size)
    counts = np.diff(np.searchsorted(idx, edges))
    return np.concatenate([truncated_normal(rng, sigma, n) for rng, n in zip(rngs, counts) if n])


def program_open_loop(xbar: Crossbar, target: np.ndarray) -> Crossbar:
    """Pulse every cell from the HRS toward the staircase level nearest its target.

    A cell whose nearest noiseless level is k receives k potentiating pulses
    at ``v_set_full``, each through the pulse kernel with cycle-to-cycle
    jitter drawn from the array's own stream.
    """
    program_open_loop_stack([xbar], [target])
    return xbar


def program_open_loop_stack(xbars: list[Crossbar], targets: list) -> None:
    """program_open_loop on arrays sharing one device model, in one pass over all their cells.

    Each pulse is one kernel call over every cell still owed one.  Each run
    of consecutive arrays that share a jitter stream draws the jitter of its
    cells in one call, so arrays with their own streams equal programming
    one array at a time, and arrays that share one equal programming them as
    one array.
    """
    p, sigma, bounds, runs = _stack(xbars)
    t_norm = np.concatenate([x._normalized_targets(t)[0].ravel()
                             for x, t in zip(xbars, targets, strict=True)])
    levels = level_table(p.nu_for(Direction.POTENTIATE), Direction.POTENTIATE, p.n_levels)
    idx = np.clip(np.searchsorted(levels, t_norm), 1, len(levels) - 1)
    k = np.where((t_norm - levels[idx - 1]) <= (levels[idx] - t_norm), idx - 1, idx)

    w = np.zeros(k.size)
    idx = np.flatnonzero(k)  # cells still owed a pulse, ascending flat index
    for s in range(1, int(k.max()) + 1):
        idx = idx[k[idx] >= s]
        w[idx] = pulse_response(w[idx], p.v_set_full, p, _jitter(runs, sigma, idx))
    for x, lo, hi in zip(xbars, bounds, bounds[1:]):
        x.w[:] = w[lo:hi].reshape(x.w.shape)


def program_write_verify(xbar: Crossbar, target: np.ndarray, tol: float = 0.05,
                         max_iters: int = 200) -> WriteVerifyReport:
    """Closed-loop programming: pulse toward the target, re-read, repeat.

    Each unconverged cell takes one full-amplitude pulse toward its target
    per iteration and is re-read at the bias read voltage; it stops when the
    measured conductance is within ``tol`` relative or its iteration budget is
    exhausted (reported, not fatal).
    """
    return program_write_verify_stack([xbar], [target], tol, max_iters)[0]


def program_write_verify_stack(xbars: list[Crossbar], targets: list, tol: float = 0.05,
                               max_iters: int = 200) -> list[WriteVerifyReport]:
    """program_write_verify on arrays sharing one device model, in one pass over all their cells.

    Jitter is drawn as in ``program_open_loop_stack``: one call per run of
    arrays that share a stream.  Each array keeps its own report, so arrays
    with their own streams equal programming one array at a time.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    p, sigma, bounds, runs = _stack(xbars)
    normalized = [x._normalized_targets(t) for x, t in zip(xbars, targets, strict=True)]
    # Measured conductance at the read bias is the state conductance times a
    # state-independent factor, so verification compares in state space.  A
    # cell within tol is never pulsed again, so it stays finished: only the
    # unfinished cells are carried, as an ascending flat index.
    g_hrs = np.concatenate([x.g_hrs.ravel() for x in xbars])
    span = np.concatenate([(x.g_lrs - x.g_hrs).ravel() for x in xbars])
    target_g = g_hrs + np.concatenate([t.ravel() for t, _ in normalized]) * span
    w = np.concatenate([x.w.ravel() for x in xbars])
    iters = np.full(w.size, max_iters)
    idx = np.arange(w.size)
    for it in range(max_iters):
        g, tg = g_hrs[idx] + w[idx] * span[idx], target_g[idx]
        keep = np.abs(g - tg) / tg > tol
        iters[idx[~keep]] = it
        idx, up = idx[keep], g[keep] < tg[keep]
        if not idx.size:
            break
        for amplitude, cells in ((p.v_set_full, idx[up]), (p.v_reset_full, idx[~up])):
            if cells.size:
                w[cells] = pulse_response(w[cells], amplitude, p, _jitter(runs, sigma, cells))

    converged = np.abs(g_hrs + w * span - target_g) / target_g <= tol
    for x, lo, hi in zip(xbars, bounds, bounds[1:]):
        x.w[:] = w[lo:hi].reshape(x.w.shape)
    return [WriteVerifyReport(converged_fraction=float(converged[lo:hi].mean()),
                              mean_iterations=float(iters[lo:hi].mean()),
                              max_iterations=int(iters[lo:hi].max()), clipped_cells=clipped)
            for (_, clipped), lo, hi in zip(normalized, bounds, bounds[1:])]


def read_vmm(xbar: Crossbar, x: np.ndarray, t: float | None = None,
             neg: Crossbar | None = None) -> np.ndarray:
    """Column currents for row voltages x (one vector or a batch of them).

    I_j = sum_i current(x_i, g_ij, t); within the Ohmic regime at the
    reference temperature this is exactly the conductance-matrix product.
    With ``neg``, the differential currents I(xbar) - I(neg) of an equal-shaped
    pair on the same row voltages, read as one product over the conductance
    difference.
    """
    t = xbar.params.conduction.t_ref if t is None else t
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != xbar.rows:
        raise ValueError(f"input length {x.shape[-1]} != rows {xbar.rows}")
    if neg is not None and neg.w.shape != xbar.w.shape:
        raise ValueError(f"pair shapes differ: {xbar.w.shape} and {neg.w.shape}")
    v_max = max(x.max(initial=0.0), -x.min(initial=0.0))  # nan if any x is nan
    if not v_max <= V_READ_SWEEP_MAX:
        raise ValueError(f"read voltages must be finite with |v| <= {V_READ_SWEEP_MAX} V")
    p = xbar.params.conduction
    a = activation_factor(t, p)
    eff = x if a == 1.0 else x * a  # a is exactly 1 at t_ref
    if v_max > p.v_pf_min:  # the field factor is exactly 1 up to its onset
        eff = eff * shape_factor(np.abs(x), t, p)
    g = xbar.conductances()
    if neg is not None:
        g -= neg.conductances()
    return eff @ g


# Relative bias residual that ends a sneak path's solve, and the iteration cap.
# A path's bracket spans at most a factor 3 h_clamp after one iteration, so
# bisection alone needs 53 + log2(3 h_clamp) halvings (67 at the defaults).
_SNEAK_RTOL = 1e-14
_SNEAK_MAX_ITERS = 200
# Relative slack of the bias-sum test in sneak_ratio: a path within it of the
# read voltage at the strongest Ohmic path's current is solved, not skipped.
_SNEAK_TIE_RTOL = 1e-12
# Relative slack of the screen before that test: far looser than the test and
# than the rounding of the biases it sums, so the screen drops no path it passes.
_SNEAK_SCREEN_RTOL = 1e-9


def _solve_series_paths(g, v_total: float, t: float, p) -> tuple[np.ndarray, int, float]:
    """Common current of each path of three series junctions across v_total.

    ``g`` is (3, n_paths).  One Newton iteration on the current runs over the
    unconverged paths, on the residual sum_k V_k(I) - v_total with slope
    sum_k 1 / (dI/dV)_k.  Each path starts from its Ohmic series current, a
    lower bound, keeps the bracket [0, min_k I_k(v_total)] with bisection as
    fallback, and ends with the step from its first iterate within the
    residual bound.  Returns the currents, iterations and worst residual.
    """
    i = v_total / np.sum(1.0 / (g * activation_factor(t, p)), axis=0)
    lo, hi = np.zeros_like(i), current(v_total, g, t, p).min(axis=0)
    residual, idx = np.zeros_like(i), np.arange(i.size)
    for iteration in range(1, _SNEAK_MAX_ITERS + 1):
        g_a, i_a, lo_a, hi_a = g[:, idx], i[idx], lo[idx], hi[idx]
        v = voltage_at_current(i_a, g_a, t, p)
        f = v.sum(axis=0) - v_total
        residual[idx] = np.abs(f) / v_total
        np.copyto(hi_a, i_a, where=f > 0)
        np.copyto(lo_a, i_a, where=f <= 0)
        nxt = i_a - f / np.sum(1.0 / differential_conductance(v, g_a, t, p), axis=0)
        i[idx] = np.where((lo_a <= nxt) & (nxt <= hi_a), nxt, 0.5 * (lo_a + hi_a))
        lo[idx], hi[idx] = lo_a, hi_a
        idx = idx[residual[idx] > _SNEAK_RTOL]
        if not idx.size:
            return i, iteration, float(residual.max())
    raise ConvergenceError(
        f"sneak-path solver: {idx.size} of {i.size} paths unconverged after "
        f"{_SNEAK_MAX_ITERS} iterations, worst relative residual {residual.max():.3g}")


def sneak_ratio(xbar: Crossbar, r: int, c: int, v_read: float, t: float | None = None) -> float:
    """Selected-cell current over the worst three-cell series sneak current.

    Every alternative route through one unselected row and column is three
    junctions in series across the read voltage.  The path with the largest
    Ohmic series current is solved first, to a bias residual of 1e-14
    relative, giving i*.  A path's bias sum at current I rises with I, so
    only a path whose junction biases at i* sum to below v_read (within
    1e-12 relative, so that ties are solved) can carry more; those are
    solved too and the ratio uses the strongest.  A single row or column has
    no path (+inf).
    """
    if not (0 <= r < xbar.rows and 0 <= c < xbar.cols):
        raise IndexError(f"cell ({r}, {c}) out of bounds")
    if v_read <= 0 or not np.isfinite(v_read):
        raise ValueError(f"v_read must be positive and finite, got {v_read}")
    t = xbar.params.conduction.t_ref if t is None else t
    if xbar.rows < 2 or xbar.cols < 2:
        return float("inf")
    p = xbar.params.conduction
    g = xbar.conductances()
    i_selected = current(v_read, float(g[r, c]), t, p)
    rows, cols = np.arange(xbar.rows) != r, np.arange(xbar.cols) != c
    # Path (r2, c2) runs through cells (r, c2), (r2, c2) and (r2, c): a row
    # leg, the inner block and a column leg, broadcast to (rows - 1, cols - 1).
    legs = g[r, cols][None, :], g[np.ix_(rows, cols)], g[rows, c][:, None]
    with np.errstate(over="ignore"):  # a path that overflows stays unconverged and is reported
        # The least series resistance carries the largest Ohmic current.
        k = int(np.argmin(1.0 / legs[0] + 1.0 / legs[1] + 1.0 / legs[2]))
        i_worst = float(_solve_series_paths(_path_legs(legs, [k]), v_read, t, p)[0][0])
        more = _paths_below_read_bias(legs, i_worst, v_read, t, p)
        more = more[more != k]
        if more.size:
            i_paths, _, _ = _solve_series_paths(_path_legs(legs, more), v_read, t, p)
            i_worst = max(i_worst, float(i_paths.max()))
    return i_selected / i_worst


def _paths_below_read_bias(legs: tuple, i: float, v_read: float, t: float, p) -> np.ndarray:
    """Ascending flat indices of the paths whose junction biases at current i sum to below
    v_read (1 + 1e-12).

    The row- and column-leg biases are solved exactly; an inner cell is then
    screened by the current it carries at the bias left to it, which must
    reach i at a looser slack, so the screen keeps every path the sum test
    passes.  The sum test runs on the kept paths alone, adding the biases in
    the same order, so its result is the test's over every path.
    """
    v_row, v_col = voltage_at_current(i, legs[0], t, p), voltage_at_current(i, legs[2], t, p)
    # A leg bias that overflows to inf leaves no bias to the inner cell.
    left = np.maximum(v_read * (1.0 + _SNEAK_SCREEN_RTOL) - v_row - v_col, 0.0)
    kept = np.flatnonzero(current(left, legs[1], t, p) >= i)
    r2, c2 = np.divmod(kept, legs[1].shape[1])
    bias = v_row[0, c2] + voltage_at_current(i, legs[1][r2, c2], t, p) + v_col[r2, 0]
    return kept[bias < v_read * (1.0 + _SNEAK_TIE_RTOL)]


def _path_legs(legs: tuple, paths) -> np.ndarray:
    """The (3, n) conductances of the given flat path indices, leg by leg."""
    r2, c2 = np.divmod(np.asarray(paths, dtype=np.intp), legs[1].shape[1])
    return np.stack((legs[0][0, c2], legs[1][r2, c2], legs[2][r2, 0]))
