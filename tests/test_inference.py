"""Weight mapping, analog forward pass and accuracy evaluation tests."""

from dataclasses import replace

import numpy as np
import pytest

from ftjsim.conduction import ConductionParams
from ftjsim.config import STREAM_TRAINING
from ftjsim.device import DeviceParams
from ftjsim.errors import ConfigError
from ftjsim.inference import (
    MLPSpec,
    check_read_voltage,
    evaluate,
    float_forward,
    load_dataset_csv,
    make_blobs_dataset,
    map_weights,
    program_network,
    train_mlp,
)
from ftjsim.variability import VariabilityParams, derive_seed, sample_endpoint_arrays

PARAMS = DeviceParams()
QUIET = VariabilityParams(sigma_c2c=0.0, sigma_d2d_hrs=0.0, sigma_d2d_lrs=0.0)


def cross_entropy(weights, x, y):
    """Mean softmax cross-entropy of the float network over the batch."""
    logits = float_forward(weights, x)
    logits = logits - logits.max(axis=1, keepdims=True)
    return float(np.mean(np.log(np.exp(logits).sum(axis=1)) - logits[np.arange(len(y)), y]))


def fits(weights, x, y):
    return np.array_equal(np.argmax(float_forward(weights, x), axis=1), y)


@pytest.fixture(scope="module")
def toy():
    x, y = make_blobs_dataset()
    spec = MLPSpec((x.shape[1], 24, int(y.max()) + 1))
    weights = train_mlp(x, y, spec, seed=0)
    return x, y, weights


class TestMapWeights:
    def test_zero_matrix_pins_both_to_hrs(self):
        g_pos, g_neg, _ = map_weights(np.zeros((3, 3)), PARAMS)
        np.testing.assert_array_equal(g_pos, PARAMS.g_hrs)
        np.testing.assert_array_equal(g_neg, PARAMS.g_hrs)

    def test_max_weight_hits_lrs_exactly(self):
        w = np.array([[0.5, -2.0], [1.0, 0.0]])
        g_pos, g_neg, _ = map_weights(w, PARAMS)
        assert g_neg[0, 1] == PARAMS.g_lrs  # |-2| is the max magnitude
        assert g_pos[0, 1] == PARAMS.g_hrs
        assert np.all(g_pos <= PARAMS.g_lrs) and np.all(g_neg <= PARAMS.g_lrs)

    def test_round_trip_reproduces_weights(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(8, 5))
        g_pos, g_neg, scale = map_weights(w, PARAMS)
        np.testing.assert_allclose((g_pos - g_neg) / scale, w, rtol=1e-12, atol=1e-15)

    def test_conductances_within_span(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(10, 10))
        g_pos, g_neg, _ = map_weights(w, PARAMS)
        for g in (g_pos, g_neg):
            assert np.all(g >= PARAMS.g_hrs - 1e-18)
            assert np.all(g <= PARAMS.g_lrs + 1e-18)

    def test_read_voltage_must_stay_ohmic(self):
        # Inputs are read at up to 0.1 V, past this device's Ohmic regime.
        params = DeviceParams(conduction=ConductionParams(v_ohmic_max=0.05))
        with pytest.raises(ConfigError, match="Ohmic regime"):
            check_read_voltage(params)
        with pytest.raises(ConfigError, match="Ohmic regime"):
            program_network([np.ones((2, 2))], params, QUIET, [1])


class TestForward:
    def test_idealized_equals_float(self, toy):
        x, y, weights = toy
        (net,) = program_network(weights, PARAMS, QUIET, [1], mode="continuous")
        analog = net.forward(x)
        ref = float_forward(weights, x)
        np.testing.assert_allclose(analog, ref, rtol=1e-9, atol=1e-12)

    def test_zero_input_zero_preactivation(self, toy):
        _, _, weights = toy
        (net,) = program_network(weights[:1], PARAMS, QUIET, [1], mode="continuous")
        out = net.forward(np.zeros(weights[0].shape[0]))
        np.testing.assert_allclose(out, 0.0, atol=1e-20)

    def test_sign_matrix_counts(self):
        # oracle: y_j = sum_i sign_ij * x_i computed by hand for a +-1 matrix
        w = np.array([
            [1.0, -1.0, 1.0, -1.0],
            [1.0, 1.0, -1.0, -1.0],
            [-1.0, 1.0, 1.0, -1.0],
            [1.0, 1.0, 1.0, 1.0],
        ])
        (net,) = program_network([w], PARAMS, QUIET, [1], mode="open_loop")
        x = np.array([1.0, 1.0, 1.0, 1.0])
        expected = np.array([2.0, 2.0, 2.0, -2.0])
        np.testing.assert_allclose(net.forward(x), expected, rtol=1e-9)

    def test_single_layer_matches_within_quantization(self, toy):
        x, _, _ = toy
        rng = np.random.default_rng(2)
        w = rng.normal(size=(16, 4))
        (net,) = program_network([w], PARAMS, QUIET, [1], mode="open_loop")
        analog = net.forward(x[:32])
        ref = float_forward([w], x[:32])
        # Quantization bound: n_levels staircase, differential pair -> coarse bound
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(analog - ref)) < 0.1 * scale

    def test_input_left_unchanged(self, toy):
        x, _, weights = toy
        (net,) = program_network(weights, PARAMS, QUIET, [1], mode="open_loop")
        for sample in (x[:64].copy(), x[0].copy()):
            before = sample.copy()
            net.forward(sample)
            assert np.array_equal(sample, before)

    def test_input_scale_invariance_of_predictions(self, toy):
        x, y, weights = toy
        (net,) = program_network(weights, PARAMS, QUIET, [1], mode="open_loop")
        base = np.argmax(net.forward(x[:64]), axis=1)
        for scale in (0.25, 0.5):
            scaled = np.argmax(net.forward(x[:64] * scale), axis=1)
            np.testing.assert_array_equal(scaled, base)


class TestReplicas:
    SEEDS = (derive_seed(12345, 16), derive_seed(12345, 17), derive_seed(12345, 18))

    @pytest.mark.parametrize("mode", ["continuous", "open_loop", "write_verify"])
    def test_one_call_equals_one_seed_calls(self, toy, mode):
        _, _, weights = toy
        together = program_network(weights, PARAMS, VariabilityParams(), self.SEEDS, mode=mode)
        assert len(together) == 3
        for net, seed in zip(together, self.SEEDS):
            (alone,) = program_network(weights, PARAMS, VariabilityParams(), [seed], mode=mode)
            for got, want in zip(net.layers, alone.layers):
                for a in ("w", "g_hrs", "g_lrs"):
                    assert np.array_equal(getattr(got.pos, a), getattr(want.pos, a))
                    assert np.array_equal(getattr(got.neg, a), getattr(want.neg, a))

    def test_replica_is_one_population_with_one_jitter_stream(self, toy):
        # G+ then G- of each layer in turn, all from one endpoint draw of the
        # seed's first child stream; the second child is the shared jitter stream.
        _, _, weights = toy
        vp = VariabilityParams()
        (net,) = program_network(weights, PARAMS, vp, [7], mode="continuous")
        arrays = [x for layer in net.layers for x in (layer.pos, layer.neg)]
        d2d, c2c = np.random.SeedSequence(7).spawn(2)
        n = 2 * sum(w.size for w in weights)
        g_hrs, g_lrs = sample_endpoint_arrays(n, PARAMS, vp, np.random.default_rng(d2d))
        assert np.array_equal(np.concatenate([x.g_hrs.ravel() for x in arrays]), g_hrs)
        assert np.array_equal(np.concatenate([x.g_lrs.ravel() for x in arrays]), g_lrs)
        assert all(x._c2c_rng is arrays[0]._c2c_rng for x in arrays)
        assert (arrays[0]._c2c_rng.bit_generator.state
                == np.random.default_rng(c2c).bit_generator.state)


class TestEvaluate:
    def test_baseline_vs_baseline_zero_degradation(self, toy):
        x, y, weights = toy
        (net,) = program_network(weights, PARAMS, QUIET, [1], mode="continuous")
        report = evaluate(net, x, y, float_forward(weights, x))
        assert report.degradation_points == pytest.approx(0.0, abs=1e-9)

    def test_quantized_64_levels_within_two_points(self, toy):
        x, y, weights = toy
        p64 = replace(PARAMS, n_levels=64)
        (net,) = program_network(weights, p64, QUIET, [1], mode="open_loop")
        report = evaluate(net, x, y, float_forward(weights, x))
        assert abs(report.degradation_points) < 2.0

    def test_default_variability_under_five_points(self, toy):
        x, y, weights = toy
        degs = []
        for s in range(10):
            (net,) = program_network(weights, PARAMS, VariabilityParams(),
                                     [derive_seed(12345, 16 + s)], mode="open_loop")
            degs.append(evaluate(net, x, y, float_forward(weights, x)).degradation_points)
        assert np.mean(degs) < 5.0

    def test_degradation_monotone_in_c2c(self, toy):
        x, y, weights = toy
        means = []
        for sigma in (0.0, 0.1, 0.4, 0.8):
            degs = []
            for s in range(10):
                vp = VariabilityParams(sigma_c2c=sigma, sigma_d2d_hrs=0.0, sigma_d2d_lrs=0.0)
                (net,) = program_network(weights, PARAMS, vp, [derive_seed(1000, s)],
                                         mode="open_loop")
                degs.append(evaluate(net, x, y, float_forward(weights, x)).degradation_points)
            means.append(np.mean(degs))
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))

    def test_write_verify_mode(self, toy):
        x, y, weights = toy
        (net,) = program_network(weights, PARAMS, QUIET, [1], mode="write_verify", tol=0.02)
        report = evaluate(net, x, y, float_forward(weights, x))
        assert abs(report.degradation_points) < 2.0

    def test_per_class_report_shape(self, toy):
        x, y, weights = toy
        (net,) = program_network(weights, PARAMS, QUIET, [1], mode="continuous")
        report = evaluate(net, x, y, float_forward(weights, x))
        assert report.per_class_analog.shape == (4,)
        assert np.all(report.per_class_analog >= 0) and np.all(report.per_class_analog <= 1)


class TestDataset:
    def test_deterministic(self):
        x1, y1 = make_blobs_dataset()
        x2, y2 = make_blobs_dataset()
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_shape_and_range(self):
        x, y = make_blobs_dataset()
        assert x.shape == (512, 16)
        assert set(np.unique(y)) == {0, 1, 2, 3}
        assert np.max(np.abs(x)) <= 1.0

    def test_baseline_classifies_well(self, toy):
        x, y, weights = toy
        acc = np.mean(np.argmax(float_forward(weights, x), axis=1) == y)
        assert acc > 0.9

    def test_csv_round_trip(self, tmp_path, save_dataset_csv):
        x, y = make_blobs_dataset(n_samples=32)
        path = tmp_path / "data.csv"
        save_dataset_csv(path, x, y)
        x2, y2 = load_dataset_csv(path)
        np.testing.assert_array_equal(x, x2)
        np.testing.assert_array_equal(y, y2)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MLPSpec((16,))


def central_difference_gradient(weights, x, y, h=1e-6):
    """Cross-entropy gradient of every layer by central differences."""
    grads = []
    for w in weights:
        numeric = np.empty_like(w)
        for idx in np.ndindex(w.shape):
            w0 = w[idx]
            w[idx] = w0 + h
            up = cross_entropy(weights, x, y)
            w[idx] = w0 - h
            down = cross_entropy(weights, x, y)
            w[idx] = w0
            numeric[idx] = (up - down) / (2 * h)
        grads.append(numeric)
    return grads


SIZES = pytest.mark.parametrize("sizes", [(16, 4), (16, 24, 4), (16, 64, 64, 4)],
                                ids=["linear", "hidden_24", "hidden_64_64"])


class TestTrainMlp:
    @SIZES
    def test_one_epoch_steps_down_the_central_difference_gradient(self, sizes):
        # Every layer's step must be -lr times the gradient at the weights the
        # epoch started from, which fails if a gradient goes through weights
        # already updated in the same epoch.
        x, y = make_blobs_dataset(n_samples=32)
        spec = MLPSpec(sizes)
        before = train_mlp(x, y, spec, seed=3, epochs=0)
        lr = 0.5
        after = train_mlp(x, y, spec, seed=3, epochs=1, lr=lr)
        for w, w_after, g in zip(before, after, central_difference_gradient(before, x, y)):
            np.testing.assert_allclose(w_after - w, -lr * g, rtol=1e-6, atol=1e-8)

    @SIZES
    def test_second_epoch_adds_momentum_times_the_first_gradient(self, sizes):
        # Heavy ball: the second step is -lr * (g(w1) + MOMENTUM * g(w0)), each
        # gradient taken at the weights its epoch started from.
        x, y = make_blobs_dataset(n_samples=32)
        spec = MLPSpec(sizes)
        lr = 0.5
        w0, w1, w2 = (train_mlp(x, y, spec, seed=3, epochs=k, lr=lr) for k in range(3))
        g0 = central_difference_gradient(w0, x, y)
        g1 = central_difference_gradient(w1, x, y)
        for a, b, ga, gb in zip(w1, w2, g0, g1):
            np.testing.assert_allclose(b - a, -lr * (gb + 0.9 * ga), rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("master_seed", [12345, 20231017])
    def test_fits_well_before_the_cap(self, master_seed):
        # The CLI's training seed at both master seeds: the default hidden width
        # fits before the 400-epoch cap, and 64,64 within 40 epochs.
        x, y = make_blobs_dataset()
        seed = derive_seed(master_seed, STREAM_TRAINING)
        assert fits(train_mlp(x, y, MLPSpec((16, 24, 4)), seed=seed, epochs=399), x, y)
        assert fits(train_mlp(x, y, MLPSpec((16, 64, 64, 4)), seed=seed, epochs=40), x, y)

    def test_stops_at_the_first_epoch_that_fits(self):
        x, y = make_blobs_dataset(n_samples=64, spread=0.3)
        spec = MLPSpec((16, 24, 4))
        k_fit = next(k for k in range(400) if fits(train_mlp(x, y, spec, epochs=k), x, y))
        assert k_fit > 0
        for got, want in zip(train_mlp(x, y, spec, epochs=400), train_mlp(x, y, spec, epochs=k_fit)):
            assert np.array_equal(got, want)

    def test_runs_every_epoch_when_the_set_never_fits(self):
        x, y = make_blobs_dataset()
        spec = MLPSpec((16, 4))
        (last,) = train_mlp(x, y, spec, epochs=400)
        (one_short,) = train_mlp(x, y, spec, epochs=399)
        assert not fits([last], x, y)
        assert not np.array_equal(last, one_short)

    def test_zero_epochs_return_the_initial_draw(self):
        x, y = make_blobs_dataset()
        rng = np.random.default_rng(5)
        want = [rng.normal(0.0, np.sqrt(2.0 / 16), size=(16, 24)),
                rng.normal(0.0, np.sqrt(2.0 / 24), size=(24, 4))]
        for got, w in zip(train_mlp(x, y, MLPSpec((16, 24, 4)), seed=5, epochs=0), want):
            assert np.array_equal(got, w)
