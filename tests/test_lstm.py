"""Recurrent motion model tests.

The forward pass is checked against a from-scratch re-implementation of
the documented equations, and the analytic BPTT gradients against central
finite differences.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mono3dt import lstm, motion
from mono3dt.io import ParseError
from mono3dt.lstm import (
    EMBED_DIM,
    HIDDEN_DIM,
    PARAM_SHAPES,
    DivergedTraining,
    LstmMotionState,
    LstmWeights,
    MotionTrainConfig,
    backward_window,
    forward_window,
    load_weights,
    plstm_predict,
    sample_trajectories,
    save_weights,
    train_lstm,
    ulstm_update,
)


def reference_forward(weights, obs, gt):
    """Independent plain-loop implementation of the training forward pass."""

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    def cell(w, b, x, h, c):
        z = w @ np.concatenate([x, h]) + b
        n = HIDDEN_DIM
        i, f, g, o = sig(z[:n]), sig(z[n : 2 * n]), np.tanh(z[2 * n : 3 * n]), sig(z[3 * n :])
        c_new = f * c + i * g
        return o * np.tanh(c_new), c_new

    W = weights.arrays
    p_bar = obs[0].astype(float)
    v_last = np.zeros(3)
    hp = cp = hu = cu = np.zeros(HIDDEN_DIM)
    vbar_prev = None
    total = 0.0
    outputs = []
    for t in range(1, len(obs)):
        ep = W["w_embed"] @ v_last + W["b_embed"]
        hp, cp = cell(W["w_pgate"], W["b_pgate"], ep, hp, cp)
        v_hat = W["w_phead2"] @ np.tanh(W["w_phead1"] @ hp + W["b_phead1"]) + W["b_phead2"]
        e1 = W["w_embed"] @ v_hat + W["b_embed"]
        e2 = W["w_embed"] @ (obs[t] - p_bar) + W["b_embed"]
        hu, cu = cell(W["w_ugate"], W["b_ugate"], np.concatenate([e1, e2]), hu, cu)
        corr = W["w_uhead2"] @ np.tanh(W["w_uhead1"] @ hu + W["b_uhead1"]) + W["b_uhead2"]
        v_bar = v_hat + corr
        p_bar = p_bar + v_bar
        total += np.sum(np.abs(p_bar - gt[t]))
        if vbar_prev is not None:
            na, nb = np.linalg.norm(v_bar), np.linalg.norm(vbar_prev)
            total += 1.0 - np.dot(v_bar, vbar_prev) / (na * nb + 1e-8)
            total += np.sum(np.abs(v_bar - vbar_prev))
        outputs.append(v_bar.copy())
        vbar_prev = v_bar
        v_last = v_bar
    return total / (len(obs) - 1), outputs


def make_window(rng, T=6):
    gt = np.cumsum(rng.normal(scale=0.4, size=(T, 3)), axis=0)
    obs = gt + rng.normal(scale=0.1, size=(T, 3))
    return obs, gt


def plstm_predict_one(state: LstmMotionState, weights, p_prev):
    """One tracklet's prediction step, as tracking ran it before it batched its rows."""
    ep = lstm._embed(weights, state.v_last)
    h, c, v_hat, _ = lstm._cell_forward(weights, "p", ep, state.h_pred, state.c_pred)
    return p_prev + v_hat, h, c


def ulstm_update_one(state: LstmMotionState, weights, p_tilde, p_obs, p_prev):
    """One tracklet's update step, as tracking ran it before it batched its rows."""
    e1 = lstm._embed(weights, p_tilde - p_prev)
    e2 = lstm._embed(weights, p_obs - p_prev)
    h, c, corr, _ = lstm._cell_forward(weights, "u", np.concatenate([e1, e2]), state.h_upd, state.c_upd)
    p_bar = p_tilde + corr
    return p_bar, p_bar - p_prev, h, c


@pytest.mark.parametrize("k", [0, 1, 14])
def test_tracking_rows_bit_equal_to_one_tracklet_steps(k):
    """The tracker's batched predict and update give each row the bits of stepping it alone."""
    rng = np.random.default_rng(400 + k)
    weights = LstmWeights.initialize(rng, scale=0.5)
    rows = LstmMotionState(rng.normal(scale=0.5, size=(k, 3)), *rng.uniform(-1, 1, (4, k, HIDDEN_DIM)))
    positions = rng.normal(scale=20.0, size=(k, 3))
    observed = positions + rng.normal(scale=0.5, size=(k, 3))
    predicted, candidate = motion.predict_tracklet("lstm", rows, positions, weights)
    refined, updated = motion.update_motion_state(
        "lstm", candidate, predicted, observed, None, None, positions, weights
    )
    assert predicted.shape == refined.shape == (k, 3) and updated.h_upd.shape == (k, HIDDEN_DIM)
    for i in range(k):
        one = LstmMotionState(rows.v_last[i], rows.h_pred[i], rows.c_pred[i], rows.h_upd[i], rows.c_upd[i])
        p_tilde, h_pred, c_pred = plstm_predict_one(one, weights, positions[i])
        assert np.array_equal(predicted[i], p_tilde)
        assert np.array_equal(candidate.h_pred[i], h_pred) and np.array_equal(candidate.c_pred[i], c_pred)
        assert np.array_equal(candidate.v_last[i], one.v_last)
        p_bar, v_last, h_upd, c_upd = ulstm_update_one(one, weights, p_tilde, observed[i], positions[i])
        assert np.array_equal(refined[i], p_bar) and np.array_equal(updated.v_last[i], v_last)
        assert np.array_equal(updated.h_upd[i], h_upd) and np.array_equal(updated.c_upd[i], c_upd)
        assert np.array_equal(updated.h_pred[i], h_pred)


def reference_train(dataset, config):
    """train_lstm's loop with the allocating momentum update
    (velocity = MOMENTUM * v + g * c; w -= lr * velocity).

    Every trajectory must be at least config.window frames long. Returns
    (weights, loss history, number of steps whose gradient was clipped).
    """
    rng = np.random.default_rng(config.seed)
    weights = LstmWeights.initialize(rng, scale=lstm.INIT_SCALE)
    velocity = {name: np.zeros(shape) for name, shape in PARAM_SHAPES.items()}
    history = []
    clipped = 0
    lr = lstm.LEARNING_RATE
    for step in range(config.steps):
        if step > 0 and step % config.lr_decay_every == 0:
            lr *= lstm.LR_DECAY
        gt_wins, obs_wins = [], []
        for _ in range(config.batch_size):
            gt, obs = dataset[rng.integers(len(dataset))]
            start = rng.integers(0, len(gt) - config.window + 1)
            gt_wins.append(gt[start : start + config.window])
            obs_wins.append(obs[start : start + config.window])
        loss, steps = forward_window(weights, np.stack(obs_wins), np.stack(gt_wins))
        history.append(loss / config.batch_size)
        grads = backward_window(weights, steps)
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values())) / config.batch_size
        clip_factor = 1.0 / config.batch_size
        if norm > lstm.GRAD_CLIP:
            clip_factor *= lstm.GRAD_CLIP / norm
            clipped += 1
        for name in weights.arrays:
            velocity[name] = lstm.MOMENTUM * velocity[name] + grads[name] * clip_factor
            weights.arrays[name] -= lr * velocity[name]
    return weights, history, clipped


class TestForward:
    def test_zero_weights_prediction_is_identity(self):
        state = LstmMotionState()
        p_prev = np.array([3.0, -2.0, 0.75])
        p_tilde, new_state = plstm_predict(state, LstmWeights.zeros(), p_prev)
        assert np.array_equal(p_tilde, p_prev)
        assert not np.array_equal(new_state.h_pred, state.h_pred) or np.allclose(
            new_state.h_pred, 0
        )

    def test_zero_weights_refinement_is_identity(self):
        state = LstmMotionState()
        p_prev = np.array([0.0, 0.0, 0.0])
        p_tilde = np.array([1.0, 1.0, 0.0])
        p_obs = np.array([1.5, 0.5, 0.0])
        p_bar, new_state = ulstm_update(state, LstmWeights.zeros(), p_tilde, p_obs, p_prev)
        assert np.array_equal(p_bar, p_tilde)
        assert np.array_equal(new_state.v_last, p_bar - p_prev)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(42)
        weights = LstmWeights.initialize(rng, scale=0.8)
        obs, gt = make_window(rng, T=7)
        loss, steps = forward_window(weights, obs, gt)
        ref_loss, ref_outputs = reference_forward(weights, obs, gt)
        assert abs(loss - ref_loss) < 1e-10
        for st, ref in zip(steps, ref_outputs):
            assert np.max(np.abs(st["v_bar"] - ref)) < 1e-10

    def test_tracking_steps_replay_training_window(self):
        """Chained plstm_predict/ulstm_update runs the recurrence that training fits."""
        rng = np.random.default_rng(5)
        weights = LstmWeights.initialize(rng, scale=0.8)
        obs, gt = make_window(rng, T=8)
        _, steps = forward_window(weights, obs, gt)
        state = LstmMotionState()
        p_prev = obs[0]
        for t, st in enumerate(steps, start=1):
            p_tilde, state = plstm_predict(state, weights, p_prev)
            p_prev, state = ulstm_update(state, weights, p_tilde, obs[t], p_prev)
            assert np.max(np.abs(state.v_last - st["v_bar"])) < 1e-12

    def test_forward_deterministic(self):
        rng = np.random.default_rng(1)
        weights = LstmWeights.initialize(rng, scale=0.5)
        obs, gt = make_window(np.random.default_rng(2))
        l1, _ = forward_window(weights, obs, gt)
        l2, _ = forward_window(weights, obs, gt)
        assert l1 == l2


class TestGradients:
    def test_bptt_matches_finite_differences(self):
        rng = np.random.default_rng(1234)
        weights = LstmWeights.initialize(rng, scale=0.6)
        obs, gt = make_window(rng, T=5)

        loss, steps = forward_window(weights, obs, gt)
        # keep residuals clear of the L1 kinks so central differences are valid
        for st in steps:
            assert np.min(np.abs(st["p_residual"])) > 1e-3
            if st["cos"] is not None:
                assert np.min(np.abs(st["v_bar"] - st["cos"][4])) > 1e-3
        grads = backward_window(weights, steps)

        eps = 1e-5
        rel_errors = []
        for name, shape in PARAM_SHAPES.items():
            arr = weights.arrays[name]
            flat = arr.reshape(-1)
            n_checks = min(12, flat.size)
            idxs = rng.choice(flat.size, size=n_checks, replace=False)
            for idx in idxs:
                orig = flat[idx]
                flat[idx] = orig + eps
                lp, _ = forward_window(weights, obs, gt)
                flat[idx] = orig - eps
                lm, _ = forward_window(weights, obs, gt)
                flat[idx] = orig
                numeric = (lp - lm) / (2 * eps)
                analytic = grads[name].reshape(-1)[idx]
                # the 1e-6 floor keeps float64 roundoff in the finite
                # difference from dominating near-zero gradients
                denom = max(abs(numeric), abs(analytic), 1e-6)
                rel_errors.append(abs(numeric - analytic) / denom)
        assert max(rel_errors) < 1e-4


class TestBatch:
    """A (B, T, 3) batch runs every window at once; the result is the sum over its windows."""

    @staticmethod
    def batch(rng, count, T):
        windows = [make_window(rng, T=T) for _ in range(count)]
        return np.stack([obs for obs, _ in windows]), np.stack([gt for _, gt in windows])

    def test_gradient_is_sum_of_single_windows(self):
        rng = np.random.default_rng(31)
        weights = LstmWeights.initialize(rng, scale=0.6)
        obs, gt = self.batch(rng, 5, T=7)
        loss, steps = forward_window(weights, obs, gt)
        grads = backward_window(weights, steps)
        loss_sum = 0.0
        grads_sum = {name: np.zeros(shape) for name, shape in PARAM_SHAPES.items()}
        for b in range(len(obs)):
            window_loss, window_steps = forward_window(weights, obs[b], gt[b])
            loss_sum += window_loss
            for name, g in backward_window(weights, window_steps).items():
                grads_sum[name] += g
        assert loss == loss_sum
        assert list(grads) == list(PARAM_SHAPES)
        for name, expected in grads_sum.items():
            assert grads[name].shape == PARAM_SHAPES[name]
            assert np.max(np.abs(grads[name] - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_window_bits_do_not_depend_on_its_batchmates(self):
        """A window keeps its bits when the other windows of its batch are swapped for different ones."""
        rng = np.random.default_rng(32)
        weights = LstmWeights.initialize(rng, scale=0.8)
        obs, gt = self.batch(rng, 5, T=8)
        _, steps = forward_window(weights, obs, gt)
        for b in range(len(obs)):
            other_obs, other_gt = self.batch(rng, 5, T=8)
            other_obs[b], other_gt[b] = obs[b], gt[b]
            _, other_steps = forward_window(weights, other_obs, other_gt)
            for st, other in zip(steps, other_steps):
                assert not np.array_equal(st["v_bar"], other["v_bar"])
                assert np.array_equal(st["v_bar"][b], other["v_bar"][b])

    def test_each_window_close_to_its_single_run(self):
        """One matrix product per layer moves a window's values by roundoff only, against running it alone."""
        rng = np.random.default_rng(32)
        weights = LstmWeights.initialize(rng, scale=0.8)
        obs, gt = self.batch(rng, 5, T=8)
        _, steps = forward_window(weights, obs, gt)
        for b in range(len(obs)):
            _, window_steps = forward_window(weights, obs[b], gt[b])
            for st, single in zip(steps, window_steps):
                expected = single["v_bar"][0]
                assert np.max(np.abs(st["v_bar"][b] - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_batch_matches_finite_differences(self):
        rng = np.random.default_rng(1253)
        weights = LstmWeights.initialize(rng, scale=0.6)
        obs, gt = self.batch(rng, 3, T=5)

        loss, steps = forward_window(weights, obs, gt)
        # keep residuals clear of the L1 kinks so central differences are valid
        for st in steps:
            assert np.min(np.abs(st["p_residual"])) > 1e-3
            if st["cos"] is not None:
                assert np.min(np.abs(st["v_bar"] - st["cos"][4])) > 1e-3
        grads = backward_window(weights, steps)

        eps = 1e-5
        rel_errors = []
        for name in PARAM_SHAPES:
            flat = weights.arrays[name].reshape(-1)
            for idx in rng.choice(flat.size, size=min(12, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                lp, _ = forward_window(weights, obs, gt)
                flat[idx] = orig - eps
                lm, _ = forward_window(weights, obs, gt)
                flat[idx] = orig
                numeric = (lp - lm) / (2 * eps)
                analytic = grads[name].reshape(-1)[idx]
                denom = max(abs(numeric), abs(analytic), 1e-6)
                rel_errors.append(abs(numeric - analytic) / denom)
        assert max(rel_errors) < 1e-4

    def test_backward_out_contract(self):
        """out= is filled in place with the allocating call's bits and returned."""
        rng = np.random.default_rng(33)
        weights = LstmWeights.initialize(rng, scale=0.6)
        obs, gt = self.batch(rng, 4, T=9)
        _, steps = forward_window(weights, obs, gt)
        # the two-argument call, as bench/outcheck.py's gradient check makes it
        allocated = backward_window(weights, steps)
        out = {name: np.full(shape, np.nan) for name, shape in PARAM_SHAPES.items()}
        filled = backward_window(weights, steps, out=out)
        assert filled is out
        assert list(allocated) == list(out) == list(PARAM_SHAPES)
        for name, g in allocated.items():
            assert g.shape == PARAM_SHAPES[name]
            assert np.array_equal(out[name], g)

    def test_first_step_loss_pins_window_draws(self):
        """The first step's windows and loss are the ones drawn one window at a time."""
        dataset = sample_trajectories(np.random.default_rng(3), 6, length=20)
        _, history = train_lstm(dataset, MotionTrainConfig(steps=1, batch_size=5, window=8, seed=11))
        assert history[0] == 2.8711967533008673


class TestTraining:
    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError):
            train_lstm([], MotionTrainConfig(steps=1))

    @pytest.mark.parametrize("config", [dict(window=1), dict(window=0), dict(batch_size=0), dict(batch_size=-2)])
    def test_untrainable_config_raises(self, config):
        dataset = sample_trajectories(np.random.default_rng(0), 2, length=12)
        with pytest.raises(ValueError):
            train_lstm(dataset, MotionTrainConfig(steps=1, **config))

    def test_overfit_constant_velocity(self):
        v = np.array([0.6, -0.3, 0.0])
        true = np.cumsum(np.tile(v, (12, 1)), axis=0)
        config = MotionTrainConfig(steps=2000, batch_size=1, window=10, seed=3)
        weights, history = train_lstm([(true, true.copy())], config)
        assert history[-1] < 1e-3

    def test_training_deterministic(self):
        rng = np.random.default_rng(9)
        dataset = sample_trajectories(rng, 3, length=15)
        cfg = MotionTrainConfig(steps=25, batch_size=2, seed=5)
        w1, h1 = train_lstm(dataset, cfg)
        w2, h2 = train_lstm(dataset, cfg)
        assert h1 == h2
        for name in w1.arrays:
            assert np.array_equal(w1.arrays[name], w2.arrays[name])

    def test_non_finite_loss_detected(self):
        v = np.array([0.5, 0.0, 0.0])
        true = np.cumsum(np.tile(v, (12, 1)), axis=0)
        obs = true.copy()
        obs[4, 1] = np.nan
        cfg = MotionTrainConfig(steps=50, batch_size=1, seed=0)
        with pytest.raises(DivergedTraining):
            train_lstm([(true, obs)], cfg)

    def test_non_finite_gradient_detected(self, monkeypatch):
        """An inf gradient on the last step raises before the update reaches the weights."""
        real_backward = lstm.backward_window
        seen = []

        def poisoned(weights, steps, **kwargs):
            grads = real_backward(weights, steps, **kwargs)
            seen.append((weights, weights.copy()))
            if len(seen) == 3:
                grads["w_pgate"][5, 7] = np.inf
            return grads

        monkeypatch.setattr(lstm, "backward_window", poisoned)
        dataset = sample_trajectories(np.random.default_rng(4), 3, length=12)
        with pytest.raises(DivergedTraining):
            train_lstm(dataset, MotionTrainConfig(steps=3, batch_size=2, seed=1))
        weights, before = seen[-1]
        for name in PARAM_SHAPES:
            assert np.array_equal(weights[name], before[name])

    def test_in_place_update_bit_equal_to_reference(self):
        """The in-place momentum step gives the bits of the allocating two-line update."""
        dataset = sample_trajectories(np.random.default_rng(0), 6, length=20)
        config = MotionTrainConfig(steps=40, batch_size=4, window=10, seed=0, lr_decay_every=10)
        weights, history = train_lstm(dataset, config)
        expected, expected_history, clipped = reference_train(dataset, config)
        assert 0 < clipped < config.steps
        assert history == expected_history
        for name in PARAM_SHAPES:
            assert np.array_equal(weights[name], expected[name])

    def test_weights_do_not_depend_on_blas_threads(self, tmp_path):
        """Training gives the same weight bytes with one BLAS thread and with two.

        An OpenBLAS dot product over 20,000 or more elements splits its sum
        by thread, so a gradient norm taken with np.vdot would move the
        clipping factor, and with it the weights, with the thread count.
        """
        script = (
            "import sys; import numpy as np; from mono3dt import lstm\n"
            "dataset = lstm.sample_trajectories(np.random.default_rng(0), 12, length=30)\n"
            "config = lstm.MotionTrainConfig(steps=20, batch_size=8, window=10)\n"
            "weights, _ = lstm.train_lstm(dataset, config)\n"
            "open(sys.argv[1], 'wb').write(b''.join(a.tobytes() for a in weights.arrays.values()))\n"
        )
        src = str(Path(lstm.__file__).resolve().parent.parent)
        written = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            path = tmp_path / f"weights-{threads}.bin"
            subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True, timeout=60)
            written.append(path.read_bytes())
        assert len(written[0]) == 8 * sum(math.prod(shape) for shape in PARAM_SHAPES.values())
        assert written[0] == written[1]

    def test_peak_memory_flat_across_steps(self):
        """train_lstm's traced peak stays under 4.9x the parameter bytes and does not grow with the step count."""
        dataset = sample_trajectories(np.random.default_rng(0), 12, length=30)
        param_bytes = 8 * sum(math.prod(shape) for shape in PARAM_SHAPES.values())
        train_lstm(dataset, MotionTrainConfig(steps=1, batch_size=8, window=10))
        peaks = []
        for steps in (3, 10):
            tracemalloc.start()
            try:
                train_lstm(dataset, MotionTrainConfig(steps=steps, batch_size=8, window=10))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # weights, momentum and gradients are 3x the parameter bytes; one
        # step's caches and temporaries add about 1.5x (2.35x when every
        # step allocates its gradients and update afresh)
        assert max(peaks) < 4.9 * param_bytes
        assert abs(peaks[1] - peaks[0]) < 0.01 * param_bytes

    def test_weights_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        weights = LstmWeights.initialize(rng)
        path = tmp_path / "weights.json"
        save_weights(weights, path)
        loaded = load_weights(path)
        for name in weights.arrays:
            assert np.array_equal(weights.arrays[name], loaded.arrays[name])

    @pytest.mark.parametrize("damage", ["missing", "mis-shaped", "non-finite", "overflow"])
    def test_bad_weights_array_names_the_file(self, tmp_path, damage):
        path = tmp_path / "weights.json"
        save_weights(LstmWeights.zeros(), path)
        doc = json.loads(path.read_text())
        if damage == "missing":
            del doc["arrays"]["b_embed"]
        elif damage == "mis-shaped":
            doc["arrays"]["b_embed"] = doc["arrays"]["b_embed"][:-1]
        elif damage == "overflow":
            doc["arrays"]["b_embed"][0] = 10**400  # an integer no float holds
        else:
            doc["arrays"]["b_embed"][0] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as err:
            load_weights(path)
        assert str(err.value).startswith(f"{path}:1: ") and "b_embed" in str(err.value)


@pytest.fixture(scope="module")
def small_trained_weights():
    rng = np.random.default_rng(100)
    dataset = sample_trajectories(rng, 12, length=25)
    cfg = MotionTrainConfig(steps=300, batch_size=4, seed=7)
    weights, _ = train_lstm(dataset, cfg)
    return weights


class TestUpdateBehavior:
    def test_correction_monotone_in_disagreement(self, small_trained_weights):
        """Agreeing observations should not be corrected more than 1 m outliers."""
        weights = small_trained_weights
        rng = np.random.default_rng(77)
        agree, disagree = [], []
        for _ in range(100):
            state = LstmMotionState(
                v_last=rng.normal(scale=0.3, size=(5, 3))[-1],
                h_pred=rng.normal(scale=0.1, size=HIDDEN_DIM),
                c_pred=rng.normal(scale=0.1, size=HIDDEN_DIM),
                h_upd=rng.normal(scale=0.1, size=HIDDEN_DIM),
                c_upd=rng.normal(scale=0.1, size=HIDDEN_DIM),
            )
            p_prev = rng.normal(scale=10.0, size=3)
            p_tilde, state2 = plstm_predict(state, weights, p_prev)
            p_bar_same, _ = ulstm_update(state2, weights, p_tilde, p_tilde, p_prev)
            offset = rng.normal(size=3)
            offset = offset / np.linalg.norm(offset)
            p_bar_diff, _ = ulstm_update(state2, weights, p_tilde, p_tilde + offset, p_prev)
            agree.append(np.linalg.norm(p_bar_same - p_tilde))
            disagree.append(np.linalg.norm(p_bar_diff - p_tilde))
        assert np.mean(agree) <= np.mean(disagree)
