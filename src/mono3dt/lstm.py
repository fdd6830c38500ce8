"""From-scratch recurrent motion model: prediction and update LSTMs.

Two single-layer LSTM cells cooperate per tracked object:

  * the prediction cell steps on the newest updated velocity and emits a
    velocity estimate, advancing the object one frame;
  * the update cell consumes the embeddings of (predicted - previous) and
    (observed - previous) location offsets and emits a refinement added to
    the prediction.

Everything is float64 numpy with an explicit backward pass so gradients
can be verified against finite differences. Offsets rather than absolute
world coordinates are embedded, keeping inputs at meters-per-frame scale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .geometry import matvec
from .io import ParseError, UnsupportedFormatVersion

EMBED_DIM = 64
HIDDEN_DIM = 128
GATE_DIM = 4 * HIDDEN_DIM

WEIGHTS_FORMAT_VERSION = 1

# name -> shape of every parameter array
PARAM_SHAPES = {
    "w_embed": (EMBED_DIM, 3),
    "b_embed": (EMBED_DIM,),
    "w_pgate": (GATE_DIM, EMBED_DIM + HIDDEN_DIM),
    "b_pgate": (GATE_DIM,),
    "w_ugate": (GATE_DIM, 2 * EMBED_DIM + HIDDEN_DIM),
    "b_ugate": (GATE_DIM,),
    "w_phead1": (EMBED_DIM, HIDDEN_DIM),
    "b_phead1": (EMBED_DIM,),
    "w_phead2": (3, EMBED_DIM),
    "b_phead2": (3,),
    "w_uhead1": (EMBED_DIM, HIDDEN_DIM),
    "b_uhead1": (EMBED_DIM,),
    "w_uhead2": (3, EMBED_DIM),
    "b_uhead2": (3,),
}


class DivergedTraining(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass
class LstmWeights:
    arrays: dict

    def __post_init__(self):
        for name, shape in PARAM_SHAPES.items():
            problem = f"{name} must hold {shape} finite values"
            try:
                arr = np.asarray(self.arrays[name], dtype=float)
            except OverflowError as exc:  # an integer beyond the float range
                raise ValueError(problem) from exc
            if arr.size != math.prod(shape) or not np.all(np.isfinite(arr)):
                raise ValueError(problem)
            self.arrays[name] = arr.reshape(shape)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    @staticmethod
    def zeros() -> "LstmWeights":
        return LstmWeights({name: np.zeros(shape) for name, shape in PARAM_SHAPES.items()})

    @staticmethod
    def initialize(rng: np.random.Generator, scale: float = 1.0) -> "LstmWeights":
        arrays = {}
        for name, shape in PARAM_SHAPES.items():
            if name.startswith("b_"):
                arrays[name] = np.zeros(shape)
            else:
                fan_in = shape[-1]
                arrays[name] = rng.normal(scale=scale / math.sqrt(fan_in), size=shape)
        # forget-gate bias starts open so early memory survives
        for gate_bias in ("b_pgate", "b_ugate"):
            arrays[gate_bias][HIDDEN_DIM : 2 * HIDDEN_DIM] = 1.0
        return LstmWeights(arrays)

    def copy(self) -> "LstmWeights":
        return LstmWeights({k: v.copy() for k, v in self.arrays.items()})


@dataclass
class LstmMotionState:
    """Last refined velocity and both cells' memory, one row or (K, ·) rows; steps return a new state."""

    v_last: np.ndarray = field(default_factory=lambda: np.zeros(3))
    h_pred: np.ndarray = field(default_factory=lambda: np.zeros(HIDDEN_DIM))
    c_pred: np.ndarray = field(default_factory=lambda: np.zeros(HIDDEN_DIM))
    h_upd: np.ndarray = field(default_factory=lambda: np.zeros(HIDDEN_DIM))
    c_upd: np.ndarray = field(default_factory=lambda: np.zeros(HIDDEN_DIM))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _rowdot(a, b):
    """dot(a_row, b_row) for every row, bit-equal to np.dot on one row."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


# cell -> its layers: the LSTM gates, then the head's two tanh/linear
# layers; layer "x" has parameters w_x and b_x
_CELL_LAYERS = {c: (f"{c}gate", f"{c}head1", f"{c}head2") for c in ("p", "u")}


def _gemm(m, rows):
    """m @ row for every row of a (B, n) batch as one matrix product.

    Faster than matvec's stacked products, but a row's bits depend on the
    batch's shape (not on the other rows' values), so only training uses it.
    """
    return rows @ m.T


def _cell_forward(weights: LstmWeights, cell: str, x, h_prev, c_prev, product=matvec):
    """One step of the prediction ("p") or update ("u") cell.

    Runs the LSTM gates on [x, h_prev], then the two-layer tanh head on
    the new hidden state. x, h_prev and c_prev are one row each or a
    (B, ·) batch of rows. Returns (h, c, head output, cache). Tracking and
    training both run the cells through this function only. Every layer
    is product(w, rows): tracking keeps the per-row matvec, so a row's bits
    do not depend on how many rows step with it; forward_window passes
    _gemm, one matrix product per layer over the batch.
    """
    gate, head1, head2 = _CELL_LAYERS[cell]
    xh = np.concatenate([x, h_prev], -1)
    z = product(weights[f"w_{gate}"], xh) + weights[f"b_{gate}"]
    # the adjacent i and f slices in one call: element-wise, so the same bits
    i_f = _sigmoid(z[..., : 2 * HIDDEN_DIM])
    i, f = i_f[..., :HIDDEN_DIM], i_f[..., HIDDEN_DIM:]
    g = np.tanh(z[..., 2 * HIDDEN_DIM : 3 * HIDDEN_DIM])
    o = _sigmoid(z[..., 3 * HIDDEN_DIM :])
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    h = o * tanh_c
    t = np.tanh(product(weights[f"w_{head1}"], h) + weights[f"b_{head1}"])
    y = product(weights[f"w_{head2}"], t) + weights[f"b_{head2}"]
    return h, c, y, (xh, c_prev, i, f, g, o, tanh_c, h, t)


def _cell_backward(weights: LstmWeights, cell: str, cache, dy, dh_next, dc_next, rows):
    """Backward of _cell_forward over a (B, ·) batch.

    Appends each layer's (output gradient, input) rows to rows[layer] for
    the weight gradients and returns (dx, dh_prev, dc_prev).
    """
    gate, head1, head2 = _CELL_LAYERS[cell]
    xh, c_prev, i, f, g, o, tanh_c, h, t = cache
    rows[head2].append((dy, t))
    da = (dy @ weights[f"w_{head2}"]) * (1.0 - t * t)
    rows[head1].append((da, h))
    dh = dh_next + da @ weights[f"w_{head1}"]
    do = dh * tanh_c
    dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
    di = dc * g
    df = dc * c_prev
    dg = dc * i
    dz = np.concatenate(
        [di * i * (1 - i), df * f * (1 - f), dg * (1 - g * g), do * o * (1 - o)], axis=-1
    )
    rows[gate].append((dz, xh))
    dxh = dz @ weights[f"w_{gate}"]
    n_x = xh.shape[-1] - HIDDEN_DIM
    return dxh[:, :n_x], dxh[:, n_x:], dc * f


def _embed(weights, v, product=matvec):
    return product(weights["w_embed"], v) + weights["b_embed"]


def _embed_backward(weights, g, v, rows):
    """Backward of _embed: appends (g, v) to rows["embed"], returns the gradient on v."""
    rows["embed"].append((g, v))
    return g @ weights["w_embed"]


def plstm_predict(state: LstmMotionState, weights: LstmWeights, p_prev: np.ndarray):
    """One prediction step. Returns (predicted location, advanced state).

    The last refined velocity is left untouched, so coasting through
    occlusion keeps the pre-occlusion motion signature.
    """
    ep = _embed(weights, state.v_last)
    h, c, v_hat, _ = _cell_forward(weights, "p", ep, state.h_pred, state.c_pred)
    return np.asarray(p_prev, dtype=float) + v_hat, replace(state, h_pred=h, c_pred=c)


def ulstm_update(
    state: LstmMotionState,
    weights: LstmWeights,
    p_tilde: np.ndarray,
    p_obs: np.ndarray,
    p_prev: np.ndarray,
):
    """Refine a prediction with the current observation.

    Returns (refined location, advanced state); the refined velocity
    (refined - previous) becomes the state's v_last.
    """
    p_prev = np.asarray(p_prev, dtype=float)
    p_tilde = np.asarray(p_tilde, dtype=float)
    e1 = _embed(weights, p_tilde - p_prev)
    e2 = _embed(weights, np.asarray(p_obs, dtype=float) - p_prev)
    h, c, corr, _ = _cell_forward(weights, "u", np.concatenate([e1, e2], -1), state.h_upd, state.c_upd)
    p_bar = p_tilde + corr
    return p_bar, replace(state, v_last=p_bar - p_prev, h_upd=h, c_upd=c)


_COS_EPS = 1e-8


def forward_window(weights: LstmWeights, obs: np.ndarray, gt: np.ndarray):
    """Run both cells over a batch of observation windows and compute the loss.

    obs and gt are (B, T, 3), or one (T, 3) window (B = 1); the first
    observation of a window anchors its estimate.
    Loss per transition = L1(refined location, gt location)
                        + (1 - cos(consecutive refined velocities))
                        + L1(consecutive refined velocities),
    averaged over each window's T-1 transitions. Anchoring the first term
    on location keeps velocity biases from integrating into unbounded
    drift. Returns (loss, caches): the loss is the sum of the windows' mean
    losses, added in window order, and the caches carry everything the
    backward pass needs. Each layer is one matrix product over the batch
    (_gemm), not tracking's per-row matvec: a window's values can depend
    on the batch's shape but not on the other windows' values, and match
    running it alone to a relative 1e-12.
    """
    obs = np.asarray(obs, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if obs.ndim == 2:
        obs, gt = obs[None], gt[None]
    B, T = obs.shape[:2]
    p_bar = obs[:, 0]
    v_last = np.zeros((B, 3))
    hp = cp = hu = cu = np.zeros((B, HIDDEN_DIM))
    steps = []
    total = np.zeros(B)
    for t in range(1, T):
        ep = _embed(weights, v_last, _gemm)
        hp, cp, v_hat, cache_p = _cell_forward(weights, "p", ep, hp, cp, _gemm)
        d_obs = obs[:, t] - p_bar
        xu = np.concatenate([_embed(weights, v_hat, _gemm), _embed(weights, d_obs, _gemm)], axis=-1)
        hu, cu, corr, cache_u = _cell_forward(weights, "u", xu, hu, cu, _gemm)
        v_bar = v_hat + corr
        p_bar_new = p_bar + v_bar
        step_loss = np.sum(np.abs(p_bar_new - gt[:, t]), axis=-1)
        cos_cache = None
        if t > 1:  # the velocity terms compare with the previous refined velocity
            v_ref = v_last
            na = np.sqrt(_rowdot(v_bar, v_bar))
            nb = np.sqrt(_rowdot(v_ref, v_ref))
            den = na * nb + _COS_EPS
            dot = _rowdot(v_bar, v_ref)
            step_loss = step_loss + (1.0 - dot / den)
            step_loss = step_loss + np.sum(np.abs(v_bar - v_ref), axis=-1)
            cos_cache = (na, nb, den, dot, v_ref)
        total = total + step_loss
        steps.append(
            {
                "v_last": v_last,
                "cache_p": cache_p,
                "v_hat": v_hat,
                "d_obs": d_obs,
                "cache_u": cache_u,
                "v_bar": v_bar,
                "p_residual": p_bar_new - gt[:, t],
                "cos": cos_cache,
            }
        )
        v_last = v_bar
        p_bar = p_bar_new
    loss = 0.0
    for window_loss in total / (T - 1):
        loss += float(window_loss)
    return loss, steps


def _cos_grad(a, b, na, nb, den, dot):
    """d/da [1 - dot(a, b) / den], den = |a||b| + eps, per row; a row with |a| = 0 has no norm term."""
    safe_na = np.where(na > 0, na, 1.0)
    return np.where(na > 0, -(b / den) + dot * (a / safe_na) * nb / (den * den), -(b / den))


def backward_window(weights: LstmWeights, steps, out=None):
    """BPTT over forward_window caches.

    Returns the gradient of forward_window's loss, a dict keyed like
    PARAM_SHAPES. The time loop carries only the (B, ·) recurrent
    gradients; each weight gradient is one product over the stacked
    (B·(T-1), ·) rows after it. With out, a dict of float arrays shaped
    like PARAM_SHAPES, every entry is overwritten and out is returned;
    the values are the same bits as without it.
    """
    n_steps = len(steps)
    scale = 1.0 / n_steps
    B = len(steps[0]["v_bar"])
    d_pbar = np.zeros((B, 3))
    d_vbar_future = np.zeros((B, 3))
    dhp = dcp = dhu = dcu = np.zeros((B, HIDDEN_DIM))
    rows = {name[2:]: [] for name in PARAM_SHAPES if name.startswith("w_")}
    for t in range(n_steps - 1, -1, -1):
        st = steps[t]
        v_bar = st["v_bar"]
        # location L1 acts on p_bar_t, which both v_bar_t and p_bar_{t-1} feed
        d_pbar = d_pbar + scale * np.sign(st["p_residual"])
        g_vbar = np.zeros((B, 3))
        g_prev_loss = np.zeros((B, 3))
        if st["cos"] is not None:
            na, nb, den, dot = (a[:, None] for a in st["cos"][:4])
            v_ref = st["cos"][4]
            g_vbar += scale * _cos_grad(v_bar, v_ref, na, nb, den, dot)
            g_vbar += scale * np.sign(v_bar - v_ref)
            g_prev_loss += scale * _cos_grad(v_ref, v_bar, nb, na, den, dot)
            g_prev_loss -= scale * np.sign(v_bar - v_ref)
        g_vbar = g_vbar + d_vbar_future + d_pbar
        # v_bar = v_hat + corr: the update head's output takes g_vbar as is
        g_xu, dhu, dcu = _cell_backward(weights, "u", st["cache_u"], g_vbar, dhu, dcu, rows)
        # d_obs = obs_t - p_bar_{t-1}
        d_pbar = d_pbar - _embed_backward(weights, g_xu[:, EMBED_DIM:], st["d_obs"], rows)
        g_vhat = g_vbar + _embed_backward(weights, g_xu[:, :EMBED_DIM], st["v_hat"], rows)
        g_ep, dhp, dcp = _cell_backward(weights, "p", st["cache_p"], g_vhat, dhp, dcp, rows)
        d_vbar_future = _embed_backward(weights, g_ep, st["v_last"], rows) + g_prev_loss
    if out is None:
        out = {name: np.empty(shape) for name, shape in PARAM_SHAPES.items()}
    for layer, pairs in rows.items():
        d_out = np.concatenate([d for d, _ in pairs])
        np.matmul(d_out.T, np.concatenate([x for _, x in pairs]), out=out[f"w_{layer}"])
        d_out.sum(axis=0, out=out[f"b_{layer}"])
    return out


# train_lstm's fixed settings: the initial weight scale, then SGD with
# momentum, gradient-norm clipping and a step decay of the learning rate
INIT_SCALE = 0.5
LEARNING_RATE = 1e-3
MOMENTUM = 0.9
GRAD_CLIP = 5.0
LR_DECAY = 0.5


@dataclass
class MotionTrainConfig:
    steps: int = 2000
    window: int = 10
    batch_size: int = 4
    seed: int = 0
    lr_decay_every: int = 250  # steps between learning-rate halvings; 0 never decays


def train_lstm(dataset, config: MotionTrainConfig):
    """Gradient-descent training over observation windows.

    dataset: list of (true_positions (T,3), observed_positions (T,3)).
    Returns (weights, loss_history). Each step draws batch_size windows and
    runs them as one batch. The gradients and the momentum live in one
    buffer set per call, and the update runs in place. Raises
    DivergedTraining on a non-finite loss or gradient norm and ValueError
    on an empty dataset, a window shorter than 2 frames or a batch size
    below 1.
    """
    if len(dataset) == 0:
        raise ValueError("empty training dataset")
    window = config.window
    if window < 2:
        raise ValueError(f"window must be at least 2 frames, got {window}")
    if config.batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {config.batch_size}")
    usable = [i for i, (gt, obs) in enumerate(dataset) if len(gt) >= window]
    if not usable:
        raise ValueError(f"no trajectory is at least {window} frames long")
    rng = np.random.default_rng(config.seed)
    weights = LstmWeights.initialize(rng, scale=INIT_SCALE)
    velocity = {name: np.zeros(shape) for name, shape in PARAM_SHAPES.items()}
    grads = {name: np.empty(shape) for name, shape in PARAM_SHAPES.items()}
    history = []
    lr = LEARNING_RATE
    for step in range(config.steps):
        if step > 0 and config.lr_decay_every > 0 and step % config.lr_decay_every == 0:
            lr *= LR_DECAY
        gt_wins, obs_wins = [], []
        for _ in range(config.batch_size):
            idx = usable[rng.integers(len(usable))]
            gt, obs = dataset[idx]
            start = rng.integers(0, len(gt) - window + 1)
            gt_wins.append(np.asarray(gt[start : start + window], dtype=float))
            obs_wins.append(np.asarray(obs[start : start + window], dtype=float))
        batch_loss, steps_cache = forward_window(weights, np.stack(obs_wins), np.stack(gt_wins))
        batch_loss /= config.batch_size
        if not math.isfinite(batch_loss):
            raise DivergedTraining(f"loss became non-finite at step {step}")
        history.append(batch_loss)
        backward_window(weights, steps_cache, out=grads)
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values())) / config.batch_size
        # checked before the update: the next step's loss check would
        # come too late on the last step
        if not math.isfinite(norm):
            raise DivergedTraining(f"gradient became non-finite at step {step}")
        clip_factor = 1.0 / config.batch_size
        if norm > GRAD_CLIP:
            clip_factor *= GRAD_CLIP / norm
        # v = MOMENTUM * v + g * clip_factor; w -= lr * v, rounded the same
        # way element by element; g then holds the step
        for name, w in weights.arrays.items():
            v, g = velocity[name], grads[name]
            v *= MOMENTUM
            g *= clip_factor
            v += g
            w -= np.multiply(v, lr, out=g)
    return weights, history


def sample_trajectories(rng: np.random.Generator, count: int, length: int = 40):
    """Synthetic planar vehicle trajectories with observation noise.

    Profiles mix constant velocity, constant turn rate, and braking or
    accelerating speed ramps. Observation noise mimics monocular depth
    recovery: strong along a fixed per-trajectory axis (the view ray),
    weak across it. Returns list of (true (T,3), obs (T,3)).
    """
    dataset = []
    kinds = ("const", "turn", "ramp", "ramp")  # ramp-heavy: braking matters most
    for _ in range(count):
        kind = kinds[rng.integers(len(kinds))]
        speed = rng.uniform(0.2, 1.0)
        heading = rng.uniform(0, 2 * math.pi)
        omega = rng.uniform(-0.03, 0.03) if kind == "turn" else 0.0
        accel = rng.uniform(-0.035, 0.035) if kind == "ramp" else 0.0
        pos = np.array([rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(0.5, 1.0)])
        sigma_ray = rng.uniform(0.04, 0.55)
        sigma_lat = rng.uniform(0.01, 0.08)
        ray_angle = rng.uniform(0, 2 * math.pi)
        ray = np.array([math.cos(ray_angle), math.sin(ray_angle), 0.0])
        lat = np.array([-math.sin(ray_angle), math.cos(ray_angle), 0.0])
        true = [pos.copy()]
        for _ in range(length - 1):
            pos = pos + speed * np.array([math.cos(heading), math.sin(heading), 0.0])
            heading += omega
            speed = speed + accel
            if speed > 1.0:
                speed, accel = 1.0, -accel
            elif speed < 0.05:
                speed, accel = 0.05, -accel
            true.append(pos.copy())
        true = np.array(true)
        noise = np.outer(rng.normal(scale=sigma_ray, size=length), ray)
        noise += np.outer(rng.normal(scale=sigma_lat, size=length), lat)
        dataset.append((true, true + noise))
    return dataset


def save_weights(weights: LstmWeights, path) -> None:
    doc = {
        "format_version": WEIGHTS_FORMAT_VERSION,
        # nothing reads "arch"; "history_len" stays so the file keeps its format-v1 bytes
        "arch": {"embed_dim": EMBED_DIM, "hidden_dim": HIDDEN_DIM, "history_len": 5},
        "arrays": {name: arr.tolist() for name, arr in weights.arrays.items()},
    }
    Path(path).write_text(json.dumps(doc, allow_nan=False), encoding="utf-8")


def load_weights(path) -> LstmWeights:
    """Read a save_weights file; a file that does not hold them raises io.ParseError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, f"bad weights file: {exc}") from exc
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != WEIGHTS_FORMAT_VERSION:
        raise UnsupportedFormatVersion(path, 1, f"unsupported weights format_version {version!r}")
    try:
        return LstmWeights({name: np.array(vals) for name, vals in doc["arrays"].items()})
    except KeyError as exc:
        raise ParseError(path, 1, f"missing weights entry {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(path, 1, f"bad weights arrays: {exc}") from exc
