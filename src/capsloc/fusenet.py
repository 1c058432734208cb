"""Multi-rate LSTM sensor fusion network and its training loop.

Architecture per fused step: the magnetic LSTM consumes its rate_ratio
5-vectors (absolute position + heading spherical angles, z-scored)
sequentially and contributes its final hidden state; the visual LSTM
consumes one 6-vector delta; the concatenated hidden states (after dropout
when training) feed the core LSTM, whose hidden state a linear head maps to
a 6-DoF delta. Each LSTM starts a sequence from a zero state and carries
it across the sequence's fused steps, which is what lets the network carry
sensor history across the asynchronous streams.

forward runs each LSTM over all T steps in turn, B windows at once:
magnetic (T * rate_ratio inputs), visual, one dropout draw on the
(T, B, 2H) concatenation, core, then the head as one GEMM. Neither branch
LSTM reads the core's state, so this is the per-step math reordered.
gradient_stream is the one BPTT through it.

The network is the dict of five arrays that _param_shapes lists, keyed as
its gradients, Adam moments and checkpoints are. Its hidden size is
head.W's column count; the inputs fix the rate ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .geometry import (
    Pose,
    Trajectory,
    format_header,
    integrate_deltas,
    read_text_file,
    relative_pose,
    resample_trajectory,
)
from .neuralcore import (
    Hyperparams,
    LstmState,
    adam_init,
    adam_step,
    dropout,
    init_lstm_weights,
    linear_backward,
    linear_forward,
    lstm_backward,
    lstm_hidden_states,
    lstm_sequence_forward,
    pose_loss,
    pose_residual_norms,
)

__all__ = [
    "FusedSet",
    "NormStats",
    "TrainingConfig",
    "Checkpoint",
    "AlignmentError",
    "angles_from_heading",
    "init_network",
    "align_streams",
    "compute_norm_stats",
    "forward",
    "gradient_stream",
    "calibrate_beta",
    "train",
    "predict_trajectory",
    "save_checkpoint",
    "load_checkpoint",
    "write_training_log",
]

MAG_INPUT = 5
VIS_INPUT = 6
OUT_DIM = 6

CHECKPOINT_VERSION = "capsloc-checkpoint v4"

# The shape of each NormStats array, in field order, keyed as its
# checkpoint W record.
_STATS_SHAPES = {
    "stats.mag_mean": (MAG_INPUT,), "stats.mag_sd": (MAG_INPUT,),
    "stats.vis_mean": (VIS_INPUT,), "stats.vis_sd": (VIS_INPUT,),
    "stats.target_mean": (OUT_DIM,), "stats.target_sd": (OUT_DIM,),
}

_BETA_CLAMP = (1.0, 1000.0)  # calibrate_beta's range
# Windows per batched inference pass. An inference forward keeps each
# LSTM's input projection while it runs and the hidden states read back:
# 16 windows of 32 steps at H = 200 peak at 7.4 MiB traced, 0.46 MiB per
# window, 6.25 MiB of it the magnetic LSTM's (T * rate_ratio, B, 4H)
# projection.
_INFERENCE_CHUNK = 16


class AlignmentError(ValueError):
    """Streams do not overlap / no complete fused interval exists."""


def angles_from_heading(h):
    """(theta, phi) of unit headings h (..., 3), the heading part of the
    magnetic input: two arrays of shape ..., or two floats for one heading."""
    h = np.asarray(h, dtype=float)
    theta = np.arccos(np.clip(h[..., 2], -1.0, 1.0))
    phi = np.arctan2(h[..., 1], h[..., 0])
    return theta, phi


def _param_shapes(hidden_size: int) -> dict:
    """The shape of each network array, in its key order."""
    H = hidden_size
    return {
        "mag.W": (4 * H, MAG_INPUT + H),
        "vis.W": (4 * H, VIS_INPUT + H),
        "core.W": (4 * H, 3 * H),
        "head.W": (OUT_DIM, H),
        "head.b": (OUT_DIM,),
    }


def init_network(hidden_size: int, rng) -> dict:
    """A seeded network: the magnetic, visual and core LSTMs' W, then head.W
    uniform +/- 1/sqrt(H), drawn in that order; head.b zero."""
    H = hidden_size
    bound = 1.0 / np.sqrt(H)
    return {
        "mag.W": init_lstm_weights(MAG_INPUT, H, rng),
        "vis.W": init_lstm_weights(VIS_INPUT, H, rng),
        "core.W": init_lstm_weights(2 * H, H, rng),
        "head.W": rng.uniform(-bound, bound, size=(OUT_DIM, H)),
        "head.b": np.zeros(OUT_DIM),
    }


@dataclass
class FusedSet:
    """N fused steps as arrays: times (N,), magnetic inputs (N, rate_ratio, 5),
    visual (N, 6) and target (N, 6) deltas, or no targets. B windows of T
    steps hold (B, T, ·) arrays. len() and indexing act on the leading axis."""

    times: np.ndarray
    mag: np.ndarray
    vis: np.ndarray
    target: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.times)

    def map(self, fn) -> "FusedSet":
        """fn applied to each array; a None target stays None."""
        return FusedSet(*(None if a is None else fn(a) for a in vars(self).values()))

    def __getitem__(self, k) -> "FusedSet":
        return self.map(lambda a: a[k])

    def windows(self, T: int) -> "FusedSet":
        """The first len // T * T steps as a batch of (len // T, T, ·) windows."""
        B = len(self) // T
        return self.map(lambda a: a[: B * T].reshape(B, T, *a.shape[1:]))

    @staticmethod
    def concat(sets) -> "FusedSet":
        """The sets joined along their leading axis."""
        parts = zip(*(vars(s).values() for s in sets))
        return FusedSet(*(None if p[0] is None else np.concatenate(p) for p in parts))


def align_streams(mag, vis, gt: Trajectory | None = None, rate_ratio: int = 2):
    """Bucket magnetic measurements by visual inter-frame interval.

    One FusedSet step (raw units) per visual measurement whose preceding
    interval contains exactly rate_ratio magnetic samples (timestamps in
    (t_prev, t_k]); other visual frames are dropped. No interpolation."""
    if not mag or not vis:
        raise AlignmentError("both streams must be nonempty")
    mag_ts = np.array([m.timestamp for m in mag])
    vis_ts = np.array([v.timestamp for v in vis])
    first = vis_ts[0] - (vis_ts[1] - vis_ts[0]) if len(vis) > 1 else vis_ts[0] - 1.0 / 25.0
    prev_ts = np.concatenate([[first], vis_ts[:-1]])
    eps = 1e-9
    lo = np.searchsorted(mag_ts, prev_ts + eps, side="left")
    hi = np.searchsorted(mag_ts, vis_ts + eps, side="left")
    kept = np.flatnonzero(hi - lo == rate_ratio)
    if not len(kept):
        raise AlignmentError("streams do not overlap in any complete interval")
    mag_vectors = np.empty((len(mag), MAG_INPUT))  # (x, y, z, theta, phi)
    mag_vectors[:, :3] = [m.position for m in mag]
    mag_vectors[:, 3], mag_vectors[:, 4] = angles_from_heading([m.heading for m in mag])
    targets = None
    if gt is not None:
        # Ground truth at both ends of every kept interval, resampled once.
        starts = np.maximum(prev_ts[kept], gt.times[0])
        knots, at = np.unique(np.concatenate([starts, vis_ts[kept]]), return_inverse=True)
        poses = resample_trajectory(gt, knots).poses[at.reshape(2, -1)]
        targets = relative_pose(poses[0], poses[1])
    vis_vectors = np.array([vis[k].delta.as_vector() for k in kept])
    mag_inputs = mag_vectors[lo[kept, None] + np.arange(rate_ratio)]
    return FusedSet(vis_ts[kept], mag_inputs, vis_vectors, targets)


@dataclass
class NormStats:
    """Per-channel z-score statistics computed on the training split."""

    mag_mean: np.ndarray
    mag_sd: np.ndarray
    vis_mean: np.ndarray
    vis_sd: np.ndarray
    target_mean: np.ndarray
    target_sd: np.ndarray

    def normalize(self, s: FusedSet) -> FusedSet:
        target = s.target
        if target is not None:
            target = (target - self.target_mean) / self.target_sd
        return FusedSet(s.times, (s.mag - self.mag_mean) / self.mag_sd,
                        (s.vis - self.vis_mean) / self.vis_sd, target)

    def denormalize_output(self, y: np.ndarray) -> np.ndarray:
        return y * self.target_sd + self.target_mean


def compute_norm_stats(samples: FusedSet) -> NormStats:
    """Per-channel means and sds (floored at 1e-8) of a FusedSet with
    targets; each of a step's magnetic inputs counts."""
    stats = []
    for a in (samples.mag.reshape(-1, MAG_INPUT), samples.vis, samples.target):
        stats += [a.mean(axis=0), np.maximum(a.std(axis=0), 1e-8)]
    return NormStats(*stats)


def forward(
    params: dict,
    windows: FusedSet,
    training: bool = False,
    rng=None,
    dropout_rate: float = 0.0,
):
    """Run the fusion network over B normalized windows of T steps, each
    LSTM from a zero state. Returns (outputs (B, T, 6), caches).

    Training draws dropout at dropout_rate from rng and returns the caches
    gradient_stream needs. Inference (training=False) calls no dropout,
    runs each LSTM through lstm_hidden_states, which keeps only the hidden
    states read here (every rate_ratio-th magnetic one, every visual and
    core one), and returns None for caches; its outputs are training's at
    dropout_rate 0, bit for bit."""
    hs = params["head.W"].shape[1]
    B, T, r = windows.mag.shape[:3]
    zero = LstmState.zeros(B, hs)
    caches = []

    def hidden_states(x, key, stride=1):
        """The h after every stride-th step of the LSTM params[key] over
        time-major (steps, B, input) inputs."""
        if not training:
            return lstm_hidden_states(x, zero, params[key], stride)
        _, cache = lstm_sequence_forward(x, zero, params[key])
        caches.append(cache)
        return cache.h[stride::stride]

    # The core sees the magnetic state after every rate_ratio-th input.
    z = np.concatenate([
        hidden_states(windows.mag.reshape(B, T * r, MAG_INPUT).swapaxes(0, 1), "mag.W", r),
        hidden_states(windows.vis.swapaxes(0, 1), "vis.W"),
    ], axis=-1)
    if training:
        z, mask = dropout(z, dropout_rate, rng)
    h = hidden_states(z, "core.W")
    y = linear_forward(h.reshape(-1, hs), params["head.W"], params["head.b"])
    outputs = y.reshape(T, B, OUT_DIM).swapaxes(0, 1)
    return outputs, (*caches, mask) if training else None


def _keyed(key, blocks):
    """(key, block) pairs, holding no block once resumed."""
    for block in blocks:
        yield key, block
        del block


def gradient_stream(params: dict, caches, dy):
    """BPTT through the full fusion network, from a training forward's
    caches. dy, (B, T, 6) as forward's outputs, holds the upstream gradient
    on each step's output. Yields the parameter gradients (summed over
    windows) as (key, gradient) pairs, in the order BPTT makes them:
    head.W and head.b whole, then core.W, vis.W and mag.W as lstm_backward's
    consecutive row blocks.

    It reads an array's weights only before handing over that array's
    first block (dh comes from head.W and dz from core.W inside
    linear_backward and lstm_backward), so the consumer may step each block
    as its pair arrives, and it holds no gradient once it resumes. It drops
    each LSTM's cache after that LSTM's backward, so the caller should hold
    none."""
    mag_cache, vis_cache, core_cache, mask = caches
    del caches
    hs = params["head.W"].shape[1]
    r = len(mag_cache.x) // len(core_cache.x)
    h = core_cache.h[1:]
    dy = np.asarray(dy, dtype=float).swapaxes(0, 1).reshape(-1, OUT_DIM)
    dW, db, dh = linear_backward(h.reshape(-1, hs), params["head.W"], dy)
    yield "head.W", dW
    yield "head.b", db
    del dW, db
    blocks, _, dz = lstm_backward(core_cache, params["core.W"], dh.reshape(h.shape))
    del core_cache, h, dh
    yield from _keyed("core.W", blocks)
    dz *= mask
    blocks, _, _ = lstm_backward(vis_cache, params["vis.W"], dz[..., hs:])
    del vis_cache
    yield from _keyed("vis.W", blocks)
    dh_mag = np.zeros(mag_cache.h[1:].shape)
    dh_mag[r - 1 :: r] = dz[..., :hs]
    del dz, mask
    blocks, _, _ = lstm_backward(mag_cache, params["mag.W"], dh_mag)
    del mag_cache, dh_mag
    yield from _keyed("mag.W", blocks)


@dataclass(frozen=True)
class TrainingConfig:
    max_epochs: int = 200
    window_length: int = 32
    early_stop_patience: int = 10
    validation_fraction: float = 0.25
    seed: int = 0
    warmup_epochs: int = 10  # beta fixed to 1 during warm-up

    def __post_init__(self):
        if self.window_length < 2:
            raise ValueError("window_length must be >= 2")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not (0.0 < self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must be in (0, 1)")


@dataclass
class Checkpoint:
    params: dict
    rate_ratio: int
    hyperparams: Hyperparams
    stats: NormStats
    beta_loss: float


@dataclass(frozen=True)
class _MetaRecord:
    """The network settings on a checkpoint's header line besides the
    Hyperparams. The defaults only give parse_config each field's type."""

    rate_ratio: int = 1
    beta_loss: float = 1.0

    def __post_init__(self):
        if self.rate_ratio < 1:
            raise ValueError(f"rate_ratio must be >= 1, got {self.rate_ratio}")
        if not (np.isfinite(self.beta_loss) and self.beta_loss > 0.0):
            raise ValueError(f"beta_loss must be finite and > 0, got {self.beta_loss!r}")


def _train_step(params, window, beta, hp, rng, adam):
    """Training forward and pose loss over a batch of windows, then one Adam
    step, which steps each block as gradient_stream makes it: (loss,
    per-step translational and rotational residual norms, the gradient's L2
    norm). A non-finite loss steps nothing and gives the norm None.

    Once the stream starts, only gradient_stream holds the caches. Once
    adam_step asks for the next pair, it is done with the last block, which
    is then squared in place for the norm and dropped, so no whole weight
    gradient ever exists. The norm adds up each array's per-block sums,
    then the arrays' sums in params key order."""
    outputs, caches = forward(
        params, window, training=True, rng=rng, dropout_rate=hp.dropout_rate
    )
    loss, dys, trans, rot = pose_loss(outputs, window.target, beta)
    del outputs
    if not np.isfinite(loss):
        return loss, trans, rot, None
    stream = gradient_stream(params, caches, dys)
    del caches, dys
    sums = dict.fromkeys(params, 0.0)

    def squared_after_use(pairs):
        for k, g in pairs:
            yield k, g
            sums[k] += np.multiply(g, g, out=g).sum()
            del g  # before the stream makes the next block

    adam_step(params, squared_after_use(stream), adam, hp)
    return loss, trans, rot, np.sqrt(sum(sums.values()))


def _chunks(windows: FusedSet):
    """Consecutive batches of at most _INFERENCE_CHUNK windows."""
    for k in range(0, len(windows), _INFERENCE_CHUNK):
        yield windows[k : k + _INFERENCE_CHUNK]


def _infer(params, windows: FusedSet) -> np.ndarray:
    """Inference outputs (B, T, 6) of B windows, chunk by chunk, each window
    from its own zero states."""
    return np.concatenate([forward(params, chunk)[0] for chunk in _chunks(windows)])


def _eval_loss(params, windows, beta):
    """Inference pose loss per step over a batch of windows, summed chunk by
    chunk."""
    loss = sum(pose_loss(forward(params, chunk)[0], chunk.target, beta)[0]
               for chunk in _chunks(windows))
    return loss / windows.times.size


def calibrate_beta(params: dict, val_windows: FusedSet, stats: NormStats):
    """beta = mean translational / mean rotational residual norm (raw units)
    over the validation windows, run as _eval_loss runs them; clamped to
    _BETA_CLAMP. Returns (beta, flagged)."""
    trans, rot = pose_residual_norms(
        stats.denormalize_output(_infer(params, val_windows)),
        stats.denormalize_output(val_windows.target),
    )
    mean_trans = float(np.mean(trans))
    mean_rot = float(np.mean(rot))
    lo, hi = _BETA_CLAMP
    if mean_rot == 0.0:
        return hi, True
    return float(min(max(mean_trans / mean_rot, lo), hi)), False


def _refit_head_bias(params: dict, windows: FusedSet) -> dict:
    """params with head.b shifted so that the network's mean residual over
    the windows (inference mode, states reset per window) is zero.

    The head is linear, so this is the least-squares constant offset; as
    predict_trajectory integrates the outputs, a constant offset is what
    turns into drift."""
    residuals = (_infer(params, windows) - windows.target).reshape(-1, OUT_DIM)
    return {**params, "head.b": params["head.b"] - np.mean(residuals, axis=0)}


def train(datasets, cfg: TrainingConfig, hp: Hyperparams):
    """Train on per-trajectory FusedSets; held-out trajectories validate.

    The parameters of the epoch with the lowest validation loss are kept.
    Their head bias is then refit in closed form (_refit_head_bias over
    the training windows, dropout off): Adam's last steps leave a small
    constant offset in the per-step outputs that the per-step loss hardly
    sees but that integrates into drift over a trajectory. The log holds
    the losses before the refit.

    datasets: list of finite FusedSets (raw units, targets present). Adam
    steps on one window at a time. Returns (Checkpoint, log), epoch dicts.

    Training holds four parameter-sized sets (P, 6.18 MiB at H = 200): the
    weights, Adam's m and v and the best epoch, all allocated before epoch
    1 and updated in place. Adam steps each block of rows as soon as
    gradient_stream makes it (_train_step), so no whole weight gradient
    exists: head.W's (0.003 P) is the largest array handed over whole, and
    a weight block holds at most neuralcore's _GRADIENT_BLOCK elements
    (0.01 P). On top come one window's caches and BPTT temporaries during
    an Adam step, or an inference chunk (see _INFERENCE_CHUNK) during
    validation and the refit. At H = 200 and window 32 the traced peak is
    4.32 P.

    Every dataset must have the same rate ratio, which the checkpoint
    records."""
    if not datasets:
        raise ValueError("need at least one training dataset")
    rate_ratio = datasets[0].mag.shape[1]
    for k, ds in enumerate(datasets):
        if ds.mag.shape[1] != rate_ratio:
            raise ValueError(f"dataset {k} has rate ratio {ds.mag.shape[1]}, "
                             f"dataset 0 has {rate_ratio}")
        for name in ("mag", "vis", "target"):
            bad = ~np.isfinite(getattr(ds, name).reshape(len(ds), -1)).all(axis=1)
            if bad.any():
                raise ValueError(f"dataset {k} step {bad.argmax()}: non-finite {name}")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xF05E]))
    T = cfg.window_length

    n_val = max(1, int(round(len(datasets) * cfg.validation_fraction)))
    if len(datasets) == 1:
        # Single trajectory: a step-level split, with at least one window
        # on each side of the cut.
        all_raw = datasets[0]
        if len(all_raw) < 2 * T:
            raise ValueError(f"a single dataset of {len(all_raw)} steps cannot hold a "
                             f"training and a validation window of {T} steps")
        cut = max(T, int(len(all_raw) * (1.0 - cfg.validation_fraction)))
        cut = min(cut, len(all_raw) - T)
        train_sets, val_sets = [all_raw[:cut]], [all_raw[cut:]]
    else:
        train_sets = datasets[: len(datasets) - n_val]
        val_sets = datasets[len(datasets) - n_val:]
        if not train_sets:
            raise ValueError(
                f"validation_fraction {cfg.validation_fraction} of "
                f"{len(datasets)} datasets leaves none to train on"
            )

    stats = compute_norm_stats(FusedSet.concat(train_sets))
    train_windows = stats.normalize(FusedSet.concat(ds.windows(T) for ds in train_sets))
    val_windows = stats.normalize(FusedSet.concat(ds.windows(T) for ds in val_sets))
    if not len(train_windows) or not len(val_windows):
        raise ValueError("not enough samples for the configured window length")

    params = init_network(hp.hidden_size, rng)  # adam_step updates these in place
    adam = adam_init(params)
    beta = 1.0

    log = []
    best_val = np.inf
    best_params = {k: v.copy() for k, v in params.items()}
    best_beta = beta
    bad_epochs = 0

    for epoch in range(1, cfg.max_epochs + 1):
        if epoch == cfg.warmup_epochs + 1:
            beta, _ = calibrate_beta(params, val_windows, stats)
        order = rng.permutation(len(train_windows))
        train_loss = train_trans = train_rot = grad_norm = 0.0
        for wi in order:
            window = train_windows[wi : wi + 1]  # a batch of one
            loss, trans, rot, norm = _train_step(params, window, beta, hp, rng, adam)
            if not np.isfinite(loss):
                break
            grad_norm += norm
            train_loss += loss
            train_trans += trans.sum()
            train_rot += rot.sum()
        if not np.isfinite(loss):
            log.append({"epoch": epoch, "aborted": "non-finite loss"})
            break
        n_steps = len(order) * T
        val_loss = _eval_loss(params, val_windows, beta)
        log.append(
            {
                "epoch": epoch,
                "train_loss": train_loss / n_steps,
                "val_loss": val_loss,
                "beta": beta,
                "lr": hp.learning_rate,
                "train_trans": float(train_trans / n_steps),
                "train_rot": float(train_rot / n_steps),
                "grad_norm": float(grad_norm / len(order)),
            }
        )
        if val_loss < best_val - 1e-15:
            best_val = val_loss
            for k, v in params.items():
                np.copyto(best_params[k], v)
            best_beta = beta
            bad_epochs = 0
        else:
            bad_epochs += 1
            if epoch > cfg.warmup_epochs and bad_epochs >= cfg.early_stop_patience:
                break

    best_params = _refit_head_bias(best_params, train_windows)
    return Checkpoint(best_params, rate_ratio, hp, stats, best_beta), log


def write_training_log(path, log) -> None:
    """One line per epoch. train_trans, train_rot: mean per-step residual
    norms of the training windows (normalized units, rotation unweighted by
    beta); grad_norm: mean L2 norm of the per-window gradient."""
    with open(path, "w") as f:
        f.write("# epoch train_loss val_loss beta lr train_trans train_rot grad_norm\n")
        for rec in log:
            if "aborted" in rec:
                f.write(f"# aborted at epoch {rec['epoch']}: {rec['aborted']}\n")
                continue
            f.write(
                f"{rec['epoch']} {rec['train_loss']!r} {rec['val_loss']!r} "
                f"{rec['beta']!r} {rec['lr']!r} {rec['train_trans']!r} "
                f"{rec['train_rot']!r} {rec['grad_norm']!r}\n"
            )


def predict_trajectory(
    ckpt: Checkpoint, mag, vis, initial_pose: Pose
) -> Trajectory:
    """align_streams -> inference forward over the whole sequence as one
    window -> de-normalize -> integrate."""
    samples = align_streams(mag, vis, gt=None, rate_ratio=ckpt.rate_ratio)
    outputs, _ = forward(ckpt.params, ckpt.stats.normalize(samples).windows(len(samples)))
    deltas = ckpt.stats.denormalize_output(outputs[0])
    return integrate_deltas(initial_pose.as_vector(), samples.times, deltas)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """A header line of the Hyperparams and _MetaRecord fields, then a W
    record per array, stats.<field> for NormStats. The header is written
    from the classes load_checkpoint parses it with, so a value it would
    refuse is refused before the file is opened."""
    stats = {f"stats.{fld.name}": getattr(ckpt.stats, fld.name) for fld in fields(NormStats)}
    meta = _MetaRecord(ckpt.rate_ratio, ckpt.beta_loss)
    header = format_header(CHECKPOINT_VERSION, ckpt.hyperparams, meta)
    with open(path, "w") as f:
        f.write(header)
        for name, arr in sorted({**ckpt.params, **stats}.items()):
            dims = "x".join(str(d) for d in arr.shape)
            vals = " ".join(repr(float(v)) for v in arr.ravel())
            f.write(f"W {name} {dims} {vals}\n")


def load_checkpoint(path) -> Checkpoint:
    """Read a save_checkpoint file with read_text_file, whose header
    parse_config reads, refusing a missing, repeated or unknown key;
    _MetaRecord refuses an out-of-range value. A W record must hold finite
    values, and a stats.*_sd record positive ones. Every W record is checked
    against one shape table, the network's arrays and the NormStats arrays
    alike."""
    arrays = {}

    def record(words):
        if words[0] != "W":
            raise ValueError(f"unknown checkpoint record {words[0]!r}")
        if len(words) < 4:
            raise ValueError("W record: expected fields: name shape values")
        name, dims = words[1:3]
        if name in arrays:
            raise ValueError(f"repeated W record {name!r}")
        shape = tuple(int(d) for d in dims.split("x"))
        values = np.array([float(v) for v in words[3:]])
        if values.size != np.prod(shape):
            raise ValueError(f"W record {name!r} holds {values.size} values for shape {dims}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"W record {name!r} has a non-finite value")
        if name.endswith("_sd") and not np.all(values > 0):
            raise ValueError(f"W record {name!r} has an sd <= 0")
        arrays[name] = values.reshape(shape)

    hp, meta = read_text_file(path, CHECKPOINT_VERSION, (Hyperparams, _MetaRecord), record)
    shapes = {**_param_shapes(hp.hidden_size), **_STATS_SHAPES}
    for name, arr in arrays.items():
        if name not in shapes:
            raise ValueError(f"unknown W record {name!r}")
        if arr.shape != shapes[name]:
            raise ValueError(
                f"W record {name!r} has shape {arr.shape}, expected {shapes[name]}"
            )
    for name in shapes:
        if name not in arrays:
            raise ValueError(f"corrupt checkpoint: missing W record {name!r}")
    stats = NormStats(*(arrays.pop(name) for name in _STATS_SHAPES))
    return Checkpoint(arrays, meta.rate_ratio, hp, stats, meta.beta_loss)
