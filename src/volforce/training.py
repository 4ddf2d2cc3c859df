"""End-to-end training: truncated-normal init, Adam, EMA, MSE loop.

Adam uses the standard parameters (beta1 0.9, beta2 0.999, eps 1e-8) and
mutates parameter data in place between forward/backward pairs.  An
exponential moving average of every trainable parameter (decay 0.999,
shadow initialized to the initial parameter values) is maintained each
step and swapped in for evaluation.

Targets are standardized by the train-split mean/std; the
de-standardization pair is stored on the network (``label_norm``) and
applied by ``predict``, so reported errors are always in mN.  Loss
histories are in standardized units.  Validation runs ``predict`` with
its default batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from volforce import tensor as T
from volforce.reps import GEOMETRY
from volforce.tensor import Tensor


def init_truncated_normal(shape, s_d: float = 0.01,
                          rng: np.random.Generator | int | None = None) -> np.ndarray:
    """N(0, s_d^2) samples redrawn while their magnitude exceeds 2 * s_d."""
    if s_d <= 0:
        raise ValueError("standard deviation must be positive")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    out = rng.normal(0.0, s_d, size=shape)
    bad = np.abs(out) > 2.0 * s_d
    while bad.any():
        out[bad] = rng.normal(0.0, s_d, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * s_d
    return out.astype(T.default_dtype())


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    if pred.shape != target.shape:
        raise ValueError(f"prediction shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    return T.tmean(diff * diff)


@dataclass
class TrainConfig:
    """Optimization settings; defaults follow the base training recipe."""

    epochs: int = 100
    batch_size: int = 8
    learning_rate: float = 2.5e-4
    seed: int = 0
    ema_decay: float = 0.999
    shuffle: bool = True  # per-epoch reshuffle of window indices

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 2:
            raise ValueError("need epochs >= 1 and batch size >= 2 (batch norm needs 2 samples)")
        if self.learning_rate < 0:
            raise ValueError("learning rate must be >= 0")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ValueError(f"EMA decay must lie in [0, 1], got {self.ema_decay}")


def defaults_for(representation: str) -> tuple[int, float]:
    """(batch size, learning rate) per representation dimensionality.

    Volume-sequence (4D) inputs train with batch 8 at 2.5e-4; everything
    lower-dimensional with batch 16 at 5e-4.
    """
    if GEOMETRY[representation] == (True, 3):
        return 8, 2.5e-4
    return 16, 5e-4


class Adam:
    """Bias-corrected Adam over a named parameter list (in-place updates)."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, named_params, learning_rate: float):
        self.named_params = list(named_params)
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m = [np.zeros(p.shape, dtype=np.float64) for _, p in self.named_params]
        self.v = [np.zeros(p.shape, dtype=np.float64) for _, p in self.named_params]

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        for i, (name, p) in enumerate(self.named_params):
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise FloatingPointError(f"non-finite gradient in parameter {name!r}")
            self.m[i] += (1.0 - b1) * (g - self.m[i])
            self.v[i] += (1.0 - b2) * (g * g - self.v[i])
            m_hat = self.m[i] / (1.0 - b1 ** t)
            v_hat = self.v[i] / (1.0 - b2 ** t)
            p.data -= (self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)).astype(
                p.data.dtype)


class Ema:
    """Exponential moving average of parameters: shadow <- d*shadow + (1-d)*param."""

    def __init__(self, named_params, decay: float = 0.999):
        self.decay = decay
        self.shadow = {name: p.data.astype(np.float64).copy() for name, p in named_params}

    def update(self, named_params) -> None:
        d = self.decay
        for name, p in named_params:
            s = self.shadow[name]
            s *= d
            s += (1.0 - d) * p.data

    def arrays(self) -> dict[str, np.ndarray]:
        return self.shadow


class swap_in_ema:
    """Context manager: evaluate with EMA weights, restore raw weights after."""

    def __init__(self, net, ema: dict[str, np.ndarray] | Ema | None):
        self.net = net
        self.shadow = ema.shadow if isinstance(ema, Ema) else ema
        self.saved: dict[str, np.ndarray] = {}

    def __enter__(self):
        if self.shadow:
            for name, p in self.net.named_params():
                if name in self.shadow:
                    self.saved[name] = p.data.copy()
                    np.copyto(p.data, self.shadow[name].astype(p.data.dtype))
        return self.net

    def __exit__(self, *exc):
        for name, p in self.net.named_params():
            if name in self.saved:
                np.copyto(p.data, self.saved[name])
        return False


def predict(net, data, ema=None, batch_size: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Inference over every window; returns (predictions, targets) in mN.
    Each batch runs as forwards of ``T.CHUNK_SAMPLES`` samples on the pool
    (``T._over_chunks``), so no prediction depends on the worker count."""
    mu, sd = float(net.label_norm[0]), float(net.label_norm[1])
    preds = []
    targets = []
    with swap_in_ema(net, ema), T.no_grad():
        for start in range(0, len(data), batch_size):
            idx = range(start, min(start + batch_size, len(data)))
            x, y = data.gather(idx)
            outs = T._over_chunks(len(x), lambda rows: net.forward(x[rows], training=False).data)
            preds.append(np.concatenate(outs).reshape(-1) * sd + mu)
            targets.append(y.reshape(-1))
    return np.concatenate(preds), np.concatenate(targets)


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    ema: Ema | None = None
    steps: int = 0

    def loss_rows(self) -> list[tuple[int, float, float]]:
        return [(h["epoch"], h["train_mse"], h["val_mse"]) for h in self.history]


def train(net, train_data, cfg: TrainConfig, val_data=None, on_epoch=None,
          stop_fn=None) -> TrainResult:
    """Run the full loop: shuffled mini-batches, MSE, Adam, EMA per step.

    ``on_epoch(epoch, result)`` fires after each epoch (checkpoint hook);
    ``stop_fn(epoch, result)`` returning True ends training early.  The
    validation loss is computed with EMA weights in inference mode.
    """
    if len(train_data) == 0:
        raise ValueError("training split is empty")
    rng = np.random.default_rng(cfg.seed)
    named = list(net.named_params())
    adam = Adam(named, cfg.learning_rate)
    ema = Ema(named, cfg.ema_decay)
    labels = train_data.all_labels()
    mu, sd = float(labels.mean()), float(labels.std())
    sd = sd if sd > 0 else 1.0
    net.label_norm[:] = (mu, sd)
    result = TrainResult(ema=ema)
    n = len(train_data)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n) if cfg.shuffle else np.arange(n)
        total, seen = 0.0, 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if len(idx) == 1 and n > 1:
                continue  # batch statistics need >= 2 samples
            x, y = train_data.gather(idx)
            target = Tensor((y - mu) / sd)
            pred = net.forward(x, training=True)
            loss = mse_loss(pred, target)
            value = loss.item()
            if not np.isfinite(value):
                raise FloatingPointError(
                    f"non-finite loss {value} at epoch {epoch} step {start // cfg.batch_size}")
            T.zero_grads([p for _, p in named])
            T.backward(loss)
            adam.step()
            ema.update(named)
            del pred, loss  # release this step's graph before the next forward
            result.steps += 1
            total += value * len(idx)
            seen += len(idx)
        row = {"epoch": epoch, "train_mse": total / seen, "val_mse": float("nan")}
        if val_data is not None and len(val_data) > 0:
            vp, vt = predict(net, val_data, ema)
            row["val_mse"] = float(np.mean(((vp - mu) / sd - (vt - mu) / sd) ** 2))
        result.history.append(row)
        if on_epoch is not None:
            on_epoch(epoch, result)
        if stop_fn is not None and stop_fn(epoch, result):
            break
    return result
