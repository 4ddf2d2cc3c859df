"""Synthetic surrogate for the private volume/force acquisitions.

A needle indents a flat scattering phantom along sinusoid or cubic-spline
trajectories.  Each sample is a rendered intensity volume [h, w, d_raw]
(bright surface voxel per lateral column, exponential subsurface decay,
multiplicative speckle) plus a scalar force label in mN from a declared
quadratic-plus-viscous contact model:

    F = max(0, k1 * delta + k2 * delta^2 + c * delta_dot * [delta > 0])

with defaults k1 = 200 mN/mm, k2 = 60 mN/mm^2, c = 5 mN s/mm so the
0..3 mm indentation range spans roughly 0..1000 mN.  The model is a
synthetic ground truth, not fitted contact mechanics.

Generation is deterministic per (master seed, experiment index); splits
are assigned per experiment, never per sample.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

SAMPLE_RATE_HZ = 60.0
MAGIC = b"OCT4DSIM"
FORMAT_VERSION = 1
SPLITS = ("train", "val", "test")


@dataclass(frozen=True)
class TrajectoryConfig:
    """Motion pattern template for one experiment family."""

    kind: str = "sinusoid"  # sinusoid | spline
    amplitude_mm: tuple[float, float] = (1.0, 3.0)  # peak indentation range
    frequency_hz: tuple[float, float] = (3.0, 6.0)
    contact_mm: float = 0.5   # d0, needle position where contact starts
    max_mm: float = 3.5       # d_max; indentation is capped at max_mm - contact_mm
    rate_hz: float = SAMPLE_RATE_HZ
    n_samples: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("sinusoid", "spline"):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        if self.contact_mm >= self.max_mm:
            raise ValueError("contact depth must be below max depth")
        if min(self.amplitude_mm) <= 0 or min(self.frequency_hz) <= 0:
            raise ValueError("amplitude and frequency ranges must be positive")

    @property
    def cap_mm(self) -> float:
        return self.max_mm - self.contact_mm


@dataclass(frozen=True)
class ForceParams:
    k1: float = 200.0  # mN / mm
    k2: float = 60.0   # mN / mm^2
    c: float = 5.0     # mN s / mm


@dataclass(frozen=True)
class SimConfig:
    """Full generation template: motion, geometry, rendering, force model."""

    trajectory: TrajectoryConfig = field(default_factory=TrajectoryConfig)
    h: int = 16
    w: int = 16
    d_raw: int = 128
    lateral_fov_mm: float = 3.0
    depth_fov_mm: float = 3.5
    decay_mm: float = 0.3       # subsurface intensity decay length
    noise: bool = True          # multiplicative speckle in [0.7, 1.3]
    hard_mode: bool = False     # per-experiment stiffness variation
    force: ForceParams = field(default_factory=ForceParams)


@dataclass
class ExperimentMeta:
    exp_id: int
    kind: str
    split: str
    params: dict[str, float]          # drawn trajectory parameters
    knots_t: np.ndarray | None        # spline knots (seconds), sinusoid: None
    knots_d: np.ndarray | None        # spline knot depths (mm)
    cx_mm: float = 0.0                # needle tip lateral position
    cy_mm: float = 0.0
    sigma_mm: float = 0.7             # indentation bump width (from tilt)
    z0_mm: float = 0.4                # resting surface depth
    stiffness: float = 1.0
    texture_seed: int = 0


@dataclass
class Experiment:
    meta: ExperimentMeta
    volumes: np.ndarray    # [n, h, w, d_raw] float32
    forces: np.ndarray     # [n] float32, mN
    timestamps: np.ndarray  # [n] float64, seconds


@dataclass
class Dataset:
    config: SimConfig
    experiments: list[Experiment]

    @property
    def n_samples(self) -> int:
        return sum(len(e.forces) for e in self.experiments)


# -- trajectories -------------------------------------------------------------------


def sinusoid_trajectory(cfg: TrajectoryConfig, t: np.ndarray | float,
                        params: dict[str, float]) -> tuple[np.ndarray, np.ndarray]:
    """Indentation depth (mm) and rate (mm/s) at sample indices ``t``.

    delta(t) = clip(max(0, A sin(2 pi nu t / rate + phi) - offset), 0, cap);
    the rate is the analytic derivative where the clip is inactive.
    """
    tt = np.asarray(t, dtype=np.float64) / cfg.rate_hz
    omega = 2.0 * math.pi * params["frequency"]
    raw = params["amplitude"] * np.sin(omega * tt + params["phase"]) - params["offset"]
    delta = np.clip(raw, 0.0, cfg.cap_mm)
    inside = (raw > 0.0) & (raw < cfg.cap_mm)
    rate = params["amplitude"] * omega * np.cos(omega * tt + params["phase"]) * inside
    return delta, rate


def natural_cubic_coeffs(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Second derivatives of the natural cubic spline through (xs, ys)."""
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two knots")
    h = np.diff(xs)
    if np.any(h <= 0):
        raise ValueError("knot positions must be strictly increasing")
    m = np.zeros(n)
    if n > 2:
        a = np.zeros((n - 2, n - 2))
        rhs = np.zeros(n - 2)
        for i in range(1, n - 1):
            j = i - 1
            if j > 0:
                a[j, j - 1] = h[i - 1]
            a[j, j] = 2.0 * (h[i - 1] + h[i])
            if j < n - 3:
                a[j, j + 1] = h[i]
            rhs[j] = 6.0 * ((ys[i + 1] - ys[i]) / h[i] - (ys[i] - ys[i - 1]) / h[i - 1])
        m[1:-1] = np.linalg.solve(a, rhs)
    return m


def eval_natural_cubic(xs, ys, m, x) -> tuple[np.ndarray, np.ndarray]:
    """Value and first derivative of the natural cubic spline at ``x``."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    h = xs[idx + 1] - xs[idx]
    a = (xs[idx + 1] - x) / h
    b = (x - xs[idx]) / h
    val = (a * ys[idx] + b * ys[idx + 1]
           + ((a ** 3 - a) * m[idx] + (b ** 3 - b) * m[idx + 1]) * h ** 2 / 6.0)
    dval = ((ys[idx + 1] - ys[idx]) / h
            + (-(3 * a ** 2 - 1) * m[idx] + (3 * b ** 2 - 1) * m[idx + 1]) * h / 6.0)
    return val, dval


def spline_trajectory(cfg: TrajectoryConfig, t: np.ndarray | float,
                      knots_t: np.ndarray, knots_d: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """C2 natural cubic spline through random depth knots, clipped to range."""
    m = natural_cubic_coeffs(knots_t, knots_d)
    tt = np.asarray(t, dtype=np.float64) / cfg.rate_hz
    raw, draw = eval_natural_cubic(knots_t, knots_d, m, tt)
    delta = np.clip(raw, 0.0, cfg.cap_mm)
    inside = (raw > 0.0) & (raw < cfg.cap_mm)
    return delta, draw * inside


def force_model(delta_mm, rate_mm_s, params: ForceParams = ForceParams(),
                stiffness: float = 1.0) -> np.ndarray:
    """Synthetic contact force (mN); zero exactly when not in contact."""
    delta = np.asarray(delta_mm, dtype=np.float64)
    rate = np.asarray(rate_mm_s, dtype=np.float64)
    contact = delta > 0.0
    f = stiffness * (params.k1 * delta + params.k2 * delta ** 2) + params.c * rate * contact
    return np.maximum(f, 0.0)


# -- rendering ----------------------------------------------------------------------


def render_volume(delta_mm: float, meta: ExperimentMeta, cfg: SimConfig,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Render one [h, w, d_raw] intensity volume for an indentation depth.

    The surface height field is the resting plane plus a Gaussian bump of
    depth ``delta_mm`` at the needle position; each column gets a bright
    surface voxel with exponential subsurface decay, optionally modulated
    by multiplicative speckle from ``rng``.
    """
    ys = (np.arange(cfg.h) + 0.5) / cfg.h * cfg.lateral_fov_mm - cfg.lateral_fov_mm / 2
    xs = (np.arange(cfg.w) + 0.5) / cfg.w * cfg.lateral_fov_mm - cfg.lateral_fov_mm / 2
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    bump = np.exp(-((xx - meta.cx_mm) ** 2 + (yy - meta.cy_mm) ** 2)
                  / (2.0 * meta.sigma_mm ** 2))
    surface_mm = meta.z0_mm + delta_mm * bump
    mm_per_voxel = cfg.depth_fov_mm / (cfg.d_raw - 1)
    z_idx = np.clip(np.floor(surface_mm / mm_per_voxel + 0.5), 0, cfg.d_raw - 1)
    z = np.arange(cfg.d_raw, dtype=np.float64)
    below = z[None, None, :] - z_idx[..., None]
    vol = np.where(below < 0, 0.0, np.exp(-np.maximum(below, 0.0)
                                          * mm_per_voxel / cfg.decay_mm))
    if cfg.noise and rng is not None:
        vol = vol * rng.uniform(0.7, 1.3, size=vol.shape)
    return vol.astype(np.float32)


# -- generation ---------------------------------------------------------------------


def _draw_experiment_meta(cfg: SimConfig, exp_id: int, split: str,
                          rng: np.random.Generator) -> ExperimentMeta:
    traj = cfg.trajectory
    duration = traj.n_samples / traj.rate_hz
    knots_t = knots_d = None
    if traj.kind == "sinusoid":
        peak = min(rng.uniform(*traj.amplitude_mm), traj.cap_mm)
        offset = rng.uniform(0.25, 0.75) * peak
        params = {
            "amplitude": peak + offset,
            "offset": offset,
            "frequency": rng.uniform(*traj.frequency_hz),
            "phase": rng.uniform(0.0, 2.0 * math.pi),
        }
    else:
        times = [0.0]
        while times[-1] < duration:
            times.append(times[-1] + rng.uniform(0.5, 1.5))
        knots_t = np.asarray(times)
        knots_d = rng.uniform(0.0, traj.cap_mm, size=len(times))
        params = {}
    lateral = cfg.lateral_fov_mm / 4.0
    return ExperimentMeta(
        exp_id=exp_id,
        kind=traj.kind,
        split=split,
        params=params,
        knots_t=knots_t,
        knots_d=knots_d,
        cx_mm=rng.uniform(-lateral, lateral),
        cy_mm=rng.uniform(-lateral, lateral),
        sigma_mm=rng.uniform(0.5, 1.0),
        z0_mm=rng.uniform(0.3, 0.5),
        stiffness=rng.uniform(0.5, 1.5) if cfg.hard_mode else 1.0,
        texture_seed=int(rng.integers(0, 2 ** 31 - 1)),
    )


def trajectory_of(meta: ExperimentMeta, cfg: TrajectoryConfig,
                  t) -> tuple[np.ndarray, np.ndarray]:
    if meta.kind == "sinusoid":
        return sinusoid_trajectory(cfg, t, meta.params)
    return spline_trajectory(cfg, t, meta.knots_t, meta.knots_d)


def generate_experiment(cfg: SimConfig, exp_id: int, split: str, seed) -> Experiment:
    rng = np.random.default_rng(seed)
    meta = _draw_experiment_meta(cfg, exp_id, split, rng)
    traj = cfg.trajectory
    t = np.arange(traj.n_samples)
    delta, rate = trajectory_of(meta, traj, t)
    forces = force_model(delta, rate, cfg.force, meta.stiffness).astype(np.float32)
    speckle = np.random.default_rng(meta.texture_seed)
    volumes = np.empty((traj.n_samples, cfg.h, cfg.w, cfg.d_raw), dtype=np.float32)
    for i in range(traj.n_samples):
        volumes[i] = render_volume(float(delta[i]), meta, cfg, speckle)
    timestamps = t / traj.rate_hz
    return Experiment(meta=meta, volumes=volumes, forces=forces, timestamps=timestamps)


def split_counts(n: int, fractions: tuple[float, float, float]) -> tuple[int, int, int]:
    """Largest-remainder apportionment of experiments to train/val/test."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {fractions}")
    raw = [f * n for f in fractions]
    counts = [int(math.floor(r)) for r in raw]
    remainders = sorted(range(3), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in range(n - sum(counts)):
        counts[remainders[i % 3]] += 1
    return tuple(counts)


def experiment_splits(n: int, fractions=(0.75, 0.08, 0.17)) -> list[str]:
    counts = split_counts(n, tuple(fractions))
    out = []
    for split, count in zip(SPLITS, counts):
        out.extend([split] * count)
    return out


def experiments(n_experiments: int, cfg: SimConfig,
                split_fractions=(0.75, 0.08, 0.17)) -> Iterator[Experiment]:
    """The dataset's experiments, generated one at a time as they are drawn.

    Arguments are checked at the call; each experiment is deterministic
    per (master seed, index) and carries its own split assignment.
    """
    if n_experiments < 3:
        raise ValueError("need at least 3 experiments to populate train/val/test")
    assignments = experiment_splits(n_experiments, split_fractions)
    seeds = np.random.SeedSequence(cfg.trajectory.seed).spawn(n_experiments)
    return (generate_experiment(cfg, i, split, seed)
            for i, (split, seed) in enumerate(zip(assignments, seeds)))


def generate_dataset(n_experiments: int, cfg: SimConfig,
                     split_fractions=(0.75, 0.08, 0.17)) -> Dataset:
    """Deterministic dataset of independent experiments (per-experiment splits)."""
    return Dataset(config=cfg, experiments=list(experiments(n_experiments, cfg,
                                                            split_fractions)))


# -- file format --------------------------------------------------------------------


@contextlib.contextmanager
def replacing(path):
    """Yield a new binary temp file beside ``path``; rename it over ``path``
    on success and remove it on failure.  Each call creates its own temp
    name, so concurrent writers to one path never share a temp file."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def atomic_write(path, payload: bytes) -> None:
    """Write via a unique temp file in the same directory plus rename."""
    with replacing(path) as fh:
        fh.write(payload)


def bytes_left(fh) -> int:
    """Bytes between the read position of an open binary file and its end."""
    return os.fstat(fh.fileno()).st_size - fh.tell()


def read_exact(fh, n: int) -> bytes:
    """Exactly ``n`` bytes of an open binary file.  A count beyond the bytes
    left raises ValueError before anything is read or allocated."""
    left = bytes_left(fh)
    if not 0 <= n <= left:
        raise ValueError(f"file truncated: {n} bytes needed, {left} left")
    data = fh.read(n)
    if len(data) < n:
        raise ValueError(f"file truncated: {n} bytes needed, {len(data)} read")
    return data


def unpack(fh, fmt: str) -> tuple:
    return struct.unpack(fmt, read_exact(fh, struct.calcsize(fmt)))


class _Fields(dict):
    """Header fields of one experiment; a missing field is a format error."""

    def __missing__(self, key):
        raise ValueError(f"dataset file lacks header field {key!r}")


def _meta_fields(exp: Experiment, cfg: SimConfig) -> list[str]:
    meta = exp.meta
    fields = [
        f"id={meta.exp_id}", f"kind={meta.kind}", f"split={meta.split}",
        f"h={cfg.h}", f"w={cfg.w}", f"d_raw={cfg.d_raw}",
        f"lateral_fov_mm={cfg.lateral_fov_mm!r}", f"depth_fov_mm={cfg.depth_fov_mm!r}",
        f"rate_hz={cfg.trajectory.rate_hz!r}",
        f"cx_mm={meta.cx_mm!r}", f"cy_mm={meta.cy_mm!r}",
        f"sigma_mm={meta.sigma_mm!r}", f"z0_mm={meta.z0_mm!r}",
        f"stiffness={meta.stiffness!r}", f"texture_seed={meta.texture_seed}",
    ]
    for key in sorted(meta.params):
        fields.append(f"param.{key}={meta.params[key]!r}")
    if meta.knots_t is not None:
        fields.append("knots_t=" + ",".join(repr(float(v)) for v in meta.knots_t))
        fields.append("knots_d=" + ",".join(repr(float(v)) for v in meta.knots_d))
    return fields


def encode_experiment(exp: Experiment, cfg: SimConfig) -> bytes:
    parts = []
    fields = _meta_fields(exp, cfg)
    parts.append(struct.pack("<I", len(fields)))
    for f in fields:
        raw = f.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    n = len(exp.forces)
    parts.append(struct.pack("<I", n))
    for i in range(n):
        parts.append(struct.pack("<d", float(exp.timestamps[i])))
        parts.append(struct.pack("<f", float(exp.forces[i])))
        parts.append(np.ascontiguousarray(exp.volumes[i], dtype="<f4").tobytes())
    return b"".join(parts)


def _decode_experiment(fh) -> tuple[dict[str, str], Experiment]:
    (n_fields,) = unpack(fh, "<I")
    if 4 * n_fields > bytes_left(fh):  # each field has a 4-byte length
        raise ValueError(f"dataset file truncated: {n_fields} fields declared")
    info = _Fields()
    for _ in range(n_fields):
        (length,) = unpack(fh, "<I")
        key, _, value = read_exact(fh, length).decode("utf-8").partition("=")
        info[key] = value
    h, w, d_raw = int(info["h"]), int(info["w"]), int(info["d_raw"])
    if min(h, w, d_raw) < 1:
        raise ValueError(f"bad volume extents {h}x{w}x{d_raw} in dataset file")
    (n,) = unpack(fh, "<I")
    vol_bytes = h * w * d_raw * 4
    if n * (12 + vol_bytes) > bytes_left(fh):
        raise ValueError(f"dataset file truncated: {n} samples of {h}x{w}x{d_raw} "
                         "declared")
    timestamps = np.empty(n, dtype=np.float64)
    forces = np.empty(n, dtype=np.float32)
    volumes = np.empty((n, h, w, d_raw), dtype=np.float32)
    for i in range(n):
        timestamps[i], forces[i] = unpack(fh, "<df")
        volumes[i] = np.frombuffer(read_exact(fh, vol_bytes), dtype="<f4").reshape(h, w, d_raw)
    params = {k.split(".", 1)[1]: float(v) for k, v in info.items()
              if k.startswith("param.")}
    meta = ExperimentMeta(
        exp_id=int(info["id"]), kind=info["kind"], split=info["split"], params=params,
        knots_t=(np.asarray([float(v) for v in info["knots_t"].split(",")])
                 if "knots_t" in info else None),
        knots_d=(np.asarray([float(v) for v in info["knots_d"].split(",")])
                 if "knots_d" in info else None),
        cx_mm=float(info["cx_mm"]), cy_mm=float(info["cy_mm"]),
        sigma_mm=float(info["sigma_mm"]), z0_mm=float(info["z0_mm"]),
        stiffness=float(info["stiffness"]), texture_seed=int(info["texture_seed"]),
    )
    return info, Experiment(meta=meta, volumes=volumes, forces=forces,
                            timestamps=timestamps)


def save_dataset(dataset: Dataset, path, sidecar: bool = True) -> None:
    """Serialize to the binary dataset format plus a human-readable sidecar."""
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION),
             struct.pack("<I", len(dataset.experiments))]
    for exp in dataset.experiments:
        parts.append(encode_experiment(exp, dataset.config))
    atomic_write(path, b"".join(parts))
    if sidecar:
        write_sidecar(path, dataset.config, [(e.meta.split, len(e.forces))
                                             for e in dataset.experiments])


def write_sidecar(path, cfg: SimConfig, split_sizes: list[tuple[str, int]]) -> None:
    import datetime

    counts = {s: 0 for s in SPLITS}
    samples = {s: 0 for s in SPLITS}
    for split, n in split_sizes:
        counts[split] += 1
        samples[split] += n
    lines = [
        f"kind={cfg.trajectory.kind}",
        f"seed={cfg.trajectory.seed}",
        f"experiments={sum(counts.values())}",
        f"samples={sum(samples.values())}",
        f"volume={cfg.h}x{cfg.w}x{cfg.d_raw}",
        f"split_experiments={counts['train']}/{counts['val']}/{counts['test']}",
        f"split_samples={samples['train']}/{samples['val']}/{samples['test']}",
        f"hard_mode={cfg.hard_mode}",
        f"noise={cfg.noise}",
        f"created={datetime.datetime.now().isoformat(timespec='seconds')}",
    ]
    atomic_write(os.fspath(path) + ".meta.txt", ("\n".join(lines) + "\n").encode())


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"not a dataset file: bad magic {magic!r}")
        (version,) = unpack(fh, "<I")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported dataset format version {version}")
        (n_exp,) = unpack(fh, "<I")
        if 8 * n_exp > bytes_left(fh):  # field and sample counts, 4 bytes each
            raise ValueError(f"dataset file truncated: {n_exp} experiments declared")
        experiments = []
        info: dict[str, str] = _Fields()
        for _ in range(n_exp):
            info, exp = _decode_experiment(fh)
            experiments.append(exp)
        if fh.read(1):
            raise ValueError("trailing bytes after final experiment")
    cfg = SimConfig(h=int(info["h"]), w=int(info["w"]), d_raw=int(info["d_raw"]),
                    lateral_fov_mm=float(info["lateral_fov_mm"]),
                    depth_fov_mm=float(info["depth_fov_mm"]),
                    trajectory=TrajectoryConfig(kind=info["kind"],
                                                rate_hz=float(info["rate_hz"])))
    return Dataset(config=cfg, experiments=experiments)


def write_dataset_streamed(path, n_experiments: int, cfg: SimConfig,
                           split_fractions=(0.75, 0.08, 0.17)) -> list[tuple[str, int]]:
    """Generate and write one experiment at a time (bounded memory).

    Produces byte-identical output to ``save_dataset(generate_dataset(...))``.
    """
    stream = experiments(n_experiments, cfg, split_fractions)
    split_sizes = []
    with replacing(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", n_experiments))
        for exp in stream:
            fh.write(encode_experiment(exp, cfg))
            split_sizes.append((exp.meta.split, len(exp.forces)))
    write_sidecar(path, cfg, split_sizes)
    return split_sizes
