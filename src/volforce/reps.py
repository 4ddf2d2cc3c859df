"""Data representations: depth extraction, pseudo volumes, and windowing.

A raw rendered volume is [h, w, d_raw] with the full depth resolution.
The representations derived from it:

- ``4d-st`` / ``3d-s``: the volume resampled to ``d_out`` depth voxels.
- ``3d-st`` / ``2d-s``: the surface depth map (argmax of intensity per
  lateral column, ties toward the smallest index), normalized to [0, 1].
- ``ps-4d-st``: the depth map re-embedded as a one-hot-per-column
  occupancy volume of depth ``d_out``.

Windows never cross an experiment boundary.  A window of history ``p``
ending at index i covers frames i-p+1 .. i and is labeled with the force
at i+f (horizon ``f``); spatial-only representations use single frames.
"""

from __future__ import annotations

import numpy as np

from volforce import tensor as T

# representation -> (has temporal axis, spatial rank)
GEOMETRY = {
    "2d-s": (False, 2),
    "3d-s": (False, 3),
    "3d-st": (True, 2),
    "4d-st": (True, 3),
    "ps-4d-st": (True, 3),
}


def project_depth(volume: np.ndarray) -> np.ndarray:
    """Surface localization: argmax of intensity over depth, for each
    column of volumes [..., h, w, d].

    Returns the integer depth indices [..., h, w].  Ties break toward the
    smallest depth index (the surface side).
    """
    vol = np.asarray(volume)
    if vol.ndim < 3:
        raise ValueError(f"expected [..., h, w, d] volumes, got shape {vol.shape}")
    if not np.isfinite(vol).all():
        raise ValueError("volume contains non-finite values")
    return np.argmax(vol, axis=-1)


def reproject_pseudo(depth: np.ndarray, d_raw: int, d_out: int) -> np.ndarray:
    """Re-embed depth indices [..., h, w] in [0, d_raw - 1] as column-one-hot
    occupancy volumes [..., h, w, d_out].

    Depth indices rescale as round(depth * (d_out - 1) / (d_raw - 1)) with
    exact integer arithmetic (round half up).
    """
    if d_out < 1:
        raise ValueError("d_out must be >= 1")
    k = np.asarray(depth, dtype=np.int64)
    if d_raw == 1 or d_out == 1:
        z = np.zeros_like(k)
    else:
        z = (2 * k * (d_out - 1) + (d_raw - 1)) // (2 * (d_raw - 1))
    return (z[..., None] == np.arange(d_out)).astype(T.default_dtype())


def resample_depth_axis(volume: np.ndarray, d_out: int) -> np.ndarray:
    """Linear resampling of [..., h, w, d_raw] volumes along the depth axis.

    The lateral grid already matches the target, so trilinear resampling
    reduces to interpolation along depth at ``d_out`` evenly spaced
    positions spanning the original axis.
    """
    d_raw = volume.shape[-1]
    if d_out == d_raw:
        return volume.astype(T.default_dtype(), copy=False)
    pos = np.linspace(0.0, d_raw - 1, d_out)
    lo = np.floor(pos).astype(np.int64)
    hi = np.minimum(lo + 1, d_raw - 1)
    frac = (pos - lo).astype(volume.dtype)
    out = np.take(volume, lo, axis=-1) * (1.0 - frac) + np.take(volume, hi, axis=-1) * frac
    return out.astype(T.default_dtype(), copy=False)


def frames_for(representation: str, volumes: np.ndarray, d_out: int = 16) -> np.ndarray:
    """Transform raw volumes [n, h, w, d_raw] into per-frame model inputs.

    Output carries a trailing channel axis of 1.  Depth values feeding
    depth-map representations are normalized to [0, 1].
    """
    vols = np.asarray(volumes)
    if representation in ("4d-st", "3d-s"):
        frames = resample_depth_axis(vols, d_out)
    elif representation in ("3d-st", "2d-s"):
        frames = (project_depth(vols) / max(vols.shape[-1] - 1, 1)).astype(T.default_dtype())
    elif representation == "ps-4d-st":
        frames = reproject_pseudo(project_depth(vols), vols.shape[-1], d_out)
    else:
        raise ValueError(f"unknown representation {representation!r}")
    return frames[..., None]


class WindowedData:
    """Window index view over many experiments for one representation.

    Keeps one transformed frame array per experiment and assembles
    batches by stacking slices, so overlapping windows share storage.
    """

    def __init__(self, representation: str, p: int, f: int):
        if representation not in GEOMETRY:
            raise ValueError(f"unknown representation {representation!r}")
        if p < 1 or f < 0:
            raise ValueError("history must be >= 1 and horizon >= 0")
        self.representation = representation
        self.temporal = GEOMETRY[representation][0]
        self.p = p if self.temporal else 1
        self.f = f
        self.frames: list[np.ndarray] = []
        self.labels: list[np.ndarray] = []
        self.windows: list[tuple[int, int]] = []  # (experiment index, window end index)

    def add_experiment(self, frames: np.ndarray, forces: np.ndarray) -> None:
        e = len(self.frames)
        self.frames.append(frames)
        self.labels.append(np.asarray(forces, dtype=np.float64))
        n = len(forces)
        for end in range(self.p - 1, n - self.f):
            self.windows.append((e, end))

    def __len__(self) -> int:
        return len(self.windows)

    def gather(self, indices) -> tuple[np.ndarray, np.ndarray]:
        xs, ys = [], []
        for i in indices:
            e, end = self.windows[i]
            if self.temporal:
                xs.append(self.frames[e][end - self.p + 1:end + 1])
            else:
                xs.append(self.frames[e][end])
            ys.append(self.labels[e][end + self.f])
        return np.stack(xs), np.asarray(ys, dtype=np.float64).reshape(-1, 1)

    def all_labels(self) -> np.ndarray:
        return np.asarray([self.labels[e][end + self.f] for e, end in self.windows])


def windowed_splits(dataset, representation: str, p: int, f: int,
                    d_out: int = 16) -> dict[str, WindowedData]:
    """Build per-split windowed views from a phantom dataset.

    Split assignment is per experiment; windows therefore never cross an
    experiment (or split) boundary.  ``dataset.experiments`` is iterated
    once, so a Dataset over ``phantom.experiments(...)`` builds the views
    without the raw volumes of all experiments ever sitting in memory.
    """
    splits: dict[str, WindowedData] = {}
    for exp in dataset.experiments:
        frames = frames_for(representation, exp.volumes, d_out)
        data = splits.setdefault(exp.meta.split, WindowedData(representation, p, f))
        data.add_experiment(frames, exp.forces)
    return splits
