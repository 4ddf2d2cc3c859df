"""Network builders for every architecture family and capacity variant.

Families share a pre-activation ResNet backbone (initial 3-kernel
convolution, then residual blocks with stride-2/channel-doubling blocks
until the spatial output stride is reached, channels capped at
``max_channels``):

- ``resnet``: spatio-temporal (or purely spatial) convolutions end to
  end, then global average pooling over all content axes and a scalar
  dense head.
- ``fac_resnet``: the same with factorized (spatial then temporal)
  convolutions inside the blocks.
- ``resnet_rnn``: the spatial backbone runs per frame with shared
  weights, spatial pooling yields one feature vector per frame, two
  recurrent layers (full sequence between them) process the sequence and
  the last state feeds the head.
- ``convrnn_resnet``: one convolutional recurrent layer runs over the
  frame sequence at full resolution; its last temporal output feeds the
  spatial backbone, pooling and head.

Checkpoints serialize the config plus all named parameters, EMA shadows
and normalization buffers as 32-bit little-endian tensors.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from volforce import ops
from volforce import tensor as T
from volforce.phantom import atomic_write, bytes_left, read_exact, unpack
from volforce.recurrent import ConvGRUCell, ConvLSTMCell, GRUCell, LSTMCell, unroll
from volforce.reps import GEOMETRY
from volforce.tensor import Tensor

FAMILIES = ("resnet", "fac_resnet", "resnet_rnn", "convrnn_resnet")
REPRESENTATIONS = tuple(GEOMETRY)


@dataclass
class ModelConfig:
    """Everything needed to rebuild a network.

    ``capacity`` presets: "wide" doubles ``base_channels``, "deep" adds
    four stride-1 blocks after the strided stack; "base" leaves the given
    values (defaults 16 channels, 5 blocks).  Channel doubling at each
    stride-2 block stops at ``max_channels`` (default 4x base) to keep
    parameter counts in the regime of the reference results.
    """

    family: str
    representation: str
    rnn_kind: str = "none"
    base_channels: int = 16
    n_blocks: int = 5
    spatial_output_stride: int = 16
    capacity: str = "base"
    history: int = 6
    horizon: int = 0
    max_channels: int = 0  # 0 -> 4 * effective base channels
    kernel: int = 3
    d_out: int = 16  # volume depth after resampling; absent from older checkpoints

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.representation not in REPRESENTATIONS:
            raise ValueError(f"unknown representation {self.representation!r}")
        if self.capacity not in ("base", "wide", "deep"):
            raise ValueError(f"unknown capacity {self.capacity!r}")
        temporal, n_spatial = GEOMETRY[self.representation]
        if self.family in ("resnet_rnn", "convrnn_resnet"):
            if not temporal:
                raise ValueError(
                    f"{self.family} needs a temporal representation, got {self.representation}")
            if self.rnn_kind not in ("gru", "lstm"):
                raise ValueError(f"{self.family} needs rnn_kind gru or lstm")
        else:
            if self.rnn_kind != "none":
                raise ValueError(f"{self.family} takes rnn_kind 'none'")
        if self.family == "fac_resnet" and not temporal:
            raise ValueError("fac_resnet factorizes time and needs a temporal representation")
        s = self.spatial_output_stride
        if s < 1 or (s & (s - 1)) != 0:
            raise ValueError(f"spatial_output_stride must be a power of two, got {s}")
        if self.n_strided() > max(0, self.n_blocks - 1):
            raise ValueError(
                f"{self.n_blocks} blocks cannot host {self.n_strided()} stride-2 blocks")
        if self.history < 1 or self.horizon < 0 or self.d_out < 1:
            raise ValueError("history and d_out must be >= 1 and horizon >= 0")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd and positive, got {self.kernel}")
        if self.base_channels < 1 or self.max_channels < 0:
            raise ValueError("base_channels must be >= 1 and max_channels >= 0")

    def n_strided(self) -> int:
        return int(np.log2(self.spatial_output_stride))

    def channels(self) -> int:
        return self.base_channels * (2 if self.capacity == "wide" else 1)

    def blocks(self) -> int:
        return self.n_blocks + (4 if self.capacity == "deep" else 0)

    def channel_cap(self) -> int:
        return self.max_channels if self.max_channels else 4 * self.channels()

    def temporal(self) -> bool:
        return GEOMETRY[self.representation][0]

    def n_spatial(self) -> int:
        return GEOMETRY[self.representation][1]

    def input_rank(self) -> int:
        # batch + optional time + spatial + channel
        return 2 + self.n_spatial() + (1 if self.temporal() else 0)


def _backbone_kind(config: ModelConfig, factorized: bool) -> str:
    temporal = config.temporal() and config.family in ("resnet", "fac_resnet")
    n_spatial = config.n_spatial()
    if temporal:
        if n_spatial == 3:
            return "fac4d" if factorized else "full4d"
        return "fac3d" if factorized else "st3d"
    return "conv3d" if n_spatial == 3 else "conv2d"


class _Head(ops.Module):
    """Scalar affine head: [b, c] @ W [c, 1] + b [1]."""

    def __init__(self, channels: int, init):
        self.W = Tensor(init((channels, 1)), requires_grad=True)
        self.b = Tensor(np.zeros(1, dtype=T.default_dtype()), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.W) + self.b


class Network(ops.Module):
    """A built model: its forward pass; the registry is its layer tree.

    The backbone (initial convolution plus the residual stack) is set on
    the network itself as ``init_conv`` and ``block1``..``blockN``, so its
    names carry no prefix.  Subclasses define ``_forward``.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        # (mean, std) used to de-standardize head outputs into mN; set by
        # the trainer when label normalization is on, identity otherwise.
        # Set before any layer, so it is the first buffer.
        self.label_norm = np.array([0.0, 1.0], dtype=np.float64)

    def _add_backbone(self, kind: str, in_channels: int, init) -> int:
        """Set ``init_conv`` and the residual blocks; returns their output channels."""
        cfg = self.config
        cin = cfg.channels()
        self.init_conv = ops.Conv(ops.projection_kind(kind), in_channels, cin, stride=1,
                                  init=init, k=cfg.kernel)
        for i in range(cfg.blocks()):
            strided = 1 <= i <= cfg.n_strided()
            cout = min(cin * 2, cfg.channel_cap()) if strided else cin
            setattr(self, f"block{i + 1}", ops.ResidualBlock(
                kind, cin, cout, stride=2 if strided else 1, init=init, k=cfg.kernel))
            cin = cout
        return cin

    def backbone(self, x: Tensor, training: bool) -> Tensor:
        h = self.init_conv(x)
        for i in range(1, self.config.blocks() + 1):
            h = getattr(self, f"block{i}")(h, training)
        return h

    def forward(self, batch, training: bool = False) -> Tensor:
        x = batch if isinstance(batch, Tensor) else Tensor(batch)
        cfg = self.config
        if x.ndim != cfg.input_rank():
            raise ValueError(
                f"representation {cfg.representation} expects rank {cfg.input_rank()} "
                f"input, got shape {x.shape}")
        if x.shape[-1] != self._in_channels():
            raise ValueError(f"expected {self._in_channels()} input channel(s), got {x.shape[-1]}")
        spatial = x.shape[2:-1] if cfg.temporal() else x.shape[1:-1]
        s = cfg.spatial_output_stride
        if any(e % s for e in spatial):
            raise ValueError(f"spatial extents {spatial} not divisible by output stride {s}")
        if cfg.temporal() and x.shape[1] != cfg.history:
            raise ValueError(f"expected history {cfg.history}, got {x.shape[1]} frames")
        return self._forward(x, training)

    def __call__(self, batch, training: bool = False) -> Tensor:
        return self.forward(batch, training)

    def _in_channels(self) -> int:
        return 1


class _ResNet(Network):
    def __init__(self, config: ModelConfig, init):
        super().__init__(config)
        kind = _backbone_kind(config, factorized=config.family == "fac_resnet")
        self.head = _Head(self._add_backbone(kind, 1, init), init)

    def _forward(self, x: Tensor, training: bool) -> Tensor:
        h = self.backbone(x, training)
        mode = "temporal+spatial" if self.config.temporal() else "spatial"
        h = ops.global_avg_pool(h, mode, self.config.n_spatial())
        return self.head(h)


class _ResNetRNN(Network):
    """Shared-weight spatial backbone per frame, then two recurrent layers."""

    def __init__(self, config: ModelConfig, init):
        super().__init__(config)
        hidden = self._add_backbone("conv3d" if config.n_spatial() == 3 else "conv2d", 1, init)
        cell_cls = GRUCell if config.rnn_kind == "gru" else LSTMCell
        t_cap = max(config.history, 1)
        self.cell1 = cell_cls(hidden, hidden, init, t_cap=t_cap)
        self.cell2 = cell_cls(hidden, hidden, init, t_cap=t_cap)
        self.head = _Head(hidden, init)

    def _forward(self, x: Tensor, training: bool) -> Tensor:
        b, p = x.shape[0], x.shape[1]
        frames = T.reshape(x, (b * p,) + x.shape[2:])
        h = self.backbone(frames, training)
        h = ops.global_avg_pool(h, "spatial", self.config.n_spatial())
        seq = T.reshape(h, (b, p, h.shape[-1]))
        seq = unroll(self.cell1, seq, return_sequence=True, training=training)
        last = unroll(self.cell2, seq, training=training)
        return self.head(last)


class _ConvRNNResNet(Network):
    """Convolutional recurrence at full resolution, then a spatial backbone."""

    HIDDEN_PER_INPUT = 4

    def __init__(self, config: ModelConfig, init):
        super().__init__(config)
        n_spatial = config.n_spatial()
        hidden = self.HIDDEN_PER_INPUT  # input channels x 4, inputs are 1-channel
        cell_cls = ConvGRUCell if config.rnn_kind == "gru" else ConvLSTMCell
        self.cell = cell_cls(1, hidden, n_spatial, init, k=config.kernel,
                             t_cap=max(config.history, 1))
        kind = "conv3d" if n_spatial == 3 else "conv2d"
        self.head = _Head(self._add_backbone(kind, hidden, init), init)

    def _forward(self, x: Tensor, training: bool) -> Tensor:
        last = unroll(self.cell, x, training=training)
        h = self.backbone(last, training)
        h = ops.global_avg_pool(h, "spatial", self.config.n_spatial())
        return self.head(h)


def build(config: ModelConfig, seed: int = 0, init_std: float = 0.01) -> Network:
    """Construct a network with truncated-normal weights and zero biases."""
    from volforce.training import init_truncated_normal

    rng = np.random.default_rng(seed)

    def init(shape):
        return init_truncated_normal(shape, init_std, rng)

    return _assemble(config, init)


def _assemble(config: ModelConfig, init) -> Network:
    cls = {
        "resnet": _ResNet,
        "fac_resnet": _ResNet,
        "resnet_rnn": _ResNetRNN,
        "convrnn_resnet": _ConvRNNResNet,
    }[config.family]
    return cls(config, init)


# -- architecture name table (the CLI surface) -------------------------------------


ARCH_TABLE = {
    # name -> (family, rnn_kind, allowed representations)
    "resnet4d": ("resnet", "none", ("4d-st", "ps-4d-st")),
    "facresnet4d": ("fac_resnet", "none", ("4d-st", "ps-4d-st")),
    "resnet3d-gru": ("resnet_rnn", "gru", ("4d-st", "ps-4d-st")),
    "resnet3d-lstm": ("resnet_rnn", "lstm", ("4d-st", "ps-4d-st")),
    "convgru-resnet3d": ("convrnn_resnet", "gru", ("4d-st", "ps-4d-st")),
    "convlstm-resnet3d": ("convrnn_resnet", "lstm", ("4d-st", "ps-4d-st")),
    "resnet3d-st": ("resnet", "none", ("3d-st",)),
    "facresnet3d": ("fac_resnet", "none", ("3d-st",)),
    "resnet2d-gru": ("resnet_rnn", "gru", ("3d-st",)),
    "resnet2d-lstm": ("resnet_rnn", "lstm", ("3d-st",)),
    "convgru-resnet2d": ("convrnn_resnet", "gru", ("3d-st",)),
    "convlstm-resnet2d": ("convrnn_resnet", "lstm", ("3d-st",)),
    "resnet2d-s": ("resnet", "none", ("2d-s",)),
    "resnet3d-s": ("resnet", "none", ("3d-s",)),
}


def arch_name_of(config: ModelConfig) -> str:
    """Reverse lookup: the CLI architecture name for a built config."""
    for name, (family, rnn, allowed) in ARCH_TABLE.items():
        if (family, rnn) == (config.family, config.rnn_kind) \
                and config.representation in allowed:
            suffix = {"wide": "-w", "deep": "-d"}.get(config.capacity, "")
            return name + suffix
    raise ValueError(f"no architecture name for {config}")


def config_from_arch(arch: str, representation: str, history: int = 6, horizon: int = 0,
                     **overrides) -> ModelConfig:
    """Resolve an architecture name (optionally suffixed -w or -d) to a config."""
    name = arch.lower().replace("_", "-")
    capacity = "base"
    if name.endswith("-w"):
        capacity, name = "wide", name[:-2]
    elif name.endswith("-d"):
        capacity, name = "deep", name[:-2]
    if name not in ARCH_TABLE:
        raise ValueError(f"unknown architecture {arch!r}; known: {sorted(ARCH_TABLE)}")
    family, rnn_kind, allowed = ARCH_TABLE[name]
    if representation not in allowed:
        raise ValueError(
            f"architecture {arch!r} works on representations {allowed}, got {representation!r}")
    overrides.setdefault("capacity", capacity)
    return ModelConfig(family=family, representation=representation, rnn_kind=rnn_kind,
                       history=history, horizon=horizon, **overrides)


# -- checkpoint io ------------------------------------------------------------------


_CKPT_MAGIC = b"VFCKPT"
_CKPT_VERSION = 1
_KIND_PARAM, _KIND_EMA, _KIND_BUFFER = 0, 1, 2


def _write_entry(buf, kind: int, name: str, array: np.ndarray) -> None:
    data = np.ascontiguousarray(array, dtype="<f4")
    nb = name.encode("utf-8")
    buf.write(struct.pack("<BH", kind, len(nb)))
    buf.write(nb)
    buf.write(struct.pack("<B", data.ndim))
    buf.write(struct.pack(f"<{data.ndim}I", *data.shape))
    buf.write(data.tobytes())


def _read_entry(buf) -> tuple[int, str, np.ndarray]:
    kind, name_len = unpack(buf, "<BH")
    name = read_exact(buf, name_len).decode("utf-8")
    (ndim,) = unpack(buf, "<B")
    shape = unpack(buf, f"<{ndim}I")
    raw = read_exact(buf, 4 * math.prod(shape))
    return kind, name, np.frombuffer(raw, dtype="<f4").reshape(shape)


def save_checkpoint(path, net: Network, ema: dict[str, np.ndarray] | None = None) -> None:
    """Write config, parameters, EMA shadows, and normalization buffers."""
    buf = io.BytesIO()
    buf.write(_CKPT_MAGIC)
    buf.write(struct.pack("<I", _CKPT_VERSION))
    cfg = json.dumps(asdict(net.config), sort_keys=True).encode("utf-8")
    buf.write(struct.pack("<I", len(cfg)))
    buf.write(cfg)
    entries = [( _KIND_PARAM, name, p.data) for name, p in net.named_params()]
    entries += [(_KIND_BUFFER, name, arr) for name, arr in net.named_buffers()]
    if ema is not None:
        entries += [(_KIND_EMA, name, arr) for name, arr in ema.items()]
    buf.write(struct.pack("<I", len(entries)))
    for kind, name, arr in entries:
        _write_entry(buf, kind, name, arr)
    atomic_write(path, buf.getvalue())


def _unallocated(shape) -> np.ndarray:
    """A zero-stride placeholder parameter: shape only, no memory."""
    return np.broadcast_to(np.zeros((), dtype=T.default_dtype()), shape)


def _check_sizes(config: ModelConfig, shapes: dict[str, tuple[int, ...]]) -> None:
    """Reject a config whose sizing values disagree with a checkpoint's
    entry shapes by name: ``channels()`` against ``init_conv``'s output
    channels, ``blocks()`` against the ``block<i>.`` entries, and
    ``history + 1`` against the recurrent norms' running-statistics rows.
    These size the norms that ``_assemble`` allocates."""
    blocks = {name.split(".")[0] for name in shapes if name.startswith("block")}
    rows = {shape[0] for name, shape in shapes.items()
            if name.endswith(".running_mean") and len(shape) == 2}
    recurrent = config.family in ("resnet_rnn", "convrnn_resnet")
    if (shapes.get("init_conv.weight", ())[-1:] != (config.channels(),)
            or len(blocks) != config.blocks()
            or rows != ({config.history + 1} if recurrent else set())):
        raise ValueError(f"bad checkpoint config: {config.channels()} channels, {config.blocks()} "
                         f"blocks and history {config.history} do not fit its entries")


def load_checkpoint(path) -> tuple[Network, dict[str, np.ndarray]]:
    """Rebuild the network from a checkpoint; returns (net, ema shadows).

    The config's sizing values are checked against the file's entry table
    (``_check_sizes``), and the network is assembled with placeholder
    parameters and takes each parameter array from the file, so a config
    implying more than the file holds is rejected before it is allocated.
    Every parameter and buffer must appear once with its exact shape, and
    EMA shadows must name parameters.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_CKPT_MAGIC))
        if magic != _CKPT_MAGIC:
            raise ValueError(f"not a checkpoint file: bad magic {magic!r}")
        (version,) = unpack(fh, "<I")
        if version != _CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (cfg_len,) = unpack(fh, "<I")
        try:
            config = ModelConfig(**json.loads(read_exact(fh, cfg_len).decode("utf-8")))
            (n_entries,) = unpack(fh, "<I")
            if 8 * n_entries > bytes_left(fh):  # an entry takes at least 8 bytes
                raise ValueError(f"checkpoint truncated: {n_entries} entries declared")
            start = fh.tell()  # the entry table, holding one entry's bytes at a time
            entries = (_read_entry(fh) for _ in range(n_entries))
            shapes = {name: arr.shape for _, name, arr in entries}
            fh.seek(start)
            _check_sizes(config, shapes)
            net = _assemble(config, _unallocated)
        except TypeError as exc:  # unknown or missing keys, non-object JSON, bad types
            raise ValueError(f"bad checkpoint config: {exc}") from None
        params = dict(net.named_params())
        buffers = dict(net.named_buffers())
        targets = {_KIND_PARAM: params, _KIND_EMA: params, _KIND_BUFFER: buffers}
        ema: dict[str, np.ndarray] = {}
        seen: set[tuple[int, str]] = set()
        for _ in range(n_entries):
            kind, name, arr = _read_entry(fh)
            target = targets.get(kind, {}).get(name)
            if target is None or target.shape != arr.shape or (kind, name) in seen:
                raise ValueError(f"checkpoint entry {name!r} (kind {kind}, shape "
                                 f"{arr.shape}) does not fit its config")
            seen.add((kind, name))
            if kind == _KIND_PARAM:
                target.data = arr.astype(T.default_dtype())
            elif kind == _KIND_BUFFER:
                np.copyto(target, arr)
            else:
                ema[name] = arr.astype(T.default_dtype())
        missing = ([n for n in params if (_KIND_PARAM, n) not in seen]
                   + [n for n in buffers if (_KIND_BUFFER, n) not in seen])
        if missing:
            raise ValueError(f"checkpoint lacks {len(missing)} entries, first {missing[0]!r}")
        return net, ema
