"""Seeded fuzzing of the two binary formats: .oct4d datasets and checkpoints.

Every damaged file must either load or raise ValueError, and no load may
allocate more than the file holds, whatever count a damaged header
declares (plus a fixed allowance for the interpreter's own objects).
"""

import struct
import tracemalloc

import numpy as np
import pytest

from volforce import architectures as A
from volforce import phantom as P

from helpers import rewrite_checkpoint_config

BOOKKEEPING = 256 << 10  # Python objects a load may need beyond the file (valid: < 50 KiB)
SEEDED_PREFIXES = 40
SEEDED_FLIPS = 120


def _write_dataset(path):
    cfg = P.SimConfig(trajectory=P.TrajectoryConfig(n_samples=3, seed=1), h=4, w=4, d_raw=8)
    P.write_dataset_streamed(path, 3, cfg, (0.4, 0.3, 0.3))


def _dataset_header_end(blob: bytes) -> int:
    """Offset of the first sample: magic, version, count, the first
    experiment's fields and its sample count."""
    pos = len(P.MAGIC) + 8
    (n_fields,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    for _ in range(n_fields):
        (length,) = struct.unpack_from("<I", blob, pos)
        pos += 4 + length
    return pos + 4


def _write_checkpoint(path):
    net = A.build(A.ModelConfig("convrnn_resnet", "4d-st", rnn_kind="gru", base_channels=2,
                                n_blocks=2, spatial_output_stride=2, history=2))
    A.save_checkpoint(path, net, {name: p.data for name, p in net.named_params()})


def _checkpoint_header_end(blob: bytes) -> int:
    """Offset of the first entry: magic, version, config and entry count."""
    pos = len(A._CKPT_MAGIC) + 4
    (cfg_len,) = struct.unpack_from("<I", blob, pos)
    return pos + 4 + cfg_len + 4


FORMATS = {
    "oct4d": (_write_dataset, _dataset_header_end, P.load_dataset),
    "ckpt": (_write_checkpoint, _checkpoint_header_end, A.load_checkpoint),
}


def _load(load, path, label) -> bool:
    """True if ``path`` loads, False on ValueError; fails the test on any
    other exception or on an allocation peak beyond the file size."""
    size = path.stat().st_size
    tracemalloc.start()
    try:
        load(path)
        loaded = True
    except ValueError:
        loaded = False
    except Exception as exc:  # anything else escapes the CLI as a traceback
        pytest.fail(f"{label}: {type(exc).__name__}: {exc}")
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak <= size + BOOKKEEPING, f"{label}: peak {peak} B for a {size} B file"
    return loaded


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_prefixes_rejected(tmp_path, fmt):
    write, header_end, load = FORMATS[fmt]
    path = tmp_path / f"full.{fmt}"
    write(path)
    blob = path.read_bytes()
    assert _load(load, path, "intact file")
    end = header_end(blob)
    rng = np.random.default_rng(7)
    cuts = list(range(end)) + sorted(rng.integers(end, len(blob), SEEDED_PREFIXES))
    cut = tmp_path / f"cut.{fmt}"
    for n in cuts:
        cut.write_bytes(blob[:n])
        assert not _load(load, cut, f"prefix of {n} bytes"), n


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_single_byte_flips_load_or_raise_value_error(tmp_path, fmt):
    write, header_end, load = FORMATS[fmt]
    path = tmp_path / f"full.{fmt}"
    write(path)
    blob = path.read_bytes()
    end = header_end(blob)
    rng = np.random.default_rng(11)
    positions = list(range(end)) + sorted(rng.integers(end, len(blob), SEEDED_FLIPS))
    flipped = tmp_path / f"flip.{fmt}"
    for pos in positions:
        damaged = bytearray(blob)
        damaged[pos] ^= int(rng.integers(1, 256))
        flipped.write_bytes(bytes(damaged))
        _load(load, flipped, f"flip at byte {pos}")


def test_enlarged_checkpoint_config_rejected_before_allocating(tmp_path):
    # a config implying far more parameters than the file holds
    path = tmp_path / "model.ckpt"
    _write_checkpoint(path)
    rewrite_checkpoint_config(path, lambda cfg: dict(cfg, base_channels=64, kernel=5))
    assert not _load(A.load_checkpoint, path, "enlarged config")
