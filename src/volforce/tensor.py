"""Dense N-D tensors with reverse-mode automatic differentiation.

The canonical axis order used throughout the package is
(batch, time, depth-z, y, x, channel), with trailing axes dropped for
lower-dimensional data.  Arrays are row-major contiguous.  Tensors are
immutable after construction except for documented in-place optimizer
updates on parameter data.

``backward`` accumulates into ``Tensor.grad``; the training loop resets
gradients explicitly once per step via ``zero_grads``.

The process's one worker pool (``_pool``) is reached only through
``_parallel``, which runs two kinds of work: the convolution fold's
ranges of samples (``ops._over_samples``) and ``training.predict``'s
chunks of samples.  The pool's threads are marked when they start, so
every op on a pool thread runs inline.  Elementwise passes always run
inline.  No result depends on the worker count.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import lru_cache
from glob import glob
from typing import Callable, Iterable, Sequence

import numpy as np

# Global dtype for newly created tensors.  float64 is a test-only toggle:
# finite-difference checks are meaningless at 32-bit precision.
_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True


def default_dtype():
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> None:
    global _DEFAULT_DTYPE
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"unsupported dtype {dtype!r}; use float32 or float64")
    _DEFAULT_DTYPE = dtype


@contextmanager
def use_dtype(dtype):
    """Temporarily switch the default tensor dtype (tests use float64)."""
    prev = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(prev)


@contextmanager
def no_grad():
    """Disable graph recording, e.g. for evaluation passes."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A dense N-D array plus an optional position in a computation graph.

    ``data`` is a numpy array (up to 6 axes), ``grad`` is filled in by
    ``backward`` for leaves with ``requires_grad``.  Non-leaf tensors keep
    references to their parents and a closure that routes the incoming
    gradient to them.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=_DEFAULT_DTYPE)
        if arr.size == 0:
            raise ValueError(f"tensor extents must all be >= 1, got shape {arr.shape}")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zeros(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=_DEFAULT_DTYPE), requires_grad)

    # -- basic introspection --------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operators ------------------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __getitem__(self, index):
        return getitem(self, index)

    def backward(self) -> None:
        backward(self)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: np.ndarray, parents: Sequence[Tensor],
          backward_fn: Callable[[np.ndarray], None] | None) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


# -- the worker pool -------------------------------------------------------------


@lru_cache(maxsize=None)
def _blas_threads():
    """(set, get) for the thread count of the OpenBLAS bundled with numpy's
    wheel, through ctypes; None for any other BLAS (MKL, Accelerate, a
    system BLAS), whose calls then all run inline."""
    libs = glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs",
                             "libscipy_openblas64_*"))
    try:
        lib = ctypes.CDLL(libs[0])
        setter = lib.scipy_openblas_set_num_threads64_
        getter = lib.scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return setter, getter


def _workers() -> int:
    """Threads of the pool: one per usable CPU when numpy's OpenBLAS can be
    pinned to one thread, else 1 (everything inline).  Without
    ``os.sched_getaffinity`` (Windows, macOS) every CPU counts."""
    if not _blas_threads():
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_POOL = {}  # the worker threads, made on first use
if hasattr(os, "register_at_fork"):  # a forked child's copy of the pool has no threads
    os.register_at_fork(after_in_child=_POOL.clear)
_POOL_THREAD = threading.local()  # .marked is set on each of the pool's threads


def _mark_pool_thread() -> None:
    _POOL_THREAD.marked = True


def _pool() -> ThreadPoolExecutor:
    """The one pool, made on first use, which pins numpy's OpenBLAS to one
    thread for good: after a 2-thread GEMM its helper thread spins."""
    if not _POOL:
        blas = _blas_threads()
        if blas:  # None only where a test sets the worker count
            blas[0](1)
        _POOL["threads"] = ThreadPoolExecutor(_workers(), initializer=_mark_pool_thread)
    return _POOL["threads"]


def _cpus() -> int:
    """CPUs a dispatch may use: 1 on a pool thread, which must not wait on its pool."""
    return 1 if getattr(_POOL_THREAD, "marked", False) else _workers()


def _parallel(fn: Callable, parts: Sequence[tuple]) -> list:
    """``[fn(*part) for part in parts]``: one pool task per part, each in a
    copy of the caller's context (so ``np.errstate`` holds), or in order
    here with one part, one CPU, or on a pool thread.  The only code that
    submits to the pool."""
    if len(parts) < 2 or _cpus() < 2:
        return [fn(*part) for part in parts]
    tasks = [_pool().submit(contextvars.copy_context().run, fn, *part) for part in parts]
    return [t.result() for t in tasks]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ValueError(f"{op}: shapes {a.shape} and {b.shape} are not broadcastable") from None


# -- elementwise primitives ---------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    out_data = a.data + b.data

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make(out_data, (a, b), backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")
    out_data = a.data - b.data

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.shape), owned=True)

    return _make(out_data, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")
    out_data = a.data * b.data

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape), owned=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape), owned=True)

    return _make(out_data, (a, b), backward_fn)


def sigmoid(a: Tensor) -> Tensor:
    # e = exp(-|a|) <= 1, so no overflow; the numerator max(e, a >= 0) is 1
    # where a >= 0 and e elsewhere, then divided by 1 + e
    x = a.data
    # the output before the scratch e: with glibc's heap this order measured
    # half the page faults of a batch-64 predict pass and of a training step
    out_data, e = np.empty_like(x), np.empty_like(x)
    np.negative(np.abs(x, out=e), out=e)
    np.exp(e, out=e)
    np.greater_equal(x, 0, out=out_data)
    np.maximum(e, out_data, out=out_data)
    np.divide(out_data, np.add(1.0, e, out=e), out=out_data)

    def backward_fn(g):  # g * out * (1 - out)
        da, rest = np.empty_like(g), np.empty_like(out_data)
        np.multiply(g, out_data, out=da)
        np.multiply(da, np.subtract(1.0, out_data, out=rest), out=da)
        _accumulate(a, da, owned=True)

    return _make(out_data, (a,), backward_fn)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward_fn(g):  # g * (1 - out * out)
        da = np.multiply(out_data, out_data, out=np.empty_like(g))
        np.multiply(g, np.subtract(1.0, da, out=da), out=da)
        _accumulate(a, da, owned=True)

    return _make(out_data, (a,), backward_fn)


# -- linear algebra and reductions --------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _make(out_data, (a, b), backward_fn)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward_fn(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.shape))
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.shape))

    return _make(np.asarray(out_data), (a,), backward_fn)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.size if axis is None else np.prod([a.shape[i] for i in np.atleast_1d(axis)])
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / float(count))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out_data = a.data.reshape(shape)

    def backward_fn(g):
        _accumulate(a, g.reshape(a.shape))

    return _make(out_data, (a,), backward_fn)


def getitem(a: Tensor, index) -> Tensor:
    """Basic indexing (integers and slices) of ``a``."""
    if not isinstance(a.data[index], np.ndarray):  # one element: a 0-d view, not a scalar
        index = np.index_exp[index] + (...,)  # (no index holding ... gives a scalar)
    view = a.data[index]
    out_data = view if view.flags.c_contiguous else view.copy()

    def backward_fn(g):
        # accumulate in place, so slices of one tensor share one gradient buffer
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        dst = a.grad[index]
        dst += g

    return _make(out_data, (a,), backward_fn)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward_fn(g):
        parts = np.split(g, len(tensors), axis=axis)
        for t, part in zip(tensors, parts):
            if t.requires_grad:
                _accumulate(t, part.reshape(t.shape))

    return _make(out_data, tuple(tensors), backward_fn)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward_fn(g):
        offsets = np.cumsum([t.shape[axis] for t in tensors])[:-1]
        parts = np.split(g, offsets, axis=axis)
        for t, part in zip(tensors, parts):
            if t.requires_grad:
                _accumulate(t, part)

    return _make(out_data, tuple(tensors), backward_fn)


# -- reverse pass --------------------------------------------------------------


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` into ``t.grad``.  ``owned``: g is a fresh buffer that its
    producer hands to this one parent and no one else reads (a product, a
    negation, a dx), so a first contribution keeps it without a copy; the
    g that ``add`` and ``sub`` pass on as it came is copied."""
    g = np.asarray(g, dtype=t.data.dtype).reshape(t.shape)
    if t.grad is None and owned:
        t.grad = g
    elif t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor, params: Iterable[Tensor] | None = None) -> dict[Tensor, np.ndarray]:
    """Reverse-mode sweep from a scalar loss.

    Accumulates into ``grad`` of every reachable leaf with
    ``requires_grad`` (repeated calls without a reset therefore add up;
    the training loop resets once per step).  Interior nodes use ``grad``
    as a transient buffer and are freed on the way down.  Returns
    ``param -> gradient array``; parameters passed explicitly but
    unreachable from the loss get a zero gradient rather than an error.
    """
    if loss.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad; nothing to differentiate")
    order = _toposort(loss)
    _accumulate(loss, np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is None or node.grad is None:
            continue
        node._backward(node.grad)
        node.grad = None  # interior buffer, not a leaf gradient
    result: dict[Tensor, np.ndarray] = {}
    if params is not None:
        for p in params:
            if p.grad is None and p.requires_grad:
                p.grad = np.zeros_like(p.data)
            result[p] = p.grad
    return result


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None
