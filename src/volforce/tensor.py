"""Dense N-D tensors with reverse-mode automatic differentiation.

The canonical axis order used throughout the package is
(batch, time, depth-z, y, x, channel), with trailing axes dropped for
lower-dimensional data.  Arrays are row-major contiguous.  Tensors are
immutable after construction except for documented in-place optimizer
updates on parameter data.

``backward`` accumulates into ``Tensor.grad``; the training loop resets
gradients explicitly once per step via ``zero_grads``.

The process's one worker pool (``_pool``) runs the convolution fold's
samples (``ops._over_samples``) and, by ranges of rows (``_over_rows``),
the elementwise passes that write ``SPLIT_MIN_BYTES`` or more.  Buffers
come from the calling thread and every element sees the same ufuncs on
any thread, so no result depends on the worker count.  ``training.predict``
runs its forwards on it by chunks of samples (``_over_chunks``), with every
op inside a chunk inline.
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
from typing import Callable, Iterable, NamedTuple, Sequence

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
    pinned to one thread, else 1 (every pass inline).  Without
    ``os.sched_getaffinity`` (Windows, macOS) every CPU counts."""
    if not _blas_threads():
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_POOL = {}  # the worker threads, made on first use
if hasattr(os, "register_at_fork"):  # a forked child's copy of the pool has no threads
    os.register_at_fork(after_in_child=_POOL.clear)
_CHUNK = threading.local()  # .running is set while a chunk of _over_chunks runs


def _pool() -> ThreadPoolExecutor:
    """The one pool, made on first use, which pins numpy's OpenBLAS to one
    thread for good: after a 2-thread GEMM its helper thread spins."""
    if not _POOL:
        blas = _blas_threads()
        if blas:  # None only where a test sets the worker count
            blas[0](1)
        _POOL["threads"] = ThreadPoolExecutor(_workers())
    return _POOL["threads"]


# A pass that writes fewer bytes runs inline.  Split on two threads against
# inline (2-CPU host, float32, medians of 41 alternating calls, two runs):
# at 512 KB every pass was slower (0.56-0.92x); at 1 MiB a sigmoid 1.25-1.46x,
# an eval-mode norm 1.08-1.23x and a strided channel copy 1.02-1.25x, while
# a multiply (0.70-0.75x) and a tanh (0.59-0.78x) break even near 2 MiB.
SPLIT_MIN_BYTES = 1 << 20


def _cpus() -> int:
    """CPUs a dispatch may use: 1 in a chunk, which must not wait on its pool."""
    return 1 if getattr(_CHUNK, "running", False) else _workers()


def _over_rows(out: np.ndarray, fn: Callable[[object], None]) -> None:
    """``fn(rows)`` for a pass writing ``out``: ``fn(...)`` inline below
    ``SPLIT_MIN_BYTES``, else one slice of out's leading axis per usable CPU,
    the first in this thread.  fn writes only views of the caller's buffers."""
    if out.nbytes >= SPLIT_MIN_BYTES and out.ndim:
        n = out.shape[0]
        cpus = min(_cpus(), n)
        if cpus > 1:
            rows = [slice(w * n // cpus, (w + 1) * n // cpus) for w in range(cpus)]
            # each worker runs in a copy of the caller's context (np.errstate)
            rest = [_pool().submit(contextvars.copy_context().run, fn, r) for r in rows[1:]]
            fn(rows[0])
            for f in rest:
                f.result()
            return
    fn(...)


# Samples per chunk.  Batch-64 predict passes (2 CPUs, float32, median of 7):
# whole batch 573-589 ms at 150 MB peak RSS, one range per CPU 453-469 ms at
# 167 MB; chunks of 16, 8, 4: 451-483, 451-479, 530-536 ms at 135, 118, 109 MB.
CHUNK_SAMPLES = 8


def _run_chunk(fn, rows):
    _CHUNK.running = True
    try:
        return fn(rows)
    finally:
        _CHUNK.running = False


def _over_chunks(n: int, fn: Callable[[slice], object]) -> list:
    """``[fn(rows) ...]`` over n samples' consecutive chunks of ``CHUNK_SAMPLES``:
    one pool task per chunk, in a copy of the caller's context, or in order
    here on one CPU.  fn allocates in the workers, unlike ``_over_rows``'
    passes, yet a chunk's working set is small and peak RSS fell."""
    chunks = [slice(s, min(s + CHUNK_SAMPLES, n)) for s in range(0, n, CHUNK_SAMPLES)]
    if len(chunks) < 2 or _cpus() < 2:
        return [fn(rows) for rows in chunks]
    tasks = [_pool().submit(contextvars.copy_context().run, _run_chunk, fn, r) for r in chunks]
    return [t.result() for t in tasks]


def _rows(a, rows, ndim: int):
    """Operand ``a``'s part for output ``rows``: all of a where it broadcasts."""
    return a[rows] if np.ndim(a) == ndim and a.shape[:1] != (1,) else a


def _ufunc(f, *args) -> np.ndarray:
    """``f(*args)``, split by rows when an operand has ``SPLIT_MIN_BYTES``."""
    if max(a.nbytes for a in args) < SPLIT_MIN_BYTES:
        return f(*args)
    out = np.empty(np.broadcast_shapes(*(a.shape for a in args)), np.result_type(*args))
    _over_rows(out, lambda r: f(*(_rows(a, r, out.ndim) for a in args), out=out[r]))
    return out


def _copy(src: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of ``src``, split by rows with ``_over_rows``."""
    out = np.empty(src.shape, src.dtype)
    _over_rows(out, lambda r: np.copyto(out[r], src[r]))
    return out


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
    out_data = _ufunc(np.add, a.data, b.data)

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make(out_data, (a, b), backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")
    out_data = _ufunc(np.subtract, a.data, b.data)

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(_ufunc(np.negative, g), b.shape), owned=True)

    return _make(out_data, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")
    out_data = _ufunc(np.multiply, a.data, b.data)

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(_ufunc(np.multiply, g, b.data), a.shape), owned=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(_ufunc(np.multiply, g, a.data), b.shape), owned=True)

    return _make(out_data, (a, b), backward_fn)


def sigmoid(a: Tensor) -> Tensor:
    # e = exp(-|a|) <= 1, so no overflow; the numerator max(e, a >= 0) is 1
    # where a >= 0 and e elsewhere, then divided by 1 + e
    x = a.data
    # the output before the scratch e: with glibc's heap this order measured
    # half the page faults of a batch-64 predict pass and of a training step
    out_data, e = np.empty_like(x), np.empty_like(x)

    def forward(r):
        np.negative(np.abs(x[r], out=e[r]), out=e[r])
        np.exp(e[r], out=e[r])
        np.greater_equal(x[r], 0, out=out_data[r])
        np.maximum(e[r], out_data[r], out=out_data[r])
        np.divide(out_data[r], np.add(1.0, e[r], out=e[r]), out=out_data[r])

    _over_rows(out_data, forward)

    def backward_fn(g):  # g * out * (1 - out)
        da, rest = np.empty_like(g), np.empty_like(out_data)

        def grad(r):
            np.multiply(g[r], out_data[r], out=da[r])
            np.multiply(da[r], np.subtract(1.0, out_data[r], out=rest[r]), out=da[r])

        _over_rows(da, grad)
        _accumulate(a, da, owned=True)

    return _make(out_data, (a,), backward_fn)


def tanh(a: Tensor) -> Tensor:
    out_data = _ufunc(np.tanh, a.data)

    def backward_fn(g):  # g * (1 - out * out)
        da = np.empty_like(g)

        def grad(r):
            np.multiply(out_data[r], out_data[r], out=da[r])
            np.multiply(g[r], np.subtract(1.0, da[r], out=da[r]), out=da[r])

        _over_rows(da, grad)
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
    out_data = view if view.flags.c_contiguous else _copy(view)

    def backward_fn(g):
        # accumulate in place, so slices of one tensor share one gradient buffer
        if a.grad is None:
            a.grad = np.empty_like(a.data)
            _over_rows(a.grad, lambda r: a.grad[r].fill(0))
        dst = a.grad[index]
        _over_rows(dst, lambda r: np.add(dst[r], g[r], out=dst[r]))

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
        t.grad = _copy(g)
    else:
        _over_rows(t.grad, lambda r: np.add(t.grad[r], g[r], out=t.grad[r]))


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


# -- finite differences --------------------------------------------------------

# Kink-aware step control (see ``finite_diff_report``): the largest relative
# disagreement accepted between the one-sided quotients, and the smallest
# step tried.
FD_SLOPE_GAP = 1e-6
FD_MIN_STEP = 1e-7


class FiniteDiffReport(NamedTuple):
    """Outcome of :func:`finite_diff_report`."""

    worst: float  # max relative error over the sampled coordinates
    checked: int  # coordinates compared
    shrunk: int  # coordinates whose step had to be reduced below ``eps``
    min_step: float  # smallest step used for any coordinate
    plain_worst: float  # max relative error against the central difference at ``eps``


def finite_diff_report(f: Callable[[], Tensor], params: Sequence[Tensor],
                       eps: float = 1e-4, max_elements: int | None = None,
                       seed: int = 0) -> FiniteDiffReport:
    """Compare analytic gradients with kink-aware central differences.

    ``f`` rebuilds the scalar loss from ``params`` on every call.  The
    unperturbed loss ``f0`` is evaluated once.  For each sampled
    coordinate the step ``h`` starts at ``eps``; the one-sided quotients
    ``(f(x+h) - f0) / h`` and ``(f0 - f(x-h)) / h`` are compared, and
    while they differ by more than ``tol = FD_SLOPE_GAP * max(1, |central|)``
    the step is divided by 10.  Shrinking stops at the floor
    ``FD_MIN_STEP`` (1e-7; there float64 round-off still leaves the
    quotient accurate to about 1e-9 times the loss), or once a division
    cut the gap at least 5x and moved the central difference by at most
    ``tol``.  A ReLU whose pre-activation lies within ``h`` of zero makes
    the one-sided slopes disagree, so the reference moves to a step that
    no longer straddles the kink instead of averaging two slopes; a
    smaller step that still straddles it moves the central difference by
    a share of the slope jump.  On a smooth loss the gap is the curvature
    times ``h``: it falls 10x per division while the central difference
    moves by O(h^2), so one smaller step tells curvature from a kink.
    The analytic gradient plays no part in choosing ``h``, and no
    coordinate is dropped, so a wrong backward still shows.

    The relative error per coordinate is |analytic - central| /
    max(1, |central|) at the final step.  ``max_elements`` caps how many
    entries of each parameter are perturbed (sampled with ``seed``); the
    default perturbs every entry.  The check is meaningful only in the
    float64 mode (``use_dtype(np.float64)``): at 32-bit precision the
    round-off in ``f`` swamps differences at these steps.
    """
    def loss_value() -> float:
        with no_grad():
            return float(f().data.reshape(-1)[0])

    zero_grads(params)
    backward(f(), params)
    analytic = [None if p.grad is None else p.grad.copy() for p in params]
    f0 = loss_value()
    rng = np.random.default_rng(seed)
    worst, checked, shrunk, min_step, plain_worst = 0.0, 0, 0, eps, 0.0
    for p, grad in zip(params, analytic):
        flat = p.data.reshape(-1)
        n = flat.size
        if max_elements is not None and n > max_elements:
            idxs = rng.choice(n, size=max_elements, replace=False)
        else:
            idxs = range(n)
        gflat = np.zeros(n) if grad is None else grad.reshape(-1)
        for i in idxs:
            orig = flat[i]
            h, last_gap, last = eps, 0.0, np.nan  # no gap yet, so none has fallen
            while True:
                flat[i] = orig + h
                f_plus = loss_value()
                flat[i] = orig - h
                f_minus = loss_value()
                flat[i] = orig
                numeric = (f_plus - f_minus) / (2.0 * h)
                if h == eps:
                    plain = numeric
                slopes_gap = abs((f_plus - f0) - (f0 - f_minus)) / h
                # the floor compare allows for rounding in repeated h / 10
                tol = FD_SLOPE_GAP * max(1.0, abs(numeric))
                if (slopes_gap <= tol
                        or (5.0 * slopes_gap <= last_gap and abs(numeric - last) <= tol)
                        or h / 10.0 < FD_MIN_STEP * (1.0 - 1e-6)):
                    break
                h, last_gap, last = h / 10.0, slopes_gap, numeric
            checked += 1
            shrunk += int(h < eps)
            min_step = min(min_step, h)
            g = float(gflat[i])
            worst = max(worst, abs(g - numeric) / max(1.0, abs(numeric)))
            plain_worst = max(plain_worst, abs(g - plain) / max(1.0, abs(plain)))
    zero_grads(params)
    return FiniteDiffReport(worst, checked, shrunk, min_step, plain_worst)


def finite_diff_check(f: Callable[[], Tensor], params: Sequence[Tensor],
                      eps: float = 1e-4, max_elements: int | None = None,
                      seed: int = 0) -> float:
    """Max relative error of :func:`finite_diff_report` (same arguments)."""
    return finite_diff_report(f, params, eps, max_elements, seed).worst
