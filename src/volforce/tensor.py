"""Dense N-D tensors with reverse-mode automatic differentiation.

The canonical axis order used throughout the package is
(batch, time, depth-z, y, x, channel), with trailing axes dropped for
lower-dimensional data.  Arrays are row-major contiguous.  Tensors are
immutable after construction except for documented in-place optimizer
updates on parameter data.

``backward`` accumulates into ``Tensor.grad``; the training loop resets
gradients explicitly once per step via ``zero_grads``.
"""

from __future__ import annotations

from contextlib import contextmanager
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
            _accumulate(b, _unbroadcast(-g, b.shape))

    return _make(out_data, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")
    out_data = a.data * b.data

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), backward_fn)


def sigmoid(a: Tensor) -> Tensor:
    # exp of a non-positive argument only, so no overflow on either branch
    e = np.exp(-np.abs(a.data))
    out_data = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward_fn(g):
        _accumulate(a, g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward_fn)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward_fn(g):
        _accumulate(a, g * (1.0 - out_data * out_data))

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
    out_data = a.data[index]

    def backward_fn(g):
        # accumulate in place, so slices of one tensor share one gradient buffer
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[index] += g

    return _make(np.ascontiguousarray(out_data), (a,), backward_fn)


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
    producer hands over and no one else reads, so a first contribution
    keeps it without a copy.  A backward hands a buffer to at most one
    parent; ``add``, ``sub`` and ``_unbroadcast`` pass one to two, so they copy."""
    g = np.asarray(g, dtype=t.data.dtype).reshape(t.shape)
    if t.grad is None:
        t.grad = g if owned else g.copy()
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
