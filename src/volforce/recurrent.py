"""Gated recurrent cells (GRU/LSTM) and their convolutional variants.

Gate convention for the GRU, pinned here and in the tests:
h_t = (1 - z) * h_prev + z * h_tilde, so a closed update gate (z -> 0)
holds the previous state.  Pre-activations on the input-to-hidden and
hidden-to-hidden paths are normalized separately by recurrent batch
normalization before summing; the reset-gated candidate path U_h(r * h)
is left unnormalized.  Hidden states start at zero.

Each step applies the gate maps fused.  The input-side weights of all
gates, concatenated along output channels (w_z|w_r|w_h, or w_i|w_f|w_o|w_g),
make one map of x_t; the normalized hidden-side weights (u_z|u_r, or all
four u_*) make one map of h_prev; U_h(r * h) stays its own map.  Each
fused map is normalized by one RecurrentBatchNorm call whose gamma, beta
and running statistics are the per-gate norms' own, concatenated.  The
statistics are per channel, so this equals normalizing each gate on its
own; the updated statistics go back into each gate's slots.

A state of ``None`` is the zero state, where ``unroll`` starts when given
no ``h0``.  Its hidden-side maps are known to be zero and are skipped:
the norm runs on a zero tensor of unit spatial extent, which is the
closed form of a norm of zeros.  In training that is beta, and the
running statistics record batch mean 0 and variance 0 as for the map; in
eval it is (0 - running_mean) / sqrt(running_var + eps) * gamma + beta.

Recurrent batch normalization keeps separate running statistics per
timestep up to ``t_cap`` (statistics for t >= t_cap are shared) and
initializes the gain at 0.1.
"""

from __future__ import annotations

import numpy as np

from volforce import ops
from volforce import tensor as T
from volforce.tensor import Tensor

T_CAP_DEFAULT = 8
RECURRENT_GAMMA_INIT = 0.1


class RecurrentBatchNorm(ops.BatchNorm):
    """Batch normalization with per-timestep running statistics.

    gamma/beta are shared across timesteps; running mean/variance are kept
    per timestep for t < t_cap and in one shared slot for t >= t_cap.
    Statistics slots are preallocated so the buffer layout is fixed.
    """

    def __init__(self, channels: int, t_cap: int = T_CAP_DEFAULT,
                 momentum: float = 0.1, eps: float = 1e-3,
                 gamma_init: float = RECURRENT_GAMMA_INIT):
        super().__init__(channels, momentum, eps, gamma_init)
        self.t_cap = t_cap
        self.running_mean = np.zeros((t_cap + 1, channels), dtype=np.float64)
        self.running_var = np.ones((t_cap + 1, channels), dtype=np.float64)

    @classmethod
    def joined(cls, parts: list[RecurrentBatchNorm]) -> RecurrentBatchNorm:
        """One norm over the parts' channels, concatenated in order.

        gamma and beta are joined in the graph, so gradients reach the
        parts; momentum, eps and running statistics are per-channel
        copies, which the caller writes back after a training call.
        """
        norm = cls.__new__(cls)
        norm.channels = sum(p.channels for p in parts)
        norm.t_cap = parts[0].t_cap
        norm.momentum = np.concatenate([np.full(p.channels, p.momentum) for p in parts])
        norm.eps = np.concatenate([np.full(p.channels, p.eps) for p in parts])
        norm.gamma = T.concat([p.gamma for p in parts])
        norm.beta = T.concat([p.beta for p in parts])
        norm.running_mean = np.concatenate([p.running_mean for p in parts], axis=1)
        norm.running_var = np.concatenate([p.running_var for p in parts], axis=1)
        return norm

    def __call__(self, x: Tensor, t: int, training: bool) -> Tensor:
        if t < 0:
            raise ValueError(f"timestep must be >= 0, got {t}")
        return ops.batch_norm(x, self, training, slot=min(t, self.t_cap))


class _CellBase:
    """Weights, norms and the fused gate maps shared by the four cells.

    ``gates`` lists the gates in fused channel order and ``u_gates`` those
    whose hidden-side map is fused and normalized.  ``kernel`` holds the
    leading weight axes of one gate map: none for a matrix product.  Steps
    map the hidden side before the input side; the other order was measured
    to fragment the allocator's heap and raise the peak RSS of the layers
    after the cell at batch 64.
    """

    gate_names: tuple[str, ...] = ()
    bn_names: tuple[str, ...] = ()
    gates: tuple[str, ...] = ()
    u_gates: tuple[str, ...] = ()
    kernel: tuple[int, ...] = ()

    def __init__(self, in_size: int, hidden: int, init, t_cap: int = T_CAP_DEFAULT):
        self.in_size = in_size
        self.hidden = hidden
        self.t_cap = t_cap
        self.weights = {
            name: Tensor(init(self.kernel + ((in_size if name[0] == "w" else hidden), hidden)),
                         requires_grad=True)
            for name in self.gate_names}
        self.bns = {name: RecurrentBatchNorm(hidden, t_cap=t_cap) for name in self.bn_names}

    def _map(self, x: Tensor, w: Tensor) -> Tensor:
        return T.matmul(x, w)

    def _fused(self, side: str, x: Tensor | None, t: int, training: bool,
               like: Tensor) -> Tensor:
        """Normalized pre-activations of one side's gates, concatenated along
        channels; ``x`` None is the zero state (no map, see the module doc)."""
        gates = self.gates if side == "w" else self.u_gates
        if x is None:
            pre = Tensor.zeros(like.shape[:1] + (1,) * (like.ndim - 2)
                               + (len(gates) * self.hidden,))
        else:
            pre = self._map(x, T.concat([self.weights[f"{side}_{g}"] for g in gates], -1))
        parts = [self.bns[side + g] for g in gates]
        norm = RecurrentBatchNorm.joined(parts)
        out = norm(pre, t, training)
        if training:
            for i, part in enumerate(parts):
                cols = slice(i * self.hidden, (i + 1) * self.hidden)
                part.running_mean[:] = norm.running_mean[:, cols]
                part.running_var[:] = norm.running_var[:, cols]
        return out

    def _gate(self, fused: Tensor, i: int) -> Tensor:
        return fused[..., i * self.hidden:(i + 1) * self.hidden]

    def named_params(self, prefix: str = ""):
        for name in self.gate_names:
            yield prefix + name, self.weights[name]
        for name in self.bn_names:
            yield from self.bns[name].named_params(prefix + "bn_" + name + ".")

    def named_buffers(self, prefix: str = ""):
        for name in self.bn_names:
            yield from self.bns[name].named_buffers(prefix + "bn_" + name + ".")


class GRUCell(_CellBase):
    """Vector GRU step with recurrent batch normalization.

    z = sig(BN(W_z x) + BN(U_z h)); r = sig(BN(W_r x) + BN(U_r h));
    h~ = tanh(BN(W_h x) + U_h(r * h)); h_t = (1 - z) h_prev + z h~.
    """

    gate_names = ("w_z", "u_z", "w_r", "u_r", "w_h", "u_h")
    bn_names = ("wz", "uz", "wr", "ur", "wh")
    gates = ("z", "r", "h")
    u_gates = ("z", "r")

    def initial_state(self, x_t: Tensor) -> Tensor:
        return Tensor.zeros(x_t.shape[:-1] + (self.hidden,))

    def step(self, x_t: Tensor, h_prev: Tensor | None, t: int, training: bool) -> Tensor:
        """One timestep; ``h_prev`` None is the zero state."""
        uh = self._fused("u", h_prev, t, training, x_t)
        wx = self._fused("w", x_t, t, training, x_t)
        z = T.sigmoid(self._gate(wx, 0) + self._gate(uh, 0))
        if h_prev is None:
            return z * T.tanh(self._gate(wx, 2))
        r = T.sigmoid(self._gate(wx, 1) + self._gate(uh, 1))
        cand = T.tanh(self._gate(wx, 2) + self._map(r * h_prev, self.weights["u_h"]))
        return (1.0 - z) * h_prev + z * cand


class LSTMCell(_CellBase):
    """Vector LSTM step with per-gate recurrent batch normalization.

    c_t = f * c_prev + i * g; h_t = o * tanh(c_t).
    """

    gate_names = ("w_i", "u_i", "w_f", "u_f", "w_o", "u_o", "w_g", "u_g")
    bn_names = ("wi", "ui", "wf", "uf", "wo", "uo", "wg", "ug")
    gates = u_gates = ("i", "f", "o", "g")

    def initial_state(self, x_t: Tensor):
        shape = x_t.shape[:-1] + (self.hidden,)
        return (Tensor.zeros(shape), Tensor.zeros(shape))

    def step(self, x_t: Tensor, state, t: int, training: bool):
        """One timestep; ``state`` is (h, c), or None for the zero state."""
        h_prev, c_prev = (None, None) if state is None else state
        uh = self._fused("u", h_prev, t, training, x_t)
        wx = self._fused("w", x_t, t, training, x_t)

        def pre(gate: int) -> Tensor:
            return self._gate(wx, gate) + self._gate(uh, gate)

        i, o, g = T.sigmoid(pre(0)), T.sigmoid(pre(2)), T.tanh(pre(3))
        c_t = i * g if c_prev is None else T.sigmoid(pre(1)) * c_prev + i * g
        return o * T.tanh(c_t), c_t


class _ConvMaps:
    """Gate maps as SAME-padded convolutions over 2 or 3 spatial axes."""

    def __init__(self, in_channels: int, hidden: int, n_spatial: int, init,
                 k: int = 3, t_cap: int = T_CAP_DEFAULT):
        self.n_spatial = n_spatial
        self.k = k
        self.kernel = (k,) * n_spatial
        super().__init__(in_channels, hidden, init, t_cap)

    def _map(self, x: Tensor, w: Tensor) -> Tensor:
        if x.ndim != self.n_spatial + 2:
            raise ValueError(f"expected {self.n_spatial} spatial axes, got input {x.shape}")
        return ops.conv_spatial(x, w, stride=1)


class ConvGRUCell(_ConvMaps, GRUCell):
    """GRU whose gate maps are SAME-padded convolutions over 2 or 3 spatial axes."""


class ConvLSTMCell(_ConvMaps, LSTMCell):
    """LSTM whose gate maps are SAME-padded convolutions over 2 or 3 spatial axes."""


def unroll(cell, x_seq: Tensor, h0=None, return_sequence: bool = False,
           training: bool = False):
    """Run a cell over [b, p, ...] input; gradients flow through all steps.

    Starts from ``h0``, or from the zero state when it is None.  Returns
    the last hidden state, or the stacked per-step hidden states when
    ``return_sequence`` is set.  LSTM cell states are threaded internally
    and not returned.
    """
    p = x_seq.shape[1]
    if p < 1:
        raise ValueError("sequence length must be >= 1")
    state = h0
    outputs = []
    for t in range(p):
        state = cell.step(x_seq[:, t], state, t, training)
        if return_sequence:
            outputs.append(state[0] if isinstance(state, tuple) else state)
    if return_sequence:
        return T.stack(outputs, axis=1)
    return state[0] if isinstance(state, tuple) else state
