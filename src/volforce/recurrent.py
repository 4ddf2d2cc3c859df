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
fused map is normalized by one RecurrentBatchNorm call whose gamma and
beta are the per-gate norms' own, concatenated, and whose running
statistics are one array per side, of which each gate norm's are column
views.  The statistics are per channel, so this equals normalizing each
gate on its own.  ``unroll`` joins each side's weights and norm once
(``_CellBase.join``) and hands them to every step.  The gates are then
added and activated as whole channel blocks (sigmoid over z|r, or over
i|f|o with tanh over g), and a single gate is sliced out only where it
is consumed.

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

    def __call__(self, x: Tensor, t: int, training: bool) -> Tensor:
        if t < 0:
            raise ValueError(f"timestep must be >= 0, got {t}")
        return ops.batch_norm(x, self, training, slot=min(t, self.t_cap))


class _CellBase(ops.Module):
    """Weights, norms and the fused gate maps shared by the four cells.

    ``gates`` lists the gates in fused channel order and ``u_gates`` those
    whose hidden-side map is fused and normalized.  The registry order
    follows from them: the weights ``w_g, u_g`` for each gate g, then the
    norms ``bn_w<g>`` for each gate, each followed by ``bn_u<g>`` when g is
    in ``u_gates``.  ``kernel`` holds the leading weight axes of one gate
    map: none for a matrix product.  Steps map the hidden side before the
    input side; the other order was measured to fragment the allocator's
    heap and raise the peak RSS of the layers after the cell at batch 64.
    """

    gates: tuple[str, ...] = ()
    u_gates: tuple[str, ...] = ()
    kernel: tuple[int, ...] = ()

    def __init__(self, in_size: int, hidden: int, init, t_cap: int = T_CAP_DEFAULT):
        self.hidden = hidden
        for g in self.gates:
            for side, rows in (("w", in_size), ("u", hidden)):
                setattr(self, f"{side}_{g}",
                        Tensor(init(self.kernel + (rows, hidden)), requires_grad=True))
        # (running mean, running var) per side; a dict, so not a registry buffer
        self.stats = {side: (np.zeros((t_cap + 1, len(gates) * hidden)),
                             np.ones((t_cap + 1, len(gates) * hidden)))
                      for side, gates in (("w", self.gates), ("u", self.u_gates))}
        for g in self.gates:
            for side in ("w", "u") if g in self.u_gates else ("w",):
                norm = RecurrentBatchNorm(hidden, t_cap=t_cap)
                i = (self.gates if side == "w" else self.u_gates).index(g)
                norm.running_mean, norm.running_var = (
                    s[:, i * hidden:(i + 1) * hidden] for s in self.stats[side])
                setattr(self, f"bn_{side}{g}", norm)

    def _map(self, x: Tensor, w: Tensor) -> Tensor:
        return T.matmul(x, w)

    def join(self) -> dict[str, tuple[Tensor, RecurrentBatchNorm]]:
        """Per side, (gate weights, norm) over the gates' channels in order:
        weights, gamma and beta joined in the graph, momentum and eps read
        from the gate norms now, running statistics the side's arrays."""
        joined = {}
        for side, (mean, var) in self.stats.items():
            gates = self.gates if side == "w" else self.u_gates
            parts = [getattr(self, f"bn_{side}{g}") for g in gates]
            norm = RecurrentBatchNorm(
                mean.shape[1], mean.shape[0] - 1,
                momentum=np.concatenate([np.full(self.hidden, p.momentum) for p in parts]),
                eps=np.concatenate([np.full(self.hidden, p.eps) for p in parts]))
            norm.gamma = T.concat([p.gamma for p in parts])
            norm.beta = T.concat([p.beta for p in parts])
            norm.running_mean, norm.running_var = mean, var
            joined[side] = (T.concat([getattr(self, f"{side}_{g}") for g in gates], -1), norm)
        return joined

    def _fused(self, joined, side: str, x: Tensor | None, t: int, training: bool,
               like: Tensor) -> Tensor:
        """Normalized pre-activations of one side's gates, concatenated along
        channels; ``x`` None is the zero state (no map, see the module doc)."""
        weights, norm = joined[side]
        if x is None:
            pre = Tensor.zeros(like.shape[:1] + (1,) * (like.ndim - 2) + (norm.channels,))
        else:
            pre = self._map(x, weights)
        return norm(pre, t, training)


class GRUCell(_CellBase):
    """Vector GRU step with recurrent batch normalization.

    z = sig(BN(W_z x) + BN(U_z h)); r = sig(BN(W_r x) + BN(U_r h));
    h~ = tanh(BN(W_h x) + U_h(r * h)); h_t = (1 - z) h_prev + z h~.
    """

    gates = ("z", "r", "h")
    u_gates = ("z", "r")

    def step(self, x_t: Tensor, h_prev: Tensor | None, t: int, training: bool,
             joined) -> Tensor:
        """One timestep with ``joined`` from ``join``; ``h_prev`` None is the
        zero state."""
        n = self.hidden
        uh = self._fused(joined, "u", h_prev, t, training, x_t)
        wx = self._fused(joined, "w", x_t, t, training, x_t)
        zr = T.sigmoid(wx[..., :2 * n] + uh)
        z = zr[..., :n]
        if h_prev is None:
            return z * T.tanh(wx[..., 2 * n:])
        cand = T.tanh(wx[..., 2 * n:] + self._map(zr[..., n:] * h_prev, self.u_h))
        return (1.0 - z) * h_prev + z * cand


class LSTMCell(_CellBase):
    """Vector LSTM step with per-gate recurrent batch normalization.

    c_t = f * c_prev + i * g; h_t = o * tanh(c_t).
    """

    gates = u_gates = ("i", "f", "o", "g")

    def step(self, x_t: Tensor, state, t: int, training: bool, joined):
        """One timestep with ``joined`` from ``join``; ``state`` is (h, c), or
        None for the zero state."""
        h_prev, c_prev = (None, None) if state is None else state
        n = self.hidden
        uh = self._fused(joined, "u", h_prev, t, training, x_t)
        wx = self._fused(joined, "w", x_t, t, training, x_t)
        pre = wx + uh
        ifo = T.sigmoid(pre[..., :3 * n])
        i, o, g = ifo[..., :n], ifo[..., 2 * n:], T.tanh(pre[..., 3 * n:])
        c_t = i * g if c_prev is None else ifo[..., n:2 * n] * c_prev + i * g
        return o * T.tanh(c_t), c_t


class _ConvMaps:
    """Gate maps as SAME-padded convolutions over 2 or 3 spatial axes."""

    def __init__(self, in_channels: int, hidden: int, n_spatial: int, init,
                 k: int = 3, t_cap: int = T_CAP_DEFAULT):
        self.kernel = (k,) * n_spatial
        super().__init__(in_channels, hidden, init, t_cap)

    def _map(self, x: Tensor, w: Tensor) -> Tensor:
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
    joined = cell.join()
    outputs = []
    for t in range(p):
        state = cell.step(x_seq[:, t], state, t, training, joined)
        if return_sequence:
            outputs.append(state[0] if isinstance(state, tuple) else state)
    if return_sequence:
        return T.stack(outputs, axis=1)
    return state[0] if isinstance(state, tuple) else state
