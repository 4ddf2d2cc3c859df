"""Force estimation from volume streams: tensors, networks, simulator, metrics."""

from volforce.tensor import Tensor, backward, no_grad, use_dtype

__all__ = ["Tensor", "backward", "no_grad", "use_dtype"]
__version__ = "0.1.0"
