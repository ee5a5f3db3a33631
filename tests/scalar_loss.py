"""The scalar loss the engine tests build on: ``sum(x * w)`` as a single tape node."""

import numpy as np

import lcsb.autodiff as ad


def weighted_sum(x: ad.Tensor, w) -> ad.Tensor:
    """``sum(x * w)`` for a constant ``w`` broadcast to ``x``'s shape, as one node.

    The node hands ``x`` the gradient ``g * w``; from a loss, whose gradient
    is exactly 1, that is ``w`` bit for bit.
    """
    w = np.broadcast_to(np.asarray(w, dtype=np.float32), x.shape)

    def bw(g, needs):
        return (g * w,)

    return ad._finish(np.float32(np.sum(x.data * w)), (x,), bw)
