"""Peak shifting by frame-wise knowledge distillation.

Each frame's temperature-smoothed distribution is pulled toward that of a
neighboring frame: the neighbor acts as a fixed teacher (no gradient flows
through it), so with a shift of -1 every frame imitates its predecessor and
peaks drift later; +1 advances them.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .ctc import LogitMatrix, log_softmax_rows

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PfrParams:
    """Shift/temperature/weights for the peak regularizer.

    mu is the teacher frame offset (-1 delays peaks, +1 advances them),
    tau the softmax temperature and lambda_pfr the regularizer weight.
    """

    lambda_pfr: float
    mu: int = -1
    tau: float = 10.0

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.lambda_pfr < 0:
            raise ValueError(f"lambda_pfr must be >= 0, got {self.lambda_pfr}")


def pfr_loss_grad(logits: LogitMatrix, params: PfrParams) -> tuple[float, np.ndarray]:
    """Summed KL(teacher frame || student frame) and its gradient.

    For every frame t with t+mu in range, the teacher is the tempered
    distribution at t+mu and the student the one at t. Teacher frames are
    constants: the gradient at frame t is (P_tau(t) - P_tau(t+mu)) / tau
    whenever t is a student, zero otherwise.
    """
    mu, tau = params.mu, params.tau
    n_frames = logits.n_frames
    grad = np.zeros_like(logits.frames)
    if mu == 0:
        return 0.0, grad
    if n_frames == 1:
        log.warning("%s: single frame, peak regularizer is a no-op", logits.utt_id)
        return 0.0, grad

    # a tau so small that frames / tau overflows gives a non-finite loss,
    # which the trainer reports as divergence
    log_p = log_softmax_rows(logits.frames / tau)
    p = np.exp(log_p)
    students = np.arange(n_frames)
    students = students[(students + mu >= 0) & (students + mu < n_frames)]
    teachers = students + mu
    # KL(q || p) = sum q (log q - log p), teacher q held constant
    q = p[teachers]
    loss = float((q * (log_p[teachers] - log_p[students])).sum())
    grad[students] = (p[students] - q) / tau
    return loss, grad

