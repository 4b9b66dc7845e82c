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
    tau the softmax temperature, lambda_pfr the regularizer weight and
    lambda_ce the mixing weight of an optional external CE loss.
    """

    lambda_pfr: float
    mu: int = -1
    tau: float = 10.0
    lambda_ce: float = 0.95

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.lambda_pfr < 0:
            raise ValueError(f"lambda_pfr must be >= 0, got {self.lambda_pfr}")
        if not (0.0 <= self.lambda_ce <= 1.0):
            raise ValueError(f"lambda_ce must lie in [0, 1], got {self.lambda_ce}")


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

    # a LogitMatrix so that a non-finite scaled frame names its utterance
    log_p = log_softmax_rows(LogitMatrix(logits.utt_id, logits.frames / tau, logits.frame_ms))
    p = np.exp(log_p)
    students = np.arange(n_frames)
    students = students[(students + mu >= 0) & (students + mu < n_frames)]
    teachers = students + mu
    # KL(q || p) = sum q (log q - log p), teacher q held constant
    q = p[teachers]
    loss = float((q * (log_p[teachers] - log_p[students])).sum())
    grad[students] = (p[students] - q) / tau
    return loss, grad


def combined_loss(
    ctc: tuple[float, np.ndarray],
    pfr: tuple[float, np.ndarray],
    ce: tuple[float, np.ndarray] | None,
    params: PfrParams,
) -> tuple[float, np.ndarray]:
    """Mix CTC, peak-regularizer and optional CE terms.

    With CE present: lambda_ce*L_ce + (1-lambda_ce)*(L_ctc + lambda_pfr*L_pfr).
    Without it the CE weight contributes nothing and the loss reduces to
    L_ctc + lambda_pfr*L_pfr.
    """
    ctc_loss, ctc_grad = ctc
    pfr_loss, pfr_grad = pfr
    if ctc_grad.shape != pfr_grad.shape:
        raise ValueError(f"gradient shapes disagree: {ctc_grad.shape} vs {pfr_grad.shape}")
    lam = params.lambda_pfr
    base_loss = ctc_loss + lam * pfr_loss
    base_grad = ctc_grad + lam * pfr_grad
    if ce is None:
        return base_loss, base_grad
    ce_loss, ce_grad = ce
    if ce_grad.shape != ctc_grad.shape:
        raise ValueError(f"gradient shapes disagree: {ctc_grad.shape} vs {ce_grad.shape}")
    w = params.lambda_ce
    return w * ce_loss + (1.0 - w) * base_loss, w * ce_grad + (1.0 - w) * base_grad
