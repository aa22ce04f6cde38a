"""AdamW with decoupled weight decay and a warmup + cosine LR schedule."""

from __future__ import annotations

import math

import numpy as np

from .tensor import NumericError, Tensor


def cosine_lr(step: int, total_steps: int, warmup_ratio: float, lr_start: float, lr_end: float) -> float:
    """Linear warmup from 0 to lr_start, then cosine decay to lr_end."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warmup = int(round(warmup_ratio * total_steps))
    if warmup > 0 and step < warmup:
        return lr_start * step / warmup
    if total_steps == warmup:
        return lr_start if step < total_steps else lr_end
    t = (step - warmup) / (total_steps - warmup)
    return lr_end + 0.5 * (lr_start - lr_end) * (1.0 + math.cos(math.pi * t))


def clip_grad_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= factor
    return norm


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], betas=(0.9, 0.95), weight_decay: float = 0.05,
                 eps: float = 1e-8):
        self.params = params
        self.beta1, self.beta2 = betas
        self.weight_decay = weight_decay
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for parameter {name!r}")
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            if self.weight_decay:
                p.data *= 1.0 - lr * self.weight_decay
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
