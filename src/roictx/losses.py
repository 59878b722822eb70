"""Classification objective of the synthetic trainer: a numerically
stable softmax over a logit vector."""

from __future__ import annotations

import numpy as np


def softmax(logits: np.ndarray) -> np.ndarray:
    """float64 softmax of a logit vector, shifted by its maximum so no
    exponent overflows."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()
