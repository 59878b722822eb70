"""Central finite-difference verification of analytic gradients.

Float32 data forces the documented operating point: step h ~ 1e-2 and a
relative tolerance of 1e-3.  Probe points where a discrete routing
decision flips between x-h*e_i and x+h*e_i are skipped, not failed; the
comparison is only meaningful where the piecewise-smooth branch stays
fixed.  So a forward's record must cover every discrete decision it
makes: for mining, each cell's selection and each block map's argmax,
which can flip while the selections hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError


@dataclass
class GradCheckReport:
    """Outcome of one finite-difference sweep.

    max_rel_error uses |numeric - analytic| / max(|numeric|, |analytic|, 1),
    i.e. absolute error for gradients of magnitude <= 1.  skipped counts
    probe points rejected by the stability probe.
    """

    max_abs_error: float
    max_rel_error: float
    worst_index: tuple
    h: float
    probed: int
    skipped: int


def check(f, x: np.ndarray, analytic_grad: np.ndarray, h: float = 1e-2,
          probes: int = 100, seed: int = 0) -> GradCheckReport:
    """Compare analytic_grad against central differences of f at x.

    Args:
        f: function of a tensor shaped like x, called once per evaluation,
            returning (value, record): a scalar and a comparable record of
            every routing decision of that forward (see above), or None
            when nothing routes.  Probes whose two records differ are
            skipped.
        x: base point (not modified).
        analytic_grad: candidate gradient, same shape as x.
        h: central-difference step, must be > 0.
        probes: number of coordinates to probe (capped at x.size); sampled
            without replacement with the given seed.
        seed: RNG seed for coordinate sampling.
    Raises NumericError when f is not finite or every probe is skipped.
    """
    if h <= 0.0:
        raise ValueError(f"h must be > 0, got {h}")
    if probes < 1:
        raise ValueError(f"probes must be >= 1, got {probes}")
    if analytic_grad.shape != x.shape:
        raise ValueError(
            f"gradient shape {analytic_grad.shape} != input shape {x.shape}")

    rng = np.random.default_rng(seed)
    n = min(probes, x.size)
    coords = rng.choice(x.size, size=n, replace=False)

    max_abs = 0.0
    max_rel = 0.0
    worst = ()
    skipped = 0
    work = np.array(x, dtype=x.dtype, copy=True)
    flat = work.reshape(-1)
    for c in coords:
        orig = flat[c]
        flat[c] = orig + h
        f_plus, rec_plus = f(work)
        flat[c] = orig - h
        f_minus, rec_minus = f(work)
        flat[c] = orig
        f_plus, f_minus = float(f_plus), float(f_minus)
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"f is not finite near coordinate {int(c)}")
        if rec_plus != rec_minus:
            skipped += 1
            continue
        numeric = (f_plus - f_minus) / (2.0 * h)
        analytic = float(analytic_grad.reshape(-1)[c])
        abs_err = abs(numeric - analytic)
        rel_err = abs_err / max(abs(numeric), abs(analytic), 1.0)
        if abs_err > max_abs:
            max_abs = abs_err
        if rel_err >= max_rel:
            max_rel = rel_err
            worst = tuple(int(v) for v in np.unravel_index(int(c), x.shape))
    if skipped == n:
        raise NumericError(f"all {n} probes skipped: no gradient compared")
    return GradCheckReport(max_abs_error=max_abs, max_rel_error=max_rel,
                           worst_index=worst, h=h, probed=n, skipped=skipped)
