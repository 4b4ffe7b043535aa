"""Least-squares power-law fits on log-log axes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Values at or below this are treated as numerically zero and excluded from fits.
NUMERICAL_FLOOR = 1e-13


@dataclass(frozen=True)
class PowerLawFit:
    slope: float
    intercept: float
    max_residual: float


def fit_power_law(xs, ys, floor: float = NUMERICAL_FLOOR) -> PowerLawFit | None:
    """Fit log y = slope * log x + intercept over points with y above `floor`.

    Returns None when fewer than two points survive the floor cut.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = ys > floor
    if keep.sum() < 2:
        return None
    lx, ly = np.log(xs[keep]), np.log(ys[keep])
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = np.abs(ly - (slope * lx + intercept)).max()
    return PowerLawFit(float(slope), float(intercept), float(residual))
