"""Euler-type simulation of observation paths on a uniform time grid.

Paths are stored through their increments

.. math::

    dX_i = S(\\vartheta_0, t_{i-1})\\,dt + \\varepsilon\\sqrt{dt}\\,Z_i,
    \\qquad Z_i \\sim N(0, 1)\\ \\text{i.i.d.},

with the drift frozen at the left endpoint of each cell, matching the
Ito convention used by the likelihood evaluation.  Replications draw
their generators from a splittable seeding scheme, so any replication
can be reproduced in isolation and replications are statistically
independent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Optional, Union

import numpy as np

from .errors import DomainError
from .signal_models import Signal, eval_signal

__all__ = [
    "DEFAULT_N_STEPS",
    "TimeGrid",
    "ObservationPath",
    "DiscretizationWarning",
    "euler_increments",
    "replication_rng",
    "simulate_path",
    "warn_if_coarse",
    "write_path_csv",
]

#: Default number of grid cells for a unit horizon.
DEFAULT_N_STEPS = 10_000


class DiscretizationWarning(RuntimeWarning):
    """The time grid is too coarse to resolve the cusp at the given noise level."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid ``t_i = i*T/n`` for ``i = 0..n``."""

    T: float
    n: int

    def __post_init__(self) -> None:
        if not (self.T > 0.0 and np.isfinite(self.T)):
            raise DomainError(f"horizon T must be positive and finite, got {self.T!r}")
        if int(self.n) != self.n or self.n < 2:
            raise DomainError(f"grid needs an integer n >= 2, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def dt(self) -> float:
        return self.T / self.n

    @property
    def nodes(self) -> np.ndarray:
        """All n+1 grid nodes including both endpoints."""
        return np.linspace(0.0, self.T, self.n + 1)

    @cached_property
    def left_nodes(self) -> np.ndarray:
        """Left cell endpoints ``t_0 .. t_{n-1}`` used by the Ito sums.

        Computed once per grid and read-only, since every caller shares it.
        """
        nodes = self.dt * np.arange(self.n)
        nodes.flags.writeable = False
        return nodes


@dataclass(frozen=True)
class ObservationPath:
    """Increments of one observed path plus its generating metadata."""

    grid: TimeGrid
    increments: np.ndarray
    epsilon: float
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        inc = np.asarray(self.increments, dtype=float)
        if inc.shape != (self.grid.n,):
            raise DomainError(
                f"increments must have shape ({self.grid.n},), got {inc.shape}"
            )
        if not (0.0 < self.epsilon <= 1.0):
            raise DomainError(f"epsilon must lie in (0, 1], got {self.epsilon!r}")
        if not np.isfinite(inc).all():
            raise DomainError("increments must be finite (found nan or inf)")
        object.__setattr__(self, "increments", inc)

    def cumulative(self) -> np.ndarray:
        """Path values ``X_0=0, X_1, ..., X_n`` at the grid nodes."""
        out = np.empty(self.grid.n + 1)
        out[0] = 0.0
        np.cumsum(self.increments, out=out[1:])
        return out


def replication_rng(master_seed: int, replication: int) -> np.random.Generator:
    """Deterministic, independent generator for one replication.

    The pair ``(master_seed, replication)`` is hashed through numpy's
    splittable ``SeedSequence``, so streams for distinct replications
    are independent while any single replication can be re-created
    without simulating the others.
    """
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(replication)]))


def warn_if_coarse(kappa: Optional[float], epsilon: float, grid: TimeGrid) -> None:
    """Warn when ``dt**(kappa+1/2)`` exceeds the noise level; ``None`` skips."""
    if kappa is None:
        return
    resolution = grid.dt ** (kappa + 0.5)
    if resolution > epsilon:
        warnings.warn(
            f"time grid too coarse for the cusp: dt^(kappa+1/2)={resolution:.3e} "
            f"exceeds epsilon={epsilon:.3e}; increase n",
            DiscretizationWarning,
            stacklevel=3,
        )


def euler_increments(
    drift: np.ndarray,
    epsilon: float,
    grid: TimeGrid,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """One Euler step per cell: ``drift*dt + eps*sqrt(dt)*Z``.

    ``drift`` holds the drift on the left nodes; without ``rng`` the
    noise term is dropped and the increments are the drift path's.
    """
    increments = drift * grid.dt
    if rng is not None:
        increments = increments + epsilon * np.sqrt(grid.dt) * rng.standard_normal(grid.n)
    return increments


def simulate_path(
    signal: Signal,
    theta_true: Optional[float],
    epsilon: float,
    grid: TimeGrid,
    rng: Optional[np.random.Generator] = None,
    zero_noise: bool = False,
    seed: Optional[int] = None,
) -> ObservationPath:
    """Simulate one observation path.

    Parameters
    ----------
    signal : Signal
        Drift signal; location families are evaluated at ``theta_true``.
    theta_true : float or None
        True location for location families; ignored by fixed signals.
    epsilon : float
        Noise level in ``(0, 1]``.  Kept even with ``zero_noise`` because
        downstream likelihoods scale by ``1/epsilon**2``.
    grid : TimeGrid
        Simulation grid, inside the signal's horizon.  A warning is
        emitted when ``dt**(kappa+1/2)`` exceeds ``epsilon``, i.e. when
        the grid cannot resolve the cusp against the noise.
    rng : numpy.random.Generator, optional
        Source of randomness; a fresh default generator when omitted.
    zero_noise : bool
        Drop the diffusion term, producing the deterministic drift path.
    seed : int, optional
        Metadata only; recorded on the returned path.
    """
    if not (0.0 < epsilon <= 1.0):
        raise DomainError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    warn_if_coarse(getattr(signal, "kappa_eff", None), epsilon, grid)
    drift = eval_signal(signal, theta_true, grid.left_nodes)
    if zero_noise:
        rng = None
    elif rng is None:
        rng = np.random.default_rng()
    return ObservationPath(
        grid=grid,
        increments=euler_increments(drift, epsilon, grid, rng),
        epsilon=epsilon,
        seed=seed,
    )


def write_path_csv(path: ObservationPath, stream: Union[str, IO[str]]) -> None:
    """Dump a path as ``t,x`` rows, one per grid node."""
    own = isinstance(stream, str)
    fh = open(stream, "w", encoding="utf-8") if own else stream
    try:
        fh.write("t,x\n")
        for t, x in zip(path.grid.nodes, path.cumulative()):
            fh.write(f"{float(t)!r},{float(x)!r}\n")
    finally:
        if own:
            fh.close()
