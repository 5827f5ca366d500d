"""Periodic grids, their Fourier layout, and dyadic ball hierarchies.

Everything downstream (energies, fractional operators, probes) lives on a
uniform periodic grid over the torus [0, L)^n with n in {1, 2}. Distances
are always the torus metric, i.e. coordinatewise minimum image followed by
the Euclidean norm. Sites are indexed flat, lexicographically in the grid
axes, so a scalar field is a vector of length M^n and a vector field is an
(M^n, N) array.

Every circulant operator (a convolution with a lag kernel k(x - y)) acts
through the rfftn half grid of the grid axes, and only this module knows
that layout: fourier_multiply applies a half-grid symbol, lag_spectrum
makes one from a length-S lag kernel, frequency_norms gives |k| on it.

The ball hierarchy provides the dyadic localization used by the decay and
hole-filling diagnostics: the closed balls B(x0, 2^l R), levels
l = 0 .. level_max, as sharp site masks (ball_mask), which are all that
both diagnostics read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "ScalarField",
    "VectorField",
    "UNIT_TOL",
    "BallHierarchy",
    "make_grid",
    "site_coords",
    "torus_dist",
    "fourier_multiply",
    "lag_spectrum",
    "frequency_norms",
    "ball_mask",
]


@dataclass(frozen=True)
class GridSpec:
    dim: int
    points_per_axis: int
    box_length: float

    @property
    def h(self) -> float:
        return self.box_length / self.points_per_axis

    @property
    def n_sites(self) -> int:
        return self.points_per_axis**self.dim


def make_grid(dim: int, points_per_axis: int, box_length: float) -> GridSpec:
    """Validated grid constructor. M must be an integral power of two, at
    least 4, and L positive and finite; the float64 range of the pair
    weights depends on (s, p) too, and energy._pair_weights checks it."""
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if not (isinstance(points_per_axis, (int, np.integer)) or float(points_per_axis).is_integer()):
        raise ValueError(f"points_per_axis must be an integer, got {points_per_axis}")
    M = int(points_per_axis)
    if M < 4 or (M & (M - 1)) != 0:
        raise ValueError(f"points_per_axis must be a power of two >= 4, got {points_per_axis}")
    if not (0 < float(box_length) < math.inf):
        raise ValueError(f"box_length must be positive and finite, got {box_length}")
    return GridSpec(dim=int(dim), points_per_axis=M, box_length=float(box_length))


# the largest norm defect of a map into the unit sphere: a field file's
# unit_constrained header and first_variation's input are held to it
UNIT_TOL = 1e-12


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ScalarField:
    grid: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_readonly(self.samples))
        if self.samples.shape != (self.grid.n_sites,):
            raise ValueError(
                f"scalar field needs {self.grid.n_sites} samples, got shape {self.samples.shape}"
            )


@dataclass(frozen=True)
class VectorField:
    grid: GridSpec
    samples: np.ndarray  # shape (n_sites, components), sample-major

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_readonly(self.samples))
        S = self.grid.n_sites
        if self.samples.ndim != 2 or self.samples.shape[0] != S or self.samples.shape[1] < 1:
            raise ValueError(f"vector field needs shape ({S}, N) with N >= 1, "
                             f"got {self.samples.shape}")

    @property
    def components(self) -> int:
        """N, the dimension of the target space, read off the samples."""
        return self.samples.shape[1]

    @property
    def norm_defect(self) -> float:
        """max_x ||u(x)| - 1|. It is not finite when a sample is not, so
        every test `norm_defect <= tol` fails on such a field."""
        return float(np.max(np.abs(np.linalg.norm(self.samples, axis=1) - 1.0)))


def site_coords(grid: GridSpec) -> np.ndarray:
    """Coordinates of all sites, shape (n_sites, dim), lexicographic order."""
    ax = np.arange(grid.points_per_axis) * grid.h
    if grid.dim == 1:
        return ax[:, None]
    X0, X1 = np.meshgrid(ax, ax, indexing="ij")
    return np.stack([X0.ravel(), X1.ravel()], axis=1)


def torus_dist(a: np.ndarray, b: np.ndarray, box_length: float) -> np.ndarray:
    """Minimum-image distance between coordinate arrays (broadcasting), for
    coordinates anywhere on the real line: each is reduced modulo L first,
    which is exact, and the identity on [0, L), where the sites lie."""
    d = np.abs(np.mod(a, box_length) - np.mod(b, box_length))
    d = np.minimum(d, box_length - d)
    return np.sqrt((d**2).sum(axis=-1))


def fourier_multiply(grid: GridSpec, samples: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """rfftn of (S,) or (S, N) samples over the grid axes, times a symbol on
    the rfftn half grid, then irfftn; each of the N columns is transformed
    on its own. With symbol = lag_spectrum(grid, k) the result at z is the
    circular convolution sum_x k(z - x) v(x)."""
    shape = (grid.points_per_axis,) * grid.dim
    axes = tuple(range(grid.dim))
    spec = np.fft.rfftn(samples.reshape(shape + samples.shape[1:]), axes=axes)
    # symbol first: numpy's complex product is not commutative to the last bit
    np.multiply(symbol.reshape(symbol.shape + (1,) * (samples.ndim - 1)), spec, out=spec)
    return np.fft.irfftn(spec, s=shape, axes=axes).reshape(samples.shape)


def lag_spectrum(grid: GridSpec, kernel: np.ndarray) -> np.ndarray:
    """rfftn of a length-S lag kernel k, indexed like the sites (entry j
    holds k at the displacement of site j from site 0)."""
    return np.fft.rfftn(kernel.reshape((grid.points_per_axis,) * grid.dim))


def frequency_norms(grid: GridSpec) -> np.ndarray:
    """|k| on the rfftn half grid, physical frequencies 2 pi j / L."""
    M = grid.points_per_axis
    full = np.abs(np.fft.fftfreq(M, d=1.0 / M))
    half = np.arange(M // 2 + 1, dtype=np.float64)
    ks = np.meshgrid(*([full] * (grid.dim - 1) + [half]), indexing="ij")
    return (2.0 * np.pi / grid.box_length) * np.sqrt(sum(k * k for k in ks))


@dataclass(frozen=True)
class BallHierarchy:
    grid: GridSpec
    center: np.ndarray  # coordinate vector, shape (dim,)
    base_radius: float
    level_max: int  # levels run 0 .. level_max

    def __post_init__(self):
        object.__setattr__(self, "center", _as_readonly(np.atleast_1d(self.center)))
        if self.center.shape != (self.grid.dim,):
            raise ValueError(f"center must have shape ({self.grid.dim},)")
        if not (self.base_radius > 0):
            raise ValueError("base_radius must be positive")
        if self.level_max < 0:
            raise ValueError("empty level range")
        # radius() multiplies base_radius by 2**level, which must stay finite
        if not (math.log2(self.base_radius) + self.level_max < 1024):
            raise ValueError(f"the radius base_radius * 2**{self.level_max} of the top level "
                             f"exceeds the float64 range")

    def radius(self, level: int) -> float:
        if not (0 <= level <= self.level_max):
            raise ValueError(f"level {level} outside [0, {self.level_max}]")
        return float(self.base_radius * 2**level)

    def center_dist(self) -> np.ndarray:
        x = site_coords(self.grid)
        return torus_dist(x, self.center[None, :], self.grid.box_length)


def ball_mask(hierarchy: BallHierarchy, level: int) -> np.ndarray:
    """Boolean site mask of the closed ball at the given level.

    Closed means boundary ties are included; the comparison carries a tiny
    relative slack so sites that land on the radius up to round-off count
    as inside. That keeps membership deterministic across platforms.
    """
    r = hierarchy.radius(level)
    d = hierarchy.center_dist()
    return d <= r * (1 + 1e-12) + 1e-15

