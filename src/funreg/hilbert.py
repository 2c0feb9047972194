"""Discretized Hilbert space: grids, quadrature weights, curves.

A curve is a vector of values on a shared grid; the inner product is the
quadrature sum ``<f, g> = sum_i w_i f_i g_i``. A sample of curves on one
grid is a ``CurveMatrix``: an ``(m, p)`` array of rows, validated once as
a whole, that indexes and iterates as ``Curve``s. ``inner_product`` is the
rule for one pair of curves, and ``CurveMatrix.inner_products`` the rule
for a curve against every row of a matrix. All cross-grid operations are
rejected rather than silently resampled.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import GridMismatchError, ValidationError


def _frozen_array(values, dtype=float) -> np.ndarray:
    """A read-only array of ``values``. An array that owns its data and is
    already read-only is held as it is; anything else is copied, so the
    caller's arrays and flags are never touched."""
    if (isinstance(values, np.ndarray) and values.dtype == dtype
            and values.flags.owndata and not values.flags.writeable):
        return values
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _span_is_finite(points: np.ndarray) -> bool:
    """Whether max - min of the finite ``points`` is finite, so that no
    difference of two of them overflows. Python floats overflow to inf
    without the warning a numpy subtraction gives."""
    return math.isfinite(float(points.max()) - float(points.min()))


@dataclass(frozen=True, eq=False)
class Grid:
    """Ordered abscissae with strictly positive quadrature weights.

    Two grids are equal when their points and weights are; like the arrays
    they hold, grids are not hashable.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = _frozen_array(self.points)
        weights = _frozen_array(self.weights)
        if points.ndim != 1 or weights.ndim != 1:
            raise ValidationError("grid points and weights must be 1-d")
        if points.size != weights.size:
            raise ValidationError("grid points and weights must have equal length")
        if points.size < 2:
            raise ValidationError("a grid needs at least 2 points")
        if not np.all(np.isfinite(points)) or not np.all(np.isfinite(weights)):
            raise ValidationError("grid points and weights must be finite")
        if not _span_is_finite(points):
            raise ValidationError("grid points must span a finite range")
        if not np.all(np.diff(points) > 0):
            raise ValidationError("grid points must be strictly increasing")
        if not np.all(weights > 0):
            raise ValidationError("quadrature weights must be strictly positive")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.points.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return np.array_equal(self.points, other.points) and np.array_equal(
            self.weights, other.weights
        )


@dataclass(frozen=True)
class Curve:
    """One discretized element of the function space."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = _frozen_array(self.values)
        if values.ndim != 1:
            raise ValidationError("curve values must be 1-d")
        if values.size != len(self.grid):
            raise ValidationError(
                f"curve has {values.size} values but grid has {len(self.grid)} points"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("curve values must be finite")
        object.__setattr__(self, "values", values)

    def __add__(self, other: "Curve") -> "Curve":
        ensure_same_grid(self, other)
        return Curve(self.grid, self.values + other.values)

    def __sub__(self, other: "Curve") -> "Curve":
        ensure_same_grid(self, other)
        return Curve(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "Curve":
        return Curve(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    @staticmethod
    def zeros(grid: Grid) -> "Curve":
        return Curve(grid, np.zeros(len(grid)))


@dataclass(frozen=True)
class CurveMatrix:
    """Rows of curves on one grid: ``values[i]`` is curve i, shape (m, p).

    Shape and finiteness are checked once for the whole matrix. Indexing
    and iteration give single ``Curve``s, so code written for a sequence
    of curves reads a matrix unchanged.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = _frozen_array(self.values)
        if values.ndim != 2:
            raise ValidationError("curve matrix values must be 2-d")
        if values.shape[0] < 1:
            raise ValidationError("a curve matrix needs at least one row")
        if values.shape[1] != len(self.grid):
            raise ValidationError(
                f"curve matrix rows have {values.shape[1]} values but grid has "
                f"{len(self.grid)} points"
            )
        # a finite weighted row sum proves its row finite, with no (m, p)
        # mask; only a row whose sum is not finite (a refusal, or an
        # overflow of finite values) is checked entry by entry
        with np.errstate(over="ignore", invalid="ignore"):
            sums = values @ self.grid.weights
        if not np.all(np.isfinite(sums)) and not np.all(np.isfinite(values)):
            raise ValidationError("curve values must be finite")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, index: int) -> Curve:
        return Curve(self.grid, self.values[index])

    def __iter__(self):
        for row in self.values:
            yield Curve(self.grid, row)

    def inner_products(self, h: Curve) -> np.ndarray:
        """<row_i, h> for every row, shape (m,): one matrix-vector product
        with the weighted values of h, so no (m, p) temporary is formed."""
        ensure_same_grid(self, h)
        return self.values @ (self.grid.weights * h.values)

    @staticmethod
    def of(curves) -> "CurveMatrix":
        """The matrix itself, or a sequence of same-grid curves stacked."""
        if isinstance(curves, CurveMatrix):
            return curves
        curves = list(curves)
        if not curves:
            raise ValidationError("empty sample")
        for c in curves[1:]:
            ensure_same_grid(curves[0], c)
        return CurveMatrix(curves[0].grid, np.stack([c.values for c in curves]))


def ensure_same_grid(f, g) -> None:
    """Raise GridMismatchError unless f.grid and g.grid are one grid.

    Operands are curves, curve matrices, or anything else with a grid.
    """
    if f.grid is g.grid:
        return
    if f.grid != g.grid:
        raise GridMismatchError("curves live on different grids")


def inner_product(f: Curve, g: Curve) -> float:
    """Quadrature inner product sum_i w_i f_i g_i.

    The elementwise product f*g is formed before applying the weights so
    that swapping the arguments gives a bit-identical result.
    """
    ensure_same_grid(f, g)
    return float(np.sum((f.values * g.values) * f.grid.weights))


def norm(f: Curve) -> float:
    """Quadrature norm sqrt(<f, f>)."""
    return float(np.sqrt(inner_product(f, f)))


def make_trapezoid_grid(a: float, b: float, p: int) -> Grid:
    """Uniform grid on [a, b] with trapezoid-rule weights."""
    if p < 2:
        raise ValidationError(f"need at least 2 grid points, got {p}")
    if not a < b:
        raise ValidationError(f"invalid interval [{a}, {b}]")
    if not math.isfinite(float(b) - float(a)):
        raise ValidationError(f"interval [{a}, {b}] must span a finite range")
    points = np.linspace(a, b, p)
    return Grid(points, trapezoid_weights(points))


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Trapezoid weights for strictly increasing abscissae.

    ``make_trapezoid_grid`` builds its weights with this function too, so
    a grid saved with ``save_curves_csv`` loads back equal.
    """
    points = np.asarray(points, dtype=float)
    p = points.size
    h = (points[-1] - points[0]) / (p - 1)
    if np.abs(np.diff(points) - h).max() <= 1e-12 * h:
        w = np.full(p, h)
        w[0] = h / 2
        w[-1] = h / 2
        return w
    w = np.empty(p)
    w[0] = (points[1] - points[0]) / 2
    w[-1] = (points[-1] - points[-2]) / 2
    w[1:-1] = (points[2:] - points[:-2]) / 2
    return w


def load_curves_csv(path) -> CurveMatrix:
    """Read a curve matrix CSV: first row grid points, one curve per row.

    Blank lines are skipped and cells may be quoted. Weights are not
    stored in the file; trapezoid weights are rebuilt from the abscissae.
    """
    try:
        with config.open_text(path) as fh, warnings.catch_warnings():
            # an empty file warns before it is rejected below
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None, quotechar='"')
    except ValueError as exc:
        # numpy ends a ragged row's message with advice no caller can take
        reason = str(exc).partition("; use `usecols`")[0]
        raise ValidationError(f"{path}: not a numeric curve matrix ({reason})") from None
    if rows.shape[0] < 2:
        raise ValidationError(f"{path}: need a grid row and at least one curve row")
    points = rows[0].copy()
    # checked before the weights, which divide by p - 1 and by the span
    if points.size < 2:
        raise ValidationError(f"{path}: grid row needs at least 2 points, got {points.size}")
    if not np.all(np.isfinite(points)):
        raise ValidationError(f"{path}: grid points must be finite")
    if not _span_is_finite(points):
        raise ValidationError(f"{path}: grid points must span a finite range")
    if not np.all(np.diff(points) > 0):
        raise ValidationError(f"{path}: grid row must be strictly increasing")
    grid = Grid(points, trapezoid_weights(points))
    # The matrix keeps the parsed buffer, so the file is held once, not
    # twice as with a copy of rows[1:]: the curve rows move up over the
    # grid row (a 1-d overlapping assignment is a memmove, with no
    # temporary) and the last row is cut off. ``rows`` is a fresh
    # C-contiguous array from loadtxt and no view of it is left, so the
    # resize needs no reference check.
    p = rows.shape[1]
    flat = rows.reshape(-1)
    flat[:-p] = flat[p:]
    del flat
    rows.resize((rows.shape[0] - 1, p), refcheck=False)
    rows.flags.writeable = False
    return CurveMatrix(grid, rows)


def save_curves_csv(path, curves: CurveMatrix | list[Curve]) -> None:
    """Write curves in the curve matrix CSV format (see load_curves_csv)."""
    matrix = CurveMatrix.of(curves)
    with config.open_text(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow([repr(float(x)) for x in matrix.grid.points])
        for row in matrix.values:
            writer.writerow([repr(float(v)) for v in row])
