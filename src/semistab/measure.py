"""Finite weighted discretizations of a measure space.

A space is a list of cells (index = cell id) carrying a nonnegative weight
and a real parameter label. Almost-everywhere statements become statements
over the cells of positive weight; null sets are cells of weight zero.
"""

import numpy as np

from .errors import DegenerateSpaceError, DomainError, ShapeError

ATOMIC = "Atomic"
REFINEMENT_FAMILY = "RefinementFamily"


class DiscretizedMeasureSpace:
    """Weighted cell decomposition; cell ids run 0..n-1 in array order.
    Equality and hashing are by identity."""

    def __init__(self, weights, labels, mode=ATOMIC, refinement_level=1, widths=None):
        weights = np.asarray(weights, dtype=float)
        labels = np.asarray(labels, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise ShapeError("weights must be a nonempty 1-d array")
        if labels.shape != weights.shape:
            raise ShapeError("labels must match weights in length")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise DomainError("cell weights must be finite and nonnegative")
        if not np.any(weights > 0):
            raise DegenerateSpaceError("at least one cell must have positive weight")
        if mode not in (ATOMIC, REFINEMENT_FAMILY):
            raise DomainError(f"unknown space mode {mode!r}")
        if refinement_level < 1:
            raise DomainError("refinement_level must be a positive integer")
        if widths is not None:
            widths = np.asarray(widths, dtype=float)
            if widths.shape != weights.shape:
                raise ShapeError("widths must match weights in length")
            if np.any(widths <= 0):
                raise DomainError("cell widths must be positive")
        self.weights = weights
        self.labels = labels
        self.mode = mode
        self.refinement_level = refinement_level
        self.widths = widths

    @property
    def n_cells(self):
        return self.weights.size

    @property
    def total_weight(self):
        return float(self.weights.sum())

    def positive_cells(self):
        """Ids of the cells that carry measure."""
        return np.flatnonzero(self.weights > 0)

    def compatible_with(self, other):
        return (
            self.n_cells == other.n_cells
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.labels, other.labels)
        )

    @classmethod
    def uniform_grid(cls, cells, lo=0.0, hi=1.0):
        """Uniform grid of `cells` cells over [lo, hi] with Lebesgue weights,
        labeled by midpoints. Starts a refinement family at level 1."""
        if cells < 1:
            raise DomainError("need at least one cell")
        if hi <= lo:
            raise DomainError("interval must have positive length")
        width = (hi - lo) / cells
        labels = lo + (np.arange(cells) + 0.5) * width
        return cls(
            weights=np.full(cells, width),
            labels=labels,
            mode=REFINEMENT_FAMILY,
            refinement_level=1,
            widths=np.full(cells, width),
        )

    def refine(self):
        """Split every cell into two halves: weights halve, total weight is
        preserved, labels move to the sub-midpoints."""
        if self.mode != REFINEMENT_FAMILY:
            raise DomainError("only refinement-family spaces can be refined")
        if self.widths is None:
            raise DomainError("refinement needs per-cell widths")
        n = self.n_cells
        weights = np.repeat(self.weights / 2.0, 2)
        widths = np.repeat(self.widths / 2.0, 2)
        labels = np.empty(2 * n)
        labels[0::2] = self.labels - self.widths / 4.0
        labels[1::2] = self.labels + self.widths / 4.0
        return DiscretizedMeasureSpace(
            weights=weights,
            labels=labels,
            mode=REFINEMENT_FAMILY,
            refinement_level=self.refinement_level + 1,
            widths=widths,
        )


def ess_sup(space, values):
    """Essential supremum of a per-cell value array: the max over cells of
    positive weight. Zero-weight cells are null sets and do not count."""
    values = np.asarray(values, dtype=float)
    if values.shape != (space.n_cells,):
        raise ShapeError(
            f"expected {space.n_cells} per-cell values, got shape {values.shape}"
        )
    positive = space.weights > 0
    if not np.any(positive):
        raise DegenerateSpaceError("space carries no measure")
    return float(values[positive].max())
