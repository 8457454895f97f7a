import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semistab.errors import DegenerateSpaceError, DomainError, ShapeError
from semistab.measure import (
    ATOMIC,
    REFINEMENT_FAMILY,
    DiscretizedMeasureSpace,
    ess_sup,
)


def space_of(weights, labels=None):
    weights = np.asarray(weights, dtype=float)
    if labels is None:
        labels = np.arange(weights.size, dtype=float)
    return DiscretizedMeasureSpace(weights=weights, labels=labels)


class TestEssSup:
    def test_zero_weight_cell_excluded(self):
        assert ess_sup(space_of([1, 1, 0]), [2, 3, 99]) == 3

    def test_singleton(self):
        assert ess_sup(space_of([1]), [5]) == 5

    def test_matches_plain_max_on_uniform_weights(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 1, size=50)
        space = space_of(np.ones(50))
        assert ess_sup(space, values) == values.max()

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ess_sup(space_of([1, 1]), [1, 2, 3])

    def test_all_zero_weights_rejected_at_construction(self):
        with pytest.raises(DegenerateSpaceError):
            space_of([0, 0, 0])

    @given(
        values=st.lists(st.floats(0, 100), min_size=3, max_size=3),
        bumps=st.lists(st.floats(0, 10), min_size=3, max_size=3),
    )
    def test_monotone(self, values, bumps):
        space = space_of([1.0, 0.0, 2.0])
        larger = [v + b for v, b in zip(values, bumps)]
        assert ess_sup(space, larger) >= ess_sup(space, values)

    @given(scale=st.floats(1e-3, 1e3))
    def test_invariant_under_weight_rescaling(self, scale):
        values = [3.0, 7.0, 1.0]
        base = space_of([1.0, 2.0, 0.0])
        scaled = space_of(base.weights * scale)
        assert ess_sup(base, values) == ess_sup(scaled, values)

    def test_refinement_consistent_values_unchanged(self):
        space = DiscretizedMeasureSpace.uniform_grid(8)
        values = np.random.default_rng(1).uniform(0, 5, 8)
        refined = space.refine()
        assert ess_sup(refined, np.repeat(values, 2)) == ess_sup(space, values)


class TestRefinement:
    def test_doubles_cells_and_preserves_total_weight(self):
        space = DiscretizedMeasureSpace.uniform_grid(10)
        refined = space.refine()
        assert refined.n_cells == 2 * space.n_cells
        assert refined.refinement_level == space.refinement_level + 1
        assert refined.total_weight == pytest.approx(space.total_weight)
        np.testing.assert_allclose(refined.weights, space.weights[0] / 2)

    def test_labels_move_to_sub_midpoints(self):
        space = DiscretizedMeasureSpace.uniform_grid(2)  # midpoints 0.25, 0.75
        refined = space.refine()
        np.testing.assert_allclose(refined.labels, [0.125, 0.375, 0.625, 0.875])

    def test_atomic_space_cannot_refine(self):
        with pytest.raises(DomainError):
            space_of([1.0, 1.0]).refine()

    def test_modes(self):
        assert space_of([1.0]).mode == ATOMIC
        assert DiscretizedMeasureSpace.uniform_grid(4).mode == REFINEMENT_FAMILY
