import re

import numpy as np
import pytest

from mlbq.designs import DESIGN_KINDS, SEEDLESS_DESIGNS, check_design, generate_design, halton_sequence
from mlbq.kernels import ProductMeasure, StandardNormal, Uniform

U01 = ProductMeasure.uniform(0.0, 1.0)
U2 = ProductMeasure.uniform(0.0, 1.0, dim=2)


class TestGeneration:
    def test_grid_includes_endpoints(self):
        d = generate_design("grid", U01, 3)
        assert np.array_equal(d.points.ravel(), [0.0, 0.5, 1.0])

    def test_grid_tensor_product(self):
        d = generate_design("grid", U2, 9)
        assert d.points.shape == (9, 2)
        assert sorted(set(d.points[:, 0])) == [0.0, 0.5, 1.0]

    def test_grid_needs_power(self):
        with pytest.raises(ValueError, match="d-th power"):
            generate_design("grid", U2, 10)

    def test_grid_refuses_gaussian(self):
        m = ProductMeasure((StandardNormal(),))
        with pytest.raises(ValueError, match="bounded"):
            generate_design("grid", m, 4)

    def test_halton_van_der_corput_prefix(self):
        d = generate_design("halton", U01, 4)
        assert np.allclose(d.points.ravel(), [0.5, 0.25, 0.75, 0.125])

    def test_halton_base3_second_dimension(self):
        pts = halton_sequence(3, 2)
        assert np.allclose(pts[:, 1], [1 / 3, 2 / 3, 1 / 9])

    def test_halton_through_gaussian_marginal(self):
        m = ProductMeasure((Uniform(0, 1), StandardNormal()))
        d = generate_design("halton", m, 16)
        assert np.all(np.isfinite(d.points))
        assert d.points[:, 1].std() > 0.5  # roughly standard normal spread

    def test_lhs_stratification(self):
        d = generate_design("lhs", U01, 5, seed=42)
        strata = np.sort(np.floor(d.points.ravel() * 5).astype(int))
        assert np.array_equal(strata, np.arange(5))

    def test_lhs_stratifies_every_dimension(self):
        d = generate_design("lhs", U2, 8, seed=7)
        for j in range(2):
            strata = np.sort(np.floor(d.points[:, j] * 8).astype(int))
            assert np.array_equal(strata, np.arange(8))

    def test_lhs_with_gaussian_marginal(self):
        from scipy.special import ndtr

        m = ProductMeasure((Uniform(0, 1), StandardNormal()))
        d = generate_design("lhs", m, 10, seed=9)
        assert np.all(np.isfinite(d.points))
        # stratification survives the inverse-CDF map on the normal axis
        strata = np.sort(np.floor(ndtr(d.points[:, 1]) * 10).astype(int))
        assert np.array_equal(strata, np.arange(10))

    def test_iid_reproducible_bit_identical(self):
        for kind in ("iid", "lhs"):
            a = generate_design(kind, U2, 20, seed=11)
            b = generate_design(kind, U2, 20, seed=11)
            assert np.array_equal(a.points, b.points)
            c = generate_design(kind, U2, 20, seed=12)
            assert not np.array_equal(a.points, c.points)

    def test_seedless_kinds_are_those_the_seed_does_not_move(self):
        # the sweep reuses a cell across replications exactly when its design kind is in SEEDLESS_DESIGNS
        moved = {kind: not np.array_equal(generate_design(kind, U2, 16, seed=1).points,
                                          generate_design(kind, U2, 16, seed=2).points) for kind in DESIGN_KINDS}
        assert {kind for kind, changed in moved.items() if not changed} == SEEDLESS_DESIGNS

    def test_deterministic_kinds_ignore_seed(self):
        assert np.array_equal(
            generate_design("grid", U01, 9).points, generate_design("grid", U01, 9).points
        )
        assert np.array_equal(
            generate_design("halton", U2, 33).points, generate_design("halton", U2, 33).points
        )

    def test_support_exhaustive(self):
        m = ProductMeasure.uniform(-2.0, 3.0, dim=2)
        for kind, seed in (("iid", 1), ("lhs", 2), ("halton", None), ("grid", None)):
            n = 49 if kind == "grid" else 50
            pts = generate_design(kind, m, n, seed=seed).points
            assert np.all(pts >= -2.0) and np.all(pts <= 3.0)

    def test_gaussian_iid_unbounded(self):
        m = ProductMeasure.standard_normal()
        pts = generate_design("iid", m, 4000, seed=3).points
        assert abs(pts.mean()) < 0.1 and abs(pts.std() - 1.0) < 0.1

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown design kind"):
            generate_design("sobol", U01, 4)

    def test_needs_positive_count(self):
        with pytest.raises(ValueError):
            generate_design("iid", U01, 0, seed=0)

    @pytest.mark.parametrize(
        "kind, measure, n",
        [("grid", U2, 10), ("grid", ProductMeasure((Uniform(0.0, 1.0), StandardNormal())), 4), ("sobol", U01, 4),
         ("iid", U01, 0), ("grid", U2, 9), ("halton", ProductMeasure.standard_normal(), 5), ("lhs", U2, 7),
         ("Grid", U2, 9)],
        ids=["grid-not-a-power", "grid-unbounded", "unknown-kind", "no-points", "grid", "halton-gaussian", "lhs",
             "upper-case-kind"],
    )
    def test_check_design_is_the_rule_generate_design_applies(self, kind, measure, n):
        # the sweep checks every (estimator, count) with check_design at load, so it must refuse exactly
        # the designs generate_design cannot build, with the same message
        try:
            generate_design(kind, measure, n, seed=0)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                check_design(kind, measure, n)
        else:
            check_design(kind, measure, n)
