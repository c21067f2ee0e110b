import math
import typing

import numpy as np
import pytest

from mlbq.kernels import (
    Factor,
    Kernel,
    Matern,
    NoClosedFormError,
    ProductMeasure,
    SquaredExponential,
    StandardNormal,
    Uniform,
    gram,
    initial_error,
    kernel_mean,
)
from mlbq.kernels import _CLOSED_FORMS, _gram
from mlbq.oracles import initial_error_quadrature, kernel_mean_quadrature, oracle_report

U01 = ProductMeasure.uniform(0.0, 1.0)


class TestConstruction:
    def test_lengthscale_must_be_positive(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                Matern(0.5, bad)
            with pytest.raises(ValueError):
                SquaredExponential(bad)

    def test_unsupported_smoothness(self):
        with pytest.raises(ValueError):
            Matern(1.5, 1.0)

    def test_amplitude_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Kernel.matern(0.5, 1.0, amplitude=-0.1)

    def test_per_dimension_lengthscales(self):
        k = Kernel.squared_exponential([0.5, 2.0], dim=2)
        assert k.lengthscales == (0.5, 2.0)
        with pytest.raises(ValueError):
            Kernel.matern(0.5, [1.0, 2.0, 3.0], dim=2)

    def test_with_lengthscales_sets_every_factor(self):
        # every factor has a lengthscale: each is replaced, its kind and the amplitude are kept
        k = Kernel((Matern(2.5, 0.3), SquaredExponential(0.8)), amplitude=1.7)
        assert k.with_lengthscales([1.5, 0.2]) == Kernel((Matern(2.5, 1.5), SquaredExponential(0.2)), amplitude=1.7)
        assert k.with_lengthscales(0.4).lengthscales == (0.4, 0.4)
        with pytest.raises(ValueError):
            k.with_lengthscales([1.0, 2.0, 3.0])


class TestKernelEval:
    """The kernel at single pairs of points, as 1x1 cross-Gram matrices."""

    def test_matern12_at_identical_points(self):
        k = Kernel.matern(0.5, 1.0)
        assert gram(k, [0.5], [0.5])[0, 0] == 1.0

    def test_matern12_unit_distance(self):
        k = Kernel.matern(0.5, 1.0)
        assert gram(k, [0.0], [1.0])[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_diagonal_equals_amplitude_for_stationary_factors(self):
        for k in (Kernel.matern(2.5, 0.3, amplitude=2.2), Kernel.squared_exponential(1.7, amplitude=0.4)):
            assert gram(k, [0.8], [0.8])[0, 0] == pytest.approx(k.amplitude, rel=1e-15)

    def test_symmetry_1000_random_pairs(self):
        rng = np.random.default_rng(0)
        kernels = [
            Kernel.matern(0.5, 0.7),
            Kernel.matern(2.5, 1.3),
            Kernel.squared_exponential(0.9),
        ]
        for _ in range(250):
            x, y = rng.random(2)
            for k in kernels:
                assert gram(k, [x], [y])[0, 0] == gram(k, [y], [x])[0, 0]

    def test_matern52_corr_at_is_the_formula_bit_for_bit(self):
        # corr_at works in place; it must keep the formula's operation order and leave dist unwritten
        rng = np.random.default_rng(1)
        factor = Matern(2.5, 1.0)
        for dist in (0.0, 0.37, 1e200, np.abs(rng.standard_normal(1001)) * 30, rng.random((9, 13))):
            before = np.copy(dist)
            for lengthscale in (0.05, 0.7, 10.0):
                s = math.sqrt(5.0) * (dist / lengthscale)
                with np.errstate(over="ignore", invalid="ignore"):
                    expected = (1.0 + s + s * s / 3.0) * np.exp(-s)
                    got = factor.corr_at(dist, lengthscale)
                assert np.array_equal(got, expected, equal_nan=True) and np.shape(got) == np.shape(expected)
            assert np.array_equal(dist, before)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            gram(Kernel.matern(0.5, 1.0, dim=2), [[0.1, 0.2]], [[0.3, 0.4, 0.5]])

    def test_nonfinite_input(self):
        with pytest.raises(ValueError, match="finite"):
            gram(Kernel.matern(0.5, 1.0), [math.nan], [0.5])


class TestGram:
    def test_single_point(self):
        assert np.array_equal(gram(Kernel.squared_exponential(1.0), [0.3]), [[1.0]])

    def test_two_point_matern(self):
        g = gram(Kernel.matern(0.5, 1.0), [0.0, 1.0])
        e = math.exp(-1.0)
        assert np.allclose(g, [[1.0, e], [e, 1.0]], atol=1e-15)

    def test_psd_on_random_points(self):
        rng = np.random.default_rng(1)
        w = rng.random((8, 1))
        g = gram(Kernel.squared_exponential(0.6), w)
        assert np.linalg.eigvalsh(g).min() >= -1e-10

    def test_psd_on_quasi_random_20_points(self):
        from mlbq.designs import generate_design

        w = generate_design("halton", ProductMeasure.uniform(0, 1, dim=2), 20).points
        for k in (Kernel.matern(0.5, 0.5, dim=2), Kernel.matern(2.5, 1.0, dim=2),
                  Kernel.squared_exponential(0.8, dim=2, amplitude=3.0)):
            g = gram(k, w)
            assert np.linalg.eigvalsh(g).min() >= -1e-8 * k.amplitude

    def test_cross_gram_shape(self):
        g = gram(Kernel.matern(0.5, 1.0), [0.1, 0.2, 0.3], [0.5, 0.9])
        assert g.shape == (3, 2)

    @pytest.mark.parametrize(
        "kernel",
        [Kernel.squared_exponential(0.3, amplitude=2.5), Kernel.matern(0.5, 0.4, dim=2),
         Kernel.matern(2.5, [0.2, 0.9], dim=2, amplitude=0.7), Kernel((SquaredExponential(0.5), Matern(2.5, 0.3)))],
        ids=["se", "m12", "m52", "se-m52"],
    )
    @pytest.mark.parametrize(
        "rows, cols",
        [(150, None), (150, 7), (3, 200), (64, 64), (1, None), (63, None), (64, None), (65, None), (129, None)],
    )
    def test_blocked_build_equals_one_shot_product(self, kernel, rows, cols):
        # gram and fit_gp's triangle build a 64-row block at a time (65 rows leave a one-row last block);
        # every entry they fill is the one-shot product's
        rng = np.random.default_rng(3)
        w1 = rng.random((rows, kernel.dim))
        w2 = w1 if cols is None else rng.random((cols, kernel.dim))
        expected = np.full((len(w1), len(w2)), kernel.amplitude)
        for j, f in enumerate(kernel.factors):
            expected *= f.corr_at(np.abs(w1[:, j : j + 1] - w2[None, :, j]), f.lengthscale)
        got = gram(kernel, w1, None if cols is None else w2)
        assert np.array_equal(got, expected) and got.flags.c_contiguous
        if cols is None:
            assert np.array_equal(got, got.T)
            # the triangle fit_gp factors: on and below the diagonal of the Fortran-order transpose potrf reads
            lower = np.tril_indices(rows)
            assert np.array_equal(_gram(kernel, w1, w1, upper=True).T[lower], expected.T[lower])


class TestKernelMean:
    def test_matern12_uniform_example(self):
        # oracle: adaptive quadrature of exp(-|0.5 - t|) over [0, 1]
        val = kernel_mean(Kernel.matern(0.5, 1.0), U01, 0.5)
        assert val == pytest.approx(2.0 - 2.0 * math.exp(-0.5), abs=1e-12)
        assert val == pytest.approx(0.7869387, abs=1e-7)

    def test_se_uniform_example(self):
        val = kernel_mean(Kernel.squared_exponential(1.0), U01, 0.0)
        assert val == pytest.approx(0.7468241, abs=1e-7)

    def test_product_factorization_2d(self):
        k2 = Kernel.matern(0.5, 1.0, dim=2)
        u2 = ProductMeasure.uniform(0, 1, dim=2)
        one_d = kernel_mean(Kernel.matern(0.5, 1.0), U01, 0.5)
        assert kernel_mean(k2, u2, [0.5, 0.5]) == pytest.approx(one_d**2, rel=1e-12)
        assert kernel_mean(k2, u2, [0.5, 0.5]) == pytest.approx(0.6192725, abs=1e-7)

    @pytest.mark.parametrize(
        "factor_of",
        [lambda g: Matern(0.5, g), lambda g: Matern(2.5, g), lambda g: SquaredExponential(g)],
        ids=["matern12", "matern52", "se"],
    )
    def test_uniform_closed_forms_match_quadrature(self, factor_of):
        rng = np.random.default_rng(2)
        marginal = Uniform(-0.3, 1.4)
        measure = ProductMeasure((marginal,))
        for _ in range(100):
            gamma = 0.1 + 4.9 * rng.random()
            x = marginal.a + (marginal.b - marginal.a) * rng.random()
            factor = factor_of(gamma)
            impl = kernel_mean(Kernel((factor,)), measure, x)
            assert impl == pytest.approx(kernel_mean_quadrature(factor, marginal, x), abs=1e-8)

    @pytest.mark.parametrize(
        "factor", [Matern(2.5, 0.6), Matern(2.5, 2.0), SquaredExponential(1.2)], ids=["m52a", "m52b", "se"]
    )
    def test_gaussian_closed_forms_match_quadrature(self, factor):
        measure = ProductMeasure.standard_normal()
        for x in (-2.5, -0.7, 0.0, 1.1, 3.0):
            impl = kernel_mean(Kernel((factor,)), measure, x)
            assert impl == pytest.approx(kernel_mean_quadrature(factor, StandardNormal(), x), abs=1e-9)

    @pytest.mark.parametrize(
        "factor, x", [(Matern(2.5, 2.0), -2.5), (Matern(2.5, 0.8), 1.1)], ids=["g2.0@-2.5", "g0.8@1.1"]
    )
    def test_normal_quadrature_is_split_at_the_kink(self, factor, x):
        # a rule blind to the kink at t = x is about 5e-11 off at both
        impl = kernel_mean(Kernel((factor,)), ProductMeasure.standard_normal(), x)
        assert abs(kernel_mean_quadrature(factor, StandardNormal(), x) - impl) <= 1e-13

    def test_matern52_gauss_no_overflow_far_out(self):
        # naive evaluation overflows around |x| ~ 20 / gamma
        k = Kernel.matern(2.5, 0.5)
        measure = ProductMeasure.standard_normal()
        vals = kernel_mean(k, measure, np.array([50.0, 200.0, 1000.0]))
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)

    @pytest.mark.parametrize("gamma", [0.4, 1.0, 2.0])
    @pytest.mark.parametrize("pair", sorted(_CLOSED_FORMS), ids="-".join)
    def test_every_table_row_matches_its_oracle(self, pair, gamma):
        # the report's generated rows for this table row: three kernel means and the initial error
        case = f"{pair[0]} {pair[1]} g={gamma}"
        prefixes = (f"kernel_mean {case} @", f"initial_error {case}")
        rows = [row for row in oracle_report() if row.name.startswith(prefixes)]
        assert len(rows) == 4 and {row.tolerance for row in rows} == {1e-10}
        assert all(row.passed for row in rows), [(row.name, row.difference) for row in rows]

    def test_matern12_gauss_has_no_closed_form(self):
        with pytest.raises(NoClosedFormError, match=r"Matern\(nu=0.5\).*StandardNormal"):
            kernel_mean(Kernel.matern(0.5, 1.0), ProductMeasure.standard_normal(), 0.0)

    @pytest.mark.parametrize("factor, x", [(Matern(0.5, 1.0), 1.5), (Matern(2.5, 0.5), -0.5)],
                             ids=["m12@1.5", "m52@-0.5"])
    def test_points_off_the_uniform_support_are_refused(self, factor, x):
        # the uniform closed forms hold on [a, b] only: these gave 0.1281 and -0.0843, against 0.3834 and 0.1848
        with pytest.raises(ValueError, match="points fall outside the measure's support"):
            kernel_mean(Kernel((factor,)), U01, x)

    def test_every_factor_class_has_a_closed_form(self):
        # kernel_mean, initial_error and the lengthscale search take every factor: none may lack a table row
        table_classes = {kind.split("(")[0] for kind, _ in _CLOSED_FORMS}
        assert {cls.__name__ for cls in typing.get_args(Factor)} <= table_classes

    def test_amplitude_linearity(self):
        k = Kernel.matern(2.5, 0.8)
        scaled = k.with_amplitude(3.5)
        x = 0.37
        assert kernel_mean(scaled, U01, x) == 3.5 * kernel_mean(k, U01, x)
        assert initial_error(scaled, U01) == 3.5 * initial_error(k, U01)
        assert gram(scaled, [0.1], [0.9])[0, 0] == 3.5 * gram(k, [0.1], [0.9])[0, 0]
        w = [0.2, 0.4, 0.9]
        assert np.array_equal(gram(scaled, w), 3.5 * gram(k, w))


class TestInitialError:
    def test_se_gauss_example(self):
        val = initial_error(Kernel.squared_exponential(2.0), ProductMeasure.standard_normal())
        assert val == pytest.approx(2.0 / math.sqrt(8.0), abs=1e-12)

    def test_matern12_uniform_example(self):
        val = initial_error(Kernel.matern(0.5, 1.0), U01)
        assert val == pytest.approx(2.0 * math.exp(-1.0), abs=1e-12)
        assert val == pytest.approx(initial_error_quadrature(Matern(0.5, 1.0), Uniform(0, 1)), abs=1e-8)

    def test_matern52_uniform_example(self):
        val = initial_error(Kernel.matern(2.5, 1.0), U01)
        assert val == pytest.approx(0.8932, abs=1e-4)
        assert val == pytest.approx(initial_error_quadrature(Matern(2.5, 1.0), Uniform(0, 1)), abs=1e-6)

    def test_value_in_zero_amplitude_interval(self):
        for k in (Kernel.matern(0.5, 0.4, amplitude=2.0), Kernel.squared_exponential(5.0, amplitude=0.3)):
            v = initial_error(k, U01)
            assert 0.0 < v <= k.amplitude

    @pytest.mark.parametrize("gamma", [0.3, 0.8, 1.0, 2.5])
    def test_matern52_gauss_matches_quadrature_against_n02(self, gamma):
        # X - Y ~ N(0, 2): one 1-d quadrature of the profile is independent of the closed form
        val = initial_error(Kernel.matern(2.5, gamma), ProductMeasure.standard_normal())
        oracle = initial_error_quadrature(Matern(2.5, gamma), StandardNormal(), epsabs=0.0)
        assert val == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_gaussian_product_measure_mixed(self):
        measure = ProductMeasure((Uniform(0, 1), StandardNormal()))
        for first, second in [
            (SquaredExponential(1.0), SquaredExponential(2.0)),
            (Matern(2.5, 0.7), Matern(2.5, 1.3)),
        ]:
            expected = initial_error(Kernel((first,)), U01) * initial_error(
                Kernel((second,)), ProductMeasure.standard_normal()
            )
            assert initial_error(Kernel((first, second)), measure) == pytest.approx(expected, rel=1e-12)


class TestOracleReport:
    """``oracle_report`` generates its closed-form rows from the table; criterion 5a asserts that they pass."""

    def test_the_report_is_the_table_and_the_norm_check(self):
        names = [row.name for row in oracle_report()]
        assert len(names) == 12 * len(_CLOSED_FORMS) + 1
        assert names[-1] == "brownian_rkhs_norm vs slope integral"
        assert "kernel_mean SquaredExponential Uniform g=1.0 @-0.3" in names  # an interval end

    def test_a_table_row_without_an_oracle_case_raises(self, monkeypatch):
        se_uniform = _CLOSED_FORMS["SquaredExponential", "Uniform"]
        monkeypatch.setitem(_CLOSED_FORMS, ("Matern(nu=1.5)", "Uniform"), se_uniform)
        with pytest.raises(ValueError, match=r"\(Matern\(nu=1.5\), Uniform\)"):
            oracle_report()


class TestProductMeasure:
    def test_requires_finite_interval(self):
        with pytest.raises(ValueError):
            Uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            Uniform(0.0, math.inf)

    def test_contains(self):
        m = ProductMeasure.uniform(0, 1, dim=2)
        assert m.contains([[0.5, 1.0], [0.0, 0.2]])
        assert not m.contains([[0.5, 1.2]])
        with pytest.raises(ValueError, match="points must be finite"):
            m.contains([[math.nan, 0.5]])
        assert ProductMeasure.standard_normal().contains([[-40.0]])
