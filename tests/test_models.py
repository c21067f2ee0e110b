import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.linalg import solve_banded

from mlbq.models import (
    MODEL_NAMES,
    ModelError,
    OdeHierarchy,
    PiecewiseLinearFunction,
    PoissonHierarchy,
    StepHierarchy,
    POISSON_EXACT_INTEGRAL,
    brownian_rkhs_increment_norm,
    make_model,
    poisson_exact_solution,
)
from mlbq.oracles import slope_integral_norm


class TestPiecewiseLinear:
    def test_validates_monotone_breakpoints(self):
        with pytest.raises(ValueError):
            PiecewiseLinearFunction([0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 1.0, 0.0])

    def test_exact_integral(self):
        f = PiecewiseLinearFunction([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        assert f.integral() == pytest.approx(0.5)


class TestBrownianNorm:
    def test_identity_function(self):
        g = PiecewiseLinearFunction([0.0, 1.0], [0.0, 1.0])
        assert brownian_rkhs_increment_norm(g) == pytest.approx(1.0, abs=1e-14)

    def test_tent_function(self):
        g = PiecewiseLinearFunction([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        assert brownian_rkhs_increment_norm(g) == pytest.approx(2.0, abs=1e-13)

    def test_matches_slope_integral_oracle_on_100_random_pairs(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            bp1 = np.concatenate([[0.0], np.sort(rng.random(9)), [1.0]])
            g = PiecewiseLinearFunction(bp1, np.concatenate([[0.0], rng.standard_normal(10)]))
            bp2 = np.concatenate([[0.0], np.sort(rng.random(6)), [1.0]])
            h = PiecewiseLinearFunction(bp2, np.concatenate([[0.0], rng.standard_normal(7)]))
            assert brownian_rkhs_increment_norm(g, h) == pytest.approx(
                slope_integral_norm(g, h), abs=1e-10
            )

    def test_requires_anchor_at_zero(self):
        g = PiecewiseLinearFunction([0.0, 1.0], [0.5, 1.0])
        with pytest.raises(ValueError, match="vanish"):
            brownian_rkhs_increment_norm(g)


class TestPoisson:
    def test_nodal_values_example(self):
        model = PoissonHierarchy(interior_nodes=(3,), costs=(1.0,))
        values = model.evaluate(0, np.linspace(0.0, 1.0, 5))
        assert np.allclose(values, [0.0, -0.09375, -0.125, -0.09375, 0.0], atol=1e-14)

    def test_fem_nodal_exactness(self):
        model = PoissonHierarchy()
        for level, p in enumerate(model.interior_nodes):
            nodes = np.linspace(0.0, 1.0, p + 2)[1:-1]
            assert np.max(np.abs(model.evaluate(level, nodes) - poisson_exact_solution(nodes))) < 1e-10

    def test_exact_solution_integral(self):
        assert POISSON_EXACT_INTEGRAL == pytest.approx(-1.0 / 12.0)

    def test_level_integral_matches_mc_cross_check(self):
        model = PoissonHierarchy()
        rng = np.random.default_rng(31)
        w = rng.random(1_000_000)
        for level in range(3):
            vals = model.evaluate(level, w)
            se = vals.std(ddof=1) / math.sqrt(len(w))
            assert model.level_integral(level) == pytest.approx(vals.mean(), abs=4 * se)

    def test_level_consistency(self):
        model = PoissonHierarchy()
        probe = np.linspace(0.0, 1.0, 1000)
        sup_errors = [
            np.max(np.abs(model.evaluate(level, probe) - poisson_exact_solution(probe)))
            for level in range(3)
        ]
        assert sup_errors[0] >= sup_errors[1] >= sup_errors[2]

    def test_published_norm_constants_from_recovered_meshes(self):
        # cell counts (2, 5, 20) reproduce the increment-norm constants
        # used by the budget-allocation experiments exactly
        model = PoissonHierarchy(interior_nodes=(1, 4, 19))
        squared = [model.increment_norm(level) ** 2 for level in range(3)]
        assert squared[0] == pytest.approx(62.5e-3, rel=1e-12)
        assert squared[1] == pytest.approx(22.5e-3, rel=1e-12)
        assert squared[2] == pytest.approx(3.125e-3, rel=1e-12)

    def test_determinism(self):
        model = PoissonHierarchy()
        assert model.evaluate(1, [0.37])[0] == model.evaluate(1, [0.37])[0]

    def test_level_out_of_range(self):
        model = PoissonHierarchy()
        with pytest.raises(ModelError, match="level 3"):
            model.evaluate(3, [0.5])

    def test_rejects_two_dimensional_points(self):
        # an (n, 2) array used to be flattened into 2n values on the line
        with pytest.raises(ValueError, match="dimension 2"):
            PoissonHierarchy().evaluate(0, np.full((3, 2), 0.5))


class TestOde:
    def test_zero_coefficient_analytic_solution(self):
        # w1 = 0 makes the scheme exact at the nodes; the remaining error
        # is the trapezoid term r w2^2 h^2 / 12
        for h in (1.0 / 8, 1.0 / 16, 1.0 / 32):
            val = OdeHierarchy(spacings=(h,), costs=(1.0,)).evaluate(0, np.array([[0.0, 1.3]]))[0]
            exact = -50.0 / 12.0 * 1.3**2
            assert abs(val - exact) == pytest.approx(50.0 * 1.3**2 * h * h / 12.0, rel=1e-9)

    def test_halving_h_shrinks_error_by_at_least_1_8(self):
        exact = -50.0 / 12.0 * 0.9**2
        errors = [
            abs(OdeHierarchy(spacings=(h,), costs=(1.0,)).evaluate(0, np.array([[0.0, 0.9]]))[0] - exact)
            for h in (1.0 / 8, 1.0 / 16, 1.0 / 32)
        ]
        assert errors[0] / errors[1] >= 1.8
        assert errors[1] / errors[2] >= 1.8

    def test_determinism_bit_identical(self):
        model = OdeHierarchy()
        pts = np.array([[0.3, -0.7], [0.9, 2.0]])
        assert np.array_equal(model.evaluate(2, pts), model.evaluate(2, pts))

    def test_forcing_scales_linearly(self):
        base = OdeHierarchy().evaluate(0, [[0.4, 1.0]])[0]
        doubled = OdeHierarchy(forcing=100.0).evaluate(0, [[0.4, 1.0]])[0]
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)

    def test_reference_value_and_error_bound(self):
        model = OdeHierarchy()
        value, err = model.reference_info()
        # 16-node Gauss-Legendre value with banded LAPACK solves (perfbench/references.py)
        assert abs(value - (-3.417731512833)) <= 1e-9
        assert 0.0 < err < 1e-8
        again = OdeHierarchy()
        assert again.reference_info() == (value, err)

    def test_reference_bit_identical_to_pinned_values(self):
        # both Gauss-Legendre rules share one pass; the value and bound keep every bit
        value, err = OdeHierarchy().reference_info()
        assert (float(value).hex(), float(err).hex()) == ("-0x1.b57839e9103f6p+1", "0x1.b57859e9103f6p-31")

    def test_rejects_bad_points(self):
        # points are read as ``kernels.as_points`` reads them, so a wrong dimension is the caller's ValueError
        with pytest.raises(ValueError, match="dimension 3"):
            OdeHierarchy().evaluate(0, np.array([[0.1, 0.2, 0.3]]))

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            OdeHierarchy(spacings=(0.3, 0.1, 0.05), costs=(1.0, 2.0, 3.0))


class TestOdeIntegralFactor:
    W1 = np.array([0.0, 0.1, 0.37, 0.5, 1.0])
    # float.hex of the closed form's values; records depend on every bit
    PINNED = {
        8: ["-0x1.5000000000000p-4", "-0x1.4219de87575b1p-4", "-0x1.230af8fc40162p-4",
            "-0x1.16a6bad351ff7p-4", "-0x1.e27b68c461a47p-5"],
        32: ["-0x1.5500000000000p-4", "-0x1.45714fb4284abp-4", "-0x1.2316f31163568p-4",
             "-0x1.15887f892d9f5p-4", "-0x1.da2ebdfb29039p-5"],
        128: ["-0x1.5550000000000p-4", "-0x1.4560a16ff498ap-4", "-0x1.224830d462a22p-4",
              "-0x1.147747625f120p-4", "-0x1.d6b71978f4989p-5"],
        1024: ["-0x1.5555400000000p-4", "-0x1.454a7f424ab88p-4", "-0x1.21fc663a72712p-4",
               "-0x1.1418ccbdf99c7p-4", "-0x1.d59ac15b5d5cap-5"],
    }

    @pytest.mark.parametrize("steps", sorted(PINNED))
    def test_bit_identical_to_pinned_values(self, steps):
        factor = OdeHierarchy()._integral_factor(1.0 / steps, self.W1)
        assert [float(v).hex() for v in factor] == self.PINNED[steps]

    @pytest.mark.parametrize("steps", sorted(PINNED))
    def test_matches_banded_lapack_solve(self, steps):
        h = 1.0 / steps
        i = np.arange(1.0, steps)
        factor = OdeHierarchy()._integral_factor(h, self.W1)
        for w1, value in zip(self.W1, factor):
            banded = np.zeros((3, steps - 1))
            banded[0, 1:] = i[:-1] * w1 / h + 1.0 / h**2
            banded[1] = (1.0 - 2.0 * i) * w1 / h - 2.0 / h**2
            banded[2, :-1] = (i[1:] - 1.0) * w1 / h + 1.0 / h**2
            expected = h * solve_banded((1, 1), banded, np.ones(steps - 1)).sum()
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    @staticmethod
    def _thomas_at_50_digits(h, w1):
        # the same discrete system, eliminated in 50-digit decimal arithmetic from the float inputs
        with localcontext() as ctx:
            ctx.prec = 50
            h, w1 = Decimal(h), Decimal(float(w1))
            off = [k * w1 / h + 1 / (h * h) for k in range(round(1 / h))]
            c, d = [Decimal(0)], [Decimal(0)]
            for i in range(1, len(off)):
                lower, upper = off[i - 1], off[i]
                pivot = -(lower + upper) - lower * c[-1]
                c.append(upper / pivot)
                d.append((1 - lower * d[-1]) / pivot)
            u = [d[-1]]
            for i in range(len(off) - 2, 0, -1):
                u.append(d[i] - c[i] * u[-1])
            return float(h * sum(u))

    @pytest.mark.parametrize("steps", sorted(PINNED))
    def test_matches_exact_arithmetic_solve(self, steps):
        factor = OdeHierarchy()._integral_factor(1.0 / steps, self.W1)
        expected = [self._thomas_at_50_digits(1.0 / steps, w1) for w1 in self.W1]
        np.testing.assert_allclose(factor, expected, rtol=1e-14, atol=0.0)

    def test_zero_flux_coefficient_raises_model_error(self):
        # w1 = -2 at h = 1/8: off[4] = 4 w1 / h + 1 / h^2 = 0
        with pytest.raises(ModelError, match="ode spacing 0.125: flux form breakdown: zero flux coefficient"):
            OdeHierarchy().evaluate(0, [[-2.0, 1.0], [0.5, 1.0]])

    @pytest.mark.parametrize("steps", [8, 32, 128, 1024])
    def test_batched_columns_equal_lone_solves(self, steps):
        # a column must not depend on its batch neighbours; the scheme has `steps` rows, and
        # `_row_total` switches from cumsum to the axis-0 reduction once the batch is that wide
        model, h = OdeHierarchy(), 1.0 / steps
        w1 = np.random.default_rng(steps).uniform(size=max(848, steps + 1))
        alone = np.array([model._integral_factor(h, w1[k : k + 1])[0] for k in range(w1.size)])
        for width in (1, 15, 830, steps - 1, steps, steps + 1):
            assert np.array_equal(model._integral_factor(h, w1[:width]), alone[:width])
        assert np.array_equal(model._integral_factor(h, w1[830:]), alone[830:])
        assert np.array_equal(model._integral_factor(h, np.concatenate([w1[:830], w1[830:]])), alone)


class TestStep:
    def test_cell_midpoint_example(self):
        model = StepHierarchy(breakpoint_counts=(3,), costs=(1.0,))
        assert model.evaluate(0, [2.0])[0] == 2.5

    def test_right_endpoint_maps_to_last_cell(self):
        model = StepHierarchy(breakpoint_counts=(3,), costs=(1.0,))
        assert model.evaluate(0, [10.0])[0] == 7.5

    def test_rejects_two_dimensional_points(self):
        # an (n, 2) array used to be flattened into 2n values on the line
        with pytest.raises(ValueError, match="dimension 2"):
            StepHierarchy().evaluate(0, np.full((3, 2), 5.0))

    def test_every_level_integrates_to_five(self):
        model = StepHierarchy()
        for level in range(model.levels):
            assert model.level_integral(level) == pytest.approx(5.0, abs=1e-14)
        assert model.reference_integral() == pytest.approx(5.0)


class TestRegistry:
    def test_make_model_names(self):
        assert isinstance(make_model("poisson"), PoissonHierarchy)
        assert isinstance(make_model("step", high=4.0), StepHierarchy)
        with pytest.raises(ValueError, match="unknown model"):
            make_model("tsunami")

    @pytest.mark.parametrize("name", ["Poisson", "ODE", "Step"])
    def test_a_model_name_is_read_exactly(self, name):
        # the config accepts only the names in MODEL_NAMES, and make_model reads them the same way
        with pytest.raises(ValueError, match=re.escape(str(MODEL_NAMES))):
            make_model(name)

    @pytest.mark.parametrize(
        "name, params",
        [
            ("poisson", {"interior_nodes": (4.7, 16, 64)}),
            ("poisson", {"interior_nodes": (4, np.int64(16), 64)}),
            ("poisson", {"costs": (True, 8.5e-3, 42.4e-3)}),
            ("ode", {"forcing": "50"}),
            ("ode", {"spacings": ("0.125", 1 / 32, 1 / 128)}),
            ("ode", {"costs": (1e-3, False, 21.8e-3)}),
            ("step", {"breakpoint_counts": (3.0, 5, 9)}),
            ("step", {"high": True}),
            ("step", {"costs": ("5e-4", 1e-3, 2e-3)}),
        ],
    )
    def test_params_are_type_checked_not_coerced(self, name, params):
        with pytest.raises(ValueError, match="must be int"):
            make_model(name, **params)

    @pytest.mark.parametrize(
        "name, params, match",
        [
            ("poisson", {"interior_nodes": (0, 16, 64)}, "interior_nodes must be int >= 1"),
            ("step", {"breakpoint_counts": (1, 5, 9)}, "breakpoint_counts must be int >= 2"),
            ("poisson", {"costs": (math.nan, 8.5e-3, 42.4e-3)}, "costs must be int or float > 0 and finite"),
            ("ode", {"costs": (1e-3, math.inf, 21.8e-3)}, "costs must be int or float > 0 and finite"),
            ("step", {"costs": (5e-4, 1e-3, 0)}, "costs must be int or float > 0 and finite"),
            ("ode", {"forcing": math.inf}, "forcing must be int or float and finite"),
            ("ode", {"forcing": math.nan}, "forcing must be int or float and finite"),
            ("ode", {"forcing": 10**400}, "forcing must be int or float and finite"),
            ("step", {"high": 0.0}, "high must be int or float > 0 and finite"),
            ("step", {"high": math.inf}, "high must be int or float > 0 and finite"),
            ("ode", {"spacings": (1 / 8, 1 / 32, 1 / 16384)},
             r"spacings must end at 1/m with m <= 8192 \(65536 reference grid rows\), got \(0.125, 0.03125, "),
            ("ode", {"spacings": (1 / (2**16 + 1), 1 / 32, 1 / 128)},
             r"spacings must be int or float 1/m for an integer 3 <= m <= 65536"),
            ("poisson", {"interior_nodes": (4, 16, 2**16 + 1)}, "interior_nodes must be int >= 1 and <= 65536"),
            ("step", {"breakpoint_counts": (3, 2**16 + 1, 9)}, "breakpoint_counts must be int >= 2 and <= 65536"),
        ],
        ids=["zero-nodes", "one-breakpoint", "nan-costs", "inf-costs", "zero-costs", "inf-forcing", "nan-forcing",
             "huge-int-forcing", "zero-high", "inf-high", "oversized-top-spacing", "oversized-coarse-spacing",
             "oversized-nodes", "oversized-breakpoints"],
    )
    def test_params_are_range_checked(self, name, params, match):
        # NaN costs gave cost=nan records and passed the budget check; infinite forcing failed only at the first
        # cell's evaluation; the reference grid refines the top spacing 8 times, so a top m above 8192 would ask
        # for more than its 65536 rows; only the top spacing was capped, so spacings (1e-6, 1/32, 1/128) and
        # interior_nodes (4, 16, 10**8) loaded
        with pytest.raises(ValueError, match=match):
            make_model(name, **params)

    @pytest.mark.parametrize("name, key", [("poisson", "interior_nodes"), ("ode", "spacings"),
                                           ("step", "breakpoint_counts")])
    def test_needs_at_least_one_level(self, name, key):
        # each model used to construct with zero levels and fail later, each with a different error
        with pytest.raises(ValueError, match=f"{name}: needs at least one level"):
            make_model(name, **{key: (), "costs": ()})

    def test_integer_numbers_are_accepted(self):
        assert make_model("poisson", costs=(1, 2, 4)).costs == (1.0, 2.0, 4.0)
        ode = make_model("ode", forcing=50, costs=(1, 3, 22))
        assert (ode.forcing, ode.costs) == (50.0, (1.0, 3.0, 22.0))
        assert make_model("step", high=4).high == 4.0
