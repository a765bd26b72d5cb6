import numpy as np
import pytest

from unifit import (
    AuditReport,
    ModelKind,
    QuadratureSpec,
    ShapeParams,
    UnsupportedFamilyError,
    constraint_integrals,
    entropy_of,
    perturbation_audit,
)
from unifit.entropy import _density, _quad_nodes

# Closed-form differential entropies computed with a 40-digit independent
# script (log B(a,b) - (a-1)psi(a) - (b-1)psi(b) + (a+b-2)psi(a+b) for the
# beta family; adaptive quadrature of the normalized density for maxent).
H_BETA_2_2 = -0.12509280256138833
H_BETA_3_2 = -0.23490664978800031
H_MAXENT_1_1 = -0.57233409475294664
H_MAXENT_2_5 = -1.0345939287037784
C2_MAXENT_1_1 = 2.1926273099583796


def maxent(a, b):
    return ShapeParams(ModelKind.MAXENT, (a, b))


def beta(a, b):
    return ShapeParams(ModelKind.BETA, (a, b))


class TestEntropy:
    def test_uniform_density_has_zero_entropy(self):
        assert abs(entropy_of(beta(1, 1))) < 1e-6

    def test_beta_2_2_matches_closed_form(self):
        assert entropy_of(beta(2, 2)) == pytest.approx(H_BETA_2_2, abs=1e-8)

    def test_beta_3_2_matches_closed_form(self):
        assert entropy_of(beta(3, 2)) == pytest.approx(H_BETA_3_2, abs=1e-8)

    def test_maxent_1_1_matches_independent_quadrature(self):
        assert entropy_of(maxent(1, 1)) == pytest.approx(H_MAXENT_1_1, abs=1e-8)

    def test_maxent_2_5_matches_independent_quadrature(self):
        assert entropy_of(maxent(2, 5)) == pytest.approx(H_MAXENT_2_5, abs=1e-8)

    def test_node_doubling_stability_example(self):
        h1 = entropy_of(maxent(1, 1), QuadratureSpec(node_count=2001))
        h2 = entropy_of(maxent(1, 1), QuadratureSpec(node_count=4001))
        assert abs(h1 - h2) < 1e-6

    @pytest.mark.parametrize("kind", [ModelKind.MAXENT, ModelKind.BETA], ids=str)
    def test_node_doubling_stability_random(self, kind):
        rng = np.random.default_rng(9)
        lo = 0.05 if kind is ModelKind.MAXENT else 1.0 + 1e-6
        for _ in range(20):
            a, b = np.exp(rng.uniform(np.log(lo), np.log(20.0), 2))
            params = ShapeParams(kind, (a, b))
            h1 = entropy_of(params, QuadratureSpec(node_count=2001))
            h2 = entropy_of(params, QuadratureSpec(node_count=4001))
            assert abs(h1 - h2) < 1e-6, (kind, a, b)

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedFamilyError):
            entropy_of(ShapeParams(ModelKind.RICHARDS, (5.0, 0.5, 1.0)))

    @pytest.mark.parametrize("params", [beta(1e308, 3), maxent(1e-300, 1e300), beta(1.7e308, 1.7e308)])
    @pytest.mark.filterwarnings("error")
    def test_shape_without_quadrature_mass_raises(self, params):
        # all the mass sits on nodes of zero weight, or the log shape is
        # -inf at every node: no nan density, and no warning
        with pytest.raises(ValueError, match="quadrature mass"):
            entropy_of(params)


class TestConstraintIntegrals:
    def test_unit_mass(self):
        c1, _, _ = constraint_integrals(beta(1, 1))
        assert c1 == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_maxent_weights_coincide(self):
        _, c2, c3 = constraint_integrals(maxent(1, 1))
        assert c2 == pytest.approx(c3, rel=1e-12)
        assert c2 == pytest.approx(C2_MAXENT_1_1, abs=1e-8)

    def test_all_finite_and_stable(self):
        for n in (2001, 4001):
            c1, c2, c3 = constraint_integrals(maxent(2, 5), QuadratureSpec(node_count=n))
            assert np.isfinite([c1, c2, c3]).all()
        a = constraint_integrals(maxent(2, 5), QuadratureSpec(node_count=2001))
        b = constraint_integrals(maxent(2, 5), QuadratureSpec(node_count=4001))
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-6

    def test_bounded_as_cutoff_shrinks(self):
        # the weighted integrals stay finite as the cutoff is reduced,
        # demonstrating that the boundary weights are integrable against p
        a = constraint_integrals(maxent(1, 2), QuadratureSpec(endpoint_cutoff=1e-6))
        b = constraint_integrals(maxent(1, 2), QuadratureSpec(endpoint_cutoff=1e-10))
        assert abs(a[1] - b[1]) < 1e-6
        assert abs(a[2] - b[2]) < 1e-6

    def test_symmetric_density_mirror(self):
        grid, w = _quad_nodes(2001, 1e-8)
        for c in (0.3, 1.0, 6.0):
            p = _density(maxent(c, c), grid, w)
            np.testing.assert_array_equal(p, p[::-1])


class TestPerturbationAudit:
    def test_maxent_uniform_case(self):
        report = perturbation_audit(maxent(1, 1), trials=200, seed=42)
        assert report.perturbation_trials == 200
        assert report.perturbation_failures == 0

    def test_beta_case(self):
        report = perturbation_audit(beta(3, 2), trials=200, seed=7)
        assert report.perturbation_failures == 0

    def test_vacuous(self):
        report = perturbation_audit(maxent(2, 2), trials=0, seed=0)
        assert report == AuditReport(
            H=report.H,
            C1=report.C1,
            C2=report.C2,
            C3=report.C3,
            perturbation_trials=0,
            perturbation_failures=0,
            perturbation_skipped=0,
        )

    def test_report_carries_integrals(self):
        report = perturbation_audit(maxent(1, 1), trials=5, seed=0)
        assert report.H == pytest.approx(entropy_of(maxent(1, 1)), abs=1e-14)
        c1, c2, c3 = constraint_integrals(maxent(1, 1))
        assert (report.C1, report.C2, report.C3) == (c1, c2, c3)

    @pytest.mark.parametrize("kind", [ModelKind.MAXENT, ModelKind.BETA], ids=str)
    def test_maximality_over_random_draws(self, kind):
        rng = np.random.default_rng(13)
        lo = 0.2 if kind is ModelKind.MAXENT else 1.2
        for i in range(5):
            a, b = np.exp(rng.uniform(np.log(lo), np.log(20.0), 2))
            report = perturbation_audit(ShapeParams(kind, (a, b)), trials=100, seed=i)
            assert report.perturbation_failures == 0, (kind, a, b)

    def test_beta_boundary_exponent_rejected(self):
        with pytest.raises(ValueError, match="unaudited"):
            perturbation_audit(beta(1, 2), trials=10, seed=0)

    def test_determinism(self):
        a = perturbation_audit(maxent(0.7, 3), trials=50, seed=99)
        b = perturbation_audit(maxent(0.7, 3), trials=50, seed=99)
        assert a == b


class TestQuadratureSpec:
    def test_even_node_count_rejected(self):
        with pytest.raises(ValueError):
            QuadratureSpec(node_count=2000)

    def test_cutoff_range(self):
        with pytest.raises(ValueError):
            QuadratureSpec(endpoint_cutoff=0.5)
