import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from unifit._seeds import mix64
from unifit.entropy import (
    _AUDIT_TAG,
    _DEPENDENT_ROW,
    _FAILURE_MARGIN,
    _MAX_REDRAWS,
    _PERTURBATION_SCALE,
    _POLY_DEGREE,
    _density,
    _quad_nodes,
    _require_entropy_family,
)
from unifit.models import FAMILIES

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


def _per_trial_entropy(p, w):
    lg = np.zeros_like(p)
    np.log(p, out=lg, where=p > 0.0)
    return -float(w @ (p * lg))


def _reference_audit(params, quad=QuadratureSpec(), trials=200, seed=0):
    """The audit scored one trial at a time: the loop ``perturbation_audit``
    ran before it scored trials in blocks, kept verbatim."""
    _require_entropy_family(params)
    grid, w = _quad_nodes(quad.node_count, quad.endpoint_cutoff)
    p = _density(params, grid, w)
    f, g = FAMILIES[params.kind].weight_arrays(grid)
    h0 = _per_trial_entropy(p, w)

    powers = np.vander(grid.xs, _POLY_DEGREE + 1, increasing=True).T
    V = p * powers
    constraints = np.stack([np.ones_like(grid.xs), f, g])
    M = (constraints * w) @ V.T

    Q, R = np.linalg.qr(M.T)
    for k in range(M.shape[0]):
        if not abs(R[k, k]) > _DEPENDENT_ROW * np.linalg.norm(M[k]):  # also NaN
            raise ValueError(
                f"{params.kind.value} {params.named()} cannot be audited: constraint "
                f"{k + 1} is numerically dependent on the ones before it"
            )

    peak = float(p.max())
    target = _PERTURBATION_SCALE * peak
    failures = 0
    skipped = 0
    for trial in range(trials):
        delta = None
        for redraw in range(_MAX_REDRAWS + 1):
            rng = np.random.default_rng(mix64(seed, _AUDIT_TAG, trial, redraw))
            c = rng.standard_normal(_POLY_DEGREE + 1)
            c -= Q @ (Q.T @ c)
            cand = c @ V
            norm = float(np.max(np.abs(cand)))
            if norm > 1e-12 * peak:
                delta = cand * (target / norm)
                break
        if delta is None:
            skipped += 1
            continue

        perturbed = p + delta
        if float(perturbed.min()) < 0.0:
            neg = delta < 0.0
            shrink = float(np.min(p[neg] / -delta[neg])) * (1.0 - 1e-9)
            if shrink <= 0.0:
                skipped += 1
                continue
            if shrink < 1.0:
                delta = delta * shrink
                perturbed = p + delta
        np.maximum(perturbed, 0.0, out=perturbed)

        if _per_trial_entropy(perturbed, w) > h0 + _FAILURE_MARGIN:
            failures += 1

    return AuditReport(
        H=h0,
        C1=float(w @ p),
        C2=float(w @ (f * p)),
        C3=float(w @ (g * p)),
        perturbation_trials=trials,
        perturbation_failures=failures,
        perturbation_skipped=skipped,
    )


def _first_draw(params, seed, trial):
    """(p, the first draw's perturbation before scaling, its sup norm)."""
    grid, w = _quad_nodes(2001, 1e-8)
    p = _density(params, grid, w)
    f, g = FAMILIES[params.kind].weight_arrays(grid)
    V = p * np.vander(grid.xs, _POLY_DEGREE + 1, increasing=True).T
    Q, _ = np.linalg.qr(((np.stack([np.ones_like(f), f, g]) * w) @ V.T).T)
    c = np.random.default_rng(mix64(seed, _AUDIT_TAG, trial, 0)).standard_normal(_POLY_DEGREE + 1)
    cand = (c - Q @ (Q.T @ c)) @ V
    return p, cand, float(np.max(np.abs(cand)))


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

    @pytest.mark.parametrize(
        "kind,a,b",
        [(ModelKind.MAXENT, 1e8, 1e8), (ModelKind.MAXENT, 1.0, 1e15), (ModelKind.BETA, 1e6, 1e6)],
        ids=str,
    )
    def test_dependent_constraints_raise(self, kind, a, b):
        # spikes a few quadrature nodes wide: a constraint row vanishes in
        # Gram-Schmidt, which used to skip every trial (a zero row) or fail
        # them spuriously, with a RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="numerically dependent"):
                perturbation_audit(ShapeParams(kind, (a, b)), trials=10, seed=0)

    @pytest.mark.parametrize("a,b", [(100.0, 100.0), (0.01, 100.0)], ids=str)
    def test_spiked_maximizers_audit_clean(self, a, b):
        # moderately spiked but independent constraints: Gram-Schmidt lost
        # orthogonality here and its constraint residual raised H at first
        # order, failing 15 and 26 of the CLI's 200 trials
        report = perturbation_audit(maxent(a, b), trials=200, seed=0)
        assert report.perturbation_failures == 0
        assert report.perturbation_skipped == 0

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        kind=st.sampled_from([ModelKind.MAXENT, ModelKind.BETA]),
        log_a=st.floats(-3.0, 3.0) | st.just(-np.inf),
        log_b=st.floats(-3.0, 3.0) | st.just(-np.inf),
    )
    def test_maximizers_audit_clean_or_raise(self, kind, log_a, log_b):
        # maxent (a, b), or beta (a - 1, b - 1), log-uniform over [1e-3, 1e3]
        # plus, for beta, an exponent of exactly 1 (log -inf): a maximizer
        # by construction either audits clean or is too spiked for its
        # constraints to be independent
        shift = 1.0 if kind is ModelKind.BETA else 0.0
        if not shift:  # maxent a, b must be > 0
            log_a, log_b = max(log_a, -3.0), max(log_b, -3.0)
        params = ShapeParams(kind, (shift + 10.0**log_a, shift + 10.0**log_b))
        try:
            report = perturbation_audit(params, trials=50, seed=0)
        except ValueError as exc:
            assert "numerically dependent" in str(exc)
            return
        assert report.perturbation_failures == 0, params

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 3), (4, 1), (1, 1000)], ids=str)
    def test_beta_boundary_exponents_audit_clean(self, a, b):
        # x^(a-1) (1-x)^(b-1) maximizes H under its own {1, log x,
        # log(1-x)} integrals for a - 1 = 0 too: the bounds are audited
        report = perturbation_audit(beta(a, b), trials=200, seed=0)
        assert report.perturbation_trials == 200
        assert report.perturbation_failures == 0

    @pytest.mark.xfail(
        strict=True,
        reason="known failure: a true maximizer whose spiked shape fails the "
        "perturbation audit spuriously; the deterministic certificate of "
        "ROADMAP item 7 is the standing remedy",
    )
    def test_spiked_maximizer_maxent_1000_0_001_audits_clean(self):
        # fails 3 of 200 trials at seed 0; the fixed examples of the
        # property test above miss this shape
        report = perturbation_audit(maxent(1000, 0.001), trials=200, seed=0)
        assert report.perturbation_failures == 0

    def test_determinism(self):
        a = perturbation_audit(maxent(0.7, 3), trials=50, seed=99)
        b = perturbation_audit(maxent(0.7, 3), trials=50, seed=99)
        assert a == b


class TestBlockedAuditMatchesPerTrialLoop:
    # blocks of matrix products are not bit-equal to per-trial dot
    # products, so a trial whose entropy gain sits at the failure margin
    # may flip; away from spikes none does, and the reports are equal

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        kind=st.sampled_from([ModelKind.MAXENT, ModelKind.BETA]),
        u=st.floats(0.0, 1.0),
        v=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**63 - 1),
        trials=st.sampled_from([0, 1, 15, 16, 17, 50, 200]),
    )
    def test_reports_equal_over_cli_session_domain(self, kind, u, v, seed, trials):
        # exponents log-uniform: maxent a, b in [0.05, 5], beta a, b in [1.2, 20]
        lo, hi = (0.05, 5.0) if kind is ModelKind.MAXENT else (1.2, 20.0)
        a, b = (float(lo * (hi / lo) ** t) for t in (u, v))
        params = ShapeParams(kind, (a, b))
        expected = _reference_audit(params, trials=trials, seed=seed)
        assert perturbation_audit(params, trials=trials, seed=seed) == expected

    def test_redraw_path(self):
        params = beta(3, 3792.69)
        p, _, norm = _first_draw(params, seed=0, trial=50)
        assert not norm > 1e-12 * p.max()  # trial 50's first draw is degenerate
        report = perturbation_audit(params, trials=200, seed=0)
        assert report == _reference_audit(params, trials=200, seed=0)
        assert (report.perturbation_failures, report.perturbation_skipped) == (0, 0)

    def test_shrink_path(self):
        params = maxent(0.1, 3)
        p, cand, norm = _first_draw(params, seed=0, trial=11)
        assert (p + cand * (_PERTURBATION_SCALE * p.max() / norm)).min() < 0.0
        assert perturbation_audit(params, trials=50, seed=0) == _reference_audit(
            params, trials=50, seed=0
        )


class TestQuadratureSpec:
    def test_even_node_count_rejected(self):
        with pytest.raises(ValueError):
            QuadratureSpec(node_count=2000)

    def test_cutoff_range(self):
        with pytest.raises(ValueError):
            QuadratureSpec(endpoint_cutoff=0.5)
