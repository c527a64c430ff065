import cmath
import math
import random

import pytest

import trank.mockforms as mockforms
from trank.mockforms import (
    TOLERANCES,
    DrawRejected,
    EvaluationPoint,
    VERIFICATION_CASES,
    c_kernel,
    eta_tau,
    lattice_distance,
    mu_tau,
    r_tau,
    theta_tau,
    verify_transformation,
    zwegers_a_t_tau,
)
from trank.qseries import moment_generating_eval

from helpers import moment_kernel, rel_err, taylor_moments, theta_product_tau


class TestEtaTheta:
    def test_eta_real_positive_on_imaginary_axis(self):
        v = eta_tau(1j * 1.0)  # eta(i): real q, every product factor positive
        assert v.imag == pytest.approx(0.0, abs=1e-15)
        assert v.real > 0

    def test_eta_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            eta_tau(1.0 - 0.2j)
        with pytest.raises(ValueError):
            eta_tau(1j * -0.3)

    def test_theta_vanishes_at_zero(self):
        for z in (0.4, 0.7 + 0.2j):
            assert abs(theta_tau(0.0, 1j * z)) < 1e-14

    def test_theta_is_odd(self):
        assert abs(theta_tau(0.31 - 0.05j, 1j * 0.5)
                   + theta_tau(-0.31 + 0.05j, 1j * 0.5)) < 1e-14

    def test_series_vs_product(self):
        rng = random.Random(14)
        for _ in range(20):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.15, 0.9))
            v = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4))
            a = theta_tau(v, tau)
            b = theta_product_tau(v, tau)
            assert rel_err(a, b) < 1e-12, (v, tau)


class TestAppellLerch:
    def test_a1_equals_theta_mu(self):
        rng = random.Random(15)
        for _ in range(10):
            tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.25, 0.8))
            u = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.1, 0.1))
            v = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.1, 0.1))
            if min(lattice_distance(u, tau), lattice_distance(v, tau)) < 0.05:
                continue
            if abs(theta_tau(v, tau)) < 1e-6:
                continue
            lhs = zwegers_a_t_tau(1, u, v, tau)
            rhs = theta_tau(v, tau) * mu_tau(u, v, tau)
            assert rel_err(lhs, rhs) < 1e-13

    def test_level_decomposition_wrappers(self):
        z = 0.45
        for T in (1, 3, 5, 7):
            u, v = 0.13, 0.27
            lhs = zwegers_a_t_tau(T, u, v, 1j * z)
            rhs = sum(
                cmath.exp(2j * math.pi * u * t)
                * zwegers_a_t_tau(1, T * u, v + t * 1j * z + (T - 1) / 2.0, 1j * (T * z))
                for t in range(T)
            )
            assert rel_err(lhs, rhs) < 1e-12

    def test_truncation_doubling_stability(self):
        # the windows are sized from analytic tail bounds; nudging the
        # implied center/width by reevaluating at equivalent shifted
        # arguments must agree
        tau = 0.2 + 0.5j
        a = zwegers_a_t_tau(1, 0.21 + 0.02j, 0.4, tau)
        b = zwegers_a_t_tau(1, 0.21 + 0.02j, 0.4 + 2.0, tau)  # v -> v+2 is exact
        assert rel_err(a, b) < 1e-12

    def test_lattice_guard(self):
        with pytest.raises(ValueError):
            zwegers_a_t_tau(1, 0.0, 0.3, 0.4j)
        with pytest.raises(ValueError):
            mu_tau(0.2, 1.0 + 0.4j, 0.4j)  # v on the lattice

    def test_mu_theta_denominator_guard(self):
        # theta vanishes on the lattice; with the proximity margin disabled
        # the denominator guard has to fire instead
        tau = 0.39j
        with pytest.raises(ValueError, match="theta denominator"):
            mu_tau(0.2, 1e-15, tau, margin=0.0)


class TestRFunction:
    def test_shift_law(self):
        w, z = 0.3 + 0.1j, 0.5
        assert rel_err(r_tau(w + 1, 1j * z), -r_tau(w, 1j * z)) < 1e-13

    def test_even(self):
        w, z = 0.37 - 0.21j, 0.62 + 0.1j
        assert rel_err(r_tau(w, 1j * z), r_tau(-w, 1j * z)) < 1e-13

    def test_window_guard(self):
        from trank.errors import ConvergenceError

        with pytest.raises(ConvergenceError):
            r_tau(0.3, 1e-11j)  # window would need to be enormous


class TestKernels:
    def test_c_kernel_dual_form_t0(self):
        # the A-form/eta-quotient comparison runs inside c_kernel; exercise
        # it over several (T, h, k)
        rng = random.Random(16)
        for _ in range(8):
            k = rng.randrange(1, 5)
            h = rng.choice([x for x in range(k) if math.gcd(x, k) == 1]) if k > 1 else 0
            z = complex(rng.uniform(0.3, 0.8), rng.uniform(-0.2, 0.2))
            point = EvaluationPoint(u=0.11 + 0.02j, z=z, h=h, k=k)
            for T in (1, 3, 5):
                assert c_kernel(T, 0, point) is not None

    def test_kernel_sum_matches_appell_route(self):
        # M_T = sum_t C_(T,t) against the closed A_T expression
        point = EvaluationPoint(u=0.07 + 0.01j, z=0.5, h=0, k=1)
        for T in (3, 5):
            half = (T - 1) // 2
            total = sum(c_kernel(T, t, point) for t in range(-half, half + 1))
            assert rel_err(total, moment_kernel(T, point.u, point.tau)) < 1e-12

    def test_evaluation_point_validation(self):
        with pytest.raises(ValueError):
            EvaluationPoint(u=0.0, z=-0.4)
        with pytest.raises(ValueError):
            EvaluationPoint(u=0.0, z=0.5, h=2, k=4)


class TestTaylorMoments:
    def test_matches_exact_engine(self):
        q0 = cmath.exp(-2 * math.pi * 0.35)
        for T in (1, 3, 5, 7):
            coeffs = taylor_moments(T, 6, 0.35j, radius=0.15)
            for r in (2, 4, 6):
                exact = moment_generating_eval(T, r, q0, 400)
                assert rel_err(coeffs[r], exact) < 1e-7, (T, r)

    def test_odd_coefficients_vanish(self):
        coeffs = taylor_moments(5, 7, 0.3j, radius=0.13)
        scale = max(abs(c) for c in coeffs)
        for r in (1, 3, 5, 7):
            assert abs(coeffs[r]) < 1e-9 * scale

    def test_complex_q_cross_check(self):
        q0 = 0.05 + 0.02j
        tau = cmath.log(q0) / (2j * math.pi)
        coeffs = taylor_moments(1, 4, tau, radius=0.2)
        for r in (2, 4):
            exact = moment_generating_eval(1, r, q0, 200)
            assert rel_err(coeffs[r], exact) < 1e-8


class TestThetaEtaQuotient:
    def test_leading_term_carries_theta_star_unit(self):
        # theta(t tau; T tau)/eta(tau) at tau = (h+iz)/k approaches a
        # closed leading term whose unit part is u_theta_star times the
        # reciprocal transformed-eta phase e^(-pi i [-h]_k/(12k))/chi;
        # this pins the branch structure of u_theta_star for every sign
        # of the residue rho_T(t gamma_co h)
        from trank.asymptotics import positivity_gate
        from trank.units import chi_multiplier, neg_inverse, phase, rho_residue
        from unit_oracles import u_theta_star

        cases = [  # (T, t, h, k) hitting rho = 0, > 0, < 0 and composite T
            (5, 1, 1, 2),
            (5, 2, 1, 5),
            (5, 2, 2, 5),
            (7, 3, 2, 7),
            (9, 2, 1, 3),
        ]
        for (T, t, h, k) in cases:
            g = math.gcd(T, k)
            gco = T // g
            rho = rho_residue(T, t * gco * h)
            inv = neg_inverse(h, k)
            beta = float(positivity_gate(T, g, rho))
            z = 0.02
            tau = (h + 1j * z) / k
            quotient = theta_tau(t * tau, T * tau) / eta_tau(tau)
            leading = (gco**-0.5
                       * u_theta_star(T, t, h, k).to_complex()
                       * cmath.exp(-1j * math.pi * inv / (12.0 * k))
                       / phase(chi_multiplier(h, k))
                       * cmath.exp(math.pi * beta / (k * z))
                       * cmath.exp(math.pi * t * t * z / (T * k)))
            assert abs(quotient / leading - 1) < 1e-4, (T, t, h, k)


class TestVerifySuites:
    @pytest.mark.parametrize("case", VERIFICATION_CASES)
    def test_case_passes(self, case):
        tol = 1e-7 if case == "prop_4_2" else 1e-8
        report = verify_transformation(case, trials=8, tolerance=tol, seed=3)
        assert report.passed, report.failures[:1]

    @pytest.mark.parametrize("seed", (0, 1, 4))
    def test_precision_sensitive_cases_across_seeds(self, seed):
        # seeds that historically exposed absolute-precision loss in the
        # R-function and quadrature-tolerance amplification
        for case in ("muhat_modular", "R_composite", "muhat_composite"):
            report = verify_transformation(case, trials=10, tolerance=1e-10,
                                           seed=seed)
            assert report.passed, (case, seed, report.max_rel_err)

    def test_prop_4_2_cancelling_trial(self):
        # trial 6 of seed 10: the mu half and the Mordell half are both about
        # 0.10 and cancel by 6.3e7, which leaves the identity at 8.7e-8 when
        # both halves are taken in double, against the 1e-7 tolerance
        rng = random.Random("prop_4_2|10|6")
        lhs, rhs, inputs = mockforms._trial_prop_4_2(rng)
        assert {key: inputs[key] for key in ("T", "h", "k", "t")} == \
            {"T": 13, "h": 3, "k": 4, "t": 4}
        assert rel_err(lhs, rhs) <= 2e-8
        report = verify_transformation("prop_4_2", trials=35, tolerance=1e-7, seed=10)
        assert report.max_rel_err <= 2e-8

    @pytest.mark.parametrize("case", VERIFICATION_CASES)
    def test_mordell_cases_succeed_on_first_draw(self, case):
        # every trial of the benchmark's verify requests (seeds 1-12 with
        # 30, 35, 40, 45, 30, ... trials) returns on its first draw, so the
        # benchmark's inputs do not depend on how a rejected draw is redrawn
        for seed in range(1, 13):
            for i in range((30, 35, 40, 45)[(seed - 1) % 4]):
                mockforms._TRIALS[case](random.Random(f"{case}|{seed}|{i}"))

    def test_evaluator_errors_are_not_redrawn(self, monkeypatch):
        # only a sampler's DrawRejected redraws a trial; an evaluator's range
        # guard reaches the caller
        def guarded(tau):
            raise ValueError("evaluator range guard")

        monkeypatch.setattr(mockforms, "eta_tau", guarded)
        with pytest.raises(ValueError, match="evaluator range guard"):
            verify_transformation("eta", trials=1, tolerance=1e-8, seed=0)

    @pytest.mark.parametrize("case, seed, trial", [("AT_decomposition", 232, 14),
                                                   ("muhat_composite", 220, 4)])
    def test_draw_independent_guards_reject_at_once(self, case, seed, trial):
        # AT_decomposition's T u and muhat_composite's v_lhs, v_rhs are fixed
        # before the loops that follow them; lying too close to their
        # lattices rejects the draw before any further sample is taken
        rng = random.Random(f"{case}|{seed}|{trial}")
        with pytest.raises(DrawRejected):
            mockforms._TRIALS[case](rng)
        report = verify_transformation(case, trials=trial + 1, tolerance=1e-8, seed=seed)
        assert report.passed

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            verify_transformation("not_a_case", trials=1, tolerance=1.0)

    def test_default_tolerance_is_the_case_tolerance(self):
        # seed 10 reaches a relative error of 1.2e-8 on prop_4_2: inside
        # that case's 1e-7, which `trank verify` applies as well
        report = verify_transformation("prop_4_2", trials=35, seed=10)
        assert report.tolerance == TOLERANCES["prop_4_2"]
        assert report.passed

    def test_deterministic_reports(self):
        a = verify_transformation("eta", trials=6, tolerance=1e-8, seed=11)
        b = verify_transformation("eta", trials=6, tolerance=1e-8, seed=11)
        assert a == b

    def test_at_decomposition_catches_a_wrong_prefactor(self, monkeypatch):
        # e^(2 pi i T u) for e^(pi i T u) multiplies both sides of the level
        # decomposition alike, so only the symmetry mu(u, v) = mu(v, u) of
        # part (b) can see it
        import trank.mockforms as mockforms

        level_t = mockforms.zwegers_a_t_tau

        def doubled_prefactor(T, u, *rest, **kw):
            return cmath.exp(1j * math.pi * T * u) * level_t(T, u, *rest, **kw)

        assert verify_transformation("AT_decomposition", trials=10,
                                     tolerance=1e-8, seed=1).passed
        monkeypatch.setattr(mockforms, "zwegers_a_t_tau", doubled_prefactor)
        report = verify_transformation("AT_decomposition", trials=10,
                                       tolerance=1e-8, seed=1)
        assert not report.passed
        assert {f["inputs"]["part"] for f in report.failures} == {"b"}
