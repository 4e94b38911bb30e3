import math

import numpy as np
import pytest

from hlp_sharp import quad
from hlp_sharp.params import (
    DivergenceError,
    ExponentSet,
    ParamSet,
    ValidationResult,
    admissibility_violations,
    derive_exponents,
    require_admissible,
    validate,
)

from conftest import make_admissible


def bilinear_example():
    # m=2, n=1 (Q=4): q=2, q_j=4, lambda=-1/4, lambda_j=-1/8, gamma=0, alpha=0.
    return ParamSet(
        m=2,
        n=1,
        q=2.0,
        q_list=(4.0, 4.0),
        lam=-0.25,
        lam_list=(-0.125, -0.125),
        gamma_list=(0.0, 0.0),
        alpha=0.0,
    )


def test_bilinear_example_exponents_are_machine_exact():
    p = bilinear_example()
    assert p.Q == 4
    assert p.gamma == 0.0
    e = derive_exponents(p)
    # Q*lambda_j = 4 * (-1/8) = -1/2 and Q*lambda = 4 * (-1/4) = -1, both
    # exactly representable, so the identities hold with == not approx.
    assert e.sigma_list == (-0.5, -0.5)
    assert e.sigma == -1.0
    assert e.m == 2
    assert validate(p).ok
    assert validate(p, strict_sharpness=True).ok


def test_alpha_and_gamma_enter_the_exponents():
    p = ParamSet(
        m=1,
        n=2,
        q=2.5,
        q_list=(2.5,),
        lam=-0.2,
        lam_list=(-0.2,),
        gamma_list=(0.75,),
        alpha=1.5,
    )
    e = derive_exponents(p)
    Q = 6
    assert e.sigma_list[0] == pytest.approx(
        Q * -0.2 - 0.75 / 2.5 + 1.5 * (-0.2 + 1.0 / 2.5), rel=1e-15
    )
    assert e.sigma == pytest.approx(e.sigma_list[0], rel=1e-15)


def test_sigma_is_the_sum_of_sigma_j_and_balance_has_a_tolerance():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = make_admissible(rng, m=int(rng.integers(1, 5)), n=int(rng.integers(1, 4)))
        e = derive_exponents(p)
        assert e.sigma == math.fsum(e.sigma_list)
        # q*lambda/q_j rounds, so sum(lambda_j) misses lambda by an ulp or so
        assert validate(p).ok


def test_require_admissible_raises_one_error_type():
    e = ExponentSet(sigma_list=(-0.5, -4.5), sigma=0.25)
    with pytest.raises(DivergenceError) as exc:
        require_admissible(e, 4.0)
    assert isinstance(exc.value, ValueError) and isinstance(exc.value, ArithmeticError)
    assert exc.value.conditions == tuple(admissibility_violations(e, 4.0))
    assert len(exc.value.conditions) == 2
    require_admissible(ExponentSet(sigma_list=(-1.0,), sigma=-1.0), 4.0)
    assert quad.DivergenceError is DivergenceError


def test_validation_result_is_truthy_iff_ok():
    assert bool(ValidationResult(ok=True)) is True
    assert bool(ValidationResult(ok=False, violations=("x",))) is False


def test_admissibility_tokens():
    # sigma >= 0 via a large negative gamma.
    e = ExponentSet(sigma_list=(-0.5,), sigma=0.25)
    out = admissibility_violations(e, Q=4.0)
    assert len(out) == 1
    assert out[0].startswith("sigma<0 violated")

    # Q + sigma_j <= 0 in the second slot only.
    e = ExponentSet(sigma_list=(-0.5, -4.5), sigma=-1.0)
    out = admissibility_violations(e, Q=4.0)
    assert len(out) == 1
    assert out[0].startswith("Q+sigma_j>0 violated")
    assert "sigma_2" in out[0]

    assert admissibility_violations(ExponentSet(sigma_list=(-1.0,), sigma=-1.0), 4.0) == []


def test_validate_rejects_out_of_range_inputs():
    base = bilinear_example()

    bad_q = ParamSet(**{**base.__dict__, "q": 0.5})
    r = validate(bad_q)
    assert not r.ok and any("q>=1 violated" in s for s in r.violations)

    bad_lengths = ParamSet(**{**base.__dict__, "q_list": (4.0,)})
    r = validate(bad_lengths)
    assert not r.ok and any("list lengths violated" in s for s in r.violations)

    bad_lam = ParamSet(**{**base.__dict__, "lam": 0.0, "lam_list": (0.0, 0.0)})
    r = validate(bad_lam)
    assert not r.ok
    assert any("lambda in [-1/q,0) violated" in s for s in r.violations)
    assert any("lambda_j in [-1/q_j,0) violated" in s for s in r.violations)

    bad_holder = ParamSet(**{**base.__dict__, "q_list": (3.0, 4.0)})
    r = validate(bad_holder)
    assert not r.ok and any("1/q=sum(1/q_j) violated" in s for s in r.violations)

    bad_alpha = ParamSet(**{**base.__dict__, "alpha": -4.0})
    r = validate(bad_alpha)
    assert not r.ok and any("alpha>-Q violated" in s for s in r.violations)

    bad_balance = ParamSet(**{**base.__dict__, "lam_list": (-0.2, -0.2)})
    r = validate(bad_balance)
    assert not r.ok and any("lambda=sum(lambda_j) violated" in s for s in r.violations)

    bad_gamma = ParamSet(**{**base.__dict__, "gamma_list": (-3.0, -3.0)})
    r = validate(bad_gamma)
    assert not r.ok and any("sigma<0 violated" in s for s in r.violations)

    bad_gamma_j = ParamSet(**{**base.__dict__, "gamma_list": (8.0, -8.0)})
    r = validate(bad_gamma_j)
    assert not r.ok and any("Q+sigma_j>0 violated" in s for s in r.violations)


def test_strict_sharpness_adds_coupling_and_open_interval():
    base = bilinear_example()
    # Endpoint lambda_j = -1/q_j passes the default check but not strict.
    p = ParamSet(**{**base.__dict__, "lam_list": (-0.25, -0.125), "lam": -0.375,
                    "gamma_list": (0.0, 0.0)})
    r = validate(p)
    assert r.ok
    rs = validate(p, strict_sharpness=True)
    assert not rs.ok
    assert any("(-1/q_j,0) violated (strict)" in s for s in rs.violations)
    assert any("q*lambda=q_j*lambda_j violated" in s for s in rs.violations)


def test_strict_sharpness_names_the_content_weights():
    # q_j gamma_j / q = 2 gamma_j here: -5 <= -Q = -4 for both factors, and
    # the target weight sum(gamma_j) = -5 as well
    p = ParamSet(**{**bilinear_example().__dict__, "gamma_list": (-2.5, -2.5)})
    assert not any("gamma" in s for s in validate(p).violations)
    rs = validate(p, strict_sharpness=True).violations
    assert "q_j*gamma_j/q>-Q violated: q_1*gamma_1/q = -5, -Q = -4" in rs
    assert "q_j*gamma_j/q>-Q violated: q_2*gamma_2/q = -5, -Q = -4" in rs
    assert "sum(gamma_j)>-Q violated: sum(gamma_j) = -5, -Q = -4" in rs
    ok = ParamSet(**{**bilinear_example().__dict__, "gamma_list": (-1.9, 0.5)})
    assert validate(ok, strict_sharpness=True).ok


def test_random_admissible_generator_yields_valid_sets():
    # lambda_j is coupled to lambda inside (-1/q_j, 0) on every draw, so the
    # strict check may only reject the freely drawn content weights, and it
    # must name exactly those that fail
    rng = np.random.default_rng(2024)
    weight_rejects = 0
    for _ in range(25):
        p = make_admissible(rng, m=int(rng.integers(1, 4)), n=int(rng.integers(1, 3)))
        r = validate(p, strict_sharpness=True)
        expected = [
            f"q_j*gamma_j/q>-Q violated: q_{j}*gamma_{j}/q = "
            for j, (qj, gj) in enumerate(zip(p.q_list, p.gamma_list), start=1)
            if not qj * gj / p.q > -p.Q
        ]
        if not sum(p.gamma_list) > -p.Q:
            expected.append("sum(gamma_j)>-Q violated: ")
        assert len(r.violations) == len(expected), r.violations
        assert all(v.startswith(w) for v, w in zip(r.violations, expected)), r.violations
        weight_rejects += bool(expected)
        e = derive_exponents(p)
        assert e.sigma <= -0.1
        assert all(p.Q + sj >= 0.2 for sj in e.sigma_list)
    # the weight branch is reached: draw 16 (m = 3, n = 2) has q_3*gamma_3/q < -6
    assert weight_rejects >= 1
