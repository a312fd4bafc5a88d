"""Deviation-based certificates: named rules, exhaustive checks, pure maximin."""

import math

import numpy as np
import pytest

from regretlab import InputError, UndefinedResultError
from regretlab import mechanisms as mech
from regretlab import smoothness as smooth

from . import oracles

E_LIMIT = 1.0 - 1.0 / math.e
QUARTER_VALUES = mech.value_profiles([[0.5, 1.0], [0.5, 1.0]])


def fp(step=0.25, n=2):
    return mech.Mechanism(kind=mech.KIND_FIRST_PRICE, n=n, grid=mech.uniform_grid(step))


def ap(step=0.25, n=2):
    return mech.Mechanism(kind=mech.KIND_ALL_PAY, n=n, grid=mech.uniform_grid(step))


def test_poa_bound():
    assert smooth.SmoothnessParams(E_LIMIT, 1.0).poa_bound == pytest.approx(
        math.e / (math.e - 1.0), rel=1e-12
    )
    assert smooth.SmoothnessParams(0.5, 1.0).poa_bound == 2.0
    assert smooth.SmoothnessParams(0.5, 2.0).poa_bound == 4.0
    with pytest.raises(InputError):
        smooth.SmoothnessParams(0.0, 1.0)
    with pytest.raises(InputError):
        smooth.SmoothnessParams(0.5, -0.1)
    # NaN passes a plain "<= 0" test, and infinities give no bound
    for lam, mu in [(math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan), (0.5, math.inf)]:
        with pytest.raises(InputError):
            smooth.SmoothnessParams(lam, mu)


def test_distribution_validation():
    m = fp()
    bad_sum = smooth.DeviationRule(name="bad", fn=lambda i, v: np.full(5, 0.3))
    with pytest.raises(InputError):
        bad_sum.distribution(m, 0, (1.0, 1.0))
    negative = smooth.DeviationRule(
        name="neg", fn=lambda i, v: np.array([1.5, -0.5, 0.0, 0.0, 0.0])
    )
    with pytest.raises(InputError):
        negative.distribution(m, 0, (1.0, 1.0))
    short = smooth.DeviationRule(name="short", fn=lambda i, v: np.array([1.0]))
    with pytest.raises(InputError):
        short.distribution(m, 0, (1.0, 1.0))
    off_grid = smooth.DeviationRule.from_bid_function("off", m, lambda i, v: 0.3)
    with pytest.raises(InputError):
        off_grid.distribution(m, 0, (1.0, 1.0))


def test_half_rule_certifies_half_one():
    for step in (0.25, 0.1):
        m = fp(step)
        report = smooth.check_deviation_smoothness(
            m, smooth.named_deviation("half", m), smooth.SmoothnessParams(0.5, 1.0), QUARTER_VALUES
        )
        assert report.holds
        assert report.worst_slack == 0.0


def test_uniform_rule_certifies_all_pay():
    for step in (0.25, 0.1):
        m = ap(step)
        report = smooth.check_deviation_smoothness(
            m,
            smooth.named_deviation("uniform", m),
            smooth.SmoothnessParams(0.5, 1.0),
            QUARTER_VALUES,
        )
        assert report.holds, f"step {step}: {report}"


def test_overreaching_params_fail_with_witness():
    m = fp()
    rule = smooth.named_deviation("half", m)
    report = smooth.check_deviation_smoothness(
        m, rule, smooth.SmoothnessParams(0.95, 0.0), [(1.0, 0.0)]
    )
    assert not report.holds
    assert report.worst_slack == pytest.approx(-0.95, abs=1e-12)
    assert report.witness_values == (1.0, 0.0)
    # the witness adversary profile outbids the deviator of the high player
    assert report.witness_actions[1] > 0.5
    # re-evaluating the reported witness from scratch reproduces the slack
    dists = [rule.distribution(m, i, report.witness_values) for i in range(2)]
    direct = oracles.deviation_slack(m, dists, 0.95, 0.0, report.witness_values)
    assert direct == pytest.approx(report.worst_slack, abs=1e-12)


def test_single_player_zero_rule_is_fully_efficient():
    m = fp(n=1, step=0.5)
    report = smooth.check_deviation_smoothness(
        m, smooth.named_deviation("zero", m), smooth.SmoothnessParams(1.0, 0.0), [(1.0,), (0.25,)]
    )
    assert report.holds
    assert report.worst_slack == 0.0


def test_worst_slack_matches_brute_force():
    cases = [
        (fp(), "half", 0.5, 1.0),
        (fp(), "log", E_LIMIT, 1.0),
        (ap(), "uniform", 0.5, 1.0),
        (ap(), "zero", 0.4, 0.5),
    ]
    for m, name, lam, mu in cases:
        rule = smooth.named_deviation(name, m)
        report = smooth.check_deviation_smoothness(
            m, rule, smooth.SmoothnessParams(lam, mu), QUARTER_VALUES
        )
        brute = min(
            oracles.deviation_slack(
                m, [rule.distribution(m, i, v) for i in range(m.n)], lam, mu, v
            )
            for v in QUARTER_VALUES
        )
        assert report.worst_slack == pytest.approx(brute, abs=1e-12), (name, lam, mu)


def test_monotone_in_params():
    m = fp()
    rule = smooth.named_deviation("half", m)

    def holds(lam, mu):
        return smooth.check_deviation_smoothness(
            m, rule, smooth.SmoothnessParams(lam, mu), QUARTER_VALUES
        ).holds

    assert holds(0.5, 1.0)
    assert holds(0.4, 1.0)  # weaker lambda
    assert holds(0.5, 1.5)  # larger mu


def test_log_masses_on_quarter_grid():
    masses = smooth.fpa_log_deviation(1.0, (0.0, 0.25, 0.5))
    expected = np.array([math.log(4.0 / 3.0), math.log(3.0 / 2.0), 1.0 - math.log(2.0)])
    np.testing.assert_allclose(masses, expected, rtol=0, atol=1e-15)
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)
    # support never crosses (1 - 1/e) * v: on the full quarter grid the last
    # two cells stay empty
    full = smooth.fpa_log_deviation(1.0, (0.0, 0.25, 0.5, 0.75, 1.0))
    np.testing.assert_allclose(full[:3], expected, rtol=0, atol=1e-15)
    assert full[3] == 0.0 and full[4] == 0.0


def test_log_masses_zero_value():
    masses = smooth.fpa_log_deviation(0.0, (0.0, 0.25, 0.5))
    assert masses.tolist() == [1.0, 0.0, 0.0]
    with pytest.raises(InputError):
        smooth.fpa_log_deviation(-0.5, (0.0, 0.25))
    with pytest.raises(InputError):
        smooth.fpa_log_deviation(1.0, (0.25, 0.5))  # grid must start at 0


def test_named_rules():
    m = fp()
    half = smooth.named_deviation("half", m).distribution(m, 0, (0.6, 1.0))
    assert half.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]  # floor(0.3) -> 0.25
    uni = smooth.named_deviation("uniform", m).distribution(m, 1, (0.6, 0.5))
    assert uni.tolist() == [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.0, 0.0]
    zero = smooth.named_deviation("zero", m).distribution(m, 0, (1.0, 1.0))
    assert zero[0] == 1.0
    with pytest.raises(InputError):
        smooth.named_deviation("mystery", m)


def test_best_pure_lambda_first_price():
    m = fp()
    lam = smooth.best_pure_deviation(m, 1.0, QUARTER_VALUES)[0]
    assert lam == pytest.approx(0.5, abs=1e-12)
    assert lam == pytest.approx(
        oracles.pure_maximin_lambda(m, 1.0, QUARTER_VALUES), abs=1e-12
    )
    assert lam >= 0.5 - 1e-12  # the documented floor: bid-half already gives 1/2


def test_best_pure_lambda_all_pay():
    # pure deviations are weak here: the adversary can always sit one grid
    # step above the deviator and recycle the loss through the revenue term,
    # capping the maximin ratio at the grid step. The randomized uniform rule
    # is the one that reaches 1/2 (covered above).
    m = ap()
    lam = smooth.best_pure_deviation(m, 1.0, QUARTER_VALUES)[0]
    assert lam == pytest.approx(0.25, abs=1e-12)
    assert lam == pytest.approx(
        oracles.pure_maximin_lambda(m, 1.0, QUARTER_VALUES), abs=1e-12
    )


def test_best_pure_lambda_single_player():
    m = fp(n=1, step=0.25)
    assert smooth.best_pure_deviation(m, 0.0, [(1.0,), (0.5,)])[0] == 1.0


def test_best_pure_lambda_monotone_in_mu():
    m = fp()
    lams = [smooth.best_pure_deviation(m, mu, QUARTER_VALUES)[0] for mu in (0.0, 0.5, 1.0)]
    assert lams == sorted(lams)


def test_best_pure_rule_round_trips_through_checker():
    m = fp()
    lam, rule = smooth.best_pure_deviation(m, 1.0, QUARTER_VALUES)
    report = smooth.check_deviation_smoothness(
        m, rule, smooth.SmoothnessParams(lam - 1e-9, 1.0), QUARTER_VALUES
    )
    assert report.holds
    with pytest.raises(InputError):
        rule.distribution(m, 0, (0.75, 0.75))  # profile outside the searched space


def test_best_pure_lambda_undefined_on_zero_values():
    m = fp()
    with pytest.raises(UndefinedResultError):
        smooth.best_pure_deviation(m, 1.0, [(0.0, 0.0)])


def log_report(step):
    m = fp(step=step)
    return smooth.check_deviation_smoothness(
        m, smooth.named_deviation("log", m), smooth.SmoothnessParams(E_LIMIT, 1.0),
        QUARTER_VALUES,
    )


def test_log_certificate_degradation_halves_with_the_grid():
    coarse = log_report(0.1)
    fine = log_report(0.05)
    assert coarse.level == pytest.approx(0.533483707250338, abs=1e-12)
    assert E_LIMIT - coarse.level == pytest.approx(0.09863685157821966, abs=1e-12)
    assert coarse.witness_values == (0.5, 1.0)
    assert fine.level == pytest.approx(0.583483707250338, abs=1e-12)
    assert E_LIMIT - fine.level <= (E_LIMIT - coarse.level) / 2.0 + 1e-12
    # the certificate it reports indeed holds, exhaustively
    m = fp(step=0.1)
    report = smooth.check_deviation_smoothness(
        m,
        smooth.named_deviation("log", m),
        smooth.SmoothnessParams(coarse.level - 1e-9, 1.0),
        QUARTER_VALUES,
    )
    assert report.holds


def two_unit(step=0.25):
    return mech.Mechanism(
        kind=mech.KIND_MULTI_UNIT, n=2, grid=mech.uniform_grid(step),
        units=2,
    )


@pytest.mark.parametrize("make", [fp, ap, two_unit], ids=["fp", "ap", "mu"])
@pytest.mark.parametrize("name", ["half", "uniform", "log", "zero"])
def test_level_matches_brute_force(make, name):
    m = make()
    rule = smooth.named_deviation(name, m)
    params = smooth.SmoothnessParams(0.5, 1.0)
    report = smooth.check_deviation_smoothness(m, rule, params, QUARTER_VALUES)
    brute = min(
        oracles.deviation_slack(m, [rule.distribution(m, i, v) for i in range(m.n)],
                                0.0, params.mu, v)
        / oracles.opt_welfare(m.kind, v, m.units)
        for v in QUARTER_VALUES
    )
    assert report.level == pytest.approx(brute, abs=1e-12)
    # with every optimum 0 no level is certified
    zero = smooth.check_deviation_smoothness(m, rule, params, [(0.0, 0.0)])
    assert zero.level is None
