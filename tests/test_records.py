"""Value semantics of the package's records, which caching, validation and
``--workers`` lean on."""

import json
import pickle

import numpy as np
import pytest

from regretlab import InputError, cli, learners, simulator
from regretlab import mechanisms as mech
from regretlab.records import replace
from regretlab.smoothness import SmoothnessParams


def test_equal_mechanisms_share_one_cache_entry():
    # a grid no other test uses, so the first lookup is a miss
    def build():
        return mech.Mechanism(kind=mech.KIND_ALL_PAY, n=2, grid=(0.0, 0.3, 0.7))

    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    before = mech.utility_table.cache_info()
    table = mech.utility_table(a, 0, 0.7)
    assert mech.utility_table(b, 0, 0.7) is table
    after = mech.utility_table.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses + 1)


def test_frozen_records_refuse_assignment():
    params = SmoothnessParams(0.5, 1.0)
    with pytest.raises(AttributeError):
        params.lam = 2.0
    with pytest.raises(AttributeError):
        del params.mu
    pop = mech.Population((0.5, 1.0))
    with pytest.raises(AttributeError):
        pop.values = (1.0,)
    assert params == SmoothnessParams(lam=0.5, mu=1.0) and params.poa_bound == 2.0


def test_replace_validates_like_construction():
    params = SmoothnessParams(lam=0.5, mu=1.0)
    with pytest.raises(InputError):
        replace(params, lam=-1)
    assert replace(params, mu=2.0) == SmoothnessParams(0.5, 2.0)
    assert params.mu == 1.0
    with pytest.raises(TypeError):
        replace(params, nu=1.0)
    m = mech.Mechanism.from_descriptor({"kind": "first-price", "n": 2, "k": 1, "grid_step": 0.5,
                                        "H": 1.0, "tie_break": "lowest-index"})
    cfg = simulator.SimConfig(m, ((0.5, 1),) * 2, 10, 1)
    # populations are normalized on construction and again on replace
    assert cfg.populations == (mech.Population((0.5, 1.0)),) * 2
    assert replace(cfg, populations=((1, 0.5),) * 2).populations[0].values == (1.0, 0.5)
    assert replace(cfg, seed=3) == simulator.SimConfig(m, cfg.populations, 10, 3, "full", None)
    assert repr(SmoothnessParams(0.5, 1.0)) == "SmoothnessParams(lam=0.5, mu=1.0)"


def test_mutable_records_compare_by_value_and_are_unhashable():
    led = learners.RegretLedger(np.zeros((1, 3)), np.zeros(1), np.zeros(1, dtype=np.int64))
    led.realized = np.array([1.5])
    assert repr(led) == ("RegretLedger(counterfactual=array([[0., 0., 0.]]), "
                         "realized=array([1.5]), selected_rounds=array([0]))")
    with pytest.raises(TypeError):
        hash(led)
    with pytest.raises(TypeError):
        learners.RegretLedger()
    with pytest.raises(TypeError):
        learners.RegretLedger(np.zeros(3), counterfactual=np.zeros(3), realized=0.0,
                              selected_rounds=0)
    assert (learners.RegretLedger((1.0,), 2.0, 1)
            == learners.RegretLedger((1.0,), realized=2.0, selected_rounds=1))


def test_experiment_config_survives_a_pickle_round_trip(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "mechanism": {"kind": "first-price", "n": 2, "k": 1, "grid_step": 0.1, "H": 1.0,
                      "tie_break": "lowest-index"},
        "populations": [[0.5, 1.0], [0.5, 1.0]], "horizon": 100, "seeds": [2, 4],
        "analysis": {"checkpoints": [10, 50]},
    }))
    cfg = cli.load_config(path)
    back = pickle.loads(pickle.dumps(cfg))
    assert back == cfg and back is not cfg and hash(back) == hash(cfg)
    assert back.settings.checkpoints == (10, 50)
