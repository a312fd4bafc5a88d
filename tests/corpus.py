"""Tiny ground-truth instances shared by the exact-module tests and the
acceptance gate.

Every instance stays within 2 populations, 2 types per population, and 3
bids on the grid, so the agent game, the LP, and the brute-force references
in oracles.py all run in well under a second. Certificates use mu = 1 with
the best pure deviation found by enumeration, which holds by construction
and therefore must survive the agent-game lift on every instance.
"""

from regretlab import mechanisms as mech
from regretlab import smoothness as smooth
from regretlab.records import record


@record(frozen=True)
class Instance:
    name: str
    mechanism: mech.Mechanism
    populations: tuple[tuple[float, ...], ...]

    def value_space(self):
        return mech.value_profiles(self.populations)

    def certificate(self):
        """(params, rule) for mu = 1, supported by pure-deviation search."""
        lam, rule = smooth.best_pure_deviation(self.mechanism, 1.0, self.value_space())
        return smooth.SmoothnessParams(lam, 1.0), rule


def _mk(name, kind, grid, pops, units=1):
    m = mech.Mechanism(kind=kind, n=len(pops), grid=grid, units=units)
    return Instance(name=name, mechanism=m, populations=tuple(tuple(p) for p in pops))


G2 = (0.0, 0.5)
G3 = (0.0, 0.5, 1.0)

TINY_CORPUS = [
    _mk("fp_1pop_2types_dom", mech.KIND_FIRST_PRICE, G2, [(1.0, 0.5)]),
    _mk("fp_2x1_symmetric", mech.KIND_FIRST_PRICE, G2, [(1.0,), (1.0,)]),
    _mk("fp_2x2_coarse", mech.KIND_FIRST_PRICE, G2, [(0.5, 1.0), (0.5, 1.0)]),
    _mk("fp_2x2_fine", mech.KIND_FIRST_PRICE, G3, [(0.5, 1.0), (0.5, 1.0)]),
    _mk("fp_asym", mech.KIND_FIRST_PRICE, (0.0, 0.25, 0.75), [(0.25, 1.0), (0.75,)]),
    _mk("ap_1pop_2types", mech.KIND_ALL_PAY, G2, [(1.0, 0.5)]),
    _mk("ap_2x1", mech.KIND_ALL_PAY, G2, [(1.0,), (0.5,)]),
    _mk("ap_2x2_coarse", mech.KIND_ALL_PAY, G2, [(0.5, 1.0), (0.5, 1.0)]),
    _mk("ap_2x2_fine", mech.KIND_ALL_PAY, G3, [(0.5, 1.0), (0.5, 1.0)]),
    _mk("mu_2x1_k1", mech.KIND_MULTI_UNIT, G2, [(1.0,), (0.75,)], units=1),
    _mk("mu_2x2_k2", mech.KIND_MULTI_UNIT, (0.0, 0.25, 0.5), [(0.5, 0.25), (0.5, 0.25)],
        units=2),
    _mk("fp_1pop_1type", mech.KIND_FIRST_PRICE, G3, [(1.0,)]),
]
