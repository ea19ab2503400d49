"""The dense references: one size cap, and no code shared with the bounds.

Each routine that forms an N x N matrix refuses more points than
bounds_vi.DENSE_CAP before it does; and with the chunked pass and
LowRankGaussian's Woodbury sums broken, every oracle still returns its
value and the optimality claim still holds.
"""

import numpy as np
import pytest

from blockgp import bounds_vi
from blockgp.bounds_pep import PepConfig, pep_collapsed, tpep_collapsed
from blockgp.bounds_vi import btsgpr_collapsed, btsgpr_optimal_scales, exact_lml
from blockgp.linalg import LowRankGaussian
from blockgp.model import make_partition
from blockgp.oracles import (
    btsgpr_parametric,
    general_c_optimum,
    general_c_oracle,
    general_pep_oracle,
    pep_iterate,
    verify_site_fixed_point,
)
from blockgp.verify import ITERATE_RTOL, OPTIMALITY_TOL, spread_instance


def _eyes(part):
    return [np.eye(ix.size) for ix in part.blocks]


DENSE = {
    "exact_lml": lambda x, y, state, part: exact_lml(x, y, state),
    "general_c_oracle": lambda x, y, state, part: general_c_oracle(
        x, y, state, np.eye(y.shape[0])),
    "general_c_optimum": lambda x, y, state, part: general_c_optimum(x, y, state),
    "btsgpr_parametric": lambda x, y, state, part: btsgpr_parametric(
        x, y, state, part, _eyes(part)),
    "general_pep_oracle": lambda x, y, state, part: general_pep_oracle(
        x, y, state, 0.5, part, _eyes(part)),
    # one block of all N points is an N x N eigendecomposition
    "verify_site_fixed_point": lambda x, y, state, part: verify_site_fixed_point(
        x, y, state, PepConfig(alpha=0.5, partition=part)),
    "pep_iterate": lambda x, y, state, part: pep_iterate(
        x, y, state, PepConfig(alpha=0.5, partition=part)),
}


@pytest.mark.parametrize("name", list(DENSE))
def test_each_dense_routine_refuses_past_the_cap_and_runs_at_it(monkeypatch, name):
    x, y, state = spread_instance(np.random.default_rng(0))
    n = y.shape[0]
    part = make_partition(n, 1)
    monkeypatch.setattr(bounds_vi, "DENSE_CAP", n - 1)
    with pytest.raises(ValueError, match=f"^{name} is dense; refusing N={n} > {n - 1}$"):
        DENSE[name](x, y, state, part)
    monkeypatch.setattr(bounds_vi, "DENSE_CAP", n)
    DENSE[name](x, y, state, part)


def test_the_oracles_run_with_the_pass_and_the_woodbury_fit_broken(monkeypatch):
    x, y, state = spread_instance(np.random.default_rng(1))
    n = y.shape[0]
    whole, part = make_partition(n, 1), make_partition(n, 3, seed=2)
    cfg = PepConfig(alpha=0.5, partition=part, m_scale=1.3)
    # the bounds the oracles are checked against, before the pass breaks
    one_block = btsgpr_collapsed(x, y, state, whole).total
    blocks = btsgpr_collapsed(x, y, state, part).total
    scales = btsgpr_optimal_scales(x, y, state, part)
    pep = pep_collapsed(x, y, state, PepConfig(alpha=0.5, partition=part)).total
    tpep = tpep_collapsed(x, y, state, cfg).total

    def broken(*args, **kwargs):
        raise AssertionError("a dense oracle ran the code it checks")

    monkeypatch.setattr(bounds_vi, "_fit", broken)
    monkeypatch.setattr(bounds_vi, "_estimate", broken)
    monkeypatch.setattr(LowRankGaussian, "add", broken)
    monkeypatch.setattr(LowRankGaussian, "logpdf", broken)

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b))

    c_star = general_c_optimum(x, y, state)
    assert rel(general_c_oracle(x, y, state, c_star).total, one_block) <= OPTIMALITY_TOL
    assert rel(btsgpr_parametric(x, y, state, part, scales).total, blocks) <= OPTIMALITY_TOL
    assert rel(general_pep_oracle(x, y, state, 0.5, part, _eyes(part)).total, pep) <= 1e-9
    assert rel(pep_iterate(x, y, state, cfg).energy, tpep) <= ITERATE_RTOL
    assert verify_site_fixed_point(x, y, state, cfg).max_rel_deviation <= 1e-7
