"""Golden models: the assembled arrays and the exported LP/MPS bytes of the
case-study models are pinned by sha256.

The digests were recorded from the row-by-row assembly that the sparse link
templates replaced; equal digests mean the same coefficients, bounds and row
order bit for bit, so branch and bound takes the same decisions.
"""

import hashlib

import numpy as np
import pytest

from corridorflow import controller as ctl
from corridorflow import linkmodel, solver, twostage
from corridorflow.twostage import HorizonState, ModelOptions

from test_acceptance import _states_for_certification

STATES = ("zeros", "congested", "mixed")

GOLDEN = {
    "congested/d-mean": {
        "arrays": "2e67aa42c2fae11b9e19acdb047a98c4ff2c65e13c63a8018d76d5431759ca72",
        "lp": "482b400fc2899e76764017c56099dfb43dec056ac88439b393b8b41162cad147",
        "mps": "c07f40c4c31e0c6923e3442951830500f2a70a7d3bdc142aee0b6f6d0f5da85d",
    },
    "congested/two-stage": {
        "arrays": "ef76a0ff710fb9da48ca08a8def2b6a1db8ee64e4b53bcd605426fd69ddc8583",
        "lp": "b27692cacff4bdd5c182e9d0462920f87f14beca9e1ee0bbaadae7512de9f613",
        "mps": "ad67e635ce57f74e2df24c463dc4839df778779ddf6f4e2a976058e1b04b3612",
    },
    "mixed/d-mean": {
        "arrays": "847ee4f5554bcd1b9c8414cd0581e9f3a23913c4ccb6acf327c75dbe66a42439",
        "lp": "c6c409b42732bd063bc52dd2369168cd325eb01991f2e6a52b9fdea021efd6fb",
        "mps": "840e6d8821af6876a92d6f551c0be35ecc2dfd12ea11f39c9665ef73cc7d10a5",
    },
    "mixed/two-stage": {
        "arrays": "3f9639c5a4028a27d8468b0dd732b006f10d1cfd599d380e0e0acd5e5586b47d",
        "lp": "0df4bf46561b028f3a50e5946c38e2c02573ddf19cdbfe0c53faedc49a5ad19e",
        "mps": "1861d43694f47dd6215b9e46798b7d9c1b2d362b471b7fd3e128c4a6eff763e0",
    },
    "mixed/update": {
        "arrays": "bb1252f52256fc7ef90e5f8a0a64ea88f8eb0a604af9b5c6bf19eca78d8b69ba",
        "lp": "c3050703571e7dd4d2090c4163e35ae5d97cf8e7538505e00da1a22143331576",
        "mps": "6e296a8fe560586494fb349498a762915fba8233672a204f717dc2796a8d06ac",
    },
    "zeros/d-mean": {
        "arrays": "634bcc25a2374585bd3b935e1aee9a84b11c0b2a181fe4fa873a733ae7a72ceb",
        "lp": "81d79074dd6d3830cb02b08603248bc86f4266508cfe24ab979a7a1ecdf5b568",
        "mps": "cc7f319aa8fa571d9016810682845d336735dcce3db43e3de5bd8d5912f175ca",
    },
    "zeros/two-stage": {
        "arrays": "f3975de326b1587d6895180979406574331dfa3c675325fa701b2c26bfac5974",
        "lp": "651a0e2e60895a63ffdc6ed3f145436cd703a80a58f1406f44875130ae408397",
        "mps": "b7ef1b721340471fd4ed1a67f17b6c22fad158abaa286959f00892cc1a2098a3",
    },
}


def _array_digest(arrays) -> str:
    h = hashlib.sha256()
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def model_digests(lp, tmp_path) -> dict:
    c, A_ub, b_ub, A_eq, b_eq, lb, ub = lp.to_arrays()
    out = {"arrays": _array_digest([
        ("c", c), ("lb", lb), ("ub", ub), ("b_ub", b_ub), ("b_eq", b_eq),
        ("A_ub.data", A_ub.data), ("A_ub.indices", A_ub.indices),
        ("A_ub.indptr", A_ub.indptr), ("A_eq.data", A_eq.data),
        ("A_eq.indices", A_eq.indices), ("A_eq.indptr", A_eq.indptr),
    ])}
    for fmt in ("lp", "mps"):
        path = tmp_path / f"model.{fmt}"
        solver.export_model(lp, path, fmt=fmt)
        out[fmt] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def golden_models(config):
    """(name, bundle) for every pinned model."""
    dist = config.distribution()
    weights = config.weights()
    for label, (corridor, state) in zip(STATES, _states_for_certification(config)):
        yield f"{label}/two-stage", twostage.build_deterministic_equivalent(
            corridor, state, dist, weights)
        yield f"{label}/d-mean", twostage.build_deterministic_baseline(
            corridor, state, dist.mean(), weights)
    # mid-horizon re-solve: committed control caps and a skipped fluctuation pair
    corridor, state = list(_states_for_certification(config))[2]
    cfg = config.horizon()
    n1, n2 = cfg.n_project, cfg.n_rolling
    update = HorizonState(state.densities, state.queues, n1, cfg.T, n2 * cfg.T)
    vec = ctl.observed_demand_vector(2.0, dist, cfg, tail_level=dist.mean())
    opts = ModelOptions(
        fluct_pairs=[(t, t + 1) for t in range(1, n1) if t != n1 - n2],
        committed_controls={"E": np.array([1.8, 0.9, 2.1, 1.35])},
    )
    yield "mixed/update", twostage.build_deterministic_baseline(
        corridor, update, vec, weights, opts)


@pytest.fixture(scope="module")
def models(config):
    return list(golden_models(config))


def test_every_model_is_pinned(models):
    assert sorted(name for name, _ in models) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_model_matches_golden_digests(name, models, tmp_path):
    bundle = dict(models)[name]
    assert model_digests(bundle.lp, tmp_path) == GOLDEN[name]


def test_new_densities_build_no_new_template(config):
    corridor = config.corridor()
    dist, weights = config.distribution(), config.weights()

    def build(value):
        dens = {l.id: np.full(l.geometry.k_max, value) for l in corridor.fd_links}
        queues = {l.id: 0.0 for l in corridor.entry_links}
        state = HorizonState(dens, queues, config.n_project, config.T)
        return twostage.build_deterministic_equivalent(corridor, state, dist, weights)

    build(0.03)
    before = (linkmodel.compat_template.cache_info(), linkmodel.block_template.cache_info())
    build(0.17)
    after = (linkmodel.compat_template.cache_info(), linkmodel.block_template.cache_info())
    assert [i.misses for i in after] == [i.misses for i in before]
    assert [i.currsize for i in after] == [i.currsize for i in before]
