import dataclasses

import numpy as np
import pytest

from esgan import models
from esgan.models import (
    Bh2sParams,
    BhParams,
    Term,
    XxzParams,
    build_bh,
    build_bh2s,
    build_model,
    build_xxz,
    expanded_terms,
    initial_product_configuration,
    operator_matrix,
)
from esgan.solver import dmrg, ed
from esgan.solver.dmrg import build_mpo
from esgan.solver.ed import build_sector_hamiltonian

LABELS = {
    "xxz": ("Sp", "Sm", "Sz"),
    "bh": ("b", "bdag", "n", "nn1"),
    "bh2s": tuple(f"{op}_{s}" for op in ("b", "bdag", "n", "nn1") for s in "ab") + ("n_a.n_b",),
}


def reference_operator(spec, label):
    """<out|op|in> entry by entry from the operator's definition, in the
    local basis operator_matrix documents."""
    if spec.model_id == "xxz":
        return {
            "Sp": np.array([[0.0, 0.0], [1.0, 0.0]]),
            "Sm": np.array([[0.0, 1.0], [0.0, 0.0]]),
            "Sz": np.array([[-0.5, 0.0], [0.0, 0.5]]),
        }[label]
    dim = spec.params.n_max + 1

    def boson(op, n_out, n_in):
        return {
            "b": np.sqrt(n_in) if n_out == n_in - 1 else 0.0,
            "bdag": np.sqrt(n_out) if n_out == n_in + 1 else 0.0,
            "n": float(n_in) if n_out == n_in else 0.0,
            "nn1": float(n_in * (n_in - 1)) if n_out == n_in else 0.0,
        }[op]

    if spec.model_id == "bh":
        return np.array([[boson(label, o, i) for i in range(dim)] for o in range(dim)])
    # two species: index n_a * dim + n_b
    states = [(n_a, n_b) for n_a in range(dim) for n_b in range(dim)]

    def entry(out, inn):
        if label == "n_a.n_b":
            return float(inn[0] * inn[1]) if out == inn else 0.0
        op, species = label.rsplit("_", 1)
        k = "ab".index(species)
        return boson(op, out[k], inn[k]) if out[1 - k] == inn[1 - k] else 0.0

    return np.array([[entry(o, i) for i in states] for o in states])


def label_by_label_terms(spec):
    """expanded_terms building every term's matrices on its own."""
    out = []
    for term in spec.terms:
        mats = tuple(reference_operator(spec, op) for op in term.ops)
        out.append((term.sites, mats, term.coeff))
        if term.add_hc:
            out.append((term.sites, tuple(m.T.copy() for m in mats), term.coeff))
    return out


def dense_hamiltonian(spec):
    """Assemble the full 2^... dense Hamiltonian by kron products (tiny L only)."""
    dim = spec.local_dim**spec.L
    H = np.zeros((dim, dim))
    eye = np.eye(spec.local_dim)
    for sites, mats, coeff in expanded_terms(spec):
        factors = [eye] * spec.L
        for s, m in zip(sites, mats):
            factors[s] = m
        acc = factors[0]
        for f in factors[1:]:
            acc = np.kron(acc, f)
        H += coeff * acc
    return H


def total_charge_operator(spec, which):
    dim = spec.local_dim**spec.L
    eye = np.eye(spec.local_dim)
    q_site = np.diag(np.array(spec.charge_values[which], dtype=float))
    Q = np.zeros((dim, dim))
    for s in range(spec.L):
        factors = [eye] * spec.L
        factors[s] = q_site
        acc = factors[0]
        for f in factors[1:]:
            acc = np.kron(acc, f)
        Q += acc
    return Q


def test_xxz_term_count_and_structure():
    spec = build_xxz(2, XxzParams(j=1.0, delta=-0.5))
    # one stored hopping pair plus one Ising term per bond
    assert len(spec.terms) == 2
    assert spec.terms[0].add_hc and not spec.terms[1].add_hc
    spec10 = build_xxz(10)
    assert len(spec10.terms) == 2 * 9
    assert spec10.target_sector == (5,)


def test_bh2s_term_count():
    spec = build_bh2s(2, Bh2sParams(u_ab=-0.2))
    # 2 hoppings on the single bond + 3 on-site terms per site
    assert len(spec.terms) == 2 + 6


def test_invalid_sizes_raise():
    with pytest.raises(ValueError):
        build_xxz(1)
    with pytest.raises(ValueError):
        build_bh2s(5)
    with pytest.raises(ValueError):
        build_bh(4, BhParams(n_max=1))
    with pytest.raises(ValueError):
        build_xxz(4, XxzParams(j=-1.0))


def test_xxz_two_site_eigenvalues():
    # Singlet-sector eigenvalues of the L=2 chain are j*delta/4 -+ j/2.
    for delta in (-1.0, -0.5, 0.0, 0.7):
        spec = build_xxz(2, XxzParams(j=1.0, delta=delta))
        H = dense_hamiltonian(spec)
        evals = np.linalg.eigvalsh(H)
        expected = np.sort(
            [delta / 4 - 0.5, delta / 4 + 0.5, -delta / 4, -delta / 4]
        )
        np.testing.assert_allclose(np.sort(evals), expected, atol=1e-14)


def test_bh_two_site_free_limit():
    # U = 0, two bosons on two sites: ground energy -2J.
    spec = build_bh(2, BhParams(j=1.0, u=0.0, n_max=2))
    H = dense_hamiltonian(spec)
    Q = total_charge_operator(spec, 0)
    # restrict to the N = 2 sector
    sel = np.isclose(np.diag(Q), 2.0)
    Hs = H[np.ix_(sel, sel)]
    evals = np.linalg.eigvalsh(Hs)
    np.testing.assert_allclose(evals, [-2.0, 0.0, 2.0], atol=1e-14)


def test_hermiticity_and_charge_commutation():
    cases = [
        build_xxz(3, XxzParams(delta=-0.8)),
        build_bh(3, BhParams(u=3.0, n_max=2)),
        build_bh2s(2, Bh2sParams(u_ab=-0.3)),
    ]
    for spec in cases:
        H = dense_hamiltonian(spec)
        np.testing.assert_allclose(H, H.T, atol=1e-13)
        for which in range(spec.n_charges):
            Q = total_charge_operator(spec, which)
            comm = H @ Q - Q @ H
            np.testing.assert_allclose(comm, 0.0, atol=1e-12)


def test_boson_operator_algebra():
    spec = build_bh(2, BhParams(n_max=4))
    b = operator_matrix(spec, "b")
    bdag = operator_matrix(spec, "bdag")
    n = operator_matrix(spec, "n")
    np.testing.assert_allclose(bdag @ b, n, atol=1e-14)
    # canonical commutator holds below the cutoff row
    comm = b @ bdag - bdag @ b
    np.testing.assert_allclose(np.diag(comm)[:-1], 1.0, atol=1e-14)


def test_initial_configurations_hit_target_sector():
    for spec in (
        build_xxz(9),
        build_xxz(10),
        build_bh(5, BhParams(n_max=3)),
        build_bh2s(6),
    ):
        occ = initial_product_configuration(spec)
        charges = spec.site_charge_array()
        total = charges[occ].sum(axis=0)
        assert tuple(int(t) for t in total) == spec.target_sector


def test_bh2s_charge_labels():
    spec = build_bh2s(2, Bh2sParams(n_max=2))
    charges = spec.site_charge_array()
    # index = n_a * 3 + n_b
    assert charges.shape == (9, 2)
    assert tuple(charges[5]) == (1, 2)
    assert tuple(charges[8]) == (2, 2)
    n_ab = operator_matrix(spec, "n_a.n_b")
    np.testing.assert_allclose(np.diag(n_ab), charges[:, 0] * charges[:, 1])


@pytest.mark.parametrize("model_id, n_max", [("xxz", None), ("bh", 2), ("bh", 4), ("bh2s", 2), ("bh2s", 3)])
def test_operator_matrix_equals_entrywise_reference(model_id, n_max):
    spec = build_model(model_id, 2, 0.5, n_max)
    for label in LABELS[model_id]:
        M, ref = operator_matrix(spec, label), reference_operator(spec, label)
        assert M.dtype == ref.dtype and M.shape == ref.shape == (spec.local_dim,) * 2
        assert M.tobytes() == ref.tobytes(), label


@pytest.mark.parametrize("model_id, label", [("xxz", "Sx"), ("bh", "b_a"), ("bh2s", "b"), ("bh2s", "n_c")])
def test_unknown_operator_label_names_label_and_model(model_id, label):
    spec = build_model(model_id, 2, 0.5)
    message = f"unknown operator {label!r} for model {model_id!r}"
    with pytest.raises(KeyError, match=message):
        operator_matrix(spec, label)
    bad = dataclasses.replace(spec, terms=spec.terms + (Term((0,), (label,), 1.0),))
    with pytest.raises(KeyError, match=message):
        expanded_terms(bad)


def test_expanded_terms_builds_one_operator_table(monkeypatch):
    calls = {"table": 0, "operator_matrix": 0}
    table, single = models._operator_table, models.operator_matrix

    def counting_table(spec):
        calls["table"] += 1
        return table(spec)

    def counting_single(spec, label):
        calls["operator_matrix"] += 1
        return single(spec, label)

    monkeypatch.setattr(models, "_operator_table", counting_table)
    monkeypatch.setattr(models, "operator_matrix", counting_single)
    spec = build_xxz(8, XxzParams(delta=-0.5))
    terms = expanded_terms(spec)
    assert calls == {"table": 1, "operator_matrix": 0}
    # Sp, Sm, Sz and the transposes of the two hopping factors
    assert len(terms) == 21
    assert len({id(m) for _, mats, _ in terms for m in mats}) == 5


@pytest.mark.parametrize(
    "model_id, L, control, n_max",
    [("xxz", 6, 0.0, None), ("xxz", 6, -0.5, None), ("bh", 5, 3.3, 2), ("bh", 4, 2.0, 4),
     ("bh2s", 4, -0.2, 2)],
)
def test_mpo_and_ed_equal_label_by_label_reference(monkeypatch, model_id, L, control, n_max):
    spec = build_model(model_id, L, control, n_max)
    terms = expanded_terms(spec)
    before = [m.copy() for _, mats, _ in terms for m in mats]
    monkeypatch.setattr(dmrg, "expanded_terms", lambda s: terms)
    monkeypatch.setattr(ed, "expanded_terms", lambda s: terms)
    mpo, channels = build_mpo(spec)
    H = build_sector_hamiltonian(spec)
    # terms share their matrices, so neither consumer may write into one
    after = [m for _, mats, _ in terms for m in mats]
    assert [m.tobytes() for m in after] == [m.tobytes() for m in before]
    monkeypatch.setattr(dmrg, "expanded_terms", label_by_label_terms)
    monkeypatch.setattr(ed, "expanded_terms", label_by_label_terms)
    ref_mpo, ref_channels = build_mpo(spec)
    ref_H = build_sector_hamiltonian(spec)
    assert [(W.shape, W.tobytes()) for W in mpo] == [(W.shape, W.tobytes()) for W in ref_mpo]
    flat = [(a.shape, a.tobytes()) for ch in channels for a in ch]
    assert flat == [(a.shape, a.tobytes()) for ch in ref_channels for a in ch]
    for part in ("data", "indices", "indptr"):
        assert getattr(H, part).tobytes() == getattr(ref_H, part).tobytes()
