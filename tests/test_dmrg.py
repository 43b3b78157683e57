"""Two-site DMRG against exact diagonalization and free-fermion results."""

import dataclasses

import numpy as np
import pytest

from esgan.models import ConfigError, Term, build_model
from esgan.solver import (
    ConvergenceWarning,
    DmrgConfig,
    dmrg_ground_state,
    ed_ground_state,
    expectation_value,
    lowest_eigenpair,
    schmidt_decompose,
)
from esgan.solver.mps import (
    ChargeBlocks,
    _split_site_right,
    _walk_right,
    allowed_mask_site,
    charge_keys,
    check_charge_consistency,
    copy_mps,
    entropy_profile,
    mps_norm,
    schmidt_values,
    to_dense,
)
from esgan.solver import dmrg
from esgan.solver.dmrg import (
    TwoSiteBlocks,
    TwoSiteHeff,
    _contract_left,
    _contract_right,
    build_mpo,
    N_DENSE,
    local_ground_state,
)

from oracles import (
    allowed_mask_two_site,
    apply_h_eff_dense,
    mpo_channels,
    mpo_charges,
    xx_entropy_profile,
    xx_ground_energy,
)


def run(spec, **kw):
    cfg = DmrgConfig(**kw)
    return dmrg_ground_state(spec, cfg)


def assert_center_at_site_0(psi):
    # sites 1..L-1 are right isometries, so site 0 holds the whole norm
    assert psi.canonical_center == 0
    for T in psi.site_tensors[1:]:
        B = T.reshape(T.shape[0], -1)
        assert np.allclose(B @ B.T, np.eye(B.shape[0]), atol=1e-12)


def right_chain(psi):
    """(center tensor, its left bond's charges, that bond's singular values)
    at sites 1..L-1, with the center carried from site 0 by _split_site_right
    and np.tensordot"""
    qsite = psi.spec.site_charge_array()
    T, q = psi.site_tensors[0], psi.bond_charges[0]
    out = []
    for i in range(1, psi.L):
        _, carry, q, s = _split_site_right(T, q, qsite, psi.bond_charges[i])
        T = np.tensordot(carry, psi.site_tensors[i], axes=([1], [0]))
        out.append((T, q, s))
    return out


def test_xxz_small_chain_matches_ed():
    spec = build_model("xxz", L=10, control=-0.5)
    e_ed, _ = ed_ground_state(spec)
    psi = run(spec, chi_max=64, seed=3)
    assert psi.converged
    assert abs(psi.energy - e_ed) < 1e-9
    assert abs(mps_norm(psi) - 1.0) < 1e-10


@pytest.mark.parametrize("max_sweeps, warmup_sweeps", [(3, 2), (2, 1), (1, 0)])
def test_config_rejects_too_few_sweeps_to_converge(max_sweeps, warmup_sweeps):
    # one full-size sweep after the warm-up is enough; none is not
    DmrgConfig(max_sweeps=max_sweeps, warmup_sweeps=warmup_sweeps)
    with pytest.raises(ConfigError, match="can never converge"):
        DmrgConfig(max_sweeps=max_sweeps - 1, warmup_sweeps=warmup_sweeps)


def test_cold_run_converges_in_its_first_full_size_sweep():
    spec = build_model("xxz", L=8, control=-0.5)
    psi = run(spec, max_sweeps=3, warmup_sweeps=2, seed=1)
    assert psi.converged and psi.stats["sweeps"] == 3
    assert abs(psi.energy - ed_ground_state(spec)[0]) < 1e-9


def test_two_site_chain_exact():
    spec = build_model("xxz", L=2, control=0.3)
    e_ed, state = ed_ground_state(spec)
    psi = run(spec, chi_max=8, seed=0, warmup_sweeps=1)
    assert abs(psi.energy - e_ed) < 1e-12
    # same state up to sign, embedded in the full Hilbert space
    dense = to_dense(psi)
    full = np.zeros(4)
    # basis rows are occupation configs; map to kron ordering (site0 fastest last)
    for amp, occ in zip(state.amplitudes, state.basis):
        full[occ[0] * 2 + occ[1]] = amp
    overlap = abs(np.dot(dense, full))
    assert abs(overlap - 1.0) < 1e-12


def test_free_point_long_chain_energy():
    # exactly solvable line of the spin chain: energy from single-particle modes
    L = 32
    spec = build_model("xxz", L=L, control=0.0)
    psi = run(spec, chi_max=128, svd_cutoff=1e-12, energy_tol=1e-10, seed=1)
    exact = xx_ground_energy(L, j=1.0, n_particles=L // 2)
    assert psi.converged
    assert abs(psi.energy - exact) < 1e-8


def test_entropy_profile_free_point():
    L = 20
    spec = build_model("xxz", L=L, control=0.0)
    psi = run(spec, chi_max=64, seed=5)
    prof = entropy_profile(psi)
    exact = xx_entropy_profile(L)
    assert np.max(np.abs(prof - exact)) < 1e-6


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_variational_bound():
    for spec in [build_model("xxz", L=12, control=-0.8), build_model("bh", L=8, control=2.0, n_max=4)]:
        e_ed, _ = ed_ground_state(spec)
        psi = run(spec, chi_max=24, max_sweeps=4, energy_tol=1e-14, seed=2)
        assert min(psi.sweep_energies) >= e_ed - 1e-10


def test_sweep_energies_decrease():
    spec = build_model("xxz", L=24, control=-0.5)
    psi = run(spec, chi_max=48, seed=4)
    prod = np.array(psi.sweep_energies[1:])
    assert np.all(np.diff(prod) < 1e-9)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_bond_dimension_capped_and_charges_clean():
    spec = build_model("bh", L=10, control=1.0, n_max=4)
    psi = run(spec, chi_max=20, seed=6)
    assert psi.max_bond_dimension() <= 20
    assert check_charge_consistency(psi) == 0.0
    assert_center_at_site_0(psi)


@pytest.mark.parametrize(
    "model_id, L, control",
    [("xxz", 10, -0.5), ("bh", 8, 2.5), ("bh2s", 6, 0.5)],
    ids=["xxz", "bh", "bh2s"],
)
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_solver_leaves_center_at_site_0(model_id, L, control):
    # cold, warm, and stopped by max_sweeps: an energy_tol of 0 never holds
    cfg = DmrgConfig(chi_max=24, seed=6)
    cold = dmrg_ground_state(build_model(model_id, L, control), cfg)
    warm = dmrg_ground_state(build_model(model_id, L, control + 0.1), cfg, psi0=copy_mps(cold))
    with pytest.warns(ConvergenceWarning):
        stopped = dmrg_ground_state(build_model(model_id, L, control),
                                    dataclasses.replace(cfg, max_sweeps=3, energy_tol=0.0))
    assert not stopped.converged and stopped.stats["sweeps"] == 3
    for psi in (cold, warm, stopped):
        assert_center_at_site_0(psi)


def test_center_away_from_site_0_is_refused():
    spec = build_model("xxz", 8, -0.5)
    cfg = DmrgConfig(chi_max=16)
    off = copy_mps(dmrg_ground_state(spec, cfg))
    off.canonical_center = 1
    for call in (lambda: schmidt_values(off, 4), lambda: entropy_profile(off),
                 lambda: dmrg_ground_state(spec, cfg, psi0=off)):
        with pytest.raises(ValueError, match="site 1"):
            call()


def test_truncation_error_is_the_final_sweeps_largest_discard(monkeypatch):
    split = dmrg.split_two_site
    discards = []

    def recording_split(*args):
        out = split(*args)
        discards.append(out[4])
        return out

    monkeypatch.setattr(dmrg, "split_two_site", recording_split)
    psi = dmrg_ground_state(build_model("bh", 8, 3.3), DmrgConfig(chi_max=8, seed=3))
    assert psi.converged and len(discards) == 14 * psi.stats["sweeps"]
    last_sweep = discards[-14:]
    assert psi.truncation_error == max(last_sweep) > 0.0
    assert psi.truncation_error < sum(discards)
    # nothing is cut on an untruncated chain, so not even rounding shows
    discards.clear()
    psi = dmrg_ground_state(build_model("xxz", 8, -0.5), DmrgConfig(svd_cutoff=0.0))
    assert psi.truncation_error == 0.0 and max(discards[-14:]) == 0.0


def test_deterministic_given_seed():
    spec = build_model("xxz", L=14, control=-0.9)
    a = run(spec, chi_max=32, seed=11)
    b = run(spec, chi_max=32, seed=11)
    assert a.energy == b.energy
    for Ta, Tb in zip(a.site_tensors, b.site_tensors):
        assert np.array_equal(Ta, Tb)


def test_mott_limit_is_near_product():
    spec = build_model("bh", L=12, control=60.0, n_max=3)
    psi = run(spec, chi_max=16, seed=7)
    prof = entropy_profile(psi)
    assert prof.max() < 0.05
    assert psi.energy < 0.0  # hopping still lowers the energy a little


def test_spectrum_matches_ed_across_backends():
    spec = build_model("xxz", L=12, control=-0.5)
    _, state = ed_ground_state(spec)
    # no truncation at this size, so the fixed point is the exact state
    psi = run(spec, chi_max=128, svd_cutoff=0.0, energy_tol=1e-14,
              max_sweeps=20, seed=8)
    s_ed = schmidt_decompose(state)
    s_mps = schmidt_decompose(psi)
    # the MPS truncates the tail, so compare the part both backends resolve
    table_ed = {(e.charge, e.k): e.p for e in s_ed.entries}
    table_mps = {(e.charge, e.k): e.p for e in s_mps.entries}
    for key, p in table_ed.items():
        if p > 1e-8:
            assert abs(p - table_mps[key]) < 1e-9
    for key, p in table_mps.items():
        if p > 1e-8:
            assert abs(p - table_ed[key]) < 1e-9


def test_sector_reflection_symmetry_at_free_point():
    # spin-flip symmetry at half filling mirrors the charge-resolved weights
    spec = build_model("xxz", L=16, control=0.0)
    psi = run(spec, chi_max=48, seed=9)
    s = schmidt_decompose(psi)
    weights = {}
    for e in s.entries:
        dn = s.delta_n(e)[0]
        weights.setdefault(dn, 0.0)
        weights[dn] += e.p
    for dn, w in weights.items():
        if -dn in weights:
            assert abs(w - weights[-dn]) < 1e-8


def test_two_species_small_chain_matches_ed():
    spec = build_model("bh2s", L=6, control=0.5, n_max=2)
    e_ed, _ = ed_ground_state(spec)
    psi = run(spec, chi_max=128, svd_cutoff=1e-13, energy_tol=1e-12, seed=10)
    assert abs(psi.energy - e_ed) < 1e-8


def _random_h_eff_problems(model_id):
    """Three random two-site problems of bond 1 of an L = 4 chain whose
    environments and block respect the charges: (mpo, channels, blocks,
    EL, ER, theta, mask) each.  bh2s has two charges, so its keys stand
    for tuples."""
    spec = build_model(model_id, L=4, control=0.7)
    mpo, channels = build_mpo(spec)
    qsite = spec.site_charge_array()
    c = mpo_charges(mpo, qsite)
    rng = np.random.default_rng(17)
    for _ in range(3):
        qL = rng.integers(0, 3, size=(5, spec.n_charges))
        qR = rng.integers(1, 6, size=(6, spec.n_charges))
        el_ok = np.all(qL[:, None, None, :] - qL[None, None, :, :] == c[1][None, :, None, :], axis=-1)
        er_ok = np.all(qR[:, None, None, :] - qR[None, None, :, :] == c[3][None, :, None, :], axis=-1)
        EL = rng.standard_normal(el_ok.shape) * el_ok
        ER = rng.standard_normal(er_ok.shape) * er_ok
        mask = allowed_mask_two_site(qL, qsite, qsite, qR)
        theta = rng.standard_normal(mask.shape) * mask
        yield mpo, channels, TwoSiteBlocks(qL, qsite, qR), EL, ER, theta, mask


@pytest.mark.parametrize("model_id", ["xxz", "bh", "bh2s"])
def test_blocked_h_eff_matches_dense_oracle(model_id):
    for mpo, channels, blocks, EL, ER, theta, mask in _random_h_eff_problems(model_id):
        assert blocks.size == mask.sum() and blocks.keys.size > 1
        dense = apply_h_eff_dense(theta, EL, mpo[1], mpo[2], ER, np.ones_like(mask))
        # consistent charges keep H_eff inside the allowed entries
        assert np.abs(dense[~mask]).max(initial=0.0) < 1e-12
        y = TwoSiteHeff(blocks, channels[1]).load(EL, ER).matvec(blocks.gather(theta))
        ref = blocks.gather(apply_h_eff_dense(theta, EL, mpo[1], mpo[2], ER, mask))
        assert np.abs(y - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("model_id", ["xxz", "bh", "bh2s"])
def test_gauge_moves_factor_site_tensors_per_charge_block(model_id):
    # random charge-consistent site tensors; the bonds share three charges
    # and draw the rest, so several blocks of several sizes occur
    spec = build_model(model_id, L=4, control=0.7)
    qsite = spec.site_charge_array()
    d = qsite.shape[0]
    rng = np.random.default_rng(5)
    for _ in range(3):
        qL = rng.integers(0, 3, size=(6, spec.n_charges))
        qL[:3] = np.arange(3)[:, None]
        sums = (qL[:, None] + qsite).reshape(-1, spec.n_charges)
        qR = np.concatenate([qL[:3] + qsite[0], sums[rng.integers(0, sums.shape[0], size=4)]])
        mask = allowed_mask_site(qL, qsite, qR)
        T = rng.standard_normal(mask.shape) * mask
        l = T.shape[0]

        A, carry, q_new, s = _split_site_right(T, qL, qsite, qR)
        k = q_new.shape[0]
        assert np.abs(np.tensordot(A, carry, axes=([2], [0])) - T).max() < 1e-13
        Am = A.reshape(l * d, k)
        assert np.abs(Am.T @ Am - np.eye(k)).max() < 1e-13
        assert not A[~allowed_mask_site(qL, qsite, q_new)].any()
        assert not carry[~np.all(q_new[:, None] == qR[None], axis=-1)].any()
        assert np.all(np.diff(charge_keys(q_new)) >= 0)
        assert np.unique(charge_keys(q_new)).size > 1


def test_two_species_four_sites_matches_ed_with_clean_charges():
    spec = build_model("bh2s", L=4, control=0.5, n_max=2)
    e_ed, _ = ed_ground_state(spec)
    psi = run(spec, chi_max=64, svd_cutoff=1e-13, energy_tol=1e-12, seed=3)
    assert abs(psi.energy - e_ed) < 1e-9
    assert check_charge_consistency(psi) == 0.0


@pytest.mark.parametrize(
    "model_id, L, neighbour, control, sweeps",
    [("xxz", 10, -0.95, -0.9, 1), ("bh", 8, 3.3, 3.4, 2)],
    ids=["xxz", "bh"],
)
def test_warm_start_from_neighbour_converges_in_two_sweeps(model_id, L, neighbour, control, sweeps):
    # the bh chain's first sweep ends with the halves' energies within 1e-12
    # but moves the central Schmidt weights by 1e-5, so it takes a second
    cfg = DmrgConfig(chi_max=64, seed=2)
    psi0 = dmrg_ground_state(build_model(model_id, L, neighbour), cfg)
    before = [T.copy() for T in psi0.site_tensors]
    spec = build_model(model_id, L, control)
    cold = dmrg_ground_state(spec, cfg)
    warm = dmrg_ground_state(spec, cfg, psi0=psi0)
    assert warm.converged and warm.stats["sweeps"] == sweeps
    assert abs(warm.energy - cold.energy) < cfg.energy_tol
    assert warm.spec is spec and check_charge_consistency(warm) == 0.0
    assert all(np.array_equal(a, b) for a, b in zip(before, psi0.site_tensors))


def test_truncation_cycle_converges_on_sweep_energies():
    # at chi 8 the BH L=8 chain at U = 0 falls into a truncation cycle whose
    # left half-sweeps end 1.5e-4 above its right ones for good; the sweep
    # energies still settle, and the sweep-to-sweep test stops it there
    with pytest.warns(ConvergenceWarning, match="sweep energy rose"):
        psi = dmrg_ground_state(build_model("bh", 8, 0.0), DmrgConfig(chi_max=8, seed=1234))
    assert psi.converged and psi.stats["sweeps"] == 6


def test_inherited_layouts_give_bit_identical_states():
    # XXZ at delta = 0 has no zz channel (build_mpo drops zero couplings),
    # so the chain into and out of it must rebuild every layout
    # it inherits; away from it, bonds whose charges stay keep theirs
    cfg = DmrgConfig(chi_max=64, seed=2)
    psi = dmrg_ground_state(build_model("xxz", 8, -0.2), cfg)
    for control, rebuilt in [(-0.1, False), (0.0, True), (0.1, True)]:
        spec = build_model("xxz", 8, control)
        fresh = dmrg_ground_state(spec, cfg, psi0=copy_mps(psi))
        layouts = psi.layouts
        warm = dmrg_ground_state(spec, cfg, psi0=psi)
        assert psi.layouts is None and warm.layouts is layouts
        assert all(np.array_equal(a, b) for a, b in zip(warm.site_tensors, fresh.site_tensors))
        assert warm.energy == fresh.energy and warm.stats["sweeps"] == fresh.stats["sweeps"]
        assert fresh.stats["layouts_built"] >= 7
        if rebuilt:
            assert warm.stats["layouts_built"] == fresh.stats["layouts_built"]
        else:
            assert warm.stats["layouts_built"] < fresh.stats["layouts_built"]
        psi = warm


def test_warm_chunk_work_counts():
    # one 16-point chunk of a fine XXZ L=8 grid: after the cold first point
    # every point converges in one sweep and builds no layout
    cfg = DmrgConfig(seed=1234)
    psi = None
    work = []
    for control in np.linspace(-0.8, -0.65, 16):
        psi = dmrg_ground_state(build_model("xxz", 8, control), cfg, psi0=psi)
        work.append((psi.stats["sweeps"], psi.stats["layouts_built"]))
    assert work == [(3, 22)] + [(1, 0)] * 15


def test_warm_start_rejects_wrong_length_basis_or_sector():
    cfg = DmrgConfig(chi_max=16)
    psi0 = dmrg_ground_state(build_model("xxz", 6, -0.5), cfg)
    spec = build_model("xxz", 6, -0.4)
    for other, match in [
        (build_model("xxz", 8, -0.4), "sites"),
        (build_model("bh", 6, 2.0), "local basis"),
        (dataclasses.replace(spec, target_sector=(2,)), "sector"),
    ]:
        with pytest.raises(ValueError, match=match):
            dmrg_ground_state(other, cfg, psi0=psi0)
    assert dmrg_ground_state(spec, cfg, psi0=psi0).converged


def test_planned_contractions_equal_tensordot():
    # the environment updates and the gauge moves call np.dot on the arrays
    # np.tensordot would build, so they must give its bits, not just its values
    rng = np.random.default_rng(23)
    for _ in range(50):
        l, d, r, Dw, Dv = rng.integers(1, 7, size=5)
        A = rng.standard_normal((l, d, r))
        W = rng.standard_normal((Dw, d, d, Dv))
        EL = rng.standard_normal((l, Dw, l))
        ER = rng.standard_normal((r, Dv, r))
        X = np.tensordot(EL, A, axes=([0], [0]))
        X = np.tensordot(X, W, axes=([0, 2], [0, 1]))
        assert np.array_equal(_contract_left(EL, A, W), np.tensordot(X, A, axes=([0, 2], [0, 1])))
        X = np.tensordot(A, ER, axes=([2], [0]))
        X = np.tensordot(X, W, axes=([1, 2], [1, 3]))
        assert np.array_equal(_contract_right(ER, A, W), np.tensordot(X, A, axes=([3, 1], [1, 2])))
    # the walk of the center, on a random charge-consistent MPS, which it
    # leaves as it was
    spec = build_model("bh", L=6, control=2.0, n_max=3)
    psi = dmrg_ground_state(spec, DmrgConfig(chi_max=12, max_sweeps=3, seed=4))
    psi.site_tensors = [
        rng.standard_normal(T.shape) * allowed_mask_site(psi.bond_charges[i], spec.site_charge_array(),
                                                         psi.bond_charges[i + 1])
        for i, T in enumerate(psi.site_tensors)
    ]
    before = copy_mps(psi)
    steps = list(_walk_right(psi))
    assert len(steps) == psi.L - 1
    for got, want in zip(steps, right_chain(psi)):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert all(np.array_equal(a, b) for a, b in zip(psi.site_tensors + psi.bond_charges,
                                                    before.site_tensors + before.bond_charges))


def _matmul_pieces(heff, EL, ER, x):
    """The gathered pieces of LW and RW, H_eff x and H_eff as np.matmul
    gives them from ``heff``'s layout: load, matvec and dense with every
    product written as np.matmul."""
    l, r = EL.shape[0], ER.shape[0]
    LW = np.matmul(EL.transpose(0, 2, 1).reshape(l * l, -1), heff.W1.reshape(heff.W1.shape[0], -1))
    RW = np.matmul(heff.W2.reshape(-1, heff.W2.shape[3]), ER.transpose(1, 0, 2).reshape(-1, r * r))
    heff._L[:] = LW.take(heff._L_index)
    heff._R[:] = RW.take(heff._R_index)
    np.copyto(heff._x, x)
    for xk, R, zk in heff._right:
        np.matmul(xk, R, out=zk)
    heff._z.take(heff._s_index, out=heff._s, mode="clip")
    for L, st, yt in heff._left:
        np.matmul(L, st, out=yt)
    y = heff._y.copy()
    n = heff.blocks.size
    G = np.zeros((heff._s.size, n))
    G.flat[heff._g_dst] = heff._R[heff._g_src]
    H = np.zeros((n, n))
    for (L, _, _), (lo, hi, s_lo, s_hi) in zip(heff._left, heff._rows):
        np.matmul(L, G[s_lo:s_hi].reshape(L.shape[1], -1), out=H[lo:hi].reshape(L.shape[0], -1))
    return heff._L.copy(), heff._R.copy(), y, H


@pytest.mark.parametrize("model_id", ["xxz", "bh", "bh2s"])
def test_h_eff_dot_products_equal_matmul(model_id, monkeypatch):
    # load, matvec and dense call ndarray.dot, which skips np.matmul's
    # per-call overhead; on the same pieces they must give matmul's bits,
    # not just its values.  Every problem gets the dense() layout.
    monkeypatch.setattr(dmrg, "N_DENSE", 10**9)
    for _, channels, blocks, EL, ER, theta, _ in _random_h_eff_problems(model_id):
        x = blocks.gather(theta)
        heff = TwoSiteHeff(blocks, channels[1])
        L_ref, R_ref, y_ref, H_ref = _matmul_pieces(heff, EL, ER, x)
        heff.load(EL, ER)
        assert np.array_equal(heff._L, L_ref) and np.array_equal(heff._R, R_ref)
        assert np.array_equal(heff.matvec(x), y_ref)
        assert np.array_equal(heff.dense(), H_ref)


def test_stacked_block_svd_equals_per_block_svd():
    # blocks of one shape share one stacked LAPACK call; each must get the
    # bits of its own call
    rng = np.random.default_rng(29)
    for _ in range(20):
        row_q = rng.integers(0, 4, size=(int(rng.integers(6, 30)), 1))
        col_q = rng.integers(0, 4, size=(int(rng.integers(6, 30)), 1))
        try:
            blocks = ChargeBlocks(row_q, col_q)
        except RuntimeError:
            continue  # no allowed entry
        x = rng.standard_normal(blocks.size)
        for n, got in enumerate(blocks.svd(x)):
            M = x[blocks.offsets[n]:blocks.offsets[n + 1]].reshape(blocks.row_hi[n] - blocks.row_lo[n], -1)
            for a, b in zip(got, np.linalg.svd(M, full_matrices=False)):
                assert np.array_equal(a, b)
    # equal shapes do occur: two 2x2 blocks and a 1x3 one, a stack of one
    blocks = ChargeBlocks(np.array([[0], [1], [0], [1], [2]]), np.array([[1], [0], [2], [2], [0], [1], [2]]))
    assert [b for b, _ in blocks._svd_plan()] == [[2], [0, 1]]


@pytest.mark.parametrize(
    "model_id, L, control, chi_max",
    [("xxz", 10, -0.5, 32), ("bh", 8, 2.5, 24), ("bh2s", 6, 0.5, 48)],
    ids=["xxz", "bh", "bh2s"],
)
def test_schmidt_values_equal_left_split_levels(model_id, L, control, chi_max):
    # schmidt_values reads the central cut's levels without building the
    # factors of the same layout: the center tensor as a matrix whose rows
    # are its left bond
    spec = build_model(model_id, L, control)
    psi = dmrg_ground_state(spec, DmrgConfig(chi_max=chi_max, seed=6))
    assert psi.converged
    bond = L // 2
    T, qL, _ = right_chain(psi)[bond - 1]
    qR = psi.bond_charges[bond + 1] - spec.site_charge_array()[:, None]
    blocks = ChargeBlocks(qL, qR.reshape(-1, spec.n_charges))
    _, s, _, q_new = blocks.factors(blocks.svd(blocks.gather(T)))
    keep = s > 0.0
    p, charges = schmidt_values(psi, bond)
    assert np.array_equal(p, s[keep] ** 2) and np.array_equal(charges, q_new[keep])
    assert np.unique(charge_keys(charges)).size > 1


@pytest.mark.parametrize(
    "model_id, L, control, cfg",
    [("xxz", 10, -0.7, dict(chi_max=32)), ("bh", 8, 2.5, dict(chi_max=24)),
     ("bh2s", 6, 0.5, dict(chi_max=48))],
)
def test_energy_from_sweep_environments_matches_full_contraction(model_id, L, control, cfg):
    spec = build_model(model_id, L, control)
    psi = dmrg_ground_state(spec, DmrgConfig(seed=6, **cfg))
    ref = expectation_value(psi, build_mpo(spec)[0])
    assert abs(psi.energy - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize(
    "model_id, control, n_bulk",
    [("xxz", -0.5, 5), ("xxz", 0.0, 4), ("bh", 2.0, 4), ("bh", 0.0, 4), ("bh2s", 0.5, 6)],
    ids=["xxz", "xxz-delta0", "bh", "bh-u0", "bh2s"],
)
def test_mpo_channels_match_pattern_oracle(model_id, control, n_bulk):
    # build_mpo's channels are the states the nonzero pattern reaches, with
    # the charges it implies; XXZ at delta = 0 has no zz channel
    spec = build_model(model_id, 6, control)
    mpo, channels = build_mpo(spec)
    qsite = spec.site_charge_array()
    c = mpo_charges(mpo, qsite)
    ref = mpo_channels(mpo, qsite)
    assert len(channels) == len(ref) == spec.L - 1
    for i, ((W1, W2, keys), (live, q)) in enumerate(zip(channels, ref)):
        assert np.array_equal(keys, charge_keys(q))
        assert np.array_equal(W1, mpo[i][..., live]) and np.array_equal(W2, mpo[i + 1][live])
    assert [ch[2].size for ch in channels[1:-1]] == [n_bulk] * (spec.L - 3)
    for i, W in enumerate(mpo):
        w, s_out, s_in, v = np.nonzero(W)
        assert np.array_equal(c[i][w] + qsite[s_out] - qsite[s_in], c[i + 1][v])


@pytest.mark.parametrize(
    "term, conserved",
    [(Term((0,), ("Sp",), 0.5), False), (Term((2, 3), ("Sp", "Sp"), 0.5), False),
     (Term((3,), ("Sz",), 0.5), True)],
    ids=["onsite-Sp", "bond-SpSp", "onsite-Sz"],
)
def test_mpo_rejects_terms_that_break_the_charges(term, conserved):
    base = build_model("xxz", 6, -0.5)
    spec = dataclasses.replace(base, terms=base.terms + (term,))
    if not conserved:
        with pytest.raises(ValueError, match="conserve"):
            dmrg_ground_state(spec, DmrgConfig(seed=1))
        return
    psi = dmrg_ground_state(spec, DmrgConfig(seed=1))
    assert abs(psi.energy - ed_ground_state(spec)[0]) < 1e-9


def _bond_problem(model_id, L, bond, chi_max):
    """The loaded TwoSiteHeff of ``bond`` for a converged state, with its
    environments and MPO: symmetric, like every problem a sweep solves."""
    spec = build_model(model_id, L, 0.7)
    psi = dmrg_ground_state(spec, DmrgConfig(chi_max=chi_max, seed=5))
    mpo, channels = build_mpo(spec)
    EL, ER = np.ones((1, 1, 1)), np.ones((1, 1, 1))
    for j in range(bond):
        EL = _contract_left(EL, psi.site_tensors[j], mpo[j])
    for j in range(L - 1, bond + 1, -1):
        ER = _contract_right(ER, psi.site_tensors[j], mpo[j])
    blocks = TwoSiteBlocks(psi.bond_charges[bond], spec.site_charge_array(), psi.bond_charges[bond + 2])
    return TwoSiteHeff(blocks, channels[bond]).load(EL, ER), EL, ER, mpo, spec


@pytest.mark.parametrize("model_id, L, bond", [("xxz", 8, 2), ("bh", 4, 1), ("bh2s", 4, 0)])
def test_dense_h_eff_matches_oracle_and_matvec(model_id, L, bond):
    heff, EL, ER, mpo, spec = _bond_problem(model_id, L, bond, chi_max=8)
    blocks = heff.blocks
    n = blocks.size
    assert 1 < n <= N_DENSE and blocks.keys.size > 1
    H = heff.dense()
    scale = np.abs(H).max()
    assert np.abs(H - H.T).max() <= 1e-13 * scale
    qsite = spec.site_charge_array()
    mask = allowed_mask_two_site(blocks.qL, qsite, qsite, blocks.qR)
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        theta = np.zeros(mask.size)
        theta[blocks.index[j]] = 1.0
        ref = blocks.gather(apply_h_eff_dense(theta.reshape(mask.shape), EL, mpo[bond], mpo[bond + 1], ER, mask))
        assert np.abs(H[:, j] - ref).max() <= 1e-13 * scale
        assert np.abs(H[:, j] - heff.matvec(e)).max() <= 1e-13 * scale


def test_small_local_problems_solve_densely_unless_degenerate():
    heff, *_ = _bond_problem("xxz", 8, 2, chi_max=8)
    x = np.random.default_rng(3).standard_normal(heff.blocks.size)
    x /= np.linalg.norm(x)
    energy, vec, info = local_ground_state(heff, x, max_restarts=12)
    assert info is None and vec.dot(x) > 0.0
    e_ref, v_ref, _ = lowest_eigenpair(heff.matvec, x, tol=1e-13)
    v_ref *= np.sign(v_ref.dot(x))  # Lanczos leaves the sign to eigh
    assert abs(energy - e_ref) < 1e-12 and np.abs(vec - v_ref).max() < 1e-10
    # environments that carry only the finished state make H_eff the
    # identity: every eigenvalue is degenerate, so Lanczos takes over
    blocks, channels = heff.blocks, (heff.W1, heff.W2, heff.dk)
    l, r = blocks.qL.shape[0], blocks.qR.shape[0]
    EL = np.zeros((l, heff.W1.shape[0], l))
    EL[:, -1, :] = np.eye(l)
    ER = np.zeros((r, heff.W2.shape[3], r))
    ER[:, -1, :] = np.eye(r)
    ident = TwoSiteHeff(blocks, channels).load(EL, ER)
    assert np.array_equal(ident.dense(), np.eye(blocks.size))
    energy, vec, info = local_ground_state(ident, x, max_restarts=12)
    assert info is not None and abs(energy - 1.0) < 1e-14 and np.abs(vec - x).max() < 1e-15


def test_solve_counts_split_bond_updates_by_path():
    # L = 8 at chi 64: every bond update of the chain ends exact and small
    # enough near the edges to solve densely, the centre by Lanczos
    psi = dmrg_ground_state(build_model("xxz", 8, -0.5), DmrgConfig(seed=1))
    stats = psi.stats
    assert stats["dense_solves"] + stats["lanczos_solves"] == stats["sweeps"] * 2 * 7
    assert stats["dense_solves"] > 0 and stats["lanczos_solves"] > 0


def test_solve_grows_only_the_environments_it_reads(monkeypatch):
    # bond updates read EL[0..L-2] and ER[2..L], the final energy ER[1]:
    # each sweep grows L - 2 of each, the start ER[2..L-1], and the end
    # ER[1] and the contraction with site 0
    calls = {"left": 0, "right": 0}

    def counted(side, contract):
        def wrapper(*args):
            calls[side] += 1
            return contract(*args)
        return wrapper

    monkeypatch.setattr(dmrg, "_contract_left", counted("left", _contract_left))
    monkeypatch.setattr(dmrg, "_contract_right", counted("right", _contract_right))
    L = 8
    psi = dmrg_ground_state(build_model("xxz", L, -0.5), DmrgConfig(seed=1))
    sweeps = psi.stats["sweeps"]
    assert psi.converged
    assert calls == {"left": sweeps * (L - 2), "right": sweeps * (L - 2) + L}
