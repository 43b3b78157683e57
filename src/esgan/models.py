"""Hamiltonian definitions for three 1D lattice models with U(1) symmetry.

A model is one builder plus one ``MODELS`` row.  The builder returns a
HamiltonianSpec that states everything the solvers and spectra need: an
open-boundary chain described by a list of one- and two-site terms over
a fixed local basis, the matrix of every operator label the terms use,
the conserved charges of that basis, the symmetry sector the
ground-state search targets, the product state it starts from, the
filling fraction used to shift sector labels and the control parameter
of the phase diagram.  The row says how to build the model at a control
value and what the pipeline and the detector default to for it.

Models
------
xxz    spin-1/2 chain,  H = -J sum_j [ (S+_{j+1} S-_j + h.c.)/2 + D Sz_j Sz_{j+1} ]
bh     softcore bosons, H = -J sum_j (b+_{j+1} b_j + h.c.) + (U/2) sum_j n_j (n_j - 1)
bh2s   two boson species with hard local cutoffs,
       H = sum_s [ -t sum_j (b+_{s,j+1} b_{s,j} + h.c.) + (U/2) sum_j n_{s,j}(n_{s,j}-1) ]
           + U_ab sum_j n_{a,j} n_{b,j}

Conventions: sites are 0-indexed, bonds connect (j, j+1), all couplings are
real, and the chain is open at both ends.  Hopping terms are stored once
with ``add_hc=True``; consumers expand the conjugate explicitly.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


class ConfigError(ValueError):
    """Settings, or a combination of them, that no run can use."""


@dataclass(frozen=True)
class Term:
    """One product operator acting on one site or two adjacent sites.

    ``ops`` holds operator labels (resolved by :func:`operator_matrix`),
    one per entry of ``sites``.  When ``add_hc`` is set the Hermitian
    conjugate is implied and must be added by whoever assembles the
    Hamiltonian; it is never stored as a second Term.
    """

    sites: tuple
    ops: tuple
    coeff: float
    add_hc: bool = False


@dataclass(frozen=True)
class XxzParams:
    j: float = 1.0
    delta: float = 0.0


@dataclass(frozen=True)
class BhParams:
    j: float = 1.0
    u: float = 0.0
    n_max: int = 4


@dataclass(frozen=True)
class Bh2sParams:
    """Two-species parameters.  ``u_ab`` is the ratio U_ab / U; the
    inter-species coupling entering the Hamiltonian is ``u_ab * u``."""

    u_ab: float = 0.0
    t: float = 1.0
    u: float = 10.0
    n_max: int = 2


@dataclass(frozen=True)
class HamiltonianSpec:
    """Complete description of one chain Hamiltonian and its symmetry data.

    Attributes
    ----------
    model_id : str
        One of "xxz", "bh", "bh2s".
    L : int
        Number of sites.
    local_dim : int
        Dimension of the on-site basis.
    terms : tuple of Term
        Hamiltonian terms; two-site terms couple adjacent sites only.
    charge_names : tuple of str
        Names of the conserved U(1) charges.
    charge_values : tuple of tuple of int
        For each charge, the diagonal value on every local basis state.
    target_sector : tuple of int
        Total charge(s) of the ground-state sector the solvers work in.
    filling : tuple of Fraction
        Charge per site, used to shift sector labels of a bipartition.
    params : dataclass
        The model parameter record the spec was built from.
    control : float
        Dimensionless control parameter of the phase diagram: the
        anisotropy for xxz, U/J for bh, U_ab/U for bh2s.
    product_state : tuple of int
        Local basis index per site of the solvers' starting product
        state, which lies in the target sector.
    operators : dict
        Label -> dense matrix of every on-site operator the terms name,
        shared by every consumer, which must not modify them.  Left out
        of comparisons and the repr.
    """

    model_id: str
    L: int
    local_dim: int
    terms: tuple
    charge_names: tuple
    charge_values: tuple
    target_sector: tuple
    filling: tuple
    params: object
    control: float
    product_state: tuple
    operators: dict = field(compare=False, repr=False)

    @property
    def n_charges(self):
        return len(self.charge_names)

    def site_charge_array(self):
        """Charges of the local basis as an int array (local_dim, n_charges)."""
        return np.array(self.charge_values, dtype=np.int64).T.reshape(
            self.local_dim, self.n_charges
        )


def _lookup(table, spec, label):
    if label not in table:
        raise KeyError(f"unknown operator {label!r} for model {spec.model_id!r}")
    return table[label]


def operator_matrix(spec, label):
    """Dense matrix of a labeled on-site operator in the model's local basis
    (see the builders for the basis order)."""
    return _lookup(spec.operators, spec, label)


def expanded_terms(spec):
    """Terms with Hermitian conjugates made explicit.

    Returns a list of (sites, matrices, coeff) with one dense matrix per
    site.  Conjugates of real operators are plain transposes, so a stored
    hop b+_{j+1} b_j also contributes b_{j+1} b+_j.  Terms share the
    spec's matrices, and each transpose is made once per call; callers
    must not modify any of them.
    """
    transposed = {label: m.T.copy() for label, m in spec.operators.items()}
    out = []
    for term in spec.terms:
        mats = tuple(_lookup(spec.operators, spec, op) for op in term.ops)
        out.append((term.sites, mats, term.coeff))
        if term.add_hc:
            out.append((term.sites, tuple(transposed[op] for op in term.ops), term.coeff))
    return out


def _check_size(L):
    if not isinstance(L, int) or L < 2:
        raise ValueError(f"chain length must be an integer >= 2, got {L!r}")


def build_xxz(L, params=XxzParams()):
    """Spin-1/2 XXZ chain in the zero-magnetization sector (N_up = L // 2).

    The anisotropy ``params.delta`` multiplies the Sz Sz coupling inside
    the overall -J prefactor, so delta < -1 is the antiferromagnetic
    regime and -1 < delta < 1 the critical line.  Basis: index 0 = down,
    1 = up; the solvers start from the Neel pattern.
    """
    _check_size(L)
    if params.j <= 0:
        raise ValueError(f"coupling j must be positive, got {params.j}")
    terms = []
    for jbond in range(L - 1):
        # (S+_{j+1} S-_j + h.c.) / 2 with the -J prefactor
        terms.append(Term((jbond, jbond + 1), ("Sm", "Sp"), -params.j / 2.0, add_hc=True))
        terms.append(Term((jbond, jbond + 1), ("Sz", "Sz"), -params.j * params.delta))
    n_up = L // 2
    return HamiltonianSpec(
        model_id="xxz",
        L=L,
        local_dim=2,
        terms=tuple(terms),
        charge_names=("n_up",),
        charge_values=((0, 1),),
        target_sector=(n_up,),
        filling=(Fraction(1, 2),),
        params=params,
        control=params.delta,
        product_state=tuple(int(i % 2 == 0 and i < 2 * n_up) for i in range(L)),
        operators={
            "Sp": np.array([[0.0, 0.0], [1.0, 0.0]]),
            "Sm": np.array([[0.0, 1.0], [0.0, 0.0]]),
            "Sz": np.diag([-0.5, 0.5]),
        },
    )


def _boson_operators(n_max):
    """b, b+, n and n(n-1) of one boson species; basis index = occupation."""
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    dim = n_max + 1
    b = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    occ = np.diag(np.arange(dim, dtype=float))
    return {"b": b, "bdag": b.T.copy(), "n": occ, "nn1": occ.dot(occ - np.eye(dim))}


def build_bh(L, params=BhParams()):
    """Bose-Hubbard chain at unit filling (N = L), occupation cutoff n_max,
    started from one boson per site."""
    _check_size(L)
    if params.j <= 0:
        raise ValueError(f"coupling j must be positive, got {params.j}")
    operators = _boson_operators(params.n_max)
    terms = []
    for jbond in range(L - 1):
        terms.append(Term((jbond, jbond + 1), ("b", "bdag"), -params.j, add_hc=True))
    for site in range(L):
        terms.append(Term((site,), ("nn1",), params.u / 2.0))
    return HamiltonianSpec(
        model_id="bh",
        L=L,
        local_dim=params.n_max + 1,
        terms=tuple(terms),
        charge_names=("n",),
        charge_values=(tuple(range(params.n_max + 1)),),
        target_sector=(L,),
        filling=(Fraction(1, 1),),
        params=params,
        control=params.u / params.j,
        product_state=(1,) * L,
        operators=operators,
    )


def build_bh2s(L, params=Bh2sParams()):
    """Two-species Bose-Hubbard chain at half filling per species.

    Both species share the lattice; each carries its own conserved number.
    Requires even L so the (L/2, L/2) sector exists.  Basis: index =
    n_a * (n_max + 1) + n_b, so a species-a operator is kron(op, eye) and
    a species-b one kron(eye, op); the solvers start from one boson per
    site, of species a on even sites and of species b on odd ones.
    """
    _check_size(L)
    if L % 2 != 0:
        raise ValueError(f"two-species chain needs even L, got {L}")
    single = _boson_operators(params.n_max)
    if params.t <= 0:
        raise ValueError(f"hopping t must be positive, got {params.t}")
    u_ab_abs = params.u_ab * params.u
    terms = []
    for jbond in range(L - 1):
        terms.append(Term((jbond, jbond + 1), ("b_a", "bdag_a"), -params.t, add_hc=True))
        terms.append(Term((jbond, jbond + 1), ("b_b", "bdag_b"), -params.t, add_hc=True))
    for site in range(L):
        terms.append(Term((site,), ("nn1_a",), params.u / 2.0))
        terms.append(Term((site,), ("nn1_b",), params.u / 2.0))
        terms.append(Term((site,), ("n_a.n_b",), u_ab_abs))
    dim_b = params.n_max + 1
    eye = np.eye(dim_b)
    operators = {"n_a.n_b": np.kron(single["n"], single["n"])}
    for label, op in single.items():
        operators[label + "_a"] = np.kron(op, eye)
        operators[label + "_b"] = np.kron(eye, op)
    return HamiltonianSpec(
        model_id="bh2s",
        L=L,
        local_dim=dim_b * dim_b,
        terms=tuple(terms),
        charge_names=("n_a", "n_b"),
        charge_values=(tuple(idx // dim_b for idx in range(dim_b * dim_b)),
                       tuple(idx % dim_b for idx in range(dim_b * dim_b))),
        target_sector=(L // 2, L // 2),
        filling=(Fraction(1, 2), Fraction(1, 2)),
        params=params,
        control=params.u_ab,
        product_state=tuple(dim_b if i % 2 == 0 else 1 for i in range(L)),
        operators=operators,
    )


@dataclass(frozen=True)
class Model:
    """One row of MODELS.

    ``spec(L, control)`` builds the model at a control value, with the
    parameter record's defaults for the rest (J = t = 1, U = 10 for the
    two-species chain); ``takes_n_max`` rows also take ``n_max=``.
    ``grid`` is (min, max, step) of the default sweep, ``gapped_side``
    the side of a training window ("left" or "right") the gapped phase
    lies on, and ``thresholds`` the detector's default (train, val)
    thresholds.
    """

    spec: object
    takes_n_max: bool
    grid: tuple
    gapped_side: str
    thresholds: tuple


MODELS = {
    "xxz": Model(lambda L, control: build_xxz(L, XxzParams(delta=control)),
                 False, (-1.5, 0.0, 0.01), "left", (5e-5, 1e-4)),
    "bh": Model(lambda L, control, **kw: build_bh(L, BhParams(u=control, **kw)),
                True, (0.0, 6.0, 0.02), "right", (5e-3, 2e-2)),
    "bh2s": Model(lambda L, control, **kw: build_bh2s(L, Bh2sParams(u_ab=control, **kw)),
                  True, (-0.4, 0.0, 0.005), "left", (5e-3, 5e-2)),
}


def model_row(model_id):
    """The MODELS row of ``model_id``; ConfigError for any other id."""
    if model_id not in MODELS:
        raise ConfigError(f"unknown model {model_id!r}")
    return MODELS[model_id]


def build_model(model_id, L, control, n_max=None):
    """Spec for a model at one point of its phase diagram; ``n_max``, for
    the boson models only, replaces the parameter record's cutoff."""
    model = model_row(model_id)
    if n_max is None:
        return model.spec(L, control)
    if not model.takes_n_max:
        raise ConfigError(f"model {model_id!r} takes no n_max, got {n_max}")
    return model.spec(L, control, n_max=n_max)
