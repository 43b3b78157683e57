"""Entanglement-spectrum data model and its derived quantities.

A LabeledSpectrum holds the Schmidt probabilities p_i of one bipartition,
each tagged with the total conserved charge of the left block and a rank k
within its charge sector.  On top of that this module provides the level
observables (xi = -log10 p, entropy, Schmidt gap), the conformal-tower
transform (subtract the k = 0 parabola, rescale by the lowest spacing
Delta-xi0), the fixed sector-sequence alignment that turns spectra into
equal-length feature vectors for the network, and a Kullback-Leibler
baseline between aligned spectra.

Sector labels are shifted on demand: delta_n = charge - nu * L_A with nu
the model filling and L_A the left-block size, kept exact with Fractions.
"""

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class StructureError(ValueError):
    """A spectrum lacks the sector/rank structure an operation needs."""


class StructureWarning(UserWarning):
    pass


@dataclass(frozen=True)
class SpectrumEntry:
    p: float
    charge: tuple
    k: int


@dataclass(frozen=True)
class LabeledSpectrum:
    """Charge-resolved Schmidt spectrum of one bipartition.

    ``entries`` are sorted by decreasing p (ties by ascending charge, then
    k); within each charge sector the rank k counts entries by decreasing
    p starting at 0.  ``bipartition`` is the left-block size L_A.
    ``filling`` carries one Fraction per conserved charge.
    """

    entries: tuple
    model_id: str
    L: int
    bipartition: int
    filling: tuple
    control_value: float
    truncation_error: float = 0.0

    def delta_n(self, entry):
        """Shifted sector label(s) of an entry, exact Fractions."""
        return tuple(
            Fraction(c) - nu * self.bipartition
            for c, nu in zip(entry.charge, self.filling)
        )

    def sectors(self):
        """{charge tuple: [entries ordered by k]}, charges ascending."""
        out = {}
        for e in self.entries:
            out.setdefault(e.charge, []).append(e)
        return {q: sorted(es, key=lambda e: e.k) for q, es in sorted(out.items())}


def entry_order(e):
    """Sort key of ``LabeledSpectrum.entries``: -p, then charge, then k."""
    return (-e.p, e.charge, e.k)


def make_labeled_spectrum(p, charges, model_id, L, bipartition, filling,
                          control_value, truncation_error=None):
    """Assemble a LabeledSpectrum from raw probabilities and charge labels.

    Ranks k are assigned per charge sector by decreasing p (stable under
    ties); the global entry order is decreasing p with ties broken by
    ascending charge then k.  Zero or negative probabilities are rejected.
    """
    p = np.asarray(p, dtype=float)
    if p.size == 0:
        raise ValueError("empty spectrum")
    if np.any(p <= 0.0):
        raise ValueError("probabilities must be strictly positive")
    charges = [tuple(int(c) for c in np.atleast_1d(q)) for q in charges]
    by_sector = {}
    for i, q in enumerate(charges):
        by_sector.setdefault(q, []).append(i)
    entries = []
    for q, idx in sorted(by_sector.items()):
        order = np.argsort(-p[idx], kind="stable")
        for k, j in enumerate(order):
            entries.append(SpectrumEntry(p=float(p[idx[j]]), charge=q, k=k))
    entries.sort(key=entry_order)
    if truncation_error is None:
        truncation_error = max(0.0, 1.0 - float(p.sum()))
    return LabeledSpectrum(
        entries=tuple(entries),
        model_id=model_id,
        L=L,
        bipartition=bipartition,
        filling=tuple(filling),
        control_value=float(control_value),
        truncation_error=float(truncation_error),
    )


def xi_values(s):
    """Entanglement levels xi_i = -log10 p_i, in entry order."""
    p = np.array([e.p for e in s.entries])
    if np.any(p <= 0.0):
        raise ValueError("xi is undefined for p = 0 entries")
    return -np.log10(p)


def von_neumann_entropy(s):
    """S = -sum p ln p (natural log), with 0 ln 0 = 0."""
    p = np.array([e.p for e in s.entries])
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def schmidt_gap(s):
    """Difference of the two largest probabilities of the full spectrum."""
    if len(s.entries) < 2:
        raise StructureError("Schmidt gap needs at least two eigenvalues")
    return s.entries[0].p - s.entries[1].p


def _zero_sector(s):
    """Entries of the delta_n = 0 sector (all components zero)."""
    for q, es in s.sectors().items():
        dn = s.delta_n(es[0])
        if all(x == 0 for x in dn):
            return es
    return []


def delta_xi0(s):
    """Level spacing xi(k=1) - xi(k=0) inside the delta_n = 0 sector."""
    zero = _zero_sector(s)
    if len(zero) < 2:
        raise StructureError("delta_n = 0 sector has fewer than two levels")
    gap = float(np.log10(zero[0].p / zero[1].p))
    if gap == 0.0:
        warnings.warn(
            "degenerate top of the delta_n = 0 sector; spacing is zero",
            StructureWarning,
        )
    return gap


def conformal_rescale(s, channel=None):
    """Tower levels (xi(dn,k) - xi(dn,0)) / delta_xi0 per sector.

    Returns a list of dicts {delta_n, k, xi, rescaled} sorted by (delta_n,
    k).  For two-charge spectra, ``channel`` picks a diagonal slice of the
    sector grid: "density" keeps dn_a = dn_b (labeled by dn_a), "spin"
    keeps dn_a = -dn_b.  Single-charge spectra take channel=None.
    """
    n_charges = len(s.filling)
    if n_charges == 1:
        if channel not in (None, "density"):
            raise ValueError("single-charge spectra have no channel slices")
        selector = lambda dn: (True, dn[0])
    elif channel == "density":
        selector = lambda dn: (dn[0] == dn[1], dn[0])
    elif channel == "spin":
        selector = lambda dn: (dn[0] == -dn[1], dn[0])
    else:
        raise ValueError("two-charge spectra need channel 'density' or 'spin'")
    spacing = delta_xi0(s)
    if spacing <= 0.0:
        raise StructureError("nonpositive delta_xi0; towers are undefined")
    rows = []
    for q, es in s.sectors().items():
        dn = s.delta_n(es[0])
        keep, label = selector(dn)
        if not keep:
            continue
        xi0 = -np.log10(es[0].p)
        for e in es:
            xi = -np.log10(e.p)
            rows.append(
                {
                    "delta_n": label,
                    "k": e.k,
                    "xi": float(xi),
                    "rescaled": float((xi - xi0) / spacing),
                }
            )
    rows.sort(key=lambda r: (r["delta_n"], r["k"]))
    return rows


@dataclass(frozen=True)
class SectorSequence:
    """Fixed ordering of (delta_n..., k) slots the feature vectors follow.

    ``slots`` holds (delta_n tuple of Fractions, k); ``synthetic`` flags
    slots appended by round-robin padding rather than taken from the
    origin spectrum.
    """

    slots: tuple
    origin_control_value: float
    synthetic: tuple

    @property
    def n_feat(self):
        return len(self.slots)


def build_reference_sequence(s, n_feat):
    """Slot order from the spectrum at the phase-diagram origin.

    Slots are the (sector, k) identifiers of the n_feat largest p in
    decreasing order, ties broken by ascending sector label then k.  If
    the spectrum has fewer than n_feat entries, the k range of each
    populated sector is extended round-robin (ascending sector order) and
    those slots are marked synthetic.
    """
    ranked = sorted(
        s.entries, key=lambda e: (-e.p, s.delta_n(e), e.k)
    )
    slots = [(s.delta_n(e), e.k) for e in ranked[:n_feat]]
    synthetic = [False] * len(slots)
    if len(slots) < n_feat:
        sectors = sorted({s.delta_n(e) for e in s.entries})
        next_k = {dn: 0 for dn in sectors}
        for dn, k in slots:
            next_k[dn] = max(next_k[dn], k + 1)
        i = 0
        while len(slots) < n_feat:
            dn = sectors[i % len(sectors)]
            slots.append((dn, next_k[dn]))
            synthetic.append(True)
            next_k[dn] += 1
            i += 1
    return SectorSequence(
        slots=tuple(slots),
        origin_control_value=s.control_value,
        synthetic=tuple(synthetic),
    )


@dataclass(frozen=True)
class FeatureVector:
    """Spectrum probabilities arranged along a fixed sector sequence;
    slots with no matching eigenvalue hold exactly 0."""

    values: np.ndarray
    control_value: float
    L: int
    model_id: str


def align_to_reference(s, seq):
    """Arrange the spectrum's p values along the slots of a sequence.

    The charge labels steer the placement but are not part of the output;
    absent slots give exact zeros.
    """
    labels = {}
    for e in s.entries:
        if e.charge not in labels:
            labels[e.charge] = s.delta_n(e)
    table = {(labels[e.charge], e.k): e.p for e in s.entries}
    values = np.array([table.get(slot, 0.0) for slot in seq.slots])
    return FeatureVector(
        values=values, control_value=s.control_value, L=s.L, model_id=s.model_id
    )


# smallest reference weight the KL divergence divides by
KL_FLOOR = 1e-12


def kl_from_aligned(p, q):
    """KL divergence sum p ln(p/q) (natural log) between aligned vectors.

    q is clamped below at KL_FLOOR; zero p entries contribute nothing.
    """
    p = np.asarray(p, dtype=float)
    q = np.maximum(np.asarray(q, dtype=float), KL_FLOOR)
    mask = p > 0.0
    return float((p[mask] * np.log(p[mask] / q[mask])).sum())


def kl_divergence(P, Q, sequence=None):
    """KL divergence of spectrum P from reference spectrum Q.

    Both spectra are aligned on ``sequence`` (built from Q over all its
    entries when not given) and compared slot by slot.
    """
    if sequence is None:
        sequence = build_reference_sequence(Q, len(Q.entries))
    p = align_to_reference(P, sequence).values
    q = align_to_reference(Q, sequence).values
    return kl_from_aligned(p, q)


def fit_central_charge(entropies, L, window=None):
    """Central charge from the open-boundary entropy profile.

    Fits S(l) = (c/6) ln[(2(L+1)/pi) sin(pi l/(L+1))] + s0 + a (-1)^l
    * [(2(L+1)/pi) sin(pi l/(L+1))]^(-K) by least squares over the window
    of cut positions (defaults to l in [L/8, 7L/8]).  The alternating term
    absorbs the open-boundary oscillation; K is scanned over a coarse grid
    and the best linear fit wins.  Returns (c, details dict).

    ``entropies`` holds S at cuts l = 1..L-1 (natural log).
    """
    entropies = np.asarray(entropies, dtype=float)
    if entropies.size != L - 1:
        raise ValueError("need one entropy per bond, l = 1..L-1")
    ell = np.arange(1, L)
    if window is None:
        window = (max(1, L // 8), min(L - 1, (7 * L) // 8))
    lo, hi = window
    sel = (ell >= lo) & (ell <= hi)
    chord = (2.0 * (L + 1) / np.pi) * np.sin(np.pi * ell[sel] / (L + 1))
    y = entropies[sel]
    sign = np.where(ell[sel] % 2 == 0, 1.0, -1.0)
    best = None
    for K in np.linspace(0.25, 2.0, 36):
        X = np.column_stack([np.log(chord) / 6.0, np.ones_like(chord), sign * chord**(-K)])
        coef, res, *_ = np.linalg.lstsq(X, y, rcond=None)
        resid = float(((X.dot(coef) - y) ** 2).sum())
        if best is None or resid < best["resid"]:
            best = {"c": float(coef[0]), "s0": float(coef[1]),
                    "osc": float(coef[2]), "K": float(K), "resid": resid}
    return best["c"], best
