"""Energy-independent non-Hermitian limit: flat continuum, constant width.

H = diag(eps) - i*Gamma*f f^dagger.  Resonances come from a biorthogonal
eigensystem when H is diagonalizable; at an exceptional point the
coalesced eigenvector is continued by a Jordan chain and the decay picks
up polynomial-in-t factors.  Every amplitude of the decay law is read off
that one decomposition (eigenbasis or chain basis).  The paper's residue
form -I(z_i) f_n / (K'(z_i)(z_i - eps_n)) of the same amplitudes is an
identity of the eigenbasis, pinned by a test rather than evaluated here.
The expm reference never uses the decomposition: it steps through the
sorted times, one exp(-iH dt) per step dt.  scipy.linalg is imported by
the routines that call it, when they run: the eigensolver for N > 2 in
`resonance_decomposition`, the Schur form of `_jordan_blocks` and the expm
branch of `markovian_survival`.
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import SurvivalSeries, _finite_times
from .errors import ConfigError, ExceptionalPoint, NegativeGamma
from .model import InitialState, ValidatedModel

EP_GAP_FACTOR = 1e-8
EP_COND = 1e8


@dataclass(frozen=True, eq=False)
class EffectiveHamiltonianMarkov:
    matrix: np.ndarray  # N x N complex
    gamma: float
    levels: np.ndarray
    couplings: np.ndarray

    @property
    def n(self) -> int:
        return self.levels.size


def build_markovian(model: ValidatedModel, gamma: float) -> EffectiveHamiltonianMarkov:
    """H = diag(eps_n) - i*Gamma * f_n f_{n'}^*  with Gamma = pi*J >= 0."""
    if not math.isfinite(gamma):
        raise ConfigError(f"gamma={gamma} must be a finite number")
    if gamma < 0:
        raise NegativeGamma(f"gamma = {gamma} < 0")
    f = model.couplings
    h = np.diag(model.levels.astype(complex)) - 1j * gamma * np.outer(f, np.conj(f))
    return EffectiveHamiltonianMarkov(
        matrix=h, gamma=float(gamma), levels=model.levels, couplings=f
    )


class ResonanceKind(enum.Enum):
    DIAGONALIZABLE = "diagonalizable"
    DEFECTIVE = "defective"


@dataclass(frozen=True, eq=False)
class JordanBlock:
    eigenvalue: complex
    vectors: np.ndarray  # columns: chain v_1 (eigenvector), v_2, ...


@dataclass(frozen=True, eq=False)
class ResonanceSystem:
    kind: ResonanceKind
    eigenvalues: np.ndarray  # sorted by Im descending, ties Re ascending
    right: Optional[np.ndarray] = None  # columns |Psi_i+>
    left: Optional[np.ndarray] = None  # rows <Psi_i-| with <Psi-|Psi+> = 1
    blocks: list = field(default_factory=list)  # JordanBlock entries (defective)


def _eig2(h: np.ndarray):
    """Closed-form 2x2 eigensystem; exact through the exceptional point.

    The discriminant is computed in the cancellation-aware form
    (h11-h22)^2 + 4 h12 h21 and snapped to zero when it falls below the
    float noise of that expression: there the matrix is coalescent at
    working precision and reporting a spurious sqrt(eps) splitting would
    be pure rounding noise.
    """
    tr = h[0, 0] + h[1, 1]
    diff = h[0, 0] - h[1, 1]
    disc2 = diff * diff + 4.0 * h[0, 1] * h[1, 0]
    noise = 16.0 * np.finfo(float).eps * (abs(diff) ** 2 + 4.0 * abs(h[0, 1] * h[1, 0]))
    disc = 0.0 if abs(disc2) <= noise else cmath.sqrt(disc2)
    z = np.array([(tr + disc) / 2.0, (tr - disc) / 2.0])
    vecs = []
    for zi in z:
        cand1 = np.array([h[0, 1], zi - h[0, 0]])
        cand2 = np.array([zi - h[1, 1], h[1, 0]])
        v = cand1 if np.linalg.norm(cand1) >= np.linalg.norm(cand2) else cand2
        nrm = np.linalg.norm(v)
        vecs.append(v / nrm if nrm > 0 else np.array([1.0, 0.0], dtype=complex))
    return z, np.array(vecs).T


def _order(z: np.ndarray) -> np.ndarray:
    return np.lexsort((z.real, -z.imag))


def _jordan_blocks(h: np.ndarray, z: np.ndarray, gap_tol: float):
    """Cluster near-equal eigenvalues and build a chain per cluster.

    Each cluster's chain lives in its Schur invariant subspace: with the
    cluster ordered first, T11 - z_c is (nearly) nilpotent and triangular
    least-squares solves give well-scaled chain vectors even when the raw
    shifted system is on the edge of singularity.
    """
    import scipy.linalg

    order = _order(z)
    z = z[order]
    clusters = []
    current = [0]
    for i in range(1, z.size):
        if any(abs(z[i] - z[j]) < gap_tol for j in current):
            current.append(i)
        else:
            clusters.append(current)
            current = [i]
    clusters.append(current)

    blocks = []
    for idx in clusters:
        zc = complex(np.mean(z[list(idx)]))
        size = len(idx)
        t, q, sdim = scipy.linalg.schur(
            h, output="complex", sort=lambda w, zc=zc: abs(w - zc) <= gap_tol
        )
        if size == 1:
            blocks.append(JordanBlock(eigenvalue=zc, vectors=q[:, :1]))
            continue
        g = min(max(sdim, size), h.shape[0])
        nil = np.triu(t[:g, :g], k=1)  # diagonal |T_ii - z_c| <= gap_tol dropped
        chain_small = [np.eye(g, dtype=complex)[:, 0]]
        for _ in range(size - 1):
            nxt, *_ = np.linalg.lstsq(nil, chain_small[-1], rcond=None)
            chain_small.append(nxt)
        vectors = q[:, :g] @ np.array(chain_small).T
        blocks.append(JordanBlock(eigenvalue=zc, vectors=vectors))
    return blocks


def resonance_decomposition(h: EffectiveHamiltonianMarkov) -> ResonanceSystem:
    """Biorthogonal eigensystem of h, or its Jordan chains at an EP.

    H is called defective when two eigenvalues lie within EP_GAP_FACTOR *
    ||H||_2 of each other and the eigenvector matrix has condition number
    above EP_COND; both constants are read at call time.
    """
    mat = h.matrix
    n = mat.shape[0]
    if n == 1:
        z, vecs = np.diag(mat), np.ones((1, 1), dtype=complex)
    elif n == 2:
        z, vecs = _eig2(mat)
    else:
        import scipy.linalg

        z, vecs = scipy.linalg.eig(mat)

    gaps = np.abs(z[:, None] - z)
    np.fill_diagonal(gaps, np.inf)
    min_gap = float(gaps.min())
    defective = False
    # ||H||_2 <= ||H||_F: the SVD runs only when the gap may be below the 2-norm bound
    if min_gap < EP_GAP_FACTOR * max(float(np.linalg.norm(mat)) * (1 + 1e-12), 1e-300):
        gap_tol = EP_GAP_FACTOR * max(float(np.linalg.norm(mat, 2)), 1e-300)
        if min_gap < gap_tol:
            cond = np.linalg.cond(vecs)
            defective = (not np.isfinite(cond)) or cond > EP_COND
    if defective:
        if n == 2:
            # closed-form null direction is exact at the coalescence; the Schur
            # route of _jordan_blocks gives the same p but leaves (H - z)v_2 - v_1
            # near 1e-8, where this chain is exact to rounding
            zc = complex(0.5 * (z[0] + z[1]))
            v1 = vecs[:, 0]
            a = mat - zc * np.eye(2)
            v2, *_ = np.linalg.lstsq(a, v1, rcond=None)
            blocks = [JordanBlock(eigenvalue=zc, vectors=np.column_stack([v1, v2]))]
        else:
            blocks = _jordan_blocks(mat, z, gap_tol)
        return ResonanceSystem(
            kind=ResonanceKind.DEFECTIVE, eigenvalues=z[_order(z)], blocks=blocks
        )
    order = _order(z)
    z = z[order]
    right = vecs[:, order]
    left = np.linalg.inv(right)  # rows: <Psi_i-| with c-product normalization
    return ResonanceSystem(
        kind=ResonanceKind.DIAGONALIZABLE,
        eigenvalues=z,
        right=right,
        left=left,
    )


# ---------------------------------------------------------------------------
# decay laws

def decay_components(h: EffectiveHamiltonianMarkov, initial: InitialState):
    """(z, D_i, G_{ii'}) for the resonance-interference decay formula.

    D_i are the single-resonance weights; G[i, i'] are the complex cross
    overlaps whose modulus and argument set the beat amplitude and phase.
    Both come from the amplitudes A[i, n] = right[n, i] (left @ c0)[i] of
    the eigenbasis, with p(t) = sum_n |sum_i A[i, n] e^{-i z_i t}|^2; they
    equal the paper's residues -I(z_i) f_n / (K'(z_i)(z_i - eps_n)).  A
    defective H has no such split and raises ExceptionalPoint.
    """
    sys = resonance_decomposition(h)
    if sys.kind is ResonanceKind.DEFECTIVE:
        zc = max(sys.blocks, key=lambda b: b.vectors.shape[1]).eigenvalue
        raise ExceptionalPoint(f"H is defective at the coalesced eigenvalue {zc}")
    amp = sys.right.T * (sys.left @ initial.amplitudes)[:, None]
    d = np.sum(np.abs(amp) ** 2, axis=1)
    g = amp @ amp.conj().T
    return sys.eigenvalues, d, g


def _defective_amplitudes(h, sys: ResonanceSystem, c0, times):
    """Chain-basis evolution: polynomial-in-t factors per Jordan block."""
    basis = np.hstack([b.vectors for b in sys.blocks])
    coeff = np.linalg.solve(basis, c0)
    t = np.asarray(times, dtype=float)
    out = np.zeros((h.n, t.size), dtype=complex)
    pos = 0
    for blk in sys.blocks:
        size = blk.vectors.shape[1]
        a = coeff[pos : pos + size]
        phase = np.exp(-1j * blk.eigenvalue * t)
        for j in range(size):  # chain vector v_{j+1}
            poly = np.zeros(t.size, dtype=complex)
            for k in range(size - j):
                poly += ((-1j * t) ** k / math.factorial(k)) * a[j + k]
            out += blk.vectors[:, j][:, None] * (phase * poly)[None, :]
        pos += size
    return out


def markovian_survival(
    h: EffectiveHamiltonianMarkov,
    initial: InitialState,
    times,
    *,
    method: str = "closed",
    system: Optional[ResonanceSystem] = None,
) -> SurvivalSeries:
    """p(t) from the closed resonance formulas or the matrix exponential.

    "closed" decomposes h once (or takes `system`) and evolves c0 in its
    basis: right @ ((left @ c0) e^{-i z t}) when H is diagonalizable, the
    Jordan chains' polynomial-in-t factors at an EP.  "expm" never
    decomposes: it steps the state through the sorted times by
    U = exp(-iH dt), a new U only when dt moves by more than a few ulps of
    max|t|; ||U|| <= 1.
    """
    t = _finite_times(times)
    if method not in ("closed", "expm"):
        raise ConfigError(f"method must be 'closed' or 'expm', got {method!r}")
    c0 = initial.amplitudes
    if method == "expm":
        import scipy.linalg

        amps = np.empty((h.n, t.size), dtype=complex)
        tol = 4.0 * np.spacing(float(np.max(np.abs(t), initial=0.0)))
        state, now, step = c0, 0.0, None
        for k in np.argsort(t, kind="stable"):
            dt = t[k] - now
            if dt != 0.0:
                if step is None or abs(dt - step) > tol:
                    step, u = dt, scipy.linalg.expm(-1j * h.matrix * dt)
                state = u @ state
            amps[:, k], now = state, t[k]
        p = np.sum(np.abs(amps) ** 2, axis=0)
        return SurvivalSeries(times=t, p=p, meta={"method": "expm"})
    sys = system or resonance_decomposition(h)
    if sys.kind is ResonanceKind.DEFECTIVE:
        amps = _defective_amplitudes(h, sys, c0, t)
    else:
        phases = np.exp(-1j * np.outer(sys.eigenvalues, t))
        amps = sys.right @ ((sys.left @ c0)[:, None] * phases)
    p = np.sum(np.abs(amps) ** 2, axis=0)
    return SurvivalSeries(times=t, p=p, meta={"method": f"closed-{sys.kind.value}"})


# ---------------------------------------------------------------------------
# anti-PT structure

@dataclass(frozen=True)
class AntiPTReport:
    residual: float
    is_anti_pt: bool
    phase: Optional[str]  # for N=2: "symmetric" | "broken" | "exceptional"


def anti_pt_check(
    h: EffectiveHamiltonianMarkov, *, system: Optional[ResonanceSystem] = None
) -> AntiPTReport:
    """Residual of (PT) H (PT)^{-1} = -H with parity = index reversal.

    The N = 2 phase reads the decomposition of h (`system` if given, else
    one made here), "exceptional" where it is DEFECTIVE.
    """
    mat = h.matrix
    rev = mat[::-1, ::-1]
    residual = float(np.linalg.norm(np.conj(rev) + mat))
    norm_h = max(float(np.linalg.norm(mat)), 1e-300)
    is_anti = residual < 1e-12 * norm_h
    phase = None
    if h.n == 2:
        sys = system or resonance_decomposition(h)
        z = sys.eigenvalues
        scale = max(float(np.max(np.abs(z))), 1e-300)
        if sys.kind is ResonanceKind.DEFECTIVE:
            phase = "exceptional"
        elif np.all(np.abs(z.real) < 1e-10 * scale):
            phase = "broken"
        elif abs(np.conj(z[0]) + z[1]) < 1e-8 * scale:
            phase = "symmetric"
    return AntiPTReport(residual=residual, is_anti_pt=is_anti, phase=phase)
