"""Seeded inputs for the benchmark: generic model documents and the waveguide grid.

Generic models are CLI ``power_edges`` documents (see ``friedrichs.cli``):

    J(w) = amplitude * (w-lo)^s_low * (up-w)^s_up * prod_z (w-z)^2

A batch of base models is stratified: the level counts N = 1..4 appear
equally often, half of the models carry a J-zero, and the four edge classes
s in {0.5, 1, 2, divergent} fill the edge slots in equal numbers, so
divergent (van Hove) edges and J-zeros are present in every batch.  The
cost of one model varies by orders of magnitude between base models, so a
workload keeps its base batch fixed and lets the run seed move only what
does not change the cost much: `generic-dynamics` picks a *variant* of each
base model (the same model with every continuous parameter moved by a
relative 1e-3), `param-sweep` draws the initial states of its Markovian
checks.

This module imports only numpy and the standard library, so inputs are made
without touching the package under test.
"""
from __future__ import annotations

import cmath
import hashlib
import json
import math

import numpy as np

EDGE_CLASSES = (0.5, 1.0, 2.0, "divergent")
VARIANT_REL = 1e-3

#: the fixed waveguide grid of the param-sweep workload
GRID_N = (1, 2, 5, 10, 20, 40)
GRID_KAPPA = (0.1, 0.5, 0.99, 1.0, 1.01, 2.0)
GRID_XI = (0.01, 0.5, 1.5, 3.0)
GRID_SITE = (1, 2, 5, "inf")


def _exponent(s) -> float:
    return -0.5 if s == "divergent" else float(s)


def _beta(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def band_mass(lo: float, up: float, s_low, s_up, zeros=()) -> float:
    """Integral of the unit-amplitude power_edges density over [lo, up].

    Exact: each (w-z)^2 factor is expanded in powers of (w-lo) and every
    term is a Beta integral.
    """
    a, b = _exponent(s_low), _exponent(s_up)
    width = up - lo
    # polynomial in u = w - lo, coefficients by increasing power
    poly = np.array([1.0])
    for z in zeros:
        poly = np.convolve(poly, [(z - lo) ** 2, -2.0 * (z - lo), 1.0])
    return float(
        sum(
            c * width ** (a + k + b + 1.0) * _beta(a + k + 1.0, b + 1.0)
            for k, c in enumerate(poly)
        )
    )


def _levels(rng, n: int, lo: float, up: float, zeros: list) -> list:
    """n sorted levels around the band, kept off its edges and off J-zeros."""
    width = up - lo
    keep_off = [lo, up] + list(zeros)
    while True:
        levels = np.sort(rng.uniform(lo - 1.5, up + 1.5, n))
        if n > 1 and np.min(np.diff(levels)) <= 0.3:
            continue
        if min(abs(e - p) for e in levels for p in keep_off) <= 0.05 * width:
            continue
        return [float(e) for e in levels]


def unit_vector(rng, n: int) -> list:
    """A random complex unit vector as [re, im] pairs."""
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v = v / np.linalg.norm(v)
    return [[float(c.real), float(c.imag)] for c in v]


def generic_document(rng, n: int, s_low, s_up, with_zero: bool) -> dict:
    """One seeded generic model document with an explicit initial state."""
    lo = float(rng.uniform(-3.0, -1.0))
    up = float(rng.uniform(1.0, 3.0))
    width = up - lo
    zeros = [float(rng.uniform(lo + 0.3 * width, up - 0.3 * width))] if with_zero else []
    levels = _levels(rng, n, lo, up, zeros)
    mags = rng.uniform(0.15, 0.5, n)
    phases = rng.uniform(0.0, 2.0 * math.pi, n)
    couplings = [[float(m * math.cos(p)), float(m * math.sin(p))] for m, p in zip(mags, phases)]
    mass = float(rng.uniform(0.05, 0.25))
    amplitude = mass / band_mass(lo, up, s_low, s_up, zeros)
    return {
        "kind": "generic",
        "levels": levels,
        "couplings": couplings,
        "band": [lo, up],
        "spectral_density": {
            "form": "power_edges",
            "amplitude": amplitude,
            "s_low": s_low,
            "s_up": s_up,
            "zeros": zeros,
        },
        "initial": unit_vector(rng, n),
    }


def strata(count: int) -> list:
    """(N, with_zero) for `count` models: N cycles 1..4, zeros on every other."""
    return [(1 + (i // 2) % 4, i % 2 == 1) for i in range(count)]


def generic_documents(seed: int, count: int) -> list:
    """A stratified batch of `count` documents (count a multiple of 8)."""
    if count % 8:
        raise ValueError("count must be a multiple of 8")
    rng = np.random.default_rng(seed)
    # 2*count edge slots, each class exactly count/2 times, in seeded order
    edges = list(rng.permutation(np.repeat(np.arange(len(EDGE_CLASSES)), count // 2)))
    docs = []
    for i, (n, with_zero) in enumerate(strata(count)):
        s_low = EDGE_CLASSES[edges[2 * i]]
        s_up = EDGE_CLASSES[edges[2 * i + 1]]
        docs.append(generic_document(rng, n, s_low, s_up, with_zero))
    order = rng.permutation(count)
    return [docs[i] for i in order]


def variant(doc: dict, key, rel: float = VARIANT_REL) -> dict:
    """The base document with its continuous parameters moved by ~rel.

    `key` seeds the perturbation (anything numpy's default_rng accepts), so a
    variant is reproducible from (base document, key).  Edge classes, level
    count and J-zero count are kept; levels stay well clear of band edges
    and J-zeros because bases keep them 5% of the band width away.
    """
    rng = np.random.default_rng(key)
    lo, up = doc["band"]
    width = up - lo

    def shift(x):
        return float(x + rel * width * rng.uniform(-1.0, 1.0))

    def scale():
        return 1.0 + rel * rng.uniform(-1.0, 1.0)

    out = json.loads(json.dumps(doc))
    out["band"] = [shift(lo), shift(up)]
    out["levels"] = sorted(shift(e) for e in doc["levels"])
    out["couplings"] = []
    for re_, im_ in doc["couplings"]:
        c = complex(re_, im_) * scale() * cmath.exp(1j * rel * rng.uniform(-1.0, 1.0))
        out["couplings"].append([c.real, c.imag])
    spec = out["spectral_density"]
    spec["amplitude"] = doc["spectral_density"]["amplitude"] * scale()
    spec["zeros"] = [shift(z) for z in doc["spectral_density"]["zeros"]]
    init = np.array([complex(a, b) for a, b in doc["initial"]])
    init = init + rel * (rng.normal(size=init.size) + 1j * rng.normal(size=init.size))
    init = init / np.linalg.norm(init)
    out["initial"] = [[float(c.real), float(c.imag)] for c in init]
    return out


def waveguide_grid() -> list:
    """The 576 (N, kappa, xi, site) cases, lambda = 1, in a fixed order."""
    return [
        {"n_atoms": n, "kappa": k, "xi": x, "site": s}
        for n in GRID_N
        for k in GRID_KAPPA
        for x in GRID_XI
        for s in GRID_SITE
    ]


def doc_digest(doc: dict) -> str:
    """Short digest of a document: ties a captured reference to its input."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def case_key(case: dict) -> str:
    """Stable text key of a waveguide grid case."""
    return f"N={case['n_atoms']},kappa={case['kappa']},xi={case['xi']},site={case['site']}"


# ---------------------------------------------------------------------------
# workload inputs

#: base batches are fixed; the run seed picks variants or initial states
GD_BASE_SEED = 2512
GD_BASES = 8
GD_VARIANTS = 8  # variants with a captured reference per base model
PS_BASE_SEED = 17207
PS_BASES = 48
#: documented seed kept out of development, for checking a later claim
HELD_OUT_SEED = 271828


def dynamics_inputs(seed: int) -> list:
    """generic-dynamics: one captured variant of each of the 8 base models."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(GD_VARIANTS, size=GD_BASES)
    bases = generic_documents(GD_BASE_SEED, GD_BASES)
    return [
        {"key": f"{b}/{v}", "doc": variant(bases[b], [GD_BASE_SEED, b, int(v)])}
        for b, v in enumerate(picks)
    ]


def sweep_inputs(seed: int) -> dict:
    """param-sweep: the waveguide grid plus the 48 base models, fixed.

    Root-solve cost next to a divergent edge jumps by up to 15x when a
    model's parameters move by 1e-3, so variants would make the timing
    depend on the seed.  The seed draws the initial state of every job's
    Markovian check instead.
    """
    rng = np.random.default_rng([PS_BASE_SEED, seed])
    grid = [dict(case, initial=unit_vector(rng, case["n_atoms"])) for case in waveguide_grid()]
    generic = []
    for b, doc in enumerate(generic_documents(PS_BASE_SEED, PS_BASES)):
        doc["initial"] = unit_vector(rng, len(doc["levels"]))
        generic.append({"key": f"generic/{b}", "doc": doc})
    return {"grid": grid, "generic": generic}
