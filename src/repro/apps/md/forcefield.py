"""Lennard-Jones and Ewald electrostatics (real + reciprocal space).

The force field both MD benchmarks exercise: short-range LJ and
erfc-screened Coulomb over the neighbour list, plus the long-range
reciprocal-space Ewald sum on an FFT mesh -- the "system-supplied Fast
Fourier Transform" dependency that GROMACS test case C is explicitly
designed to stress at scale (Sec. IV-A1a).

Validation anchors used by the tests: analytic two-particle LJ values,
Newton's third law / momentum conservation, and the NaCl Madelung
constant (-1.747565) for the full Ewald electrostatic energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .neighbor import NeighborList, minimum_image


@dataclass(frozen=True)
class LjParams:
    """Single-species Lennard-Jones parameters (reduced units).

    ``shifted`` subtracts U(r_c) so the potential is continuous at the
    cutoff -- without it the truncation discontinuity destroys energy
    conservation (checked by the drift tests).
    """

    epsilon: float = 1.0
    sigma: float = 1.0
    cutoff: float = 2.5
    shifted: bool = True

    def __post_init__(self) -> None:
        if self.epsilon <= 0 or self.sigma <= 0 or self.cutoff <= 0:
            raise ValueError("LJ parameters must be positive")

    @property
    def shift(self) -> float:
        """Potential value at the cutoff (zero when not shifting)."""
        if not self.shifted:
            return 0.0
        sr6 = (self.sigma / self.cutoff) ** 6
        return 4.0 * self.epsilon * (sr6 * sr6 - sr6)


def lj_pair_energy(r: float, p: LjParams) -> float:
    """Analytic pair energy 4 eps [(s/r)^12 - (s/r)^6] (no shift)."""
    sr6 = (p.sigma / r) ** 6
    return 4.0 * p.epsilon * (sr6 * sr6 - sr6)


def lj_forces(pos: np.ndarray, box: float, nlist: NeighborList,
              params: LjParams) -> tuple[np.ndarray, float]:
    """LJ forces and total energy from the half neighbour list."""
    n = pos.shape[0]
    forces = np.zeros_like(pos)
    if nlist.n_pairs == 0:
        return forces, 0.0
    i = nlist.pairs[:, 0]
    j = nlist.pairs[:, 1]
    d = minimum_image(pos[i] - pos[j], box)
    r2 = (d ** 2).sum(axis=1)
    mask = r2 <= params.cutoff ** 2
    i, j, d, r2 = i[mask], j[mask], d[mask], r2[mask]
    if i.size == 0:
        return forces, 0.0
    inv_r2 = (params.sigma ** 2) / r2
    sr6 = inv_r2 ** 3
    energy = float(np.sum(4.0 * params.epsilon * (sr6 * sr6 - sr6)
                          - params.shift))
    # F = 24 eps (2 sr12 - sr6) / r^2 * d
    fmag = 24.0 * params.epsilon * (2.0 * sr6 * sr6 - sr6) / r2
    fvec = fmag[:, None] * d
    np.add.at(forces, i, fvec)
    np.add.at(forces, j, -fvec)
    return forces, energy


@dataclass(frozen=True)
class EwaldParams:
    """Classical Ewald splitting: alpha screening + k-space cutoff."""

    alpha: float = 1.0
    kmax: int = 8
    real_cutoff: float = 3.0

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.kmax < 1 or self.real_cutoff <= 0:
            raise ValueError("invalid Ewald parameters")


def ewald_real_space(pos: np.ndarray, charges: np.ndarray, box: float,
                     nlist: NeighborList,
                     params: EwaldParams) -> tuple[np.ndarray, float]:
    """Real-space (erfc-screened) part of the Ewald sum."""
    from scipy.special import erfc  # 0.3 s the timing model never pays
    forces = np.zeros_like(pos)
    if nlist.n_pairs == 0:
        return forces, 0.0
    i = nlist.pairs[:, 0]
    j = nlist.pairs[:, 1]
    d = minimum_image(pos[i] - pos[j], box)
    r2 = (d ** 2).sum(axis=1)
    mask = r2 <= params.real_cutoff ** 2
    i, j, d, r2 = i[mask], j[mask], d[mask], r2[mask]
    if i.size == 0:
        return forces, 0.0
    r = np.sqrt(r2)
    qq = charges[i] * charges[j]
    a = params.alpha
    energy = float(np.sum(qq * erfc(a * r) / r))
    fmag = qq * (erfc(a * r) / r +
                 2.0 * a / np.sqrt(np.pi) * np.exp(-(a * r) ** 2)) / r2
    fvec = fmag[:, None] * d
    np.add.at(forces, i, fvec)
    np.add.at(forces, j, -fvec)
    return forces, energy


def ewald_reciprocal(pos: np.ndarray, charges: np.ndarray, box: float,
                     params: EwaldParams) -> tuple[np.ndarray, float]:
    """Reciprocal-space Ewald sum (direct k-sum; exact reference).

    The distributed benchmark path replaces this with the FFT-mesh
    version; this direct sum is the accuracy anchor.
    """
    n = pos.shape[0]
    a = params.alpha
    two_pi = 2.0 * np.pi / box
    ks = np.arange(-params.kmax, params.kmax + 1)
    kx, ky, kz = np.meshgrid(ks, ks, ks, indexing="ij")
    kvecs = np.stack([kx.ravel(), ky.ravel(), kz.ravel()], axis=1) * two_pi
    k2 = (kvecs ** 2).sum(axis=1)
    keep = k2 > 1e-12
    kvecs, k2 = kvecs[keep], k2[keep]
    phases = pos @ kvecs.T                        # (n, nk)
    s_re = charges @ np.cos(phases)               # structure factor
    s_im = charges @ np.sin(phases)
    prefac = (4.0 * np.pi / box ** 3) * np.exp(-k2 / (4 * a * a)) / k2
    energy = 0.5 * float(np.sum(prefac * (s_re ** 2 + s_im ** 2)))
    # forces: F_i = q_i sum_k prefac * k * (sin(k.r_i) S_re - cos(k.r_i) S_im)
    sin_p = np.sin(phases)
    cos_p = np.cos(phases)
    coeff = prefac * (sin_p * s_re - cos_p * s_im)  # (n, nk)
    forces = charges[:, None] * (coeff @ kvecs)
    # self-energy correction
    energy -= a / np.sqrt(np.pi) * float(np.sum(charges ** 2))
    return forces, energy


def coulomb_energy(pos: np.ndarray, charges: np.ndarray, box: float,
                   nlist: NeighborList, params: EwaldParams) -> float:
    """Full Ewald electrostatic energy (real + reciprocal + self)."""
    _, e_real = ewald_real_space(pos, charges, box, nlist, params)
    _, e_recip = ewald_reciprocal(pos, charges, box, params)
    return e_real + e_recip


def madelung_nacl(cells: int = 2, alpha: float = 3.0,
                  kmax: int = 20) -> float:
    """Madelung constant of rock salt computed via Ewald (test anchor).

    Builds a ``2*cells`` cubed NaCl lattice with unit spacing and returns
    the energy per ion pair divided by the nearest-neighbour Coulomb
    energy; the literature value is -1.7475646.
    """
    npts = 2 * cells
    grid = np.arange(npts)
    x, y, z = np.meshgrid(grid, grid, grid, indexing="ij")
    pos = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1).astype(float)
    charges = np.where((x + y + z).ravel() % 2 == 0, 1.0, -1.0)
    box = float(npts)
    from .neighbor import build_neighbor_list

    rcut = min(3.0, box / 2 - 0.01)
    nlist = build_neighbor_list(pos, box, cutoff=rcut, skin=0.0)
    params = EwaldParams(alpha=alpha, kmax=kmax, real_cutoff=rcut)
    energy = coulomb_energy(pos, charges, box, nlist, params)
    n_ions = pos.shape[0]
    return 2.0 * energy / n_ions  # energy per ion pair at unit spacing
