"""Uplink energy beamforming: maximal ratio transmission at the UEs.

A beamformer set is a (K, N) complex array, one transmit vector per UE, in
sqrt(mW) amplitude units; feasibility means ||w_k||^2 <= p_max_k.  MRT aligns
each vector with its channel at full power, which maximizes the RF power
delivered to the single-antenna harvester (Cauchy-Schwarz), and the harvester
output is monotone in that input, so no other uplink design is needed.
"""

import numpy as np


def mrt_set(channels, p_max) -> np.ndarray:
    """Full-power MRT beamformers for every UE, shape (K, N).

    Row k is sqrt(p_max_k) * h_k / ||h_k||.  A UE whose channel vector is
    exactly zero (impossible under the fading model, reachable in synthetic
    tests) gets a zero beam.  The norms are summed as np.linalg.norm sums
    them, so every row is bitwise that expression with np.linalg.norm.
    """
    caps = np.broadcast_to(np.asarray(p_max, dtype=float), (channels.n_ues,))
    if np.any(caps < 0):
        raise ValueError("power cap must be nonnegative")
    h = channels.h
    norms = np.sqrt(np.vecdot(h.real, h.real) + np.vecdot(h.imag, h.imag))[:, None]
    return np.divide(
        np.sqrt(caps)[:, None] * h, norms, out=np.zeros_like(h), where=norms != 0.0
    )


def input_power(channels, beams: np.ndarray) -> float:
    """Total RF power sum_k |h_k^H w_k|^2 (mW) arriving at the harvester."""
    w = np.asarray(beams, dtype=complex)
    if w.shape != channels.h.shape:
        raise ValueError(
            f"beamformer set shape {w.shape} does not match channels {channels.h.shape}"
        )
    inner = np.einsum("kn,kn->k", channels.h.conj(), w)
    return float(np.sum(np.abs(inner) ** 2))
