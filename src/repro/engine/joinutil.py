"""Vectorized equi-join matching shared by the join operators.

:func:`match_keys` computes the row-index pairs of an inner equi-join
between two key arrays with no per-row Python work; :func:`semijoin_mask`
computes membership masks. Both delegate to
:mod:`repro.engine.kernels`, which picks the fastest numpy formulation
for the input's size and key range while guaranteeing output
bit-identical to the reference numpy implementations that used to live
here.
"""

from __future__ import annotations

import numpy as np

from repro.engine import kernels


def match_keys(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row-index pairs ``(left_idx, right_idx)`` where keys are equal.

    Handles duplicate keys on both sides (full cross product per key).
    Output order groups matches by left row.
    """
    return kernels.match_keys(left_keys, right_keys)


def semijoin_mask(left_keys: np.ndarray, right_keys: np.ndarray) -> np.ndarray:
    """Boolean mask over ``left_keys`` marking rows with a match.

    Small inputs use ``np.isin`` exactly as before; large integer
    inputs with a compact key range (the join-key case) use a dense
    boolean table instead of sorting. Results are identical on every
    path.
    """
    if not len(left_keys):
        return np.zeros(0, dtype=bool)
    if not len(right_keys):
        return np.zeros(len(left_keys), dtype=bool)
    return kernels.membership(left_keys, right_keys)
