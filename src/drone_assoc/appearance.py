"""Appearance memory for tracks: a confidence-adaptive EMA over the local
feature plus a small LRU bank of historically distinct "key" features.

All features are unit-norm float64 vectors. Cosine similarity is therefore
a plain dot product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import Track, normalize


def adaptive_alpha(s: float, theta: float, alpha_f: float) -> float:
    """Blend weight for the previous feature given detection confidence s.

    alpha = alpha_f + (1 - alpha_f) * exp(theta - s), clamped to <= 1. At
    s = theta the weight is exactly 1 (no update from borderline scores);
    it decays monotonically toward alpha_f as confidence grows.
    """
    return min(1.0, alpha_f + (1.0 - alpha_f) * math.exp(theta - s))


def blend_feature(prev: np.ndarray, f: np.ndarray, alpha: float) -> np.ndarray:
    """alpha-weighted average of two unit features, renormalized."""
    return normalize(alpha * prev + (1.0 - alpha) * f)


def update_local_feature(
    track: Track, f: np.ndarray, s: float, theta: float, alpha_f: float
) -> np.ndarray:
    """Fold a matched detection's feature into the track's local feature."""
    alpha = adaptive_alpha(s, theta, alpha_f)
    if track.local_feature is None:
        track.local_feature = np.asarray(f, dtype=np.float64)
    else:
        track.local_feature = blend_feature(track.local_feature, f, alpha)
    return track.local_feature


@dataclass
class BankEntry:
    feature: np.ndarray
    last_used: int


@dataclass
class KeyFeatureBank:
    """Bounded store of distinct appearance snapshots with LRU eviction."""

    capacity: int
    entries: list[BankEntry] = field(default_factory=list)

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("bank capacity must be >= 1")

    def features(self) -> list[np.ndarray]:
        return [e.feature for e in self.entries]


def maybe_insert_key(
    bank: KeyFeatureBank, f: np.ndarray, frame: int, novelty_threshold: float
) -> KeyFeatureBank:
    """Insert f as a key feature when it is novel enough, else touch the
    closest entry.

    Novelty is minimum cosine distance to the bank exceeding the threshold.
    Insertion into a full bank evicts the least-recently-used entry (ties
    broken toward the oldest slot). Mutates and returns the bank.
    """
    f = np.asarray(f, dtype=np.float64)
    if not bank.entries:
        bank.entries.append(BankEntry(f, frame))
        return bank
    sims = [float(np.dot(e.feature, f)) for e in bank.entries]
    best = max(sims)
    closest = sims.index(best)
    if 1.0 - best > novelty_threshold:
        if len(bank.entries) >= bank.capacity:
            ages = [e.last_used for e in bank.entries]
            bank.entries.pop(ages.index(min(ages)))
        bank.entries.append(BankEntry(f, frame))
    else:
        bank.entries[closest].last_used = frame
    return bank


def appearance_cost(track: Track, f: Optional[np.ndarray]) -> float:
    """1 - best cosine similarity of f against the track's local feature and
    its key bank, clamped to [0, 1]: one cell of appearance_cost_matrix.
    Neutral 0 when either side lacks a feature."""
    if f is None:
        return 0.0
    return float(appearance_cost_matrix([track], np.asarray(f)[None])[0, 0])


def appearance_cost_matrix(tracks: list[Track], feats: np.ndarray) -> np.ndarray:
    """appearance_cost of many tracks against an (M, D) block of features,
    through one stacked matmul over every track's gallery.

    Rows follow the track order; tracks without any stored feature get a
    neutral all-zero row.
    """
    block = np.zeros((len(tracks), feats.shape[0]), dtype=np.float64)
    rows: list[np.ndarray] = []
    owners: list[int] = []
    starts: list[int] = []
    for j, t in enumerate(tracks):
        gallery = _gallery_rows(t)
        if gallery:
            owners.append(j)
            starts.append(len(rows))
            rows.extend(gallery)
    if not rows:
        return block
    sims = np.array(rows, dtype=np.float64) @ feats.T
    best = np.maximum.reduceat(sims, starts, axis=0)
    block[owners] = np.clip(1.0 - best, 0.0, 1.0)
    return block


def _gallery_rows(track: Track) -> list[np.ndarray]:
    """The track's local feature, if any, then its key-bank features."""
    rows = [] if track.local_feature is None else [track.local_feature]
    if track.key_bank is not None:
        rows.extend(track.key_bank.features())
    return rows
