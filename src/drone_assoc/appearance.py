"""Appearance memory for tracks: a confidence-adaptive EMA over the local
feature plus a small LRU bank of historically distinct "key" features.

The tracker stores both as arrays, one row per track: a gallery block
(N, 1 + K, D) whose slot 0 holds the local feature and slots 1..K the key
bank, a presence mask for the local feature, the bank's fill count (N,) and
its last-used frames (N, K). Bank slots stay in list order: an insert lands
at the fill count, an eviction shifts the tail left. Each operation runs on
many rows at once:

- blend_rows folds matched detections into their local features;
- insert_keys runs the novelty test of matched detections against their
  banks and inserts or refreshes, in place;
- gallery_pair_costs scores (track, detection) pairs, each against the
  present slots of its track's gallery. The tracker gates first and scores
  only the pairs that pass the IoU and class gates.

The one-row and all-pairs adapters (update_local_feature, maybe_insert_key
with its KeyFeatureBank, appearance_cost_matrix) have no caller in the
package. They stay only because the benchmark's tracer looks them up by name.

All features are unit-norm float64 vectors. Cosine similarity is therefore
a plain dot product. Two rounding rules keep the batched forms equal bit for
bit to the one-vector arithmetic: the blend weight comes from math.exp once
per row, and every similarity, novelty test and pair score alike, is a
stacked (1, D) @ (D, 1) product, which runs np.dot's kernel, not a
(K, D) @ (D, M) product, which does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .core import normalize_rows


def adaptive_alpha(s: float, theta: float, alpha_f: float) -> float:
    """Blend weight for the previous feature given detection confidence s.

    alpha = alpha_f + (1 - alpha_f) * exp(theta - s), clamped to <= 1. At
    s = theta the weight is exactly 1 (no update from borderline scores);
    it decays monotonically toward alpha_f as confidence grows. The one-row
    call of adaptive_alphas.
    """
    return float(adaptive_alphas([s], theta, alpha_f)[0])


def adaptive_alphas(scores: Sequence[float], theta: float, alpha_f: float) -> np.ndarray:
    """adaptive_alpha of each score, as an (R,) array. The exponential is
    math.exp, not np.exp: the two round differently on about 5% of
    arguments. The subtraction, scaling and clamp are the same IEEE
    operations in numpy as in scalar code."""
    scores = np.asarray(scores, dtype=np.float64)
    growth = np.fromiter(map(math.exp, (theta - scores).tolist()), dtype=np.float64,
                         count=scores.shape[0])
    return np.minimum(1.0, alpha_f + (1.0 - alpha_f) * growth)


def blend_rows(prev: np.ndarray, feats: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Row-wise alpha-weighted average of (R, D) unit features, renormalized:
    row r is alphas[r] * prev[r] + (1 - alphas[r]) * feats[r], scaled to
    unit norm. A blend with norm below 1e-12 (a weight of 0.5 on opposite
    features cancels) has no direction, and its row is prev[r] as it was."""
    a = alphas[:, None]
    blend = a * prev + (1.0 - a) * feats
    cancel = np.sqrt((blend[:, None, :] @ blend[:, :, None]).reshape(-1)) < 1e-12
    if not cancel.any():
        return normalize_rows(blend)
    out = prev.copy()
    out[~cancel] = normalize_rows(blend[~cancel])
    return out


def update_local_feature(
    track: Any, f: np.ndarray, s: float, theta: float, alpha_f: float
) -> np.ndarray:
    """Fold a matched detection's feature into `track.local_feature`, the
    one attribute of `track` it reads and sets; the one-row call of
    blend_rows."""
    f = np.asarray(f, dtype=np.float64)
    if track.local_feature is None:
        track.local_feature = f
    else:
        track.local_feature = blend_rows(
            track.local_feature[None], f[None], adaptive_alphas([s], theta, alpha_f))[0]
    return track.local_feature


def insert_keys(
    bank: np.ndarray,
    last_used: np.ndarray,
    fill: np.ndarray,
    rows: np.ndarray,
    feats: np.ndarray,
    frame: int,
    novelty_threshold: float,
) -> np.ndarray:
    """Offer feats[r] to the key bank of row rows[r], in place; returns the
    (R,) mask of rows that inserted (the others refreshed).

    `bank` is (N, K, D) with `last_used` (N, K) and `fill` (N,); `rows` are
    distinct. A feature is novel when its minimum cosine distance to the
    filled slots exceeds the threshold, or when the bank is empty. A novel
    feature goes in at the fill count; in a full bank the least-recently-used
    slot (the first of equal ones) is evicted and the tail shifts left, so
    the new feature lands last. Otherwise the first most similar slot is
    marked used at `frame`.
    """
    k = bank.shape[1]
    n_filled = fill[rows]
    slots = np.arange(k)
    # similarities over the slots any of these banks has filled
    depth = int(n_filled.max(initial=0))
    sims = np.full((rows.shape[0], k), -np.inf)
    sims[:, :depth] = (bank[rows, :depth][:, :, None, :]
                       @ feats[:, None, :, None])[:, :, 0, 0]
    sims[slots[None, :] >= n_filled[:, None]] = -np.inf
    closest = np.argmax(sims, axis=1)
    best = sims[np.arange(rows.shape[0]), closest]
    novel = (n_filled == 0) | (1.0 - best > novelty_threshold)

    keep = ~novel
    last_used[rows[keep], closest[keep]] = frame

    full = novel & (n_filled >= k)
    if full.any():
        r = rows[full]
        evict = np.argmin(last_used[r], axis=1)
        src = np.minimum(slots[None, :] + (slots[None, :] >= evict[:, None]), k - 1)
        bank[r] = bank[r[:, None], src]
        last_used[r] = last_used[r[:, None], src]
    r = rows[novel]
    slot = np.minimum(fill[r], k - 1)
    bank[r, slot] = feats[novel]
    last_used[r, slot] = frame
    fill[r] = slot + 1
    return novel


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
    closest entry; the one-row call of insert_keys. Mutates and returns the
    bank."""
    f = np.asarray(f, dtype=np.float64)
    n = len(bank.entries)
    keys = np.zeros((1, bank.capacity, f.shape[0]), dtype=np.float64)
    used = np.zeros((1, bank.capacity), dtype=np.int64)
    if n:
        keys[0, :n] = bank.features()
        used[0, :n] = [e.last_used for e in bank.entries]
    fill = np.array([n])
    insert_keys(keys, used, fill, np.array([0]), f[None], frame, novelty_threshold)
    bank.entries = [BankEntry(keys[0, i], int(used[0, i])) for i in range(fill[0])]
    return bank


def gallery_pair_costs(
    gallery: np.ndarray, present: np.ndarray, rows: np.ndarray, feats: np.ndarray
) -> np.ndarray:
    """(P,) appearance costs of P (gallery, feature) pairs: for pair p, 1 -
    the best cosine similarity of feats[p] over the present slots of
    gallery rows[p], clamped to [0, 1]; a gallery without a present slot
    scores a neutral 0.

    `gallery` is (N, S, D) with the (N, S) mask `present`; `rows` is (P,)
    and `feats` (P, D). Only the present slots are gathered, in (pair, slot)
    order, and each similarity is a (1, D) @ (D, 1) product.
    """
    costs = np.zeros(rows.shape[0], dtype=np.float64)
    slots = present[rows]
    pair, slot = np.nonzero(slots)
    if pair.size == 0:
        return costs
    sims = (gallery[rows[pair], slot][:, None, :] @ feats[pair][:, :, None])[:, 0, 0]
    counts = slots.sum(axis=1)
    owners = np.flatnonzero(counts)
    starts = np.zeros(owners.size, dtype=np.intp)
    np.cumsum(counts[owners][:-1], out=starts[1:])
    costs[owners] = np.clip(1.0 - np.maximum.reduceat(sims, starts), 0.0, 1.0)
    return costs


def appearance_cost_matrix(tracks: Sequence[Any], feats: np.ndarray) -> np.ndarray:
    """(N, M) appearance costs of N tracks against an (M, D) block of
    features: gallery_pair_costs of every pair, each gallery the track's
    `local_feature` (or None), then its `key_bank` features (a
    KeyFeatureBank or None), the only attributes of a track it reads. Rows
    follow the track order; a track without a feature scores a neutral 0."""
    galleries = []
    for t in tracks:
        rows = [] if t.local_feature is None else [t.local_feature]
        if t.key_bank is not None:
            rows.extend(t.key_bank.features())
        galleries.append(rows)
    width = max(map(len, galleries), default=0)
    gallery = np.zeros((len(tracks), width, feats.shape[1]), dtype=np.float64)
    present = np.zeros((len(tracks), width), dtype=bool)
    for j, rows in enumerate(galleries):
        if rows:
            gallery[j, :len(rows)] = rows
            present[j, :len(rows)] = True
    shape = (len(tracks), feats.shape[0])
    rows, cols = np.indices(shape).reshape(2, -1)
    return gallery_pair_costs(gallery, present, rows, feats[cols]).reshape(shape)
