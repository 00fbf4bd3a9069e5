"""Point-cloud cleanup: voxel downsampling, pass-through, clustering.

All filters are subtractive or averaging; none invents points, so the
output size never exceeds the input size.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree


def voxel_downsample(points: np.ndarray, voxel: float) -> np.ndarray:
    """One centroid per occupied voxel, emitted in voxel-key order."""
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) == 0:
        return pts.reshape(0, 3)
    keys = np.floor(pts / voxel).astype(np.int64)
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    keys = keys[order]
    pts = pts[order]
    change = np.any(np.diff(keys, axis=0) != 0, axis=1)
    starts = np.concatenate([[0], np.nonzero(change)[0] + 1, [len(pts)]])
    out = np.add.reduceat(pts, starts[:-1], axis=0)
    counts = np.diff(starts)
    return out / counts[:, None]


def passthrough(points: np.ndarray, values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Keep points whose companion scalar lies in [lo, hi]."""
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) == 0:
        return pts.reshape(0, 3)
    vals = np.asarray(values, dtype=np.float64)
    keep = (vals >= lo) & (vals <= hi)
    return pts[keep]


def largest_euclidean_cluster(points: np.ndarray, radius: float,
                              min_size: int) -> np.ndarray:
    """Largest connected component under single-linkage distance ``radius``.

    Returns the member points (empty when the largest component is smaller
    than ``min_size``). Ties pick the cluster containing the lowest index.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if n == 0:
        return pts.reshape(0, 3)
    pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")
    # min-label propagation: hook the larger label of each unsettled pair
    # onto the smaller, then jump pointers until every label is a root;
    # at the fixed point each label is the lowest index in its component
    labels = np.arange(n)
    i, j = pairs[:, 0], pairs[:, 1]
    while True:
        li, lj = labels[i], labels[j]
        unsettled = li != lj
        if not unsettled.any():
            break
        li, lj = li[unsettled], lj[unsettled]
        np.minimum.at(labels, np.maximum(li, lj), np.minimum(li, lj))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
    counts = np.bincount(labels)
    # labels are lowest member indices, so the first maximum is the
    # largest component holding the lowest point index
    best = int(np.argmax(counts))
    if counts[best] < min_size:
        return pts[:0]
    return pts[labels == best]
