"""Point-cloud cleanup: labeled voxel downsampling and clustering.

Both filters are subtractive or averaging; neither invents points, so
the output size never exceeds the input size.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree


def voxel_downsample(points: np.ndarray, labels: np.ndarray,
                     voxel: float) -> tuple:
    """One centroid per occupied voxel of each label: ``(centroids, labels)``.

    Points of different labels never share a centroid. The output is in
    (label, voxel-key) order, so each label's centroids are one contiguous
    slice, equal bit for bit to downsampling that label's points alone:
    within a voxel the points are summed in input order.

    The sort key packs label, voxel key and point index into one int64,
    most significant first. The index makes every key distinct, so one
    plain sort gives the stable order. A cloud whose bounding box holds
    too many voxels for that (at 2 cm voxels and 20k points, a box some
    700 m on a side) raises ``ValueError``.
    """
    pts = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(pts)
    if n == 0:
        return pts.reshape(0, 3), labels[:0]
    cells = np.floor(pts / voxel).astype(np.int64)
    columns = [labels, cells[:, 0], cells[:, 1], cells[:, 2]]
    lows = [int(c.min()) for c in columns]
    spans = [int(c.max()) - lo + 1 for c, lo in zip(columns, lows)]
    if math.prod(spans) * n > np.iinfo(np.int64).max:
        raise ValueError(f"{n} points span {spans[1:]} voxels of {voxel} in "
                         f"{spans[0]} labels, too many for one sort key")
    key = np.zeros(n, dtype=np.int64)
    for column, lo, span in zip(columns, lows, spans):
        key *= span
        key += column
        key -= lo
    key, order = np.divmod(np.sort(key * n + np.arange(n)), n)
    starts = np.concatenate(([0], np.flatnonzero(key[1:] != key[:-1]) + 1))
    # np.take gathers rows about three times faster than fancy indexing
    out = np.add.reduceat(np.take(pts, order, axis=0), starts, axis=0)
    counts = np.diff(starts, append=n)
    return out / counts[:, None], labels[order[starts]]


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
