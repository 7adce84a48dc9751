"""Instruction clustering by EM signature (paper §V-A "Model Building").

Measuring all ~3*10^8 instruction combinations is infeasible, so the paper
clusters instructions with similar EM patterns using hierarchical
agglomerative clustering with a cross-correlation distance, finding that the
RV32IM ISA collapses into 7 clusters (Table I) and training only on one
representative per cluster (reducing ~300M measurements to ~16k).

Average linkage maintains the merged distances incrementally with the
Lance-Williams recurrence,

    d(k, a+b) = (n_a * d(k, a) + n_b * d(k, b)) / (n_a + n_b),

scanning pairs in lexicographic order with strict-< acceptance, so exact
ties resolve to the lowest-index pair, the same merges as re-averaging
every member pair distance at each step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..signal.metrics import cross_correlation, normalize_energy


_SILENCE = 1e-12    # matches the energy epsilon in signal.metrics


def signature_distance(first: np.ndarray, second: np.ndarray) -> float:
    """1 - normalized cross-correlation of two signature waveforms."""
    length = min(len(first), len(second))
    return 1.0 - cross_correlation(
        normalize_energy(np.asarray(first[:length], dtype=float)),
        normalize_energy(np.asarray(second[:length], dtype=float)))


def signature_distance_matrix(signatures: Dict[str, np.ndarray]
                              ) -> Tuple[List[str], np.ndarray]:
    """All-pairs :func:`signature_distance` matrix over ``signatures``.

    Returns ``(sorted names, symmetric matrix)`` with a zero diagonal.
    When every signature has the same length (the isolation probes all
    do) the matrix comes from one normalized Gram product instead of
    O(n^2) scalar correlation calls; mixed lengths fall back to the
    per-pair path because each pair is then truncated to its own common
    length before normalization.
    """
    names = sorted(signatures)
    count = len(names)
    matrix = np.zeros((count, count))
    if count == 0:
        return names, matrix
    lengths = {len(signatures[name]) for name in names}
    if len(lengths) == 1:
        stack = np.stack([np.asarray(signatures[name], dtype=float)
                          for name in names])
        rms = np.sqrt(np.mean(stack ** 2, axis=1))
        silent = rms < _SILENCE
        unit = stack / np.where(silent, 1.0, rms)[:, None]
        dots = unit @ unit.T
        energy = np.diag(dots).copy()
        norm = np.sqrt(np.outer(energy, energy))
        corr = dots / np.where(norm < _SILENCE, 1.0, norm)
        # silent signatures follow the cross_correlation conventions:
        # silent-vs-live correlates 0, silent-vs-silent correlates 1
        corr[silent, :] = 0.0
        corr[:, silent] = 0.0
        corr[np.ix_(silent, silent)] = 1.0
        matrix = 1.0 - corr
        np.fill_diagonal(matrix, 0.0)
        return names, matrix
    for i in range(count):
        for j in range(i + 1, count):
            dist = signature_distance(signatures[names[i]],
                                      signatures[names[j]])
            matrix[i, j] = matrix[j, i] = dist
    return names, matrix


@dataclass
class ClusterResult:
    """Outcome of hierarchical clustering over instruction signatures."""

    labels: Dict[str, int]                 # item name -> cluster id
    merge_heights: List[float] = field(default_factory=list)

    @property
    def num_clusters(self) -> int:
        """Number of distinct clusters."""
        return len(set(self.labels.values()))

    def members(self, cluster: int) -> List[str]:
        """Item names in ``cluster``, sorted."""
        return sorted(name for name, label in self.labels.items()
                      if label == cluster)

    def clusters(self) -> List[List[str]]:
        """All clusters as sorted member lists, largest first."""
        groups = [self.members(cluster)
                  for cluster in sorted(set(self.labels.values()))]
        return sorted(groups, key=len, reverse=True)

    def table(self) -> str:
        """Formatted Table-I-style cluster listing."""
        lines = ["cluster  size  members"]
        for index, group in enumerate(self.clusters(), start=1):
            shown = ", ".join(group[:6]) + (", ..." if len(group) > 6
                                            else "")
            lines.append(f"{index:7d}  {len(group):4d}  {shown}")
        return "\n".join(lines)


def _linkage_lw(distance: np.ndarray, target: int,
                distance_threshold: Optional[float]
                ) -> Tuple[List[List[int]], List[float]]:
    """Vectorized average linkage via the Lance-Williams recurrence.

    One working copy of the distance matrix is kept; each merge updates
    row/column ``a`` in O(n) with the size-weighted average of rows ``a``
    and ``b``, and the cheapest active pair is found with a flat argmin
    over the masked upper triangle.  The row-major argmin visits pairs
    in lexicographic (a, b) order, so exact ties resolve to the
    lowest-index pair.
    """
    count = distance.shape[0]
    work = distance.astype(float, copy=True)
    active = np.ones(count, dtype=bool)
    sizes = np.ones(count, dtype=int)
    members: Dict[int, List[int]] = {i: [i] for i in range(count)}
    upper = np.triu(np.ones((count, count), dtype=bool), 1)
    merge_heights: List[float] = []
    remaining = count
    while remaining > target:
        masked = np.where(upper & active[:, None] & active[None, :],
                          work, np.inf)
        a, b = divmod(int(np.argmin(masked)), count)
        height = float(masked[a, b])
        if distance_threshold is not None and height > distance_threshold:
            break
        others = active.copy()
        others[a] = others[b] = False
        merged = ((sizes[a] * work[a] + sizes[b] * work[b]) /
                  (sizes[a] + sizes[b]))
        work[a] = np.where(others, merged, work[a])
        work[:, a] = work[a]
        sizes[a] += sizes[b]
        active[b] = False
        members[a] = members[a] + members.pop(b)
        merge_heights.append(height)
        remaining -= 1
    return [members[key] for key in sorted(members)], merge_heights


def agglomerative_cluster(signatures: Dict[str, np.ndarray],
                          num_clusters: Optional[int] = 7,
                          distance_threshold: Optional[float] = None
                          ) -> ClusterResult:
    """Average-linkage hierarchical agglomerative clustering.

    ``signatures`` maps item name -> signature waveform.  Merging stops
    when ``num_clusters`` remain, or — if ``distance_threshold`` is given —
    when the cheapest merge exceeds the threshold (whichever first).
    """
    names, distance = signature_distance_matrix(signatures)
    count = len(names)
    if count == 0:
        return ClusterResult(labels={})
    target = num_clusters if num_clusters is not None else 1
    groups, merge_heights = _linkage_lw(distance, target,
                                        distance_threshold)

    labels: Dict[str, int] = {}
    for cluster_id, members in enumerate(sorted(groups, key=min)):
        for index in members:
            labels[names[index]] = cluster_id
    return ClusterResult(labels=labels, merge_heights=merge_heights)


def cluster_instruction_signatures(
        signatures: Dict[str, np.ndarray],
        num_clusters: int = 7) -> ClusterResult:
    """Cluster per-instruction NOP->inst->NOP signature waveforms.

    This is exactly the paper's Table-I construction: the signatures come
    from the isolation probes, and items whose waveforms cross-correlate
    strongly land in one cluster.
    """
    return agglomerative_cluster(signatures, num_clusters=num_clusters)
