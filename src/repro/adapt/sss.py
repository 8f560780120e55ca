"""SSS clustering: subset-size selection from benchmarked latencies (§7.2).

**[reconstructed]** The thesis determines the subset sizes of its
hierarchical hybrid barriers by clustering the independently benchmarked
pairwise-latency matrix (Tables 7.1-7.2 show the output for 60 processes on
the 8x2x4 cluster and 115 on a 10x2x6 configuration).  We reconstruct the
procedure as:

1. split the observed off-diagonal latencies into *strata* by relative gap
   detection (same-socket, same-node and remote latencies differ by large
   factors, while in-stratum noise is a few percent), and
2. for each stratum bound, take the connected components of the graph that
   keeps only pairs at most that latent — processes mutually reachable
   through cheap links form one subset.

The output is a fine-to-coarse hierarchy of process subsets whose sizes are
the SSS table rows; the hierarchy is what Chapter 7's barrier generators
consume.  No topology information is used — only measured latencies, which
is the point: the platform profile alone reveals its structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import require_matrix, require_positive


@dataclass(frozen=True)
class ClusterLevel:
    """One stratum of the latency hierarchy."""

    threshold: float  # latency upper bound defining this level [s]
    subsets: tuple[tuple[int, ...], ...]  # disjoint rank groups

    @property
    def subset_sizes(self) -> list[int]:
        return [len(s) for s in self.subsets]

    @property
    def subset_count(self) -> int:
        return len(self.subsets)


def latency_strata(latency: np.ndarray, gap_ratio: float = 2.0) -> list[float]:
    """Upper bounds of the latency strata, fine to coarse.

    Sorted off-diagonal latencies are split wherever consecutive values
    jump by more than ``gap_ratio``; each stratum's bound is its largest
    member.
    """
    latency = require_matrix(latency, "latency")
    require_positive(gap_ratio, "gap_ratio")
    if gap_ratio <= 1.0:
        raise ValueError("gap_ratio must be > 1")
    p = latency.shape[0]
    off_diag = latency[~np.eye(p, dtype=bool)]
    values = np.sort(off_diag[off_diag > 0])
    if values.size == 0:
        return []
    bounds: list[float] = []
    for prev, curr in zip(values[:-1], values[1:]):
        if curr > prev * gap_ratio:
            bounds.append(float(prev))
    bounds.append(float(values[-1]))
    return bounds


def _components_under(latency: np.ndarray, bound: float) -> tuple[tuple[int, ...], ...]:
    # A zero off-diagonal entry means "no measurement", not a free link.
    sym = np.minimum(latency, latency.T)
    cheap = (sym > 0.0) & (sym <= bound)
    # Label propagation: every rank takes the least label among itself and
    # its cheap neighbours until none changes, so each component ends up
    # labelled by its lowest rank.
    labels = np.arange(latency.shape[0])
    while True:
        reached = np.where(cheap, labels, labels.size).min(axis=1, initial=labels.size)
        reached = np.minimum(labels, reached)
        if (reached == labels).all():
            break
        labels = reached
    return tuple(
        tuple(np.flatnonzero(labels == root).tolist()) for root in np.unique(labels)
    )


def sss_cluster(latency: np.ndarray, gap_ratio: float = 2.0) -> list[ClusterLevel]:
    """Full SSS clustering: one :class:`ClusterLevel` per stratum, fine to
    coarse.  The coarsest level has a single subset containing every rank
    (otherwise the platform is partitioned and no barrier can complete)."""
    latency = require_matrix(latency, "latency")
    p = latency.shape[0]
    if latency.shape != (p, p):
        raise ValueError("latency matrix must be square")
    levels = []
    for bound in latency_strata(latency, gap_ratio):
        subsets = _components_under(latency, bound)
        levels.append(ClusterLevel(threshold=bound, subsets=subsets))
    if levels and len(levels[-1].subsets) != 1:
        raise ValueError(
            "latency matrix is disconnected at the coarsest stratum; "
            "no global synchronisation is possible"
        )
    return levels


def nested_hierarchy(levels: list[ClusterLevel]) -> list[ClusterLevel]:
    """Drop degenerate levels (same partition as the previous one) so each
    remaining level strictly coarsens the hierarchy."""
    out: list[ClusterLevel] = []
    prev = None
    for level in levels:
        partition = level.subsets
        if prev is not None and partition == prev:
            continue
        out.append(level)
        prev = partition
    return out


def clustering_table(levels: list[ClusterLevel]) -> list[list]:
    """Rows of the Table 7.1/7.2 report: level, latency bound, number of
    subsets, and the distinct subset sizes with their multiplicities."""
    rows = []
    for idx, level in enumerate(levels):
        sizes = level.subset_sizes
        unique, counts = np.unique(sizes, return_counts=True)
        size_desc = " ".join(f"{c}x{s}" for s, c in zip(unique, counts))
        rows.append([idx, level.threshold, level.subset_count, size_desc])
    return rows
