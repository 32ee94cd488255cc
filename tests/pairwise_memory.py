"""PAIRWISE's peak memory at 1,000 subscriptions: no per-pair memo.

``pairwise_cluster`` asks the closeness kernel for a row against every
surviving cluster at every merge.  While the kernel remembered the
counts of every pair it was asked (and the poset every cover verdict),
the process peaked at 159 MB here and at 569 MB at 2,000 subscriptions;
recomputing each count from the two cached packs peaks at about 23 MB.

Run it as a script to cluster the offline profiles of
``cluster_homogeneous(100, scale=0.25)``, seed 2011 (1,000
subscriptions), under XOR down to one cluster per broker in the pool
(PAIRWISE-N's count)::

    PYTHONPATH=src python tests/pairwise_memory.py

It prints the clustering time, the process's peak RSS and a digest of
the clusters, and exits 1 if the peak RSS is above 60 MB.  The time is
printed, not checked.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

from repro.core.pairwise import pairwise_cluster
from repro.core.units import units_from_records
from repro.workloads.offline import offline_gather
from repro.workloads.scenarios import cluster_homogeneous

#: Peak RSS above this fails the check (MB).
LIMIT_MB = 60.0


def peak_rss_mb() -> float:
    """The process's peak resident set so far (``ru_maxrss`` is in kB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    seed = 2011
    gathered = offline_gather(cluster_homogeneous(100, scale=0.25), seed=seed)
    units = units_from_records(gathered.records, gathered.directory)
    count = min(len(gathered.broker_pool), len(units))
    started = time.perf_counter()
    clusters = pairwise_cluster(units, count, gathered.directory, "xor")
    seconds = time.perf_counter() - started
    peak = peak_rss_mb()
    members = sorted(sorted(cluster.member_ids) for cluster in clusters)
    digest = hashlib.sha256(json.dumps(members).encode()).hexdigest()[:16]
    print(
        f"pairwise_cluster (xor), seed {seed}, {len(units)} subscriptions -> "
        f"{len(clusters)} clusters (digest {digest}): {seconds:.2f} s, "
        f"peak RSS {peak:.1f} MB (limit {LIMIT_MB:.0f} MB)"
    )
    if peak > LIMIT_MB:
        print("peak RSS above the limit: is a per-pair memo back?")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
