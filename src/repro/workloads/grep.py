"""Grep — the paper's scan-dominated benchmark (§III-B, Fig 4(b)).

Searches documents for a regular expression: very low computation per
byte, intermediate data of only 1–200 MB, which makes its performance a
direct probe of the *input* storage architecture (Fig 5(a), Fig 9(a)).
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.core.jobspec import JobSpec
from repro.core.local import LocalContext

GB = 1024.0 ** 3
MB = 1024.0 ** 2

__all__ = ["grep_spec", "run_grep_local"]


def grep_spec(input_bytes: float,
              split_bytes: float = 32 * MB,
              input_source: str = "hdfs",
              scan_rate: float = 250 * MB,
              intermediate_bytes: float = 64 * MB,
              n_reducers: Optional[int] = None,
              shuffle_store: Optional[str] = None,
              combiner: bool = False,
              key_skew: float = 0.0,
              n_keys: int = 1 << 16,
              pair_bytes: float = 200.0) -> JobSpec:
    """The simulated Grep job.

    ``scan_rate`` is the per-core regex-scan throughput — deliberately
    high: Grep's cost is reading, not computing.  The tiny intermediate
    volume (1–200 MB in the paper's runs) still exercises the shuffle
    machinery without ever making it the bottleneck.

    ``shuffle_store=None`` picks the configuration's natural device
    (RAMDisk shuffle dirs, or Lustre when the input comes from Lustre);
    pass ``"ramdisk"``/``"ssd"``/``"lustre"`` to pin it.

    ``combiner=True`` merges matched lines per node before storing; with
    uniform match keys (``key_skew=0``) and ~200-byte records the
    reduction is modest — Grep's shuffle is never the bottleneck, which
    is exactly why it belongs in the sweep as the null case.
    """
    ratio = min(1.0, intermediate_bytes / input_bytes) if input_bytes else 0.0
    if shuffle_store is None:
        shuffle_store = "ramdisk" if input_source != "lustre" else "lustre"
    return JobSpec(
        name="Grep",
        input_bytes=input_bytes,
        split_bytes=split_bytes,
        map_compute_rate=scan_rate,
        intermediate_ratio=ratio,
        input_source=input_source,
        shuffle_store=shuffle_store,
        n_reducers=n_reducers,
        # A text corpus is ingested from outside through gateway nodes, so
        # its HDFS blocks are hotspot-skewed; scan times vary per split
        # (match density, record lengths).
        hdfs_placement="skewed",
        compute_noise_sigma=0.30,
        combiner=combiner,
        key_skew=key_skew,
        n_keys=n_keys,
        pair_bytes=pair_bytes,
    )


def run_grep_local(lines: List[str], pattern: str,
                   ctx: Optional[LocalContext] = None) -> List[str]:
    """Really grep with the RDD API: filter lines matching ``pattern``."""
    ctx = ctx if ctx is not None else LocalContext(parallelism=4)
    regex = re.compile(pattern)
    return (ctx.parallelize(lines)
            .filter(lambda line: regex.search(line) is not None)
            .collect())
