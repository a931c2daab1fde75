"""GroupBy — the paper's shuffle-heavy benchmark (§III-B, Fig 4(a)).

Three stages: a computation stage generating key/value pairs in memory, a
storing stage (ShuffleMapTasks partition and materialise the intermediate
data), and a fetching stage shuffling it over the network.  Its defining
property: **intermediate data size equals input size**, which makes it
the probe for every storage/shuffle experiment (Figs 7, 8, 12, 13, 14).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.jobspec import JobSpec
from repro.core.local import LocalContext

GB = 1024.0 ** 3
MB = 1024.0 ** 2

__all__ = ["groupby_spec", "run_groupby_local"]


def groupby_spec(data_bytes: float,
                 split_bytes: float = 256 * MB,
                 shuffle_store: str = "ramdisk",
                 fetch_mode: Optional[str] = None,
                 n_reducers: Optional[int] = None,
                 generate_rate: float = 350 * MB,
                 reduce_rate: float = 1.5 * GB,
                 combiner: bool = False,
                 key_skew: float = 0.0,
                 n_keys: int = 1 << 20,
                 pair_bytes: float = 100.0) -> JobSpec:
    """The simulated GroupBy job.

    ``data_bytes`` is both input and intermediate volume (ratio 1.0).
    The paper sweeps it from 100 GB to 1.5 TB and varies where the
    intermediate data lives (``shuffle_store`` / ``fetch_mode``;
    ``fetch_mode=None`` picks the store's natural mode, see
    :attr:`JobSpec.fetch_mode`).

    ``combiner=True`` merges each node's pairs before the storing stage;
    the shuffle volume then follows the expected distinct-key count of
    the ``(key_skew, n_keys, pair_bytes)`` distribution — the same knobs
    ``datagen.generate_kv_pairs`` draws real pairs from — instead of the
    raw 1:1 ratio.
    """
    return JobSpec(
        name="GroupBy",
        input_bytes=data_bytes,
        split_bytes=split_bytes,
        map_compute_rate=generate_rate,
        reduce_compute_rate=reduce_rate,
        intermediate_ratio=1.0,
        input_source="generated",
        shuffle_store=shuffle_store,
        fetch_mode=fetch_mode,
        n_reducers=n_reducers,
        store_noise_sigma=0.10,
        combiner=combiner,
        key_skew=key_skew,
        n_keys=n_keys,
        pair_bytes=pair_bytes,
    )


def run_groupby_local(pairs: List[Tuple[int, int]],
                      ctx: Optional[LocalContext] = None,
                      num_partitions: Optional[int] = None
                      ) -> Dict[int, List[int]]:
    """Really group key/value pairs with the RDD API."""
    ctx = ctx if ctx is not None else LocalContext(parallelism=4)
    grouped = (ctx.parallelize(pairs)
               .group_by_key(num_partitions)
               .collect())
    return {k: sorted(vs) for k, vs in grouped}
