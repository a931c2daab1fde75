"""WordCount — the canonical GroupBy-family workload.

The paper (§III-B) motivates GroupBy as the core of "many applications
including kMeans, wordcount and calculating transitive closure of a
graph".  WordCount is provided both as a real RDD program and as a
simulation spec: like GroupBy it shuffles every record, but map-side
combining shrinks the intermediate volume considerably (a knob the
`intermediate_ratio` expresses).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.jobspec import JobSpec
from repro.core.local import LocalContext

GB = 1024.0 ** 3
MB = 1024.0 ** 2

__all__ = ["wordcount_spec", "run_wordcount_local"]


def wordcount_spec(input_bytes: float,
                   split_bytes: float = 128 * MB,
                   input_source: str = "hdfs",
                   combine_ratio: float = 0.15,
                   scan_rate: float = 180 * MB,
                   n_reducers: Optional[int] = None,
                   shuffle_store: Optional[str] = None,
                   combiner: bool = False,
                   key_skew: float = 0.2,
                   n_keys: int = 60_000,
                   pair_bytes: float = 12.0) -> JobSpec:
    """Simulated WordCount.

    ``combine_ratio`` is the hand-tuned shuffle volume relative to input
    after map-side combining (word frequencies follow a Zipf law, so
    combining is very effective on natural text).  ``combiner=True``
    replaces that fixed ratio with the engine's in-node combiner: the
    map stage emits the *raw* pair stream (ratio 1.0) and the reduction
    is derived from the vocabulary model — ``n_keys`` distinct words,
    Zipf-ish frequencies (``key_skew``), ~``pair_bytes`` per ``(word,
    1)`` record.  ``shuffle_store=None`` picks the configuration's
    natural device; pass ``"ramdisk"``/``"ssd"``/``"lustre"`` to pin it.
    """
    if not 0 < combine_ratio <= 1:
        raise ValueError("combine_ratio must be in (0, 1]")
    if shuffle_store is None:
        shuffle_store = "ramdisk" if input_source != "lustre" else "lustre"
    return JobSpec(
        name="WordCount",
        input_bytes=input_bytes,
        split_bytes=split_bytes,
        map_compute_rate=scan_rate,
        intermediate_ratio=1.0 if combiner else combine_ratio,
        input_source=input_source,
        shuffle_store=shuffle_store,
        n_reducers=n_reducers,
        hdfs_placement="skewed",          # text corpus, like Grep
        compute_noise_sigma=0.25,
        combiner=combiner,
        key_skew=key_skew,
        n_keys=n_keys,
        pair_bytes=pair_bytes,
    )


def run_wordcount_local(lines: List[str],
                        ctx: Optional[LocalContext] = None,
                        num_partitions: Optional[int] = None
                        ) -> Dict[str, int]:
    """Really count words with the RDD API (with map-side combining via
    reduceByKey, exactly as Spark's canonical example)."""
    ctx = ctx if ctx is not None else LocalContext(parallelism=4)
    return dict(ctx.parallelize(lines)
                .flat_map(str.split)
                .map(lambda w: (w, 1))
                .reduce_by_key(lambda a, b: a + b, num_partitions)
                .collect())
