"""Shared pipeline knobs, the one size planner, and ``exchange``: the
one keyed exchange.

Size planner.  A side small enough for the driver is collected: folded
or deduplicated on the driver (``DRIVER_BOUND``), or ``ray.put`` once
for every task to probe (``BROADCAST_BOUND``), the shape of the
reference's trie probe (ner.c:29-31).  A larger side meets the other one
in ``exchange``.  Each gate tests a byte estimate with ``fits``: a
metadata gate passes ``table_nrows(...) × row width``; a gate on a
computed side takes the estimate from ``measured``, which executes the
side once and hands it back, so both arms consume the executed side and
no lineage runs twice (``Dataset.size_bytes()`` on a lazy side executes
it, and a dataset derived from that side runs it again).  Tests force
the large arm by setting a bound to 0.

``exchange(ds, keys, fn)`` co-locates rows by key.  It tags every row
with ``part = stable_part(keys) mod EXCHANGE_MODULUS``, range-partitions
the dataset with ``sort("part")`` and calls ``fn`` once per sorted block
(``map_batches(batch_size=None)``).  The sort sends every row of one
``part`` value, so every row of one key, to one reducer block: ``fn``
sees each key's rows in full, in one call, and groups on the key itself
(a vectorized pandas groupby or ``np.lexsort``).  The modulus decides
only co-location, never the number of calls, which is the number of
sorted blocks; empty blocks never reach ``fn``.  ``fn`` is passed to
``map_batches`` as is, so Ray's operator names are the callers' names.
``map_groups`` is this same sort plus one Python call per key value.

Why a hashed ``part`` and not ``sort(keys)``, which co-locates equal
key tuples just as well: Ray 2.49's sort map step finds each range
boundary with ``find_partition_index``, which converts the key column
to numpy once per boundary.  For a string key that is an object-array
copy per reducer.  Measured on one 200k-row block of ``conv-%08d``
keys (1 CPU): ``sort(["k"])`` takes 0.18 / 0.91 / 2.6 s at 8 / 64 / 256
reducers; tag + ``sort("part")`` takes 0.08 s at each.  An int64 key
sorts about 6 ms (20 %) faster on itself than through the tag, too
little to justify a second code path."""

from __future__ import annotations

#: bytes of a side that may be folded or deduplicated on the driver
DRIVER_BOUND = 64 << 20
#: bytes of a side that may be ``ray.put`` for every task to probe
BROADCAST_BOUND = 64 << 20


def fits(n, bound: int, width: int = 1) -> bool:
    """Whether ``n`` items of ``width`` bytes are known (``n`` is not
    None) and within ``bound``.  Pass the bound as ``common.DRIVER_BOUND``
    or ``common.BROADCAST_BOUND``, so a test's override is read."""
    return n is not None and n * width <= bound


def measured(ds):
    """Execute ``ds`` once; return the executed dataset and its size in
    bytes (0 when Ray reports none)."""
    ds = ds.materialize()
    return ds, ds.size_bytes() or 0


#: ``part`` values of ``exchange``: large, because it only spreads keys
#: over the sort's range boundaries
EXCHANGE_MODULUS = 1 << 32


def sorted_blocks(ds, fn, batch_format: str):
    """Sort ``ds`` by its ``part`` column, then call ``fn`` once per
    sorted block.  Every row of one ``part`` value lands in one block."""
    return ds.sort("part").map_batches(fn, batch_format=batch_format,
                                       batch_size=None)


def _tag_part(t, keys: list[str]):
    from nativeextractor_ray.functions.hashing import stable_part

    return t.append_column("part", stable_part(t, keys, EXCHANGE_MODULUS))


def exchange(ds, keys: list[str], fn, batch_format: str = "pandas"):
    """Co-locate the rows of ``ds`` by ``keys`` and call ``fn`` once per
    block (module docstring) on a ``batch_format`` batch (a pandas frame,
    or an Arrow table for ``"pyarrow"``) that carries the extra ``part``
    column."""
    tagged = ds.map_batches(_tag_part, batch_format="pyarrow",
                            fn_kwargs={"keys": list(keys)})
    return sorted_blocks(tagged, fn, batch_format)


def _cpus() -> int:
    try:
        import ray

        return int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        return 4

