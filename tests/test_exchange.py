"""``common.exchange`` against the hand-built exchange it replaces (tag a
``part`` column, ``groupby("part").map_groups(fn)``), and guards that
keep the hand-built form and the partition primitives out of every
module of the package."""

import re
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pytest

PKG = Path(__file__).resolve().parents[1] / "nativeextractor_ray"

SCHEMA = pa.schema([("k", pa.string()), ("g", pa.int64()), ("v", pa.int64())])


def _blocks() -> list[pa.Table]:
    """Eight blocks: one empty, two holding the same hot key, and keys
    that recur across blocks so no block alone holds a key's rows."""
    def block(b: int) -> pa.Table:
        return pa.table({"k": [f"c{(b + i) % 13}" for i in range(30)],
                         "g": [i % 2 for i in range(30)],
                         "v": list(range(b * 30, b * 30 + 30))}, schema=SCHEMA)

    hot = pa.table({"k": ["hot"] * 400, "g": [0] * 400, "v": [1] * 400},
                   schema=SCHEMA)
    return [block(0), SCHEMA.empty_table(), hot, block(1), block(2), hot,
            block(3), block(4)]


def _per_key():
    # built per test: Ray workers cannot import this test module, so the
    # body must pickle by value
    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        """One row per (k, g) in the call; never called on an empty block."""
        assert len(df) > 0
        g = df.groupby(["k", "g"], sort=False)["v"].agg(["sum", "size"]).reset_index()
        return pd.DataFrame({"k": g["k"], "g": g["g"].astype("int64"),
                             "s": g["sum"].astype("int64"),
                             "n": g["size"].astype("int64")})

    return per_key


def _old_form(ds, keys, fn):
    from nativeextractor_ray.functions.hashing import stable_part

    def add_part(t: pa.Table) -> pa.Table:
        return t.append_column("part", stable_part(t, keys, 64))

    return (ds.map_batches(add_part, batch_format="pyarrow")
            .groupby("part").map_groups(fn, batch_format="pandas"))


def _rows(ds) -> pd.DataFrame:
    from nativeextractor_ray.functions.blocks import arrow_blocks

    parts = [t.to_pandas() for t in arrow_blocks(ds, stream=False)]
    df = pd.concat(parts, ignore_index=True)[["k", "g", "s", "n"]]
    return df.sort_values(["k", "g"]).reset_index(drop=True).astype(
        {"g": "int64", "s": "int64", "n": "int64"})


@pytest.mark.parametrize("keys", [["k", "g"], ["k"]])
def test_exchange_equals_map_groups_form(ray_session, keys):
    import ray

    from nativeextractor_ray.pipelines.common import exchange

    ds, per_key = ray.data.from_arrow(_blocks()), _per_key()
    got = _rows(exchange(ds, keys, per_key))
    want = _rows(_old_form(ds, keys, per_key))
    pd.testing.assert_frame_equal(got, want)
    # co-location: a body that emits one row per key in its call never
    # emits a key twice, so every key's rows reached one call
    assert not got.duplicated(["k", "g"]).any()
    assert got.loc[got["k"] == "hot", "n"].tolist() == [800]
    assert int(got["n"].sum()) == sum(t.num_rows for t in _blocks())


def test_exchange_zero_rows_and_chained_aggregate(ray_session):
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.pipelines.common import exchange

    per_key = _per_key()
    none = ray.data.from_arrow([SCHEMA.empty_table()] * 3)
    assert exchange(none, ["k"], per_key).take_all() == []
    assert _old_form(none, ["k"], per_key).take_all() == []

    # sorted blocks with no rows carry no schema; an aggregate chained
    # after the exchange must still see every row
    ds = ray.data.from_arrow(_blocks())
    got = {r["k"]: r["n"] for r in exchange(ds, ["k", "g"], per_key)
           .groupby("k").aggregate(Sum("n", alias_name="n")).take_all()}
    assert got["hot"] == 800 and sum(got.values()) == 950


def test_exchange_keeps_the_callers_operator_name(ray_session):
    import ray

    from nativeextractor_ray.pipelines.common import exchange

    plan = str(exchange(ray.data.from_arrow(_blocks()), ["k"], _per_key()))
    assert "per_key" in plan, plan


# any partition column name: part, gpart, part2, partL, dpart, ...
HAND_BUILT = [
    re.compile(r"""groupby\(\s*["'][a-z]*part\w*["']\s*\)\s*\.\s*map_groups"""),
    re.compile(r"\bdef\s+add_[a-z]*part\w*"),
]
# the partition primitives and a tagger's partition column: only the
# exchange itself, the hash, and the headline's triple partitions
# (``kg.N_TRIPLE_PARTS``, combined by ``kg.combine_parts``) use them
PRIMITIVES = re.compile(
    r"""\b(?:sorted_blocks|stable_part)\(|["'][a-z]*part\d*["']\s*:"""
    r"""|append_column\(\s*["'][a-z]*part""")
CORE = {"pipelines/common.py", "functions/hashing.py", "pipelines/kg.py",
        "stages/kg_extract.py"}


def _package_matches(pat):
    """``(module, "<module>:<function> (line n): <match>")`` for every
    match of ``pat`` in a ``*.py`` file of the package."""
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        src = path.read_text()
        for m in pat.finditer(src):
            lineno = src.count("\n", 0, m.start()) + 1
            func = re.findall(r"^def (\w+)", src[:m.start()], re.M)
            yield rel, (f"{rel}:{func[-1] if func else ''} (line {lineno}): "
                        f"{m.group(0)!r}")


def test_no_hand_built_part_exchange():
    offenders = [site for pat in HAND_BUILT
                 for _rel, site in _package_matches(pat)]
    assert not offenders, "\n".join(offenders)


def test_partition_primitives_only_in_the_core():
    offenders = [site for rel, site in _package_matches(PRIMITIVES)
                 if rel not in CORE]
    assert not offenders, "\n".join(offenders)
