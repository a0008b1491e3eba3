"""KgExtract's Arrow pair-table emit ≡ the per-row Python dict emit.

The reference below is the per-row triple loop KgExtract used before the
emit became column-wise: per-turn entities from the per-row parity engine
(``turn_entities``), one dict entry per (subj, pred, obj) carrying support
and the minimal provenance key.  The vectorized ``__call__`` must give the
same rows, ``part`` included."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nativeextractor_ray.functions.hashing import stable_part
from nativeextractor_ray.sources.transcripts import derive_transcripts_table
from nativeextractor_ray.stages.kg_extract import TRIPLE_PARTIAL_SCHEMA, KgExtract

OUT_SCHEMA = TRIPLE_PARTIAL_SCHEMA.append(pa.field("part", pa.int64()))


def reference_emit(kg: KgExtract, batch: pa.Table) -> pa.Table:
    conv = batch.column("conv_id").to_pylist()
    turn = batch.column("turn_idx").to_pylist()
    role = batch.column("role").to_pylist()
    text = batch.column("text").to_pylist()
    tool = batch.column("tool").to_pylist()

    acc: dict[tuple[str, str, str], list] = {}

    def emit(s: str, p: str, o: str, seen: str):
        cur = acc.get((s, p, o))
        if cur is None:
            acc[(s, p, o)] = [1, seen]
        else:
            cur[0] += 1
            if seen < cur[1]:
                cur[1] = seen

    for r in range(len(text)):
        seen = f"{conv[r]}#{turn[r]:09d}"
        if tool[r]:
            emit(f"conv:{conv[r]}", "uses_tool", f"tool:{tool[r]}", seen)
        ents = kg.turn_entities(text[r])
        speaker = f"speaker:{conv[r]}/{role[r]}"
        for e in ents:
            emit(speaker, "mentions", e, seen)
        for i in range(len(ents)):
            for j in range(i + 1, len(ents)):
                emit(ents[i], "co_occurs_with", ents[j], seen)

    keys = list(acc)
    out = pa.table(
        {
            "subj": pa.array([k[0] for k in keys], pa.string()),
            "pred": pa.array([k[1] for k in keys], pa.string()),
            "obj": pa.array([k[2] for k in keys], pa.string()),
            "support": pa.array([acc[k][0] for k in keys], pa.int64()),
            "first_seen": pa.array([acc[k][1] for k in keys], pa.string()),
            "prob": pa.array([1.0] * len(keys), pa.float32()),
        }
    )
    return out.append_column("part", stable_part(out, ["subj", "pred", "obj"], 256))


def _rows(t: pa.Table) -> list[tuple]:
    return sorted(zip(*(t.column(c).to_pylist() for c in t.column_names)))


def _assert_equal(batch: pa.Table) -> pa.Table:
    kg = KgExtract()
    got = kg(batch)
    want = reference_emit(kg, batch)
    assert got.schema == OUT_SCHEMA
    assert _rows(got) == _rows(want)
    return got


def _batch(rows: list[tuple]) -> pa.Table:
    conv, turn, role, text, tool = zip(*rows) if rows else ((),) * 5
    return pa.table({
        "conv_id": pa.array(conv, pa.string()),
        "turn_idx": pa.array(turn, pa.int32()),
        "role": pa.array(role, pa.string()),
        "text": pa.array(text, pa.string()),
        "tool": pa.array(tool, pa.string()),
    })


def test_sf_dir_equals_reference(sf_dir):
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    got = _assert_equal(derive_transcripts_table(docs))
    assert got.num_rows > 0


def test_empty_batch_keeps_schema():
    got = _assert_equal(_batch([]))
    assert got.num_rows == 0


CASES = {
    "no_entities": [("c1", 0, "user", "the value row scan", ""),
                    ("c1", 1, "assistant", "", "")],
    "tool_only": [("c1", 0, "tool", "", "search"),
                  ("c1", 3, "tool", "the table", "search"),
                  ("c2", 1, "tool", "", "code")],
    "one_entity": [("c1", 0, "user", "mail x@y.zz now", ""),
                   ("c1", 1, "user", "erin", "browse")],
    "non_ascii": [("č1", 0, "user", "Šárka píše erin na é@x.cz 2024-03-01 ümlaut", ""),
                  ("č1", 1, "user", "ivanová nora\tyuri 1.2.2024 +420123456789", "search"),
                  ("c2", 2, "assistant", "zelda visits https://ü.example/x?q=1 é", "")],
    "bof_quirk": [("c1", 0, "user", "(erin went home", ""),
                  ("c1", 1, "user", ",nina and (erin", ""),
                  ("c1", 2, "user", "(", "code"),
                  ("c1", 3, "user", "( xenia", ""),
                  ("c1", 4, "user", " uma", "")],
    "large_turn_idx": [("c1", 10**8, "user", "erin 2024-03-01", "search"),
                       ("c1", 999_999_999, "user", "erin 2024-03-01", "search"),
                       ("c1", 2**31 - 1, "user", "erin nina", ""),
                       ("c1", 5, "user", "erin nina", "")],
    "repeats": [("c1", 7, "user", "erin nina erin x@y.zz X@Y.ZZ", "search"),
                ("c1", 2, "user", "nina erin", "search"),
                ("c2", 1, "user", "nina erin", "search")],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_edge_rows_equal_reference(case):
    _assert_equal(_batch(CASES[case]))


def test_slices_are_exact_partials():
    # every slice's partial must equal the reference on that slice alone
    rows = [r for case in sorted(CASES) for r in CASES[case]]
    kg = KgExtract()
    kg.SLICE_ROWS = 4
    batch = _batch(rows)
    got = kg(batch)
    want = pa.concat_tables([reference_emit(kg, batch.slice(lo, 4))
                             for lo in range(0, batch.num_rows, 4)])
    assert _rows(got) == _rows(want)
