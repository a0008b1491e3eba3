"""KgExtract's Arrow pair-table emit ≡ the per-row Python dict emit.

The reference below is the per-row triple loop KgExtract used before the
emit became column-wise: per-turn entities from the per-row parity engine
(``turn_entities``), one dict entry per (subj, pred, obj) carrying support
and the minimal provenance key ``conv_id#lpad(turn_idx, 9, "0")``.  The
vectorized ``__call__`` must give the same rows, ``part`` included."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nativeextractor_ray.functions.hashing import stable_part
from nativeextractor_ray.miners.base import Miner
from nativeextractor_ray.sources.transcripts import derive_transcripts_table
from nativeextractor_ray.stages.kg_extract import (
    TRIPLE_PARTIAL_SCHEMA,
    KgExtract,
    _pack,
)

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
        seen = f"{conv[r]}#{str(turn[r]).rjust(9, '0')}"
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


def _assert_equal(batch: pa.Table, specs=None) -> pa.Table:
    kg = KgExtract() if specs is None else KgExtract(specs)
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


class DigitDateMiner(Miner):
    """A custom miner neither batch scan implements: every all-digit
    word, labelled ``Date`` so that it links."""

    label = "Date"

    def find(self, text: str):
        out, pos = [], 0
        for word in text.split(" "):
            if word.isdigit():
                out.append((pos, pos + len(word), 1.0))
            pos += len(word) + 1
        return out


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
    # "speaker:a/b" + "/c" and "speaker:a" + "/b/c" are one speaker
    "speaker_collision": [("a/b", 0, "c", "erin x@y.zz", ""),
                          ("a", 1, "b/c", "erin", "")],
    # string order of the padded keys: "0000000-1" < "0000000-2"
    "negative_turn_idx": [("c1", -1, "user", "erin nina", "search"),
                          ("c1", -2, "user", "erin nina", "search"),
                          ("c1", 0, "user", "nina", "")],
    # "a#0#000000001" < "a#000000005": a "#" inside conv_id
    "hash_in_conv_id": [("a", 5, "user", "erin nina", "code"),
                        ("a#0", 1, "user", "erin nina", "code")],
    "null_tool": [("c1", 0, "tool", "erin", None),
                  ("c1", 1, "tool", "erin", "search")],
    "many_entities": [("c1", 0, "user", " ".join(
        [f"u{i}@x.zz" for i in range(30)] + ["erin nina yuri https://a.b/c +420123456789"]), ""),
        ("c2", 1, "assistant", " ".join(f"u{i}@x.zz" for i in range(0, 40, 3)), "")],
    "custom_miner": [("c1", 0, "user", "call 42 or 7 x@y.zz", ""),
                     ("c1", 1, "user", "7 42 0042", "code"),
                     ("c2", 2, "user", "no digits x@y.zz", "")],
}

#: the miner set a case runs with (default: the standard one)
CASE_SPECS = {"custom_miner": [(DigitDateMiner, (), {}), ("email", (), {})]}


@pytest.mark.parametrize("case", sorted(CASES))
def test_edge_rows_equal_reference(case):
    _assert_equal(_batch(CASES[case]), CASE_SPECS.get(case))


def _row(t: pa.Table, subj: str, pred: str, obj: str) -> dict:
    rows = [r for r in t.to_pylist() if (r["subj"], r["pred"], r["obj"]) == (subj, pred, obj)]
    assert len(rows) == 1, rows
    return rows[0]


def test_speaker_collision_is_one_speaker():
    got = KgExtract()(_batch(CASES["speaker_collision"]))
    assert _row(got, "speaker:a/b/c", "mentions", "person:erin")["support"] == 2


def test_first_seen_is_the_string_min():
    got = KgExtract()(_batch(CASES["negative_turn_idx"]))
    assert _row(got, "person:erin", "co_occurs_with", "person:nina")["first_seen"] == "c1#0000000-1"
    got = KgExtract()(_batch(CASES["hash_in_conv_id"]))
    assert _row(got, "person:erin", "co_occurs_with", "person:nina")["first_seen"] == "a#0#000000001"


def test_custom_miner_set_is_not_batch_scanned():
    kg = KgExtract(CASE_SPECS["custom_miner"])
    assert not kg._fast_ok
    got = kg(_batch(CASES["custom_miner"]))
    assert _row(got, "date:42", "co_occurs_with", "date:7")["support"] == 2


@pytest.mark.parametrize("column", ["conv_id", "turn_idx", "role"])
def test_null_keys_fail_loudly(column):
    rows = [("c1", 0, "user", "erin", "search"), ("c1", 1, "user", "nina", "")]
    batch = _batch(rows)
    i = batch.schema.get_field_index(column)
    typ = batch.schema.field(column).type
    batch = batch.set_column(i, column, pa.array([None, None], typ))
    with pytest.raises(ValueError, match=f"2 NULL {column} "):
        KgExtract()(batch)


def test_packed_keys_that_overflow_int64_raise():
    one = np.zeros(1, np.int64)
    assert _pack(one + 3, one + 1, 2**31, 2**32 - 1)[0] == 3 * (2**32 - 1) + 1
    with pytest.raises(OverflowError):
        _pack(one, one, 2**32, 2**32)


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
