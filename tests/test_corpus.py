"""Dataset ingestion, validation and round-tripping."""

import contextlib
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiscore.cli import EXIT_OK, EXIT_VALIDATION, main
from multiscore.corpus import Dataset, bind_outputs, load_jsonl, load_outputs_jsonl, load_parallel_text
from multiscore.multiscore import EvalInstance


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestLoadJsonl:
    def test_well_formed_single_instance(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, ['{"id":"t1","references":["a b"],"outputs":["a b"]}'])
        ds = load_jsonl(p)
        assert len(ds) == 1
        assert ds.instances[0].id == "t1"
        assert ds.instances[0].references == ("a b",)
        assert ds.instances[0].outputs == ("a b",)

    def test_missing_references_names_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, ['{"id":"a","references":["x"]}', '{"id":"b"}'])
        with pytest.raises(ValueError, match="line 2"):
            load_jsonl(p)

    def test_duplicate_id_names_both_lines(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [
            '{"id":"a","references":["x"]}',
            '{"id":"b","references":["y"]}',
            '{"id":"a","references":["z"]}',
        ])
        with pytest.raises(ValueError, match=r"lines 1 and 3"):
            load_jsonl(p)

    def test_malformed_json_names_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, ['{"id":"a","references":["x"]}', '{broken'])
        with pytest.raises(ValueError, match="line 2"):
            load_jsonl(p)

    def test_empty_references_rejected(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, ['{"id":"a","references":[]}'])
        with pytest.raises(ValueError, match="line 1"):
            load_jsonl(p)

    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, ['{"id":"a","references":["x"],"extra":1}'])
        with pytest.raises(ValueError, match="unknown"):
            load_jsonl(p)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_jsonl(tmp_path / "nope.jsonl")

    def test_bom_stripped(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_bytes(b'\xef\xbb\xbf{"id":"a","references":["x"]}\n')
        assert load_jsonl(p).instances[0].id == "a"

    @pytest.mark.parametrize("field, value", [("category", "\ud800"), ("outputs", ["ok", "\udfff"])],
                             ids=["category", "outputs"])
    def test_unpaired_surrogate_in_optional_field(self, tmp_path, field, value):
        p = tmp_path / "d.jsonl"
        write_lines(p, [json.dumps({"id": "a", "references": ["x", "y"], field: value})])
        with pytest.raises(ValueError, match=rf"^line 1: '{field}' is not valid Unicode"):
            load_jsonl(p)

    def test_utf8_text_preserved(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [json.dumps({"id": "r1", "references": ["Баку столица"]}, ensure_ascii=False)])
        assert load_jsonl(p).instances[0].references == ("Баку столица",)


# a line nested far beyond the JSON decoder's recursion limit
DEEP_LINE = b"[" * 200_000 + b"]" * 200_000 + b"\n"


both_loaders = pytest.mark.parametrize("loader, first_line", [
    (load_jsonl, b'{"id":"a","references":["x"]}\n'),
    (load_outputs_jsonl, b'{"id":"a","outputs":["x"]}\n'),
], ids=["load_jsonl", "load_outputs_jsonl"])


@both_loaders
class TestLineErrors:
    def test_nested_too_deep_names_line(self, tmp_path, loader, first_line):
        p = tmp_path / "d.jsonl"
        p.write_bytes(first_line + DEEP_LINE)
        with pytest.raises(ValueError, match=r"^line 2: malformed JSON \(nested too deep\)$"):
            loader(p)

    def test_invalid_utf8_names_line(self, tmp_path, loader, first_line):
        p = tmp_path / "d.jsonl"
        p.write_bytes(first_line + first_line.replace(b'"a"', b'"caf\xe9"'))
        with pytest.raises(ValueError, match=r"^line 2: not valid UTF-8$"):
            loader(p)

    def test_huge_integer_names_line(self, tmp_path, loader, first_line):
        # int() refuses literals beyond the digit limit with a plain ValueError
        p = tmp_path / "d.jsonl"
        p.write_bytes(first_line + b"9" * 5000 + b"\n")
        with pytest.raises(ValueError, match=r"^line 2: malformed JSON \(Exceeds the limit \(4300 digits\)"):
            loader(p)

    @pytest.mark.parametrize("old, new, field", [
        (b'"x"', b'"x \\ud800 y"', "(references|outputs)"),
        (b'"b"', b'"\\udc80"', "id"),
    ], ids=["sentence", "id"])
    def test_unpaired_surrogate_names_line(self, tmp_path, loader, first_line, old, new, field):
        p = tmp_path / "d.jsonl"
        p.write_bytes(first_line + first_line.replace(b'"a"', b'"b"').replace(old, new))
        with pytest.raises(ValueError, match=rf"^line 2: '{field}' is not valid Unicode \(unpaired surrogate\)$"):
            loader(p)

    @pytest.mark.parametrize("escaped_id", [b'"\\uDC80"', b'"b\\ud800"', b'"\\ud83d\\ude00\\udc80"'],
                             ids=["upper-hex", "after-text", "after-a-pair"])
    def test_unpaired_surrogate_in_id_names_line_2(self, tmp_path, loader, first_line, escaped_id):
        # the id holds line 2's only \u escape
        p = tmp_path / "d.jsonl"
        p.write_bytes(first_line + first_line.replace(b'"a"', escaped_id))
        with pytest.raises(ValueError, match=r"^line 2: 'id' is not valid Unicode \(unpaired surrogate\)$"):
            loader(p)

    def test_escapes_of_other_code_points_are_accepted(self, tmp_path, loader, first_line):
        # an escaped letter, and an escaped backslash before a "u"
        p = tmp_path / "d.jsonl"
        p.write_bytes(first_line + first_line.replace(b'"a"', b'"\\u00e9 \\\\ud800"'))
        assert len(loader(p)) == 2

    def test_paired_surrogates_accepted(self, tmp_path, loader, first_line):
        p = tmp_path / "d.jsonl"
        p.write_bytes(first_line.replace(b'"x"', b'"x \\ud83d\\ude00"'))
        assert len(loader(p)) == 1

    def test_bom_only_allowed_on_first_line(self, tmp_path, loader, first_line):
        p = tmp_path / "d.jsonl"
        p.write_bytes(b"\xef\xbb\xbf" + first_line)
        assert len(loader(p)) == 1
        p.write_bytes(first_line + b"\xef\xbb\xbf" + first_line.replace(b'"a"', b'"b"'))
        with pytest.raises(ValueError, match="line 2: malformed JSON"):
            loader(p)


@both_loaders
class TestRecordRules:
    """Both files follow one set of record rules, with one message each."""

    @pytest.mark.parametrize("second_line, message", [
        (lambda first: b'["a", "x"]\n', r"^line 2: expected a JSON object, got list$"),
        (lambda first: b'"a"\n', r"^line 2: expected a JSON object, got str$"),
        (lambda first: first.replace(b'"a"', b"7"), r"^line 2: missing or non-string 'id'$"),
        (lambda first: first.replace(b'"a"', b'""'), r"^line 2: instance id must be non-empty$"),
        (lambda first: first.replace(b"}", b',"extra":1}'), r"^line 2: unknown fields \['extra'\]$"),
        (lambda first: first, r"^duplicate id 'a' on lines 1 and 2$"),
    ], ids=["array", "string", "non-string-id", "empty-id", "unknown-field", "duplicate-id"])
    def test_rule_names_its_line(self, tmp_path, loader, first_line, second_line, message):
        p = tmp_path / "d.jsonl"
        p.write_bytes(first_line + second_line(first_line))
        with pytest.raises(ValueError, match=message):
            loader(p)

    def test_empty_file_names_the_file(self, tmp_path, loader, first_line):
        p = tmp_path / "d.jsonl"
        p.write_bytes(b"")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: (dataset|outputs file) is empty$"):
            loader(p)


# any code point but a surrogate, with the astral plane and Cyrillic drawn often
TEXT_CHARS = st.one_of(
    st.characters(exclude_categories=("Cs",)),
    st.characters(min_codepoint=0x10000),
    st.sampled_from("Баку столица ёщ"),
)
SENTENCES = st.text(TEXT_CHARS, min_size=1, max_size=12).filter(str.strip)


@st.composite
def instances(draw):
    ids = draw(st.lists(st.text(TEXT_CHARS, min_size=1, max_size=6), min_size=1, max_size=5, unique=True))
    return [
        EvalInstance(
            id=i,
            references=tuple(draw(st.lists(SENTENCES, min_size=1, max_size=3))),
            outputs=tuple(draw(st.lists(SENTENCES, max_size=3))),
            category=draw(st.none() | st.text(TEXT_CHARS, max_size=6)),
        )
        for i in ids
    ]


def write_dataset(path, insts, bom, ensure_ascii, newline):
    """The interchange format as another tool might write it: optional
    fields left out when empty, any escaping, LF or CRLF."""
    lines = []
    for inst in insts:
        obj = {"id": inst.id, "references": list(inst.references)}
        if inst.category is not None:
            obj["category"] = inst.category
        if inst.outputs:
            obj["outputs"] = list(inst.outputs)
        lines.append(json.dumps(obj, ensure_ascii=ensure_ascii))
    data = "".join(line + newline for line in lines).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"\xef\xbb\xbf" * bom + data)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        instances = (
            EvalInstance(id="a", references=("x y", "z"), outputs=("x y",), category="cat"),
            EvalInstance(id="b", references=("Ещё одно предложение",)),
        )
        p = tmp_path / "out.jsonl"
        write_dataset(p, instances, bom=False, ensure_ascii=False, newline="\n")
        assert load_jsonl(p).instances == instances

    def test_order_preserved(self, tmp_path):
        instances = tuple(
            EvalInstance(id=f"i{k}", references=(f"ref {k}",)) for k in range(20)
        )
        p = tmp_path / "d.jsonl"
        write_dataset(p, instances, bom=False, ensure_ascii=False, newline="\n")
        assert [i.id for i in load_jsonl(p)] == [f"i{k}" for k in range(20)]

    @settings(max_examples=60, deadline=None)
    @given(insts=instances(), bom=st.booleans(), ensure_ascii=st.booleans(), newline=st.sampled_from(["\n", "\r\n"]),
           strategy=st.sampled_from(["beam3", "random", "topk3", "ensemble"]))
    def test_load_and_generate_preserve_instances_in_order(self, insts, bom, ensure_ascii, newline, strategy):
        n_refs = sum(len(inst.references) for inst in insts)
        with tempfile.TemporaryDirectory() as tmp:
            data, gen = os.path.join(tmp, "data.jsonl"), os.path.join(tmp, "gen.jsonl")
            write_dataset(data, insts, bom, ensure_ascii, newline)
            assert load_jsonl(data).instances == tuple(insts)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(["generate", "--train", data, "--strategy", strategy, "--max-len", "8", "--out", gen])
            if strategy == "ensemble" and n_refs < 3:
                # the ensemble trains one model per round-robin shard of references
                assert rc == EXIT_VALIDATION
                assert err.getvalue() == (
                    f"error: ensemble needs at least 3 training references (one per shard), got {n_refs}\n"
                )
                assert not os.path.exists(gen)
                return
            assert rc == EXIT_OK
            assert list(load_outputs_jsonl(gen)) == [inst.id for inst in insts]


class TestDataset:
    def test_duplicate_ids_rejected(self):
        a = EvalInstance(id="a", references=("x",))
        with pytest.raises(ValueError, match="duplicate"):
            Dataset(instances=(a, a))


class TestParallelText:
    def test_basic_assembly(self, tmp_path):
        refs = tmp_path / "refs"
        outs = tmp_path / "outs"
        refs.mkdir(), outs.mkdir()
        write_lines(refs / "ref0.txt", [f"ref zero {k}" for k in range(10)])
        write_lines(refs / "ref1.txt", [f"ref one {k}" for k in range(10)])
        write_lines(outs / "out0.txt", [f"out zero {k}" for k in range(10)])
        ds = load_parallel_text(refs, outs)
        assert len(ds) == 10
        assert ds.instances[4].references == ("ref zero 4", "ref one 4")
        assert ds.instances[4].outputs == ("out zero 4",)

    def test_empty_line_drops_slot(self, tmp_path):
        refs = tmp_path / "refs"
        refs.mkdir()
        write_lines(refs / "ref0.txt", ["a", "b", "c"])
        write_lines(refs / "ref1.txt", ["d", "", "f"])
        ds = load_parallel_text(refs)
        assert ds.instances[1].references == ("b",)
        assert ds.instances[0].references == ("a", "d")

    def test_mismatched_line_counts_rejected(self, tmp_path):
        refs = tmp_path / "refs"
        outs = tmp_path / "outs"
        refs.mkdir(), outs.mkdir()
        write_lines(refs / "ref0.txt", ["a", "b", "c"])
        write_lines(outs / "out0.txt", ["x", "y"])
        with pytest.raises(ValueError, match="lines"):
            load_parallel_text(refs, outs)

    def test_unicode_line_separators_stay_inside_their_line(self, tmp_path):
        # U+2028, NEL, form feed and the information separators are line
        # breaks to str.splitlines, not to a text file of sentences
        refs = tmp_path / "refs"
        refs.mkdir()
        odd = "a\u2028b\x85c\x0cd\x1ce"
        (refs / "ref0.txt").write_text(f"{odd}\nsecond\n", encoding="utf-8")
        write_lines(refs / "ref1.txt", ["x", "y"])
        ds = load_parallel_text(refs)
        assert [inst.references for inst in ds] == [(odd, "x"), ("second", "y")]

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        refs = tmp_path / "refs"
        refs.mkdir()
        write_lines(refs / "ref0.txt", ["a", "b"])
        (refs / "ref1.txt").write_bytes(b"c\ncaf\xe9\n")
        with pytest.raises(ValueError, match=r"^ref1\.txt: line 2: not valid UTF-8$"):
            load_parallel_text(refs)

    def test_bom_stripped_from_first_line(self, tmp_path):
        refs = tmp_path / "refs"
        refs.mkdir()
        (refs / "ref0.txt").write_bytes(b"\xef\xbb\xbfa\r\nb\r\n")
        assert [inst.references for inst in load_parallel_text(refs)] == [("a",), ("b",)]

    def test_mismatch_within_refs_rejected(self, tmp_path):
        refs = tmp_path / "refs"
        refs.mkdir()
        write_lines(refs / "ref0.txt", ["a", "b"])
        write_lines(refs / "ref1.txt", ["c"])
        with pytest.raises(ValueError, match="mismatched"):
            load_parallel_text(refs)


class TestBindOutputs:
    def make_dataset(self):
        return Dataset(instances=(
            EvalInstance(id="a", references=("x y",)),
            EvalInstance(id="b", references=("z w",)),
        ))

    def test_bind_all(self):
        ds = bind_outputs(self.make_dataset(), {"a": ["p q", "r s", "t u"], "b": ["k l", "m n", "o p"]})
        assert ds.instances[0].outputs == ("p q", "r s", "t u")
        assert ds.instances[1].outputs == ("k l", "m n", "o p")

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            bind_outputs(self.make_dataset(), {"a": ["x"], "b": ["y"], "zz": ["w"]})

    def test_missing_id_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            bind_outputs(self.make_dataset(), {"a": ["x"]})

    def test_empty_output_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bind_outputs(self.make_dataset(), {"a": ["x"], "b": []})

    def test_replaces_existing(self):
        ds = Dataset(instances=(EvalInstance(id="a", references=("r",), outputs=("old",)),))
        ds = bind_outputs(ds, {"a": ["new"]})
        assert ds.instances[0].outputs == ("new",)


class TestOutputsJsonl:
    def test_load(self, tmp_path):
        p = tmp_path / "o.jsonl"
        write_lines(p, [
            '{"id":"a","outputs":["x y"],"strategy":"beam_top3","seed":7}',
            '{"id":"b","outputs":["z","w q"]}',
        ])
        outs = load_outputs_jsonl(p)
        assert outs == {"a": ["x y"], "b": ["z", "w q"]}

    def test_empty_outputs_rejected(self, tmp_path):
        p = tmp_path / "o.jsonl"
        write_lines(p, ['{"id":"a","outputs":[]}'])
        with pytest.raises(ValueError, match="line 1"):
            load_outputs_jsonl(p)

    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "o.jsonl"
        write_lines(p, ['{"id":"a","outputs":["x"],"flags":[],"seed":1}', '{"id":"b","outputs":["y"],"refs":[]}'])
        with pytest.raises(ValueError, match=r"^line 2: unknown fields \['refs'\]$"):
            load_outputs_jsonl(p)

    def test_duplicate_ids_rejected(self, tmp_path):
        p = tmp_path / "o.jsonl"
        write_lines(p, ['{"id":"a","outputs":["x"]}', '{"id":"a","outputs":["y"]}'])
        with pytest.raises(ValueError, match="duplicate"):
            load_outputs_jsonl(p)
