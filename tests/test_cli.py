"""CLI behavior: subcommands, exit codes, determinism, atomic writes."""

import contextlib
import io
import json
import logging
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiscore import cli, decoding
from multiscore.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, _round2_table, main
from multiscore.corpus import load_jsonl, load_outputs_jsonl
from multiscore.metrics import BleuMetric, ChrfMetric
from multiscore.multiscore import multi_score
from multiscore.report import evaluate_all, render, round2
from multiscore.text import Sentence


@pytest.fixture
def toy_data(tmp_path):
    rows = [
        {"id": "a", "references": ["the cat sat on the mat", "a cat sat on the mat", "the cat is on the mat"],
         "outputs": ["the cat sat on the mat", "a cat sat on the mat", "the cat is on the mat"]},
        {"id": "b", "references": ["a dog ran far away", "the dog ran away", "a dog ran off"],
         "outputs": ["the dog ran away", "a dog ran off", "a dog ran far away"]},
        {"id": "c", "references": ["big sky over town", "the sky over the town", "a big sky above town"],
         "outputs": ["a big sky above town", "big sky over town", "the sky over the town"]},
    ]
    p = tmp_path / "data.jsonl"
    p.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return p


@pytest.fixture
def cased_data(tmp_path):
    rows = [
        {"id": "a", "references": ["The Cat sat on the Mat", "a cat sat on the mat", "The cat is on the mat"],
         "outputs": ["the cat sat on the mat", "A Cat sat on the Mat", "the Cat Is on the mat"]},
        {"id": "b", "references": ["A dog ran far away", "the Dog ran away", "a dog ran off"],
         "outputs": ["The Dog ran away", "a dog Ran off", "A DOG ran far away"]},
    ]
    p = tmp_path / "cased.jsonl"
    p.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return p


class TestEvaluate:
    def test_inline_outputs_table(self, toy_data, capsys):
        assert main(["evaluate", "--data", str(toy_data)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "BLEU" in out and "MS-B" in out

    def test_json_report_to_file(self, toy_data, tmp_path):
        out = tmp_path / "report.json"
        assert main(["evaluate", "--data", str(toy_data), "--format", "json", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["quality"]["bleu"] > 0

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        rc = main(["evaluate", "--data", str(tmp_path / "nope.jsonl")])
        assert rc == EXIT_IO
        assert "error" in capsys.readouterr().err

    def test_id_mismatch_is_validation_error(self, toy_data, tmp_path, capsys):
        outs = tmp_path / "outs.jsonl"
        outs.write_text('{"id":"zz","outputs":["x y"]}\n', encoding="utf-8")
        rc = main(["evaluate", "--data", str(toy_data), "--outputs", str(outs)])
        assert rc == EXIT_VALIDATION
        assert "zz" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate --data", "evaluate --outputs", "generate --train"])
    def test_deeply_nested_line_is_validation_error(self, toy_data, tmp_path, capsys, command):
        deep = tmp_path / "deep.jsonl"
        deep.write_bytes(b"[" * 200_000 + b"]" * 200_000 + b"\n")
        argv = {
            "evaluate --data": ["evaluate", "--data", str(deep)],
            "evaluate --outputs": ["evaluate", "--data", str(toy_data), "--outputs", str(deep)],
            "generate --train": ["generate", "--train", str(deep), "--strategy", "beam3",
                                 "--out", str(tmp_path / "gen.jsonl")],
        }[command]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "error: line 1: malformed JSON (nested too deep)\n"
        assert "Traceback" not in err

    def test_huge_integer_is_validation_error(self, toy_data, tmp_path, capsys):
        data = tmp_path / "big.jsonl"
        data.write_bytes(toy_data.read_bytes() + b'{"id":"d","references":[' + b"9" * 5000 + b"]}\n")
        assert main(["evaluate", "--data", str(data)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: line 4: malformed JSON (Exceeds the limit (4300 digits)")
        assert "Traceback" not in err

    def test_unpaired_surrogate_is_validation_error(self, toy_data, tmp_path, capsys):
        data = tmp_path / "sur.jsonl"
        data.write_bytes(toy_data.read_bytes().replace(b"big sky over town", b"big \\ud800 sky"))
        assert main(["evaluate", "--data", str(data)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: line 3: 'references' is not valid Unicode (unpaired surrogate)\n"

    def test_no_partial_output_on_error(self, toy_data, tmp_path):
        # unequal outputs trigger a validation error after the report file
        # path is known; nothing must be written
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id":"a","outputs":["one two"]}\n{"id":"b","outputs":["x y"]}\n{"id":"c","outputs":["z w"]}\n',
                       encoding="utf-8")
        target = tmp_path / "report.txt"
        rc = main(["evaluate", "--data", str(toy_data), "--outputs", str(bad), "--out", str(target)])
        assert rc == EXIT_VALIDATION
        assert not target.exists()
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".multiscore-")]

    def test_unequal_flag_permits(self, toy_data, tmp_path):
        bad = tmp_path / "short.jsonl"
        bad.write_text(
            '{"id":"a","outputs":["the cat sat on the mat","a cat sat"]}\n'
            '{"id":"b","outputs":["a dog ran far away","the dog ran"]}\n'
            '{"id":"c","outputs":["big sky over town","the sky"]}\n',
            encoding="utf-8",
        )
        rc = main(["evaluate", "--data", str(toy_data), "--outputs", str(bad),
                   "--allow-unequal", "--format", "tsv", "--out", str(tmp_path / "r.tsv")])
        assert rc == EXIT_OK


@pytest.mark.parametrize("command", ["evaluate", "multiscore"])
@pytest.mark.parametrize("line,message", [
    ('{"id":"b","outputs":["the dog ran away","  ","a dog ran off"]}',
     "error: line 2: instance 'b': empty output sentence\n"),
    ('{"id":"b","outputs":["the dog ran away"],"strategy":"beam_top3","score":1}',
     "error: line 2: unknown fields ['score']\n"),
    ('{"id":"","outputs":["the dog ran away"]}',
     "error: line 2: instance id must be non-empty\n"),
], ids=["blank_output", "unknown_field", "empty_id"])
def test_outputs_file_error_names_the_line(toy_data, tmp_path, capsys, command, line, message):
    outs = tmp_path / "outs.jsonl"
    outs.write_text('{"id":"a","outputs":["x y","y z","z w"]}\n' + line + "\n"
                    '{"id":"c","outputs":["x y","y z","z w"]}\n', encoding="utf-8")
    target = tmp_path / "report.txt"
    assert main([command, "--data", str(toy_data), "--outputs", str(outs), "--out", str(target)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == message
    assert not target.exists()


@given(st.lists(st.one_of(st.floats(-1000.0, 1000.0), st.sampled_from([0.0, -0.0])), max_size=20))
def test_round2_table_is_round2(values):
    # each value twice, so the second lookup is served from the table
    fmt = _round2_table()
    for value in values + values:
        assert fmt(value) == round2(value)


NBEST_GOLDEN = os.path.join(os.path.dirname(__file__), "nbest_golden")


@pytest.mark.parametrize("fmt,ext", [("json", "json"), ("table", "txt")])
@pytest.mark.parametrize("metric", ["bleu", "chrf"])
def test_nbest_per_instance_matches_golden(capsysbinary, metric, fmt, ext):
    # two instances of 12 references, each output set 3 distinct texts
    # repeated to 12 (one repeat padded with spaces, one capitalized)
    data = os.path.join(NBEST_GOLDEN, "nbest.jsonl")
    argv = ["multiscore", "--data", data, "--metric", metric, "--per-instance", "--format", fmt]
    assert main(argv) == EXIT_OK
    with open(os.path.join(NBEST_GOLDEN, f"multiscore_{metric}.{ext}"), "rb") as fh:
        assert capsysbinary.readouterr().out == fh.read()


EVALUATE_GOLDEN = os.path.join(os.path.dirname(__file__), "evaluate_golden")


@pytest.mark.parametrize("fmt,ext", [("json", "json"), ("tsv", "tsv"), ("table", "txt")])
@pytest.mark.parametrize("cased", [False, True], ids=["lowercase", "cased"])
def test_evaluate_matches_golden(capsysbinary, fmt, ext, cased):
    # 2 and 4 references against 3 outputs, ragged output counts 1-4 (so the
    # slots hold different instances and one skips Self-BLEU), a repeated
    # output, two identical references, title-cased and Cyrillic text
    data = os.path.join(EVALUATE_GOLDEN, "evaluate.jsonl")
    argv = ["evaluate", "--data", data, "--allow-unequal", "--format", fmt] + (["--no-lowercase"] if cased else [])
    assert main(argv) == EXIT_OK
    name = f"evaluate_cased.{ext}" if cased else f"evaluate.{ext}"
    with open(os.path.join(EVALUATE_GOLDEN, name), "rb") as fh:
        assert capsysbinary.readouterr().out == fh.read()


@pytest.mark.parametrize("command", ["evaluate", "multiscore"])
@pytest.mark.parametrize("beta", ["inf", "1e200"])
def test_chrf_beta_with_infinite_square_is_validation_error(toy_data, tmp_path, capsys, command, beta):
    target = tmp_path / "report"
    rc = main([command, "--data", str(toy_data), "--chrf-beta", beta, "--out", str(target)])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: beta must be > 0 with a finite square") and "Traceback" not in err
    assert not target.exists()


class TestMultiscore:
    def test_identity_chrf_is_100(self, toy_data, capsys):
        rc = main(["multiscore", "--data", str(toy_data), "--metric", "chrf"])
        assert rc == EXIT_OK
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "MS-CHRF: 100.00"

    def test_per_instance_view(self, toy_data, capsys):
        rc = main(["multiscore", "--data", str(toy_data), "--metric", "bleu", "--per-instance"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "matrix (outputs x references):" in out
        assert "matching:" in out
        assert out.count("instance ") == 3

    def test_per_instance_json(self, toy_data, capsys):
        rc = main(["multiscore", "--data", str(toy_data), "--metric", "chrf",
                   "--per-instance", "--format", "json"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["metric"] == "chrf"
        assert len(payload["per_instance"]) == 3
        first = payload["per_instance"][0]
        assert len(first["matrix"]) == 3 and len(first["matching"]) == 3

    def test_unequal_without_flag_exits_1(self, toy_data, tmp_path):
        outs = tmp_path / "o.jsonl"
        outs.write_text(
            '{"id":"a","outputs":["x y"]}\n{"id":"b","outputs":["x y"]}\n{"id":"c","outputs":["x y"]}\n',
            encoding="utf-8",
        )
        rc = main(["multiscore", "--data", str(toy_data), "--outputs", str(outs)])
        assert rc == EXIT_VALIDATION

    def test_unequal_instances_warned_once_each(self, toy_data, tmp_path, caplog):
        outs = tmp_path / "o.jsonl"
        outs.write_text(
            '{"id":"a","outputs":["the cat sat on the mat","a cat sat"]}\n'
            '{"id":"b","outputs":["the dog ran away","a dog ran off","a dog ran far away"]}\n'
            '{"id":"c","outputs":["big sky over town"]}\n',
            encoding="utf-8",
        )
        caplog.set_level(logging.WARNING)
        rc = main(["multiscore", "--data", str(toy_data), "--outputs", str(outs), "--allow-unequal",
                   "--out", str(tmp_path / "r.txt")])
        assert rc == EXIT_OK
        assert [r.getMessage() for r in caplog.records] == [
            "instance 'a': matching 2 outputs against 3 references (averaging over the smaller side)",
            "instance 'c': matching 1 outputs against 3 references (averaging over the smaller side)",
        ]


class TestNoLowercase:
    def test_evaluate_json(self, cased_data, capsys):
        assert main(["evaluate", "--data", str(cased_data), "--format", "json"]) == EXIT_OK
        default = capsys.readouterr().out
        assert main(["evaluate", "--data", str(cased_data), "--format", "json", "--no-lowercase"]) == EXIT_OK
        cased = capsys.readouterr().out
        assert cased != default
        expected = render(evaluate_all(load_jsonl(cased_data), lowercase=False), "json")
        assert cased.encode("utf-8") == expected

    @pytest.mark.parametrize("name,metric", [("bleu", BleuMetric()), ("chrf", ChrfMetric())])
    def test_multiscore_per_instance_json(self, cased_data, capsys, name, metric):
        argv = ["multiscore", "--data", str(cased_data), "--metric", name, "--per-instance", "--format", "json"]
        assert main(argv) == EXIT_OK
        default = json.loads(capsys.readouterr().out)
        assert main(argv + ["--no-lowercase"]) == EXIT_OK
        cased = json.loads(capsys.readouterr().out)
        assert cased != default
        scores = []
        for inst, row in zip(load_jsonl(cased_data), cased["per_instance"]):
            result = multi_score(
                [Sentence(t, lowercase=False) for t in inst.outputs],
                [Sentence(t, lowercase=False) for t in inst.references],
                metric,
            )
            assert row["score"] == round2(result.score)
            assert row["matrix"] == [[round2(x) for x in r] for r in result.matrix.weights]
            scores.append(result.score)
        assert cased["multi_score"] == round2(sum(scores) / len(scores))


class TestGenerate:
    @pytest.mark.parametrize("strategy", ["beam3", "random", "ensemble"])
    def test_max_len_zero_is_validation_error(self, toy_data, tmp_path, capsys, strategy):
        out = tmp_path / "g.jsonl"
        rc = main(["generate", "--train", str(toy_data), "--strategy", strategy, "--max-len", "0", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: --max-len must be >= 1, got 0\n"
        assert not out.exists()
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".multiscore-")]

    def test_unpaired_surrogate_in_train_file(self, toy_data, tmp_path, capsys):
        data = tmp_path / "sur.jsonl"
        data.write_bytes(toy_data.read_bytes().replace(b"a dog ran off", b"a dog \\udfff off"))
        out = tmp_path / "g.jsonl"
        rc = main(["generate", "--train", str(data), "--strategy", "random", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: line 2: 'references' is not valid Unicode (unpaired surrogate)\n"
        assert not out.exists()

    @pytest.mark.parametrize("strategy, models", [("beam3", 1), ("ensemble", 3)])
    def test_beam_set_decoded_once_per_run(self, toy_data, tmp_path, monkeypatch, strategy, models):
        # the n-gram model is unconditional, so one beam run per model
        # serves every instance
        calls = []
        beam_pools = decoding._beam_pools

        def counted(*args, **kwargs):
            calls.append(args)
            return beam_pools(*args, **kwargs)

        monkeypatch.setattr(decoding, "_beam_pools", counted)
        out = tmp_path / "g.jsonl"
        assert main(["generate", "--train", str(toy_data), "--strategy", strategy, "--out", str(out)]) == EXIT_OK
        assert len(calls) == models
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["id"] for row in rows] == ["a", "b", "c"]
        assert all(row["outputs"] == rows[0]["outputs"] for row in rows)

    @pytest.mark.parametrize(
        "strategy, knob, value",
        [
            ("ensemble", "--beam-width", "0"),
            ("beam3", "--alpha", "nan"),
            ("ensemble", "--alpha", "nan"),
            ("beam3", "--add-k", "nan"),
            ("random", "--add-k", "inf"),
        ],
    )
    def test_bad_generation_knob_is_validation_error(self, toy_data, tmp_path, capsys, strategy, knob, value):
        out = tmp_path / "g.jsonl"
        rc = main(["generate", "--train", str(toy_data), "--strategy", strategy, knob, value, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {knob} must be ")
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["beam3", "random", "topk3", "ensemble"])
    @pytest.mark.parametrize(
        "knob, value, message",
        [
            ("--topk", "0", "--topk must be >= 1, got 0"),
            ("--beam-width", "0", None),
            ("--order", "0", "--order must be >= 1, got 0"),
            ("--add-k", "-1", "--add-k must be finite and >= 0, got -1.0"),
            ("--add-k", "nan", "--add-k must be finite and >= 0, got nan"),
            ("--alpha", "inf", "--alpha must be finite, got inf"),
            ("--max-len", "0", "--max-len must be >= 1, got 0"),
        ],
    )
    def test_knob_is_checked_by_name_before_loading(self, toy_data, tmp_path, capsys, monkeypatch,
                                                    strategy, knob, value, message):
        # every strategy rejects every bad knob, also one it does not use
        def unread(*args, **kwargs):
            raise AssertionError("read the training file before the knobs were checked")

        monkeypatch.setattr(cli, "load_jsonl", unread)
        if message is None:
            message = f"--beam-width must be >= {3 if strategy == 'beam3' else 1}, got 0"
        out = tmp_path / "g.jsonl"
        rc = main(["generate", "--train", str(toy_data), "--strategy", strategy, knob, value, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_beam3_width_below_set_size_names_the_flag(self, toy_data, tmp_path, capsys):
        out = tmp_path / "g.jsonl"
        rc = main(["generate", "--train", str(toy_data), "--strategy", "beam3", "--beam-width", "2",
                   "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: --beam-width must be >= 3, got 2\n"

    @pytest.mark.parametrize("strategy", ["beam3", "random", "topk3", "ensemble"])
    def test_negative_seed_is_validation_error(self, toy_data, tmp_path, capsys, monkeypatch, strategy):
        def untrained(*args, **kwargs):
            raise AssertionError("trained before the seed was checked")

        monkeypatch.setattr(cli, "train_ngram", untrained)
        out = tmp_path / "g.jsonl"
        rc = main(["generate", "--train", str(toy_data), "--strategy", strategy, "--seed", "-1", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_deterministic_outputs(self, toy_data, tmp_path):
        f1, f2 = tmp_path / "g1.jsonl", tmp_path / "g2.jsonl"
        for f in (f1, f2):
            rc = main(["generate", "--train", str(toy_data), "--strategy", "topk3",
                       "--seed", "7", "--out", str(f)])
            assert rc == EXIT_OK
        assert f1.read_bytes() == f2.read_bytes()

    def test_beam_strategy_records_metadata(self, toy_data, tmp_path):
        out = tmp_path / "g.jsonl"
        rc = main(["generate", "--train", str(toy_data), "--strategy", "beam3", "--out", str(out)])
        assert rc == EXIT_OK
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 3
        for row in rows:
            assert row["strategy"] == "beam_top3"
            assert len(row["outputs"]) == 3

    def test_ensemble_on_one_instance(self, tmp_path):
        data = tmp_path / "one.jsonl"
        data.write_text(
            json.dumps({"id": "solo", "references": [
                "the cat sat on the mat", "a dog ran far away", "big sky over the town"]}) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "g.jsonl"
        rc = main(["generate", "--train", str(data), "--strategy", "ensemble", "--out", str(out)])
        assert rc == EXIT_OK
        row = json.loads(out.read_text())
        assert len(row["outputs"]) == 3

    @pytest.mark.parametrize("references", [["x y"], ["x y", "y z"]])
    def test_ensemble_needs_three_references(self, tmp_path, capsys, references):
        data = tmp_path / "few.jsonl"
        data.write_text(json.dumps({"id": "a", "references": references}) + "\n", encoding="utf-8")
        out = tmp_path / "g.jsonl"
        rc = main(["generate", "--train", str(data), "--strategy", "ensemble", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: ensemble needs at least 3 training references (one per shard), got {len(references)}\n"
        )
        assert not out.exists()

    def test_generated_outputs_bind_and_evaluate(self, toy_data, tmp_path):
        gen = tmp_path / "gen.jsonl"
        rep = tmp_path / "rep.tsv"
        assert main(["generate", "--train", str(toy_data), "--strategy", "random",
                     "--seed", "11", "--out", str(gen)]) == EXIT_OK
        assert main(["evaluate", "--data", str(toy_data), "--outputs", str(gen),
                     "--format", "tsv", "--out", str(rep)]) == EXIT_OK
        assert rep.read_text().startswith("BLEU\t")


class TestEndToEndDeterminism:
    def test_generate_then_evaluate_byte_identical(self, toy_data, tmp_path):
        reports = []
        for run in (1, 2):
            gen = tmp_path / f"gen{run}.jsonl"
            rep = tmp_path / f"rep{run}.json"
            assert main(["generate", "--train", str(toy_data), "--strategy", "random",
                         "--seed", "7", "--out", str(gen)]) == EXIT_OK
            assert main(["evaluate", "--data", str(toy_data), "--outputs", str(gen),
                         "--format", "json", "--out", str(rep)]) == EXIT_OK
            reports.append(rep.read_bytes())
        assert reports[0] == reports[1]


# JSON-ish input for the CLI: a few instance lines, mostly valid so that
# evaluation and decoding run to the end, plus at most one bad line (an odd
# sentence, an arbitrary recursive JSON value, an integer literal past the
# digit limit, or raw bytes)
_WORD = st.sampled_from(["the", "cat", "sat", "on", "a", "mat", ".", ",", "Ещё", "İ", "ß", "x1"])
_SENTENCE = st.lists(_WORD, min_size=1, max_size=6).map(" ".join) | st.text(min_size=1, max_size=12)
_ODD_SENTENCE = st.sampled_from(["", " ", "<s> cat", "the </s>", "cat \ud800", "\x00", "\u2028"])


def _instance(sentence, outputs):
    return st.lists(sentence, min_size=1, max_size=4).flatmap(
        lambda refs: st.fixed_dictionaries(
            {"references": st.just(refs), "outputs": outputs(refs)},
            optional={"category": st.none() | sentence},
        )
    )


_VALID = _instance(_SENTENCE, lambda refs: st.lists(_SENTENCE, min_size=len(refs), max_size=len(refs)))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _SENTENCE | _ODD_SENTENCE,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "references", "outputs", "category", "x"]), inner, max_size=4),
    max_leaves=8,
)
_BAD_LINE = (
    st.one_of(
        _instance(_SENTENCE | _ODD_SENTENCE, lambda refs: st.lists(_SENTENCE | _ODD_SENTENCE))
        .map(lambda obj: {"id": "odd", **obj}),
        _JSON,
    ).flatmap(
        lambda obj: st.sampled_from([
            json.dumps(obj).encode(),
            json.dumps(obj, ensure_ascii=False).encode("utf-8", "surrogatepass"),
        ])
    )
    | st.just(b"9" * 5000)
    | st.binary(max_size=16)
)


class TestFuzz:
    @settings(max_examples=50, deadline=None)
    @given(
        instances=st.lists(_VALID, max_size=4),
        bad=st.none() | st.tuples(st.integers(0, 4), _BAD_LINE),
        strategy=st.sampled_from(["beam3", "random", "topk3", "ensemble"]),
        max_len=st.integers(0, 8),
    )
    def test_any_input_ends_in_an_exit_code(self, instances, bad, strategy, max_len):
        lines = [json.dumps({"id": f"i{k}", **obj}).encode() for k, obj in enumerate(instances)]
        if bad is not None:
            lines.insert(bad[0], bad[1])
        with tempfile.TemporaryDirectory() as tmp:
            data = os.path.join(tmp, "data.jsonl")
            gen = os.path.join(tmp, "gen.jsonl")
            with open(data, "wb") as fh:
                fh.write(b"\n".join(lines))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                evaluated = main(["evaluate", "--data", data, "--format", "json", "--out", os.path.join(tmp, "r")])
                generated = main(["generate", "--train", data, "--strategy", strategy,
                                  "--max-len", str(max_len), "--beam-width", "3", "--out", gen])
            assert evaluated in (EXIT_OK, EXIT_VALIDATION, EXIT_IO)
            assert generated in (EXIT_OK, EXIT_VALIDATION, EXIT_IO)
            assert "Traceback" not in err.getvalue()
            if generated == EXIT_OK:
                # anything generate writes, evaluate accepts
                assert set(load_outputs_jsonl(gen)) == {inst.id for inst in load_jsonl(data)}


# the two ways a process enters the CLI: as a module (the byte gate's form)
# and through main() (the console script's and the benchmark's form)
ENTRIES = {
    "module": ["-m", "multiscore.cli"],
    "main": ["-c", "import sys\nfrom multiscore.cli import main\nsys.exit(main())"],
}

UNEQUAL_WARNINGS = (
    b"WARNING multiscore.multiscore: instance 'a': matching 2 outputs against 3 references"
    b" (averaging over the smaller side)\n"
    b"WARNING multiscore.multiscore: instance 'c': matching 1 outputs against 3 references"
    b" (averaging over the smaller side)\n"
    b"WARNING multiscore.report: instance 'c' has a single output; Self-BLEU skipped\n"
)


def run_cli(entry, argv, cwd):
    """``multiscore ARGV`` in a fresh interpreter entered the ``entry`` way."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *ENTRIES[entry], *map(str, argv)], cwd=cwd, env=env,
                          capture_output=True, check=False)


@pytest.fixture
def unequal_outputs(tmp_path):
    outs = tmp_path / "unequal.jsonl"
    outs.write_text(
        '{"id":"a","outputs":["the cat sat on the mat","a cat sat"]}\n'
        '{"id":"b","outputs":["the dog ran away","a dog ran off","a dog ran far away"]}\n'
        '{"id":"c","outputs":["big sky over town"]}\n',
        encoding="utf-8",
    )
    return outs


class TestEntryPaths:
    """Each command in a fresh process, as users and the tools start it."""

    COMMANDS = {
        "evaluate": ["evaluate", "--format", "json"],
        "multiscore": ["multiscore", "--per-instance", "--metric", "chrf"],
        "generate": ["generate", "--strategy", "topk3", "--seed", "3", "--out", "gen.jsonl"],
    }

    def argv(self, command, data):
        flag = "--train" if command == "generate" else "--data"
        return [*self.COMMANDS[command], flag, data]

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_both_entries_run_every_command_alike(self, toy_data, tmp_path, command):
        results = {}
        for entry in ENTRIES:
            cwd = tmp_path / entry
            cwd.mkdir()
            proc = run_cli(entry, self.argv(command, toy_data), cwd)
            written = (cwd / "gen.jsonl").read_bytes() if command == "generate" else b""
            results[entry] = (proc.returncode, proc.stdout, proc.stderr, written)
        assert results["module"] == results["main"]
        code, stdout, stderr, written = results["main"]
        assert (code, stderr) == (EXIT_OK, b"")
        assert stdout or written

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_verbose_leaves_stdout_alone(self, toy_data, tmp_path, command):
        quiet = run_cli("main", self.argv(command, toy_data), tmp_path)
        quiet_file = (tmp_path / "gen.jsonl").read_bytes() if command == "generate" else b""
        loud = run_cli("main", ["-v", *self.argv(command, toy_data)], tmp_path)
        loud_file = (tmp_path / "gen.jsonl").read_bytes() if command == "generate" else b""
        assert (loud.returncode, loud.stdout, loud_file) == (quiet.returncode, quiet.stdout, quiet_file)
        assert quiet.returncode == EXIT_OK

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("verbose", [[], ["-v"]])
    def test_unequal_sizes_are_warned_on_stderr(self, toy_data, unequal_outputs, tmp_path, entry, verbose):
        proc = run_cli(entry, [*verbose, "evaluate", "--data", toy_data, "--outputs", unequal_outputs,
                               "--allow-unequal"], tmp_path)
        assert proc.returncode == EXIT_OK
        assert proc.stderr == UNEQUAL_WARNINGS
        assert proc.stdout.startswith(b"metric")

    @pytest.mark.parametrize("strategy", ["beam3", "random", "topk3", "ensemble"])
    @pytest.mark.parametrize("verbose", [[], ["-v"]])
    def test_generate_writes_nothing_to_stderr(self, toy_data, tmp_path, strategy, verbose):
        proc = run_cli("main", [*verbose, "generate", "--train", toy_data, "--strategy", strategy,
                                "--out", "gen.jsonl"], tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, b"", b"")
        assert load_outputs_jsonl(tmp_path / "gen.jsonl").keys() == {"a", "b", "c"}
