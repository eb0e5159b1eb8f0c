"""Ingestion and validation of multi-reference evaluation data.

The canonical interchange format is JSON Lines: UTF-8, one object per line,
with fields ``id`` (required string), ``category`` (optional string),
``references`` (required non-empty string array) and ``outputs`` (optional
string array, absent for reference-only datasets). A plain-text importer
covers the shared-task layout of parallel ``ref0.txt``/``out0.txt`` files.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from importlib import resources
from itertools import repeat
from pathlib import Path
from typing import Mapping, Sequence

from .multiscore import EvalInstance


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable collection of evaluation instances."""

    instances: tuple[EvalInstance, ...]

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))
        seen: dict[str, int] = {}
        for pos, inst in enumerate(self.instances):
            if inst.id in seen:
                raise ValueError(f"duplicate instance id {inst.id!r} (positions {seen[inst.id]} and {pos})")
            seen[inst.id] = pos

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self):
        return iter(self.instances)


_SURROGATE = re.compile("[\ud800-\udfff]")


def _check_unicode(line_no: int, field: str, texts) -> None:
    """Reject strings that cannot be written as UTF-8: a JSON escape such
    as ``"\\ud800"`` decodes to an unpaired surrogate (paired escapes
    decode to one code point, so any surrogate left is unpaired)."""
    if any(_SURROGATE.search(text) for text in texts):
        raise ValueError(f"line {line_no}: {field!r} is not valid Unicode (unpaired surrogate)")


def _read_lines(path):
    """Yield ``(line_no, text)`` for each line of a UTF-8 file, with an
    optional byte order mark on line 1. Lines split on the bytes at LF, CR
    and CRLF only, so a U+2028 or form feed inside a sentence stays in its
    line; each line is decoded on its own, so a decode error names its
    line."""
    line_no = 0
    with open(path, "rb") as fh:
        # streamed in LF-ended chunks, each split again at a lone CR
        for chunk in fh:
            for raw in chunk.splitlines():
                line_no += 1
                try:
                    line = raw.decode("utf-8-sig" if line_no == 1 else "utf-8")
                except UnicodeDecodeError:
                    raise ValueError(f"line {line_no}: not valid UTF-8") from None
                yield line_no, line


def _records(path, fields, what):
    """Yield ``(line_no, object, escaped)`` for each line of a JSON Lines
    file, every error naming its line: a JSON object with no field outside
    ``fields`` and a non-empty string ``id`` that no earlier line holds. An
    empty file is an error, named ``what``. ``escaped`` tells whether the
    line holds a ``\\u`` escape: strict UTF-8 decoding rejects an encoded
    surrogate, so only such an escape can put one in a string."""
    id_lines: dict[str, int] = {}
    for line_no, line in _read_lines(path):
        if not line.strip():
            raise ValueError(f"line {line_no}: empty line in JSONL file")
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {line_no}: malformed JSON ({exc.msg})") from None
        except RecursionError:
            raise ValueError(f"line {line_no}: malformed JSON (nested too deep)") from None
        except ValueError as exc:  # e.g. an integer literal beyond the digit limit
            raise ValueError(f"line {line_no}: malformed JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise ValueError(f"line {line_no}: expected a JSON object, got {type(obj).__name__}")
        if not obj.keys() <= fields:
            raise ValueError(f"line {line_no}: unknown fields {sorted(set(obj) - fields)}")
        inst_id = obj.get("id")
        if not isinstance(inst_id, str):
            raise ValueError(f"line {line_no}: missing or non-string 'id'")
        if not inst_id:
            raise ValueError(f"line {line_no}: instance id must be non-empty")
        escaped = "\\u" in line
        if escaped:
            _check_unicode(line_no, "id", [inst_id])
        if inst_id in id_lines:
            raise ValueError(f"duplicate id {inst_id!r} on lines {id_lines[inst_id]} and {line_no}")
        id_lines[inst_id] = line_no
        yield line_no, obj, escaped
    if not id_lines:
        raise ValueError(f"{os.fspath(path)}: {what} is empty")


def _sentences(line_no: int, obj: dict, field: str, required: bool, escaped: bool) -> tuple[str, ...]:
    """The sentence array ``obj[field]``: strings that are valid Unicode and
    not blank. A required array must be present and non-empty; an optional
    one reads as empty when absent."""
    if field not in obj:
        if required:
            raise ValueError(f"line {line_no}: missing {field!r}")
        return ()
    texts = obj[field]
    if not isinstance(texts, list) or (required and not texts) or not all(map(isinstance, texts, repeat(str))):
        kind = "non-empty string array" if required else "string array"
        raise ValueError(f"line {line_no}: {field!r} must be a {kind}")
    if escaped:
        _check_unicode(line_no, field, texts)
    if not all(map(str.strip, texts)):
        raise ValueError(f"line {line_no}: instance {obj['id']!r}: empty {field[:-1]} sentence")
    return tuple(texts)


def _dataset_records(path):
    """Yield ``(id, references, outputs, category)`` for each record of a
    dataset file, every field checked as :func:`load_jsonl` states."""
    for line_no, obj, escaped in _records(path, {"id", "category", "references", "outputs"}, "dataset"):
        references = _sentences(line_no, obj, "references", True, escaped)
        outputs = _sentences(line_no, obj, "outputs", False, escaped)
        category = obj.get("category")
        if category is not None and not isinstance(category, str):
            raise ValueError(f"line {line_no}: 'category' must be a string")
        if escaped and category:
            _check_unicode(line_no, "category", [category])
        yield obj["id"], references, outputs, category


def load_jsonl(path) -> Dataset:
    """Load a dataset from a JSON Lines file, preserving line order.

    Raises ValueError naming the offending line for invalid UTF-8,
    malformed JSON, unpaired surrogates, schema violations, or duplicate
    ids; I/O failures propagate as OSError.
    """
    return Dataset(instances=tuple(EvalInstance(*record) for record in _dataset_records(path)))


def load_outputs_jsonl(path) -> dict[str, list[str]]:
    """Load a system-outputs file: one object per line with ``id`` and a
    non-empty ``outputs`` array of non-blank strings. The generation
    metadata fields ``strategy``, ``seed`` and ``flags`` are tolerated and
    ignored; any other field is rejected. The record rules are those of
    :func:`load_jsonl`."""
    return {
        obj["id"]: list(_sentences(line_no, obj, "outputs", True, escaped))
        for line_no, obj, escaped in _records(path, {"id", "outputs", "strategy", "seed", "flags"}, "outputs file")
    }


_REF_FILE = re.compile(r"^ref(\d+)\.txt$")
_OUT_FILE = re.compile(r"^out(\d+)\.txt$")


def _read_columns(directory, pattern) -> list[list[str]]:
    directory = Path(directory)
    files = sorted(
        (int(m.group(1)), p) for p in directory.iterdir() if (m := pattern.match(p.name))
    )
    if not files:
        raise ValueError(f"{directory}: no files matching the parallel-text layout")
    columns = []
    for _, p in files:
        try:
            columns.append([line for _, line in _read_lines(p)])
        except ValueError as exc:
            raise ValueError(f"{p.name}: {exc}") from None
    lengths = {len(col) for col in columns}
    if len(lengths) > 1:
        names = ", ".join(f"{p.name}={len(c)}" for (_, p), c in zip(files, columns))
        raise ValueError(f"{directory}: mismatched line counts across files ({names})")
    return columns


def load_parallel_text(refs_dir, outputs_dir=None) -> Dataset:
    """Assemble a dataset from the shared-task plain-text layout.

    ``refs_dir`` holds ``ref0.txt``, ``ref1.txt``, ... of equal line counts;
    instance k is built from line k of every file. An empty line marks a
    missing slot for that instance and is dropped from its set. With
    ``outputs_dir``, files ``out0.txt``, ... of the same line count attach
    outputs the same way.
    """
    ref_cols = _read_columns(refs_dir, _REF_FILE)
    n_lines = len(ref_cols[0])
    out_cols: list[list[str]] = []
    if outputs_dir is not None:
        out_cols = _read_columns(outputs_dir, _OUT_FILE)
        if len(out_cols[0]) != n_lines:
            raise ValueError(
                f"outputs have {len(out_cols[0])} lines but references have {n_lines}"
            )
    instances = []
    for k in range(n_lines):
        refs = tuple(col[k].strip() for col in ref_cols if col[k].strip())
        if not refs:
            raise ValueError(f"instance {k}: all reference slots are empty")
        outs = tuple(col[k].strip() for col in out_cols if col[k].strip())
        instances.append(EvalInstance(id=str(k), references=refs, outputs=outs))
    return Dataset(instances=tuple(instances))


def load_bundled(name: str = "demo_corpus.jsonl") -> Dataset:
    """Load one of the datasets shipped with the package."""
    ref = resources.files("multiscore").joinpath("data").joinpath(name)
    with resources.as_file(ref) as path:
        return load_jsonl(path)


def bundled_json(name: str):
    """Parse one of the JSON fixtures shipped with the package."""
    ref = resources.files("multiscore").joinpath("data").joinpath(name)
    return json.loads(ref.read_text(encoding="utf-8"))


def bind_outputs(dataset: Dataset, outputs: Mapping[str, Sequence[str]]) -> Dataset:
    """Attach one output list per instance id, replacing any existing
    outputs. Every dataset id must be covered and no unknown ids allowed."""
    return _bound([(inst.id, inst.references, inst.outputs, inst.category) for inst in dataset], outputs)


def _load_bound(data_path, outputs_path) -> Dataset:
    """``bind_outputs(load_jsonl(data_path), load_outputs_jsonl(outputs_path))``,
    with the same errors, but each instance built once."""
    records = list(_dataset_records(data_path))
    return _bound(records, load_outputs_jsonl(outputs_path))


def _bound(records, outputs: Mapping[str, Sequence[str]]) -> Dataset:
    """The dataset of ``(id, references, outputs, category)`` records, each
    with its outputs replaced by ``outputs[id]``."""
    known = {record[0] for record in records}
    unknown = set(outputs) - known
    if unknown:
        raise ValueError(f"outputs name unknown instance ids: {sorted(unknown)}")
    missing = known - set(outputs)
    if missing:
        raise ValueError(f"outputs missing for instance ids: {sorted(missing)}")
    rebound = []
    for inst_id, references, _, category in records:
        outs = tuple(outputs[inst_id])
        if not outs:
            raise ValueError(f"instance {inst_id!r}: bound output list is empty")
        rebound.append(EvalInstance(inst_id, references, outs, category))
    return Dataset(instances=tuple(rebound))
