"""The benchmark tracer (bench/tracer.py) still finds every binding it
patches, and a traced run leaves the report bytes and the patched
namespaces exactly as an untraced one does."""

import importlib.util
from importlib import resources
from pathlib import Path

from multiscore.cli import EXIT_OK, main

_spec = importlib.util.spec_from_file_location("bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_every_patched_binding_exists():
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _ in tracer.patches(tracer.Tracer()) if attr not in vars(owner)
    ]
    assert missing == []


def test_traced_evaluate_prints_the_untraced_report(tmp_path, capsysbinary):
    demo = tmp_path / "demo.jsonl"
    demo.write_bytes(resources.files("multiscore").joinpath("data").joinpath("demo_corpus.jsonl").read_bytes())
    outs = tmp_path / "outs.jsonl"
    assert main(["generate", "--train", str(demo), "--strategy", "random", "--seed", "7", "--out", str(outs)]) == EXIT_OK
    argv = ["evaluate", "--data", str(demo), "--outputs", str(outs), "--format", "json"]
    capsysbinary.readouterr()
    assert main(argv) == EXIT_OK
    untraced = capsysbinary.readouterr().out

    tr = tracer.Tracer()
    owners = {id(owner): owner for owner, _, _ in tracer.patches(tr)}.values()
    before = [(owner, dict(vars(owner))) for owner in owners]
    with tracer.installed(tr):
        assert main(argv) == EXIT_OK
    assert capsysbinary.readouterr().out == untraced
    for owner, namespace in before:
        now = vars(owner)
        assert set(now) == set(namespace) and all(now[k] is namespace[k] for k in namespace), owner.__name__
    assert any(span[0] == "report.evaluate_all" for span in tr.spans)
