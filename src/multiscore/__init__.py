"""multiscore: joint quality/diversity evaluation of generated sentence sets.

The core idea: score every (output, reference) pair with a sentence-level
metric, solve the maximum-weight bipartite matching between the two sets,
and report the average matched weight. High scores need outputs that are
simultaneously close to the references and diverse enough to cover them
one-to-one. Conventional BLEU / chrF++ quality scoring, the Self-BLEU
diversity baseline, and a toy n-gram decoding harness round out the
package.
"""

import importlib

__version__ = "0.1.0"

# the one list of public names, each with the module that defines it;
# README.md's "Public API" section names the same set, and
# tests/test_packaging.py keeps the two equal. A name's module is imported
# on the name's first use (PEP 562), so ``from multiscore import
# max_weight_matching`` loads the matcher and nothing else
_MODULE_OF = {
    "BleuConfig": "metrics",
    "BleuMetric": "metrics",
    "ChrfConfig": "metrics",
    "ChrfMetric": "metrics",
    "Dataset": "corpus",
    "EvalInstance": "multiscore",
    "EvaluationReport": "report",
    "GenerationSet": "decoding",
    "Matching": "assignment",
    "MultiScoreResult": "multiscore",
    "NGramLM": "decoding",
    "ScoreMatrix": "assignment",
    "Sentence": "text",
    "SentenceMetric": "metrics",
    "bind_outputs": "corpus",
    "brute_force_matching": "assignment",
    "corpus_bleu": "metrics",
    "corpus_chrfpp": "metrics",
    "corpus_multi_score": "multiscore",
    "evaluate_all": "report",
    "generate_ensemble": "decoding",
    "generate_random": "decoding",
    "generate_top3_beam": "decoding",
    "generate_topk_random": "decoding",
    "load_jsonl": "corpus",
    "load_outputs_jsonl": "corpus",
    "load_parallel_text": "corpus",
    "max_weight_matching": "assignment",
    "multi_score": "multiscore",
    "render": "report",
    "score_matrix": "multiscore",
    "self_bleu": "metrics",
    "sentence_bleu": "metrics",
    "sentence_chrfpp": "metrics",
    "tokenize_words": "text",
    "train_ngram": "decoding",
}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
