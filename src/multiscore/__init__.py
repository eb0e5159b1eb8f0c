"""multiscore: joint quality/diversity evaluation of generated sentence sets.

The core idea: score every (output, reference) pair with a sentence-level
metric, solve the maximum-weight bipartite matching between the two sets,
and report the average matched weight. High scores need outputs that are
simultaneously close to the references and diverse enough to cover them
one-to-one. Conventional BLEU / chrF++ quality scoring, the Self-BLEU
diversity baseline, and a toy n-gram decoding harness round out the
package.
"""

from .assignment import Matching, ScoreMatrix, brute_force_matching, max_weight_matching
from .corpus import Dataset, bind_outputs, load_jsonl, load_outputs_jsonl, load_parallel_text
from .decoding import (
    GenerationSet,
    NGramLM,
    generate_ensemble,
    generate_random,
    generate_top3_beam,
    generate_topk_random,
    train_ngram,
)
from .metrics import (
    BleuConfig,
    BleuMetric,
    ChrfConfig,
    ChrfMetric,
    SentenceMetric,
    corpus_bleu,
    corpus_chrfpp,
    self_bleu,
    sentence_bleu,
    sentence_chrfpp,
)
from .multiscore import EvalInstance, MultiScoreResult, corpus_multi_score, multi_score, score_matrix
from .report import EvaluationReport, evaluate_all, render
from .text import Sentence, tokenize_words

__version__ = "0.1.0"

# the one list of public names; README.md's "Public API" section names the
# same set, and tests/test_packaging.py keeps the two equal
__all__ = [
    "BleuConfig",
    "BleuMetric",
    "ChrfConfig",
    "ChrfMetric",
    "Dataset",
    "EvalInstance",
    "EvaluationReport",
    "GenerationSet",
    "Matching",
    "MultiScoreResult",
    "NGramLM",
    "ScoreMatrix",
    "Sentence",
    "SentenceMetric",
    "bind_outputs",
    "brute_force_matching",
    "corpus_bleu",
    "corpus_chrfpp",
    "corpus_multi_score",
    "evaluate_all",
    "generate_ensemble",
    "generate_random",
    "generate_top3_beam",
    "generate_topk_random",
    "load_jsonl",
    "load_outputs_jsonl",
    "load_parallel_text",
    "max_weight_matching",
    "multi_score",
    "render",
    "score_matrix",
    "self_bleu",
    "sentence_bleu",
    "sentence_chrfpp",
    "tokenize_words",
    "train_ngram",
]
