"""The four set-decoding strategies on the bundled demo corpus.

An n-gram model is trained on the reference sentences, each strategy
produces a 3-sentence set per instance, and the evaluation battery shows
the quality/diversity trade-off: beam search is accurate but repetitive,
total random sampling is diverse but sloppy, and the ensemble gets the
best of both.
"""

from multiscore import evaluate_all, bind_outputs, train_ngram, tokenize_words
from multiscore.corpus import load_bundled
from multiscore.decoding import (
    generate_ensemble,
    generate_random,
    generate_top3_beam,
    generate_topk_random,
)

dataset = load_bundled()
sequences = [tokenize_words(ref) for inst in dataset for ref in inst.references]
model = train_ngram(sequences, order=3, add_k=0.01)

# three shard models for the ensemble, references split round-robin
shards = [sequences[0::3], sequences[1::3], sequences[2::3]]
ensemble = [train_ngram(s, order=3, add_k=0.01) for s in shards]

print("sample sets for the first instance:")
beam = generate_top3_beam(model, beam_width=10, max_len=64, alpha=1.0)
rand = generate_random(model, seed=7, max_len=64)
topk = generate_topk_random(model, k=3, seed=7, max_len=64)
ens = generate_ensemble(ensemble, beam_width=10, max_len=64, alpha=1.0)
for gen in (beam, rand, topk, ens):
    print(f"\n[{gen.strategy}]")
    for sentence in gen.sentences:
        print("  ", sentence)

# evaluate every strategy corpus-wide; the n-gram model never sees the
# instance, so the beam and ensemble sets above serve every instance, while
# the samplers draw a fresh set per instance from their own seed
print(f"\n{'strategy':<14}{'BLEU':>8}{'CHRF++':>8}{'Self-B':>8}{'MS-B':>8}{'MS-C':>8}")
for name, sets in (
    ("beam_top3", lambda i, k: beam),
    ("total_random", lambda i, k: generate_random(model, seed=k, max_len=64, instance_id=i)),
    ("topk_random", lambda i, k: generate_topk_random(model, 3, seed=k, max_len=64, instance_id=i)),
    ("ensemble", lambda i, k: ens),
):
    outputs = {
        inst.id: list(sets(inst.id, idx).sentences) for idx, inst in enumerate(dataset)
    }
    report = evaluate_all(bind_outputs(dataset, outputs))
    q, d = report.quality, report.diversity
    print(
        f"{name:<14}{q['bleu']:>8.2f}{q['chrfpp']:>8.2f}"
        f"{d['self_bleu']:>8.2f}{d['ms_bleu']:>8.2f}{d['ms_chrf']:>8.2f}"
    )

print("\nlow Self-B alone is cheap (random babble wins it); the set scores")
print("MS-B / MS-C only reward diversity that stays close to the references.")
