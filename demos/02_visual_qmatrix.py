"""Discover a cognitive model for a synthetic visual domain.

Forty block-template images (four templates, two answer classes) are used
to train the convolutional net on (image, correct answer) pairs only - no
student data. The 50-unit sigmoid pre-output layer is then read off per
item and thresholded at 0.95 into a Q-matrix. Items built from the same
template should end up sharing knowledge components.
"""

import numpy as np

from cogrl.ingest import VisualSynthSpec, synth_visual
from cogrl.neuralcore import SGDConfig
from cogrl.representation import (
    ImageArchSpec,
    ImageCNN,
    extract_representations,
    threshold_qmatrix,
    train_model,
    training_accuracy,
)

bundle = synth_visual(VisualSynthSpec(seed=7))
oracle = bundle.extras["oracle_q"]
template = dict(zip(oracle.item_ids, oracle.cells.argmax(axis=1).tolist()))
print(f"{len(bundle.problems)} problems from 4 templates, "
      f"classes {bundle.answer_labels}")

net = ImageCNN(
    ImageArchSpec(in_shape=(1, 20, 20), n_classes=2, filters=10, kernel=5,
                  stride=2), seed=7)
print(f"training {net.parameter_count()}-parameter net "
      f"(conv {net.conv_out_shape} -> 50 -> 2) ...")
history = train_model(net, bundle.problems,
                      SGDConfig(learning_rate=0.5, seed=7, max_epochs=1500,
                                target_loss=1e-4))
reps = extract_representations(net, bundle.problems)
print(f"epochs={len(history)} final_loss={history[-1]:.2e} "
      f"accuracy={training_accuracy(net, reps, bundle.problems):.0%}")

q, sanitation = threshold_qmatrix(reps, tau=0.95)
print(f"thresholded Q-matrix: {q.n_items} items x {q.n_kcs} KCs "
      f"(sanitation dropped {len(sanitation.dropped_columns)} empty columns, "
      f"merged {len(sanitation.merged_columns)} duplicates, "
      f"patched {len(sanitation.residual_items)} empty rows)")

shared = total = 0
for i in range(len(q.item_ids)):
    for j in range(i + 1, len(q.item_ids)):
        if template[q.item_ids[i]] != template[q.item_ids[j]]:
            continue
        total += 1
        shared += bool((q.row(q.item_ids[i]) & q.row(q.item_ids[j])).any())
print(f"same-template item pairs sharing at least one KC: "
      f"{shared}/{total} = {shared / total:.0%}")

for t in range(4):
    rows = [q.row(item) for item in q.item_ids if template[item] == t]
    common = np.bitwise_and.reduce(np.stack(rows))
    kcs = [kc for kc, v in zip(q.kc_names, common) if v]
    print(f"  template {t}: KCs shared by every item: {kcs}")
