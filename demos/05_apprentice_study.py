"""Estimate skill parameters by simulating apprentice learners.

Each simulated student replays a real student's problem sequence: it
guesses before any training, then fits a decision tree on the worked
examples seen so far and answers with it. Fitting the Additive Factors
Model to the pooled simulated log gives per-skill intercepts and slopes
without any real performance data.

The article domain here contains one rule (vowel-sound words spelled
without a vowel, like 'hour') that the six hand-written features cannot
express: with those features the simulated learner never improves on that
skill, so its estimated learning rate collapses to zero, while a
full-information feature set recovers every skill's learning curve.
"""

import numpy as np

from cogrl.afm import TransactionLog
from cogrl.apprentice import (
    SimConfig,
    human_features,
    simulate_and_estimate,
    simulate_learner,
)
from cogrl.ingest import ClozeSynthSpec, synth_cloze

bundle = synth_cloze(ClozeSynthSpec(seed=5))
full_features = bundle.extras["features_full"]
q_rules = bundle.extras["oracle_q"]
problems = bundle.problems
print(f"{len(problems)} article-selection questions, "
      f"rules: {', '.join(q_rules.kc_names)}")

# classroom stand-in: 25 learners with full information, independent seeds
n_students = 25
order_seeds = np.random.SeedSequence(777).spawn(n_students)
sim_seeds = np.random.SeedSequence(888).spawn(n_students)
pooled = []
for s in range(n_students):
    rng = np.random.default_rng(order_seeds[s].generate_state(1)[0])
    perm = rng.permutation(len(problems))
    curriculum = [(problems[i], full_features[problems[i].item_id])
                  for i in perm]
    pooled.extend(simulate_learner(
        curriculum, SimConfig(seed=int(sim_seeds[s].generate_state(1)[0])),
        student_id=f"s{s:03d}", labels=[0, 1, 2]))
original_log = TransactionLog(pooled)
print(f"original log: {len(original_log)} first attempts, success rate "
      f"{original_log.columns.y.mean():.0%}")

for label, features in (
        ("six hand-written features", human_features(problems)),
        ("full-information features", full_features)):
    study = simulate_and_estimate(original_log, problems, features, q_rules,
                                  sim=SimConfig(seed=123))
    print(f"\napprentice with {label}:")
    print(f"  {'skill':20s} {'intercept':>9s} {'slope':>8s}")
    for kc, ic, sl in zip(study.report.kc_names, study.report.intercepts,
                          study.report.slopes):
        print(f"  {kc:20s} {ic:9.3f} {sl:8.3f}")
    print(f"  correlation with original-log estimates: "
          f"intercept {study.report.intercept_correlation:.3f}, "
          f"slope {study.report.slope_correlation:.3f}")
