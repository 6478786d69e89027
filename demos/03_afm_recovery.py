"""Fit the Additive Factors Model and recover known generator parameters.

A transaction log is sampled from known student proficiencies, KC easiness
and KC learning rates; the penalized maximum-likelihood fit should recover
the KC parameters up to the usual identifiability caveats.
"""

from cogrl.afm import afm_fit, pearson
from cogrl.ingest import AfmLogSynthSpec, synth_afm_log

log, q, true = synth_afm_log(AfmLogSynthSpec(seed=0))
print(f"log: {len(log)} first attempts, {len(log.columns.students)} students, "
      f"{q.n_items} items, {q.n_kcs} KCs")

params, diag = afm_fit(log, q)
print(f"fit: converged={diag.converged} iterations={diag.iterations} "
      f"objective={diag.objective:.1f}")

print(f"\n{'KC':6s} {'true b':>8s} {'est b':>8s} {'true g':>8s} {'est g':>8s}")
for kc in q.kc_names:
    print(f"{kc:6s} {true.beta[kc]:8.3f} {params.beta[kc]:8.3f} "
          f"{true.gamma[kc]:8.3f} {params.gamma[kc]:8.3f}")

r_beta = pearson([params.beta[k] for k in q.kc_names],
                 [true.beta[k] for k in q.kc_names])
r_gamma = pearson([params.gamma[k] for k in q.kc_names],
                  [true.gamma[k] for k in q.kc_names])
print(f"\nPearson(easiness est, truth)      = {r_beta:.3f}")
print(f"Pearson(learning-rate est, truth) = {r_gamma:.3f}")
