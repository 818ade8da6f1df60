"""From answers to fingerprints to a theft decision.

A scheme is a (sampler, representation, detector) triple.  This demo
builds the mistake-matching baseline two ways -- via the dedicated test
and via scheme assembly -- shows they agree, then calibrates a quantile
threshold on a pool of unrelated models and enumerates the full grid of
scheme combinations.
"""

import numpy as np

import modelprint as mp
from modelprint.schemes import mistake_match_scheme, mistake_match_test, assemble_scheme, standard_scheme_grid

ARCH = (8, 48, 24, 4)
task = mp.SyntheticTaskSpec(
    family="blobs", num_classes=4, dim=8, n_train=400, n_test=1000,
    label_noise=0.1, noise_scale=1.2, seed=4,
)
train_ds, test_ds = mp.generate_task(task)
cfg = mp.TrainConfig(epochs=80, batch_size=32)
victim = mp.train(train_ds, mp.MLPSpec(ARCH, seed=0), cfg, identity="victim")
copycat = mp.quantize(victim, 6)


def fresh_draw(seed):
    # unrelated models must see their own data draw: two models fitted to
    # the same noisy training labels would share the victim's mistakes
    spec = mp.SyntheticTaskSpec(
        family="blobs", num_classes=4, dim=8, n_train=400, n_test=10,
        label_noise=0.1, noise_scale=1.2, seed=seed,
    )
    return mp.generate_task(spec)[0]


stranger = mp.unrelated(fresh_draw(900), mp.MLPSpec(ARCH), cfg, seed=77)

# 1) the baseline: query on victim mistakes, score the agreement.  Copies
# match everywhere; strangers match only where a mistake is generic
# rather than idiosyncratic, which can leave them near the 1/2 majority
# line -- the calibrated detector below resolves those borderline cases.
flag, match = mistake_match_test(victim, copycat, test_ds, k_queries=50, seed=0)
print(f"baseline vs quantized copy: match={match:.2f} -> flag={flag}")
for i in range(3):
    other = mp.unrelated(fresh_draw(910 + i), mp.MLPSpec(ARCH), cfg, seed=78 + i)
    flag, match = mistake_match_test(victim, other, test_ds, k_queries=50, seed=0)
    print(f"baseline vs unrelated #{i}:  match={match:.2f} -> flag={flag}")
print()

# 2) the same test expressed as a scheme; scores agree exactly
scheme = assemble_scheme(mistake_match_scheme(budget=50))
dist = scheme.score(victim, copycat, test_ds, seed=0)
_, match = mistake_match_test(victim, copycat, test_ds, 50, seed=0)
print(f"scheme distance {dist:.2f} == 1 - baseline match {1 - match:.2f}\n")

# 3) quantile detection calibrated on unrelated-model fingerprints
pool_models = [
    mp.unrelated(fresh_draw(800 + i), mp.MLPSpec(ARCH), cfg, seed=200 + i)
    for i in range(8)
]
qs = scheme.query_set(victim, test_ds, seed=1)
fp_victim = scheme.fingerprint(victim, qs)
pool = [mp.fingerprint_distance(fp_victim, scheme.fingerprint(m, qs)) for m in pool_models]
threshold = mp.quantile_threshold(pool, target_fpr=0.05)
for name, suspect in [("copy", copycat), ("stranger", stranger)]:
    d = mp.fingerprint_distance(fp_victim, scheme.fingerprint(suspect, qs))
    print(f"calibrated threshold {threshold:.2f}: {name} at distance {d:.2f} "
          f"-> {'stolen' if d < threshold else 'benign'}")

# 4) the combination grid: samplers x representations x detectors
specs = standard_scheme_grid(budget=24)
print(f"\n{len(specs)} scheme combinations assemble cleanly; a few examples:")
for spec in specs[::7]:
    d = assemble_scheme(spec).score(victim, stranger, test_ds, seed=3)
    print(f"  {spec.label():46s} distance to stranger = {d:.3f}")
