import tracemalloc

import numpy as np

from pschrod import verify
from pschrod.asymptotic import ALGEBRAIC_TOL, lambda_fnorm_rows
from pschrod.grid import GridSpec


def one_shot_lambda_metric(rng):
    """The ``lambda_metric`` suite on all 10,000 pairs at once: the reference."""
    spec = GridSpec(n=1, L=4.0, m=129)
    n_pairs, p, weights = 10_000, 2.0, spec.weights()
    u, v, w = rng.normal(0.0, 3.0, (3, n_pairs, spec.num_nodes))
    alpha = rng.uniform(0.1, 4.0, size=(n_pairs, 1))

    def dist(a, b):
        return lambda_fnorm_rows(a - b, weights, p)

    duv = dist(u, v)
    gaps = {
        "worst_rel_triangle_gap": duv - (dist(u, w) + dist(w, v)),
        "worst_rel_lipschitz_gap":
            dist(np.clip(u, -alpha, alpha), np.clip(v, -alpha, alpha)) - duv,
        "worst_rel_translation_gap": np.abs(dist(u + w, v + w) - duv),
    }
    scale = np.maximum(duv, 1e-300)
    worst = {name: max(0.0, float(np.max(gap / scale))) for name, gap in gaps.items()}
    identity_zero = float(dist(u[-1], u[-1]))
    passed = all(gap <= ALGEBRAIC_TOL for gap in worst.values()) and identity_zero == 0.0
    return {"passed": passed, "pairs": n_pairs, **worst, "self_distance": identity_zero}


def test_lambda_metric_streams_rows_with_one_shot_bits():
    # seed 7, suite index 1: the generator `verify --seed 7` hands this suite
    tracemalloc.start()
    try:
        result = verify._SUITES["lambda_metric"](np.random.default_rng([7, 1]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    assert result == one_shot_lambda_metric(np.random.default_rng([7, 1]))
