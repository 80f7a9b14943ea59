"""Trust graphs as Laplacian penalties, and what the penalty buys.

Builds a two-cluster trust graph, measures the disagreement energy of
factor matrices that respect or ignore the clusters, then fits the smoother
at several social weights and tracks how far trusted neighbors end up from
each other. More weight pulls neighbors together; eventually it also drags
everyone toward a single point, which is the overshoot regime.
"""

import argparse

import numpy as np
import scipy.sparse as sp

from socialdmf import (
    SmootherConfig,
    TrustTimeline,
    build_timeline_laplacians,
    init_timeline,
    laplacian_quadratic,
    run_dynamic,
    synth_generate,
)


def two_cluster_graph(m):
    """Dense friendships inside each half, a single bridge between them."""
    half = m // 2
    rows, cols = [], []
    for block in (range(half), range(half, m)):
        block = list(block)
        for i in block:
            for j in block:
                if i < j:
                    rows.append(i)
                    cols.append(j)
    rows.append(0)
    cols.append(half)
    W = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(m, m))
    return W + W.T


def neighbor_gap(trust, U):
    """Mean distance ||U_i - U_j|| over the edges of the last bin."""
    W = trust.graph(trust.N - 1).tocoo()
    mask = W.row < W.col
    d = np.linalg.norm(U[W.row[mask]] - U[W.col[mask]], axis=1)
    return float(d.mean())


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    m = 10
    (op,) = build_timeline_laplacians(TrustTimeline(m, [two_cluster_graph(m)]))
    aligned = np.repeat(rng.standard_normal((2, 3)), m // 2, axis=0)
    scrambled = rng.standard_normal((m, 3))
    print("disagreement energy tr(U'LU):")
    print(f"  cluster-constant U: {laplacian_quadratic(op, aligned):.4f}")
    print(f"  random U:           {laplacian_quadratic(op, scrambled):.4f}")

    split, trust, _ = synth_generate(
        m=50, n=60, k=3, N=5, samples_per_bin=500, trust_edges=120,
        eta=0.08, noise_std=0.5, seed=args.seed,
    )
    config = SmootherConfig(k=3, sigma=1.0, gamma=2.0, seed=args.seed, max_iter=200)
    factors = init_timeline(split, config)
    print("\nsocial weight vs held-out rmse and neighbor distance:")
    for lam in (0.0, 1e-3, 1e-2, 1e-1, 1.0):
        res = run_dynamic(split, trust, config, lam=lam, factors=factors)
        gap = neighbor_gap(trust, res.factors[res.factors.N - 1].U)
        print(f"  lambda {lam:7.4f}: rmse {res.rmse_weighted:.4f}, "
              f"mean neighbor gap {gap:.4f}")


if __name__ == "__main__":
    main()
