"""Heat-bath dynamics converge to the exact quenched measure.

On a 3x3 box with two corners pinned at 0 there are 44 extensions —
small enough to enumerate, so the chain can be judged against the exact
distribution. Three checks:

  1. the single-site transition matrix leaves the measure invariant,
  2. a batch of checkerboard-sweep chains lands TV-close to exact,
  3. two chains swept on shared uniforms from ordered boundary data
     stay pointwise ordered (the monotone coupling used everywhere).
"""

import numpy as np

from randomsurfaces.gibbs import quenched_measure, required_window
from randomsurfaces.lattice import make_box
from randomsurfaces.potential import PotentialModel, sample_potential
from randomsurfaces.sampler import BoxGlauber, coupled_run, transition_matrix


def main() -> None:
    box = make_box((0, 0), (2, 2))
    pin = {(0, 0): 0, (2, 2): 0}
    lifted = {v: h + 2 for v, h in pin.items()}
    model = PotentialModel("uniform", 1.0, seed=4)
    lo = min(required_window(box, pin)[0], required_window(box, lifted)[0])
    hi = max(required_window(box, pin)[1], required_window(box, lifted)[1])
    p = sample_potential(model, (lo, hi), 0)

    mu = quenched_measure(box, pin, p)
    print(f"support size: {len(mu.support)}")

    P = transition_matrix(mu)
    pi = mu.probabilities
    print(f"stationarity  max|pi P - pi| = {np.abs(pi @ P - pi).max():.3e}")
    print(f"row sums      max|sum - 1|   = {np.abs(P.sum(axis=1) - 1).max():.3e}")

    batch, sweeps = 4000, 50
    chains = BoxGlauber(box, pin, [p] * batch, np.random.default_rng(0), start="mid")
    chains.sweep(sweeps)
    index = {m.heights: i for i, m in enumerate(mu.support.members)}
    counts = np.zeros(len(mu.support))
    for row in chains.height_matrix():
        counts[index[tuple(int(z) for z in row)]] += 1
    tv = 0.5 * np.abs(counts / batch - pi).sum()
    print(f"{batch} chains, {sweeps} sweeps: TV distance to exact = {tv:.4f}")

    steps = 20_000  # site updates per chain, as whole sweeps of the free sites
    low, high = coupled_run(box, pin, lifted, p, steps, np.random.default_rng(1))
    ordered = all(a <= b for a, b in zip(low.heights, high.heights))
    sweeps = -(-steps // (len(box) - len(pin)))
    print(f"coupled chains after {sweeps} shared-uniform sweeps: ordered = {ordered}")


if __name__ == "__main__":
    main()
