"""Revealing a walk one height at a time moves the mean by at most 2.

Fix a target vertex deep in a 4x4 box and walk to it from the pinned
boundary. Conditioning the annealed measure on successive walk values
gives a martingale of conditional means; each revealed value shifts the
mean by at most 2 (the next step is within 1, and knowing it perturbs
the rest by at most 1 more). Bounded differences buy an exponential
tail for the target height around its mean, which exact enumeration can
check against the bound 2 exp(-l c^2 / 2).
"""

from randomsurfaces.analysis import (
    azuma_bound,
    boundary_to_interior_walks,
    deviation_tail_exact,
    martingale_audit,
)
from randomsurfaces.gibbs import annealed_member_probabilities
from randomsurfaces.heights import enumerate_extensions, parity_height
from randomsurfaces.lattice import boundary, make_box
from randomsurfaces.potential import PotentialModel


def main() -> None:
    box = make_box((0, 0), (3, 3))
    pin = parity_height(box).restrict(boundary(box))
    model = PotentialModel("twopoint", 1.0, seed=0)

    interior = [v for v in box.vertex_list if v not in set(pin.domain)]
    walks = boundary_to_interior_walks(box, pin.domain, interior)
    # prefer the walk that reveals the most genuinely random values
    walk = max(walks, key=lambda w: (sum(v in interior for v in w), len(w)))
    target = walk[-1]
    print(f"walk: {' -> '.join(map(str, walk))}")

    audit = martingale_audit(box, pin.as_dict(), walk, model, mode="exact")
    print(f"unconditional mean h{target} = {audit.target_mean:+.6f}")
    for k in range(1, len(audit.levels)):
        worst = max(
            abs(mean - audit.levels[k - 1][prefix[:-1]][1])
            for prefix, (_, mean) in audit.levels[k].items()
        )
        print(f"  level {k}: {len(audit.levels[k]):3d} prefixes, "
              f"max |mean shift| = {worst:.6f}")
    print(f"max difference overall = {audit.max_diff:.6f}  (bound: 2)")

    support = enumerate_extensions(box, pin)
    probs = annealed_member_probabilities(support, model)
    l = len(walk) - 1
    print(f"\nexact tails vs. envelope (walk length l = {l}):")
    cs = (0.25, 0.5, 1.0, 1.5)
    tails = deviation_tail_exact(support, probs, target, [l * c for c in cs])
    for c, tail in zip(cs, tails):
        print(f"  c = {c:4.2f}: P(|dev| >= {l * c:4.2f}) = {tail:.6f}"
              f"   2 exp(-l c^2/2) = {azuma_bound(l, c):.6f}")


if __name__ == "__main__":
    main()
