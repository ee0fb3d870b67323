"""How the regime belief behaves between and at orders.

Shows the three ingredients of the exact filter: the deterministic drift
toward the quiet-period equilibrium while no orders arrive, the downward
Bayes jump whenever one does, and the equilibrium roots themselves.

Writes one simulated path under fixed quotes, with its belief at every
reporting time and fill, to out/demo_filter_attractor/.
"""

from pathlib import Path

import numpy as np

from regimemm.filtering import attractor, jump_update
from regimemm.model import table1_spec, with_params
from regimemm.simulate import FixedSpreadPolicy, monte_carlo

OUT = Path("out/demo_filter_attractor")


def main():
    spec = with_params(table1_spec(), horizon_T=3.0)

    print("Quiet-period equilibria of the belief (probability of the slow regime):")
    for beta in (1, 2):
        root = attractor(spec, beta=beta)
        print(f"  {beta} quoting side(s): pi* = {root:.6f}")
    print()

    print("With no orders for a long stretch the belief climbs toward the")
    print("two-sided equilibrium; each fill then knocks it down by the Bayes")
    print("factor pi -> pi / m_hat(pi):")
    for pi in (0.5, 0.6, 0.636):
        jumped = jump_update(np.array([pi, 1 - pi]), "ask", 0.04, spec)
        print(f"  fill at pi = {pi:.3f} -> {jumped[0]:.3f}")
    print()

    summary = monte_carlo(spec, FixedSpreadPolicy(0.04, 0.04), 1, 9, export_paths=1)
    path = summary.records[0]
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "belief_path.csv").write_text(path.to_csv())
    first = path.fills[0].time if path.fills else spec.horizon_T
    quiet = path.probs[path.times < first, 0]
    print(f"Simulated path with {len(path.fills)} fills written to {OUT}/belief_path.csv.")
    print(f"Before its first fill (t = {first:.2f}) the belief climbs to pi1 = {quiet.max():.4f} "
          f"(equilibrium {attractor(spec, beta=2):.4f}).")


if __name__ == "__main__":
    main()
