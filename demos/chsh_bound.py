"""CHSH: the level-1 moment relaxation reaches the Tsirelson bound.

Four binary observables, Alice's pair commuting with Bob's.  The classical
maximum over deterministic +-1 assignments is 2; the relaxation returns
2*sqrt(2), and an explicit qubit-pair realization attains it, so the bound
is tight already at level 1.
"""

import math
from pathlib import Path

import numpy as np

from starsdp import (
    build_relaxation, chsh_classical_max, chsh_tsirelson_realization,
    feasibility_check, gram_representative, parse_problem_file,
    realize_moments, word_to_str,
)

problem = parse_problem_file(
    str(Path(__file__).resolve().parent.parent / "problems" / "chsh.csdp"))
pres = problem.presentation

relax = build_relaxation(problem, level=1)
print("monomial basis:",
      ", ".join(word_to_str(w, pres) for w in relax.basis))
print(f"moment variables: {relax.n_moment_vars}, "
      f"rows: {len(relax.model.rhs)}")

result = relax.solve()
print(f"\nlevel-1 bound   {result.bound:.9f}")
print(f"2*sqrt(2)       {2 * math.sqrt(2):.9f}")
print(f"classical max   {chsh_classical_max():.1f}")

# the singlet-state realization saturates the bound
real = chsh_tsirelson_realization(pres)
realized = real.expect(problem.objective)
print(f"\nrealized value  {realized.real:.9f}")

# its moment vector is feasible for the relaxed model
moments = realize_moments(real, list(result.moments))
blocks = relax.blocks_from_moments(moments)
report = feasibility_check(relax.model, blocks)
print(f"realization feasibility: max violation {report.max_violation:.2e}, "
      f"min eigenvalue {min(report.min_eigenvalues):.2e}")

# the objective as a trace functional on the moment matrix: tr(M Gamma)
# recovers omega(objective) for every admissible Gamma
M = gram_representative(relax)
print(f"\nobjective representative, (A0,B0) entry "
      f"{float(np.real(M[1, 3])):+.3f}, (A1,B0) entry "
      f"{float(np.real(M[2, 3])):+.3f}, unit diagonal {float(np.real(M[0, 0])):.3f}")
pairing = float(np.real(np.trace(M @ result.moment_matrix)))
print(f"tr(M Gamma*) = {pairing:.9f}  (equals the bound)")
