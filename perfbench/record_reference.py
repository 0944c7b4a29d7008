"""Record the reference lambda(s) curve that the branch_fine check compares against.

Traces the branch_fine branch (Gerstner m = 0.5, epsilon = 0.01, nq = 128,
s0 = 0.005, ds = 0.00075, tol = 1e-11) twice as far as the workload does, so a
corrector that moves points along the curve still lands inside the recorded
range.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

import json
import os
import sys

from workloads import BranchFine  # noqa: E402  (same directory)

from vorstokes.continuation import continue_branch, surface_mode_amplitude

STEPS = 24


def main():
    wl = BranchFine()
    wl.setup()
    branch = continue_branch(wl.op, wl.bp, steps=STEPS, ds=wl.DS, s0=wl.S0, tol=wl.TOL)
    if len(branch.points) != STEPS:
        sys.exit(f"reference branch stopped at {len(branch.points)} points")
    curve = [[surface_mode_amplitude(st), st.lam] for st in branch.points]
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference", "branch_fine.json")
    with open(path, "w") as fh:
        json.dump({"workload": "branch_fine", "columns": ["s", "lambda"],
                   "curve": curve}, fh, indent=1)
        fh.write("\n")
    print(path)


if __name__ == "__main__":
    main()
