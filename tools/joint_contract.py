"""Check grid2d ``cnj_p``'s joint-refinement contract on its whole test grid.

    python3 tools/joint_contract.py

Run from the root of a source checkout: normconst is imported from ``src/``
and the contract from ``tests/test_constants.py`` of the same checkout.
``test_cnj_grid2d_joint_refinement_contract`` there checks
``_assert_joint_contract`` on 30 random draws of its parameter space per
run; this script runs every point of that space in a plain loop: each space
of ``JOINT_SPACES``, p in {1, 1.5, 2, 3}, both modes, resolutions 32-48,
refine caps 2-4 and both t budgets, 5712 combinations in all.  It prints
each combination that fails, with the check that failed, then the count,
and exits 1 if any failed.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_constants as tc  # noqa: E402
from normconst.search import Grid2DStrategy  # noqa: E402

PS = (1.0, 1.5, 2.0, 3.0)
MODES = ("gamma", "cinj")
RESOLUTIONS = range(32, 49)
REFINES = range(2, 5)
T_BUDGETS = ((5, 3), (9, 5))


def combinations() -> list[tuple]:
    """Every (space name, p, mode, resolution, refine, t budget) of the grid."""
    return list(itertools.product(sorted(tc.JOINT_SPACES), PS, MODES, RESOLUTIONS, REFINES,
                                  T_BUDGETS))


def failure(name: str, p: float, mode: str, res: int, refine: int,
            t_budget: tuple[int, int]) -> str | None:
    """Why the contract fails at one combination, or None if it holds: the
    source line of the failed check, or the error raised."""
    strat = Grid2DStrategy(resolution=res, refine=refine)
    try:
        tc._assert_joint_contract(tc.JOINT_SPACES[name], p, strat, *t_budget, mode)
    except AssertionError as exc:
        line = traceback.extract_tb(exc.__traceback__)[-1].line
        return f"{line}: {exc}" if str(exc) else line
    except Exception as exc:    # an error is a failure of the contract too
        return f"{type(exc).__name__}: {exc}"
    return None


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    start = time.perf_counter()
    combos = combinations()
    failed = 0
    for combo in combos:
        why = failure(*combo)
        if why is not None:
            failed += 1
            print(f"FAIL {combo}: {why}", flush=True)
    print(f"{failed} failure(s) of {len(combos)} combinations "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
