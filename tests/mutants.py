"""A standing mutation suite: each mutant must make its tests fail.

A mutant is a `Mutant` record: a file under `src/hoferlab`, the exact text
it replaces (which must occur exactly once in `src/`, as
`tests/test_mutants.py` checks), the new text, and the pytest arguments
that select the tests meant to kill it.  Each mutant runs on its own copy
of `src/` in a temporary directory, with ``PYTHONPATH`` pointing at the
copy.  Run from the repository root as ``python -m tests.mutants [name ...]``
(all mutants by default).  It prints a kill matrix, one line per mutant, and
exits 1 when a mutant survives.  The tests run under the ``mutants``
hypothesis profile (`tests/conftest.py`), which reports a failing example
without shrinking it, and with hypothesis's storage directory in the
temporary directory, so a run writes nothing into the checkout.  It is not
part of Tier-1: a run takes about three minutes on two cores.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/hoferlab
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments


_KERNEL_TESTS = ("tests/test_crossings.py",)
_FLOW_TESTS = ("tests/test_flows.py",)
_SIDE_TESTS = ("tests/test_golden.py",
               "tests/test_morse.py::test_unequal_fourier_sides_match_cayley_index",
               "tests/test_morse.py::test_sides_share_a_path_exactly_when_the_bytes_agree")

MUTANTS = (
    # The kernel rule sigma(Psi - I) < KERNEL_RATIO ||Psi||_2 (`crossings._kernels`).
    Mutant("kernel_mask_from_sigma_of_psi", "crossings.py",
           "sv[:len(psis)] < KERNEL_RATIO", "sv[len(psis):] < KERNEL_RATIO", _KERNEL_TESTS),
    Mutant("kernel_norm_from_psi_minus_identity", "crossings.py",
           "KERNEL_RATIO * sv[len(psis):, :1]", "KERNEL_RATIO * sv[:len(psis), :1]", _KERNEL_TESTS),
    Mutant("kernel_rule_le_ratio_1e-6", "crossings.py",
           "< KERNEL_RATIO * sv[len(psis):, :1]", "<= 1e-6 * sv[len(psis):, :1]", _KERNEL_TESTS),
    # The flow: `integrate` reads S at 0.9 t, and the Magnus commutator
    # weights change sign (`flows._step_exponents`).
    Mutant("integrate_fed_s_of_0.9t", "flows.py",
           "_step_exponents(generator, times[:-1][lo:lo + _BLOCK_STEPS], h)",
           "_step_exponents(generator, 0.9 * times[:-1][lo:lo + _BLOCK_STEPS], h)", _FLOW_TESTS),
    Mutant("commutator_weight_sign_flipped", "flows.py",
           "h * h * (b2[k] * b1[j] - b2[j] * b1[k])", "h * h * (b2[j] * b1[k] - b2[k] * b1[j])",
           _FLOW_TESTS),
    # A spline step whose Gauss nodes straddle a knot is read from one interval's table.
    Mutant("knot_straddle_branch_disabled", "flows.py",
           "if len(lin) > 1 and len(cut := (i[0] != i[1]).nonzero()[0]):",
           "if False and len(lin) > 1 and len(cut := (i[0] != i[1]).nonzero()[0]):", _FLOW_TESTS),
    # The negation shares the compiled table: its basis values carry the sign,
    # and the values start at +0.0 so their zero signs are those of the
    # generator built from the negated stack (`HessianPath.negated`, `flows._values`).
    Mutant("negation_basis_sign_dropped", "flows.py",
           "(lambda i, b: (i, -b))", "(lambda i, b: (i, b))", _FLOW_TESTS),
    Mutant("values_plus_zero_start_dropped", "flows.py",
           "planes[i, 0] + 0.0", "planes[i, 0]", _FLOW_TESTS),
    # The node gate of `SymplecticPath.__post_init__` works per block of
    # nodes: every block is gated, each node's tolerance scales with its
    # max|Psi|^2, an error names the node's index in the path, and the
    # largest residual is the maximum over all blocks.
    Mutant("gate_node_index_without_block_offset", "flows.py",
           "at node {lo + i}", "at node {i}", _FLOW_TESTS),
    Mutant("gate_only_first_block", "flows.py",
           "range(0, max(len(self.times) - 1, 1), _BLOCK_STEPS)",
           "range(0, min(len(self.times) - 1, 1), _BLOCK_STEPS)", _FLOW_TESTS),
    Mutant("gate_absolute_tolerance_after_first_block", "flows.py",
           "np.abs(m).max(axis=(1, 2)) ** 2)", "np.abs(m).max(axis=(1, 2)) ** 2 * (lo == 0))",
           _FLOW_TESTS),
    Mutant("gate_running_max_dropped", "flows.py",
           "= max(self.max_symplectic_residual, top)", "= top", _FLOW_TESTS),
    # `symplectic_expm` skips the per-matrix norms when one bound over the
    # whole stack clears theta_8.
    Mutant("expm_shortcut_bound_from_first_matrix", "symplectic.py",
           "np.abs(x).max(axis=0", "np.abs(x[:1]).max(axis=0", ("tests/test_symplectic.py",)),
    # `morse._sides` integrates S_max for the minimizer side, in `verify`
    # and in `plot` alike; it shares the maximizer's path whatever the
    # minimizer; or its key reads the kind and n_cos but not the stack.
    Mutant("minimizer_side_integrates_s_max", "morse.py",
           "else integrate(s_min,", "else integrate(s_max,", _SIDE_TESTS),
    Mutant("sides_always_shared", "morse.py",
           "path_max if key_min == key_max else", "path_max if True else", _SIDE_TESTS),
    Mutant("share_key_ignores_stack_bytes", "morse.py",
           "(g.kind, g.n_cos, g.stack.shape, g.stack.tobytes())", "(g.kind, g.n_cos)",
           _SIDE_TESTS),
)


def occurrences(mutant: Mutant) -> tuple[int, int]:
    """How often the mutant's old text occurs in its file and in all of `src/`."""
    in_file = (SRC / "hoferlab" / mutant.file).read_text().count(mutant.old)
    return in_file, sum(p.read_text().count(mutant.old) for p in SRC.rglob("*.py"))


def run(mutant: Mutant) -> tuple[str, str]:
    """Apply ``mutant`` to a copy of `src/`, run its tests there, and return
    its status (killed, survived or error) and pytest's summary line."""
    if occurrences(mutant) != (1, 1):
        return "error", f"old text occurs {occurrences(mutant)} times (file, src)"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / "hoferlab" / mutant.file
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        # Hypothesis keeps its storage (failing-example patches, constants)
        # in the temporary directory, not in the checkout.
        env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1",
                   HYPOTHESIS_STORAGE_DIRECTORY=str(Path(tmp) / "hypothesis"))
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               "-o", "addopts=", "--hypothesis-profile=mutants", *mutant.tests],
                              cwd=ROOT, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    summary = lines[-1] if lines else done.stderr.strip()[-200:]
    status = {0: "survived", 1: "killed"}.get(done.returncode, "error")
    return status, re.sub(r"=+", "", summary).strip()


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if unknown := set(names) - {m.name for m in chosen}:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    width = max(len(m.name) for m in chosen)
    statuses = []
    for mutant in chosen:
        status, summary = run(mutant)
        statuses.append(status)
        print(f"{mutant.name:{width}s}  {status:8s}  {' '.join(mutant.tests)}: {summary}",
              flush=True)
    print(f"{statuses.count('killed')} of {len(chosen)} killed")
    return 0 if all(s == "killed" for s in statuses) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
