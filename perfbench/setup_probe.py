"""Set-up probe: run in a fresh process, does what a sweep does before its
first state and prints ``ready``.

    python3 perfbench/setup_probe.py <observable_kind> <n_qubits> <symmetry>

The parent times the interval from starting this process to reading the
line: interpreter start, ``import symmaxent``, ``observables.canonical_set``
and ``symmetry.build_symmetry``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from symmaxent import observables, symmetry  # noqa: E402

kind, n_qubits, symmetry_kind = sys.argv[1], int(sys.argv[2]), sys.argv[3]
observables.canonical_set(kind, n_qubits)
symmetry.build_symmetry(symmetry_kind, n_qubits)
print("ready", flush=True)
