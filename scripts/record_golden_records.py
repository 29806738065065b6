#!/usr/bin/env python3
"""Re-record tests/golden_records.json, the sweep records that
tests/test_golden.py compares exactly, from the sweeps that test defines.

Run from the root of a checkout after a change that moves records on
purpose:

    PYTHONPATH=src python scripts/record_golden_records.py

It prints, per sweep, what moved against the file it replaces, in the
test's report format, for the change's description.
"""

import importlib.util
import json
from pathlib import Path

TEST = Path(__file__).resolve().parent.parent / "tests" / "test_golden.py"


def main() -> None:
    spec = importlib.util.spec_from_file_location("test_golden", TEST)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    old = json.loads(golden.GOLDEN.read_text()) if golden.GOLDEN.exists() else {}
    records = {name: golden.sweep_records(name) for name in golden.CONFIGS}
    for name, now in records.items():
        print(f"{name}:")
        print(golden.diff_report(old.get(name, []), now))
    lines = ["{"]
    for i, (name, now) in enumerate(records.items()):
        rows = ",\n".join("    " + json.dumps(rec) for rec in now)
        lines.append(f'  "{name}": [\n{rows}\n  ]' + ("," if i + 1 < len(records) else ""))
    lines.append("}")
    golden.GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {golden.GOLDEN}")


if __name__ == "__main__":
    main()
