"""Capture the outputs the benchmark compares against.

    python3 perfbench/capture_golden.py

Writes ``golden/cli/`` (stdout of each cli-defaults command, and the CSV of
each sweep) and ``golden/design-stream.json`` (n_beams and upsilon of the
first DESIGNS requests of design-stream for each of DESIGN_SEEDS). Run it
only at a commit whose outputs are known to be right: the benchmark counts
any later difference as a failure, so capturing after a change would hide
the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DESIGN_SEEDS = range(11)  # run.py's default seed 0, and the seeds report.py uses
DESIGNS = 200


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    cli_dir = workloads.GOLDEN_DIR / "cli"
    cli_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        run = workloads.make_cli_runner(Path(tmp))
        for i, (kind, argv) in enumerate(workloads.CLI_COMMANDS):
            rc, stdout, csv = run(workloads.Op(i, kind, argv))
            if rc != 0:
                raise SystemExit(f"{kind} exited {rc}")
            stdout_path, csv_path = workloads.golden_paths(kind)
            stdout_path.write_bytes(stdout)
            if csv is not None:
                csv_path.write_bytes(csv)

    seeds = {}
    for seed in DESIGN_SEEDS:
        rows = []
        for op in workloads.design_requests(seed):
            if op.index == DESIGNS:
                break
            design = workloads.optimize.optimize_design(workloads.scenario(*op.arg))
            rows.append([*op.arg, design.n_beams, design.upsilon])
        seeds[str(seed)] = rows
        print(f"seed {seed}: {len(rows)} designs", file=sys.stderr)
    # One request per line: [p_max, v_max, n_beams, upsilon].
    body = ",\n".join(
        f"{json.dumps(seed)}: [\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"
        for seed, rows in seeds.items()
    )
    workloads.DESIGN_REFERENCE.write_text(
        f'{{"tol": {workloads.OPTIMIZER_TOL!r}, "seeds": {{\n{body}\n}}}}\n'
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
