"""Regenerate ``refs/`` from the checkout's program at ``DEFAULT_SEED``.

Usage: ``python3 bench/make_refs.py``.  Each reference op must pass the
invariant checks.  Run it only when a change is meant to alter outputs,
and say so in that change: the references pin the outputs of the commit
that made them.
"""

import json
import shutil
import sys

import run

run._import_program()
sys.path.insert(0, str(run.BENCH_DIR))

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    FIGURE_FILES,
    REFS,
    Discrete,
    Figures,
    FineRegion,
    Oracle,
    sha256,
)

#: Discrete ops with a stored digest; later ops of a run get the invariant
#: checks only.
DISCRETE_REFS = 256


def _op(workload):
    workload.prepare()
    result = workload.op(0, False, 900)
    if result.errors:
        raise SystemExit(f"error: {workload.name} reference op failed: {result.errors}")
    return result


def main() -> int:
    out = run.RUNS / "make-refs"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    refs = {}

    _op(Figures(out, DEFAULT_SEED, False))
    (REFS / "figures").mkdir(parents=True, exist_ok=True)
    for name in FIGURE_FILES:
        shutil.copyfile(out / "op" / name, REFS / "figures" / name)

    refs["fine-region"] = sha256(_op(FineRegion(out, DEFAULT_SEED, False)).output)
    refs["oracle"] = _op(Oracle(out, DEFAULT_SEED, False)).output.decode()

    disc = Discrete(out, DEFAULT_SEED, False)
    refs["discrete"] = []
    for index in range(DISCRETE_REFS):
        result = disc.op(index, False, 900)
        if result.errors:
            raise SystemExit(f"error: discrete reference op {index} failed: {result.errors}")
        refs["discrete"].append(sha256(result.output))

    (REFS / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
