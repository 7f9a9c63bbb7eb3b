"""One benchmark op in a fresh interpreter, as a CLI user runs icdms.

Usage: ``python3 child.py SPEC_JSON`` where the spec holds ``src`` (the
directory holding the ``icdms`` package), ``commands`` (argv lists passed
to ``icdms.cli.main`` in order, as ``python -m icdms`` would), ``op`` (the
op id) and ``trace`` (a path for the span file, or null).  The process
exits with the first non-zero return code, else 0.
"""

import json
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import icdms.cli as cli

    t1 = time.perf_counter()
    run = cli.main
    tracer = None
    if spec["trace"]:
        import icdms.discrete
        import icdms.geometry

        from tracing import Tracer

        tracer = Tracer(spec["op"])
        tracer.add("cli.import", t0, t1)
        tracer.install(
            {
                "icdms.cli": cli,
                "icdms.geometry": icdms.geometry,
                "icdms.discrete": icdms.discrete,
            }
        )
        run = tracer.wrap("cli.main", cli.main)
    code = 0
    try:
        for argv in spec["commands"]:
            code = run(argv)
            if code:
                break
    finally:
        if tracer is not None:
            with open(spec["trace"], "w") as fh:
                json.dump({"spans": tracer.spans, "absent": tracer.absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
