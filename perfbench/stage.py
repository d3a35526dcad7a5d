"""Run one vinesar CLI stage in this interpreter, traced or not.

    python3 stage.py [--spans PATH] -- <vinesar arguments>

Every timed stage runs through this wrapper, in a fresh interpreter, so
traced and untraced runs differ only in the tracer. With ``--spans`` the
wrapper times the import of ``vinesar.cli``, patches the listed functions,
records one root span for the stage and writes all spans to PATH as JSON
when the stage returns. The exit code is the stage's.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    t0 = perf_counter()
    import vinesar.cli
    t1 = perf_counter()
    if spans_path is None:
        return vinesar.cli.main(cli_args)

    import tracer
    tr = tracer.Tracer()
    tr.install()
    unpatched = tracer.unpatched_bindings(tr.originals)
    root = tr.open("cli." + cli_args[0])
    try:
        return vinesar.cli.main(cli_args)
    finally:
        tr.close(root)
        doc = {"stage": cli_args[0], "import": [t0, t1], "missing": tr.missing,
               "unpatched": unpatched, "spans": tr.spans}
        with open(spans_path, "w") as f:
            json.dump(doc, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
