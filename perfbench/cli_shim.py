"""
Run one ``schub`` command in-process under the tracer and print one JSON
object: the command's exit status and output, the time taken to import
``schubert.cli``, and the tracer's per-name totals.

    PYTHONPATH=src python3 perfbench/cli_shim.py lr 2413 3142
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from tracer import Tracer


def main() -> int:
    t0 = perf_counter()
    import schubert.cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    buf = io.StringIO()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            code = schubert.cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
    json.dump({"exit": code, "stdout": buf.getvalue(), "import_s": import_s,
               "totals": tracer.summary()}, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
