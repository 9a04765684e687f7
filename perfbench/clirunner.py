"""Traced stand-in for ``python -m gausschain.cli``, run in a child interpreter.

Usage: ``python3 clirunner.py SRC_DIR SPANS_FILE ARGS...``.  Times the
import of gausschain, installs the span tracer, calls
``gausschain.cli.main(ARGS)`` and writes the import time and the spans to
SPANS_FILE; the exit code is main's.
"""

import json
import sys
import time

from spans import Tracer

if __name__ == "__main__":
    src, spans_file, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import gausschain.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    tracer.op_id = 0
    try:
        code = gausschain.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_file, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    sys.exit(code)
