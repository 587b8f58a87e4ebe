"""Run ``krad serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/traced_serve.py SPANS_OUT serve [flags...]``

The process is the same single serving process the untraced run starts
with ``python3 -m repro serve [flags...]``; the only difference is that
the layer wrappers of :func:`spans.install_server` record spans, which
are written to ``SPANS_OUT`` (one JSON array per line) when the service
has drained.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "serve":
        print("usage: traced_serve.py SPANS_OUT serve [flags...]",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import spans
    from repro.cli import main as krad_main

    rec = spans.SpanRecorder()
    spans.install_server(rec)
    try:
        return krad_main(argv[1:])
    finally:
        rec.restore()
        rec.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
