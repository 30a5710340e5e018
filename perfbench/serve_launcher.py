"""Run ``repro.serve`` with the benchmark's layer wrappers installed.

Usage::

    python perfbench/serve_launcher.py SPANS_JSONL [serve arguments...]

Installs :class:`tracer.Tracer`, calls ``repro.serve.__main__.main`` with
the remaining arguments, and writes the recorded spans to
``SPANS_JSONL`` after the server has shut down (SIGTERM).
"""

from __future__ import annotations

import sys
from pathlib import Path

import common  # noqa: F401  (puts the checkout's sources on sys.path)
from tracer import Tracer


def main(argv: list[str]) -> int:
    spans_path = Path(argv[0])
    from repro.serve.__main__ import main as serve_main

    tracer = Tracer()
    tracer.install()
    try:
        code = serve_main(argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
