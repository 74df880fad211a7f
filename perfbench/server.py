"""Server launcher: ``repro.cli.main(["serve", ...])``, optionally traced.

    python3 perfbench/server.py [--spans FILE] serve --graph g.el ...

With ``--spans`` the layer wrappers of :mod:`tracing` are installed
before the server starts and the recorded spans are written to FILE when
it exits (SIGINT). Without it nothing is wrapped, so traced and untraced
runs serve through the same code. Pool workers re-import this file as
``__mp_main__``; everything happens under the ``__main__`` check.
"""

import signal
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    # SIGINT stops the server; a shell may have started us with it ignored
    signal.signal(signal.SIGINT, signal.default_int_handler)
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import repro.cli

    if spans is None:
        return repro.cli.main(argv)
    import tracing

    rec = tracing.Recorder("server")
    tracing.install(rec)
    try:
        return repro.cli.main(argv)
    finally:
        rec.dump(spans)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
