"""Traced CLI launcher: ``repro.cli.main(["count", ...])`` with wrappers.

    python3 perfbench/cli_child.py --spans FILE --op ID count --graph g.el ...

Used only by traced cli-oneshot runs; untraced runs start
``python -m repro count`` directly. Every span is tagged with op ``ID``.
"""

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    spans, op, argv = argv[1], int(argv[3]), argv[4:]
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import repro.cli
    import tracing

    rec = tracing.Recorder("cli")
    tracing.install(rec)
    tracing.OP.set(op)
    try:
        return repro.cli.main(argv)
    finally:
        rec.dump(spans)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
