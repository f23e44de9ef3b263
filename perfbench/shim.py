"""Run one CLI command with span tracing; write the spans as JSON.

Usage: python3 perfbench/shim.py SPANS_JSON -- <hermite-needlets arguments>

The package must be importable (PYTHONPATH pointing at the checkout's
``src``).  Exits with the CLI's own exit code; an exception escaping
``cli.main`` still propagates after the spans are written.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: shim.py SPANS_JSON -- ARGS...")
    from hermite_needlets import cli

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse exits for --help and bad flags
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.end_op()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
