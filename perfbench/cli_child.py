"""Traced stand-in for `python -m aritygap ARGS...`.

Usage: python3 cli_child.py T0_NS SPANS_CSV TRACE_ID ARGS...

T0_NS is the parent's CLOCK_MONOTONIC reading taken just before it started
this interpreter, so the `cli.import_s` span covers interpreter start-up
plus `import aritygap.cli`.  The public functions are then wrapped, the CLI
runs with ARGS, and the spans are written to SPANS_CSV.  The exit code is
the CLI's.
"""

import sys
import time


def main() -> int:
    t0_ns, spans_path, trace_id = int(sys.argv[1]), sys.argv[2], int(sys.argv[3])
    import aritygap.cli

    imported_ns = time.monotonic_ns()
    from tracer import IMPORT_SPAN, Tracer, write_spans

    tracer = Tracer(trace_id)
    tracer.record(IMPORT_SPAN, t0_ns, imported_ns)
    tracer.install()
    try:
        return aritygap.cli.main(sys.argv[4:])
    finally:
        tracer.uninstall()
        write_spans(spans_path, tracer.spans)


if __name__ == "__main__":
    sys.exit(main())
