"""Run one etalab CLI command in this process, as the installed script would.

usage: python3 launch.py MARK TRACE -- <etalab arguments>
       python3 launch.py --probe

MARK receives the monotonic clock reading at the entry of
``etalab.cli.main``, so the caller can time interpreter start plus import.
TRACE is ``-`` for an untraced run, which imports no tracing code; any other
value is the file that receives this process's spans and counts.  Stdout is
left to the report alone, and the exit code is the CLI's.

``--probe`` imports ``etalab.cli`` and prints the environment as JSON.
"""

import sys
import time


def probe() -> int:
    import json
    import platform

    import etalab.cli
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "etalab": etalab.cli.__file__,
    }))
    return 0


def main() -> int:
    if sys.argv[1:] == ["--probe"]:
        return probe()
    mark_path, trace_path, _, *argv = sys.argv[1:]
    started = time.monotonic()
    import etalab.cli
    entered = time.monotonic()
    with open(mark_path, "w") as fh:
        fh.write(repr(entered))
    if trace_path == "-":
        return etalab.cli.main(argv)

    import tracing

    tracer = tracing.Tracer(trace_path)
    tracer.record("cli.import", started, entered)
    tracer.install()
    try:
        return tracer.call("cli.main", etalab.cli.main, argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_path)


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.exit(code)
