"""A traced ``gls`` process: ``python -X importtime gls_child.py <gls args>``.

Times the import of ``glshift.cli`` and the call to ``glshift.cli.main``,
wraps the entry points main calls into the other layers, and prints the
spans on the last line of stderr as ``BENCH-SPANS <dump>``.  Exits with
main's exit code.
"""

import sys

import tracing

tracer = tracing.Tracer()
span = tracer.open("cli.import")
import glshift.cli  # noqa: E402

tracer.close(span)
tracing.install(tracer)
argv = sys.argv[1:]
span = tracer.open("cli.main/" + (argv[0] if argv else ""))
try:
    code = glshift.cli.main(argv)
finally:
    tracer.close(span)
    print("BENCH-SPANS " + tracer.dump(), file=sys.stderr)
sys.exit(code)
