"""``python -m repro.serve`` with a span around every store write.

``python3 perfbench/serve_traced.py SPANS_JSON [repro.serve options]``
serves exactly as ``python -m repro.serve`` does and, once drained, writes
the span durations it recorded to ``SPANS_JSON``.
"""

import json
import sys

from spans import Tracer

import repro.eval.cache as cache
from repro.serve.__main__ import main

if __name__ == "__main__":
    tracer = Tracer()
    tracer.enabled = True
    tracer.wrap(cache.ResultCache, "put", "store.write")
    code = main(sys.argv[2:])
    with open(sys.argv[1], "w") as fh:
        json.dump(tracer.durations, fh)
    sys.exit(code)
