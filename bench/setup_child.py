"""One set-up of a workload in a fresh interpreter: import the package,
make the workload's smallest call that fills every lazy cache its cell
uses, and print the outcome as one JSON line.

    python3 bench/setup_child.py WORKLOAD SEED TRACE

bench/run.py times the whole process as `setup_s`. With TRACE = 1 the
calls are traced and the spans are printed with the outcome.
"""

import json
import sys

import checkout


def main(argv):
    name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    checkout.use_checkout()
    import workloads
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
        tracer.phase = "setup"
    ops = workloads.WORKLOADS[name]().setup(seed)
    out = {"ops": ops}
    if tracer is not None:
        tracer.uninstall()
        out["spans"] = tracer.spans
        out["counts"] = [[phase, key, value]
                         for (phase, key), value in tracer.counts.items()]
        out["values"] = tracer.values
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
