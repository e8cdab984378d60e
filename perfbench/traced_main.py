"""Run the ``repro`` CLI with the benchmark's span wrappers installed.

Usage::

    python perfbench/traced_main.py TRACE_DIR {now|signal} REPRO_ARGS...

``now`` records from the start (a traced ``repro eval`` process); ``signal``
starts recording on SIGUSR1, so a traced ``repro serve`` can warm up first.
At exit the process writes its spans, counters and structure-cache counters
to ``TRACE_DIR/proc-<pid>.json``.
"""

import signal
import sys

import spans


def main() -> int:
    trace_dir, mode, *argv = sys.argv[1:]
    import repro.__main__ as cli
    from repro.markov.structure_cache import cache_info

    recorder = spans.Recorder(trace_dir)
    spans.install(recorder)
    if mode == "now":
        recorder.enabled = True
    else:
        signal.signal(signal.SIGUSR1,
                      lambda *_: setattr(recorder, "enabled", True))
    record = token = None
    if recorder.enabled:
        record, token = recorder.begin("cli.main", root=True)
    try:
        return cli.main(argv)
    finally:
        if record is not None:
            recorder.end(record, token)
        recorder.dump({"cache_info": cache_info()})


if __name__ == "__main__":
    sys.exit(main())
