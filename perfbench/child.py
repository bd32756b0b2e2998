"""One csrk CLI command in a fresh process, timed from inside.

Usage: child.py SRC RESULT SPANS -- CSRK-ARGS...

SRC is the checkout's ``src`` directory.  RESULT receives a JSON object with
``ready`` (CLOCK_MONOTONIC reading once ``csrk.cli`` is imported and its
parser built), ``wall_s`` (the ``csrk.cli.main`` call, which returns after
the output file is closed), ``rc``, ``cpu_s`` and ``maxrss_kb``.  With SPANS
other than ``-`` the layer functions are traced and the spans written there.
With no CSRK-ARGS the process only sets up.
"""

import json
import resource
import sys
import time


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main():
    src, result_path, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    sys.path.insert(0, src)
    import csrk.cli

    csrk.cli.build_parser()
    ready = time.monotonic()
    out = {"ready": ready, "rc": 0}
    if argv:
        recorder = None
        if spans_path != "-":
            import csrk.increments
            import csrk.stats
            from spans import Recorder

            recorder = Recorder()
            recorder.install({"cli": csrk.cli, "stats": csrk.stats,
                              "increments": csrk.increments})
        cpu0 = _cpu()
        t0 = time.monotonic()
        out["rc"] = csrk.cli.main(argv)
        out["wall_s"] = time.monotonic() - t0
        out["cpu_s"] = _cpu() - cpu0
        if recorder is not None:
            recorder.dump(spans_path)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return out["rc"]


if __name__ == "__main__":
    sys.exit(main())
