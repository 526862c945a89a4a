"""One benchmark case in a fresh interpreter, as a CLI user would run it.

    python3 child.py RECORD_FILE MODE [CLI ARGS...]

MODE is `setup` (import only), `env` (import, then record the environment),
`run` (import, then time `hgreen.cli.main(CLI ARGS)`) or `trace` (as `run`,
with span recorders installed; start the interpreter with `-X importtime`).
The record is JSON: the CLOCK_MONOTONIC instant the import finished (the
parent subtracts its spawn instant), the in-process solve time, the exit
code, max RSS and, when traced, the span summary.
"""

import time

import hgreen.cli

ready = time.monotonic()

# Imported after the timestamp: set-up covers the interpreter and hgreen.cli.
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _environment():
    import platform
    from importlib import metadata

    import mpmath.libmp

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "mpmath": metadata.version("mpmath"),
        "sympy": metadata.version("sympy"),
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def main():
    record_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    src = os.environ["PERFBENCH_SRC"]
    if os.path.dirname(os.path.realpath(hgreen.cli.__file__)) != os.path.realpath(
            os.path.join(src, "hgreen")):
        sys.exit(f"hgreen imported from {hgreen.cli.__file__}, not from {src}")
    rec = {"ready": ready}
    if mode == "env":
        rec["env"] = _environment()
    elif mode in ("run", "trace"):
        entry = hgreen.cli.main
        recorder = None
        if mode == "trace":
            from tracer import Recorder

            recorder = Recorder()
            recorder.install()
            entry = recorder.wrap("cli.main", entry)
        t1 = time.perf_counter()
        try:
            code = entry(argv)
        except SystemExit as exc:          # argparse refusals
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:                  # a crash is a failed case, not a lost run
            code = -1
            rec["error"] = traceback.format_exc(limit=3)
        rec["solve_s"] = time.perf_counter() - t1
        rec["exit"] = code
        if recorder is not None:
            rec["trace"] = recorder.summary()
    rec["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(record_path, "w") as fh:
        json.dump(rec, fh)


if __name__ == "__main__":
    main()
