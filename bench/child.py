"""One benchmark call: a fresh process runs one workload through the CLI.

    python3 bench/child.py ROOT WORKLOAD SEED OUT_DIR RESULT [--trace RUN_ID]
    python3 bench/child.py ROOT WORKLOAD --setup-only

The clock starts before numpy and collapsim are imported; ``setup_s``
ends once the workload config is parsed (``--setup-only`` prints it and
stops there), and ``wall_s`` and ``cpu_s`` span the call into
``collapsim.cli.main``. Work counts come from the return values of the
top-level library call, captured by a pass-through that takes no time
stamps. With ``--trace`` every public collapsim function and the
numpy FFT entry points are wrapped in spans first (see ``tracer.py``).
The result is one JSON object written to RESULT.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _import_collapsim(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import collapsim
    from collapsim import cli  # noqa: F401
    from collapsim.config import parse_config
    package_dir = os.path.dirname(os.path.abspath(collapsim.__file__))
    home = os.path.dirname(package_dir)
    if home != os.path.abspath(src):
        raise RuntimeError("imported collapsim from %s, not from %s"
                           % (home, src))
    return collapsim, parse_config


def _capture(module, name: str, store: list) -> None:
    original = getattr(module, name)

    def keep(*args, **kwargs):
        result = original(*args, **kwargs)
        store.append(result)
        return result

    setattr(module, name, keep)


def main(argv: list[str]) -> int:
    root, workload_name = argv[0], argv[1]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    collapsim, parse_config = _import_collapsim(root)
    cfg = parse_config(workload.config_path)
    setup_s = time.perf_counter() - T0
    if argv[2] == "--setup-only":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    seed, out_dir, result_path = argv[2], argv[3], argv[4]
    run_id = int(argv[6]) if argv[5:6] == ["--trace"] else None

    import numpy
    from collapsim import cli

    tracer = None
    if run_id is not None:
        import tracer as tracing
        tracer = tracing.Tracer(run_id)
        tracing.install(tracer)
    captured = {"run_ensemble": [], "born_linearity_scan": []}
    for name, store in captured.items():
        _capture(cli, name, store)

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        t1, c1 = time.perf_counter(), time.process_time()
        code = cli.main(["run", workload.config_path, "--seed", seed,
                         "--out-dir", out_dir])
        wall_s = time.perf_counter() - t1
        cpu_s = time.process_time() - c1
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_kib / 1024.0,
        "config": cfg.data,
        "versions": {"collapsim": collapsim.__version__,
                     "numpy": numpy.__version__,
                     "python": sys.version.split()[0]},
    }
    if code == 0:
        result.update(workload.work(cfg.data, captured))
    if tracer is not None:
        result["trace"] = {"spans": tracer.aggregate(),
                           "kernel_bytes": tracer.kernel_bytes,
                           "max_step_points": tracer.max_step_points}
        tracer.write_spans(os.path.join(os.path.dirname(result_path),
                                        "spans-%d.bin" % run_id))
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
