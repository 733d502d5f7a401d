"""Jiffy benchmark: library and file-to-file throughput on three scan
workloads, plus a traced per-layer profile.

    python3 perfbench/run.py --workload driving_like --seed 1 --seconds 30 --trace 0

Run from the repository root; the codec is imported from ``src/``. Workloads
are the ``jiffy.synthetic`` kinds ``driving_like``, ``random`` and
``sparse_vertical`` (see BENCHMARK.json for why each). With ``--trace 0`` the
result holds the end-to-end metrics; with ``--trace 1`` a traced run holds
the per-layer ones. Standard output ends with two JSON lines: a report
(environment, sample counts, container sha256, failures) and the result
``{"correct", "attempted", "failed", "metrics"}``. Any failed or mismatched
frame operation makes the run exit 1 with no metric values.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def declared() -> dict:
    """BENCHMARK.json: the workloads and every metric's name and unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in declared()["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_codec() -> float:
    """Import numpy and jiffy from this checkout's ``src/``; returns seconds."""
    if not (SRC / "jiffy" / "__init__.py").is_file():
        raise FileNotFoundError(f"no jiffy sources under {SRC}")
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import jiffy
    if Path(jiffy.__file__).resolve().parent != SRC / "jiffy":
        raise ImportError(f"jiffy imported from {jiffy.__file__}, not {SRC}")
    import workload  # noqa: F401  (imports every jiffy module it drives)
    return time.perf_counter() - t0


def _git_rev() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np
    import workload
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:       # older numpy: no dict mode
        blas = "unknown"
    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "frames": workload.FRAMES,
        "rows": workload.ROWS,
        "cols": workload.COLS,
        "precision_um": workload.PRECISION_UM,
        "sample_width": workload.SAMPLE_WIDTH,
    }


def measure(args, workdir: str, import_s: float):
    """Set up, run the timed (or traced) phase and the memory pass.

    Returns (tally, metrics, report details).
    """
    import workload

    tally = workload.Tally()
    stream, setup_s, gen_s = workload.setup(args.workload, args.seed, workdir,
                                            tally)
    details = {"container_sha256":
               hashlib.sha256(stream.container or b"").hexdigest()}
    if tally.problems or tally.failed:
        return tally, {}, details
    if args.trace:
        metrics, n = workload.traced_passes(stream, args.seconds, tally)
        metrics.update(workload.stream_facts(stream))
        metrics["synthetic.generate.s"] = gen_s
        details["traced_passes"] = n
    else:
        passes = workload.timed_passes(stream, args.seconds, tally)
        metrics, samples = workload.end_to_end(passes, stream)
        metrics["peak_mem_mib"] = workload.peak_memory_mib(stream, tally)
        metrics["setup_s"] = import_s + setup_s
        details.update(samples)
        if samples["samples_beyond_p95"] < 10:
            tally.problems.append("fewer than ten samples beyond p95")
    metrics["error_rate"] = tally.error_rate
    return tally, metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_s = import_codec()
    except (ImportError, OSError) as e:
        print(f"perfbench: cannot load the codec: {e}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        tally, metrics, details = measure(args, workdir, import_s)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass        # another run still uses it

    units = {m["name"]: m["unit"]
             for m in declared()["per_layer" if args.trace else "end_to_end"]}
    report = {"environment": environment(args), **details,
              "attempted": tally.attempted, "failed": tally.failed,
              "error_rate": tally.error_rate,
              "errors": tally.errors + tally.problems}
    print(json.dumps({"report": report}))
    if not tally.ok:
        print(f"perfbench: FAILED, error_rate {tally.error_rate}: "
              f"{report['errors']}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": True, "attempted": tally.attempted, "failed": 0,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True      # leave no caches in the checkout
    # One thread per BLAS call, set before numpy loads: the stream is coded
    # by one thread, and more would only add scheduling noise.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
