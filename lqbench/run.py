"""lqmfg benchmark.

Run from the root of a checkout that holds `src/lqmfg`:

    python3 lqbench/run.py --workload det_sweep --seed 7 --seconds 25 --trace 0

One workload per process, as a closed loop: one caller makes each call
after the previous one returned.  The body runs in whole passes until
`--seconds` would be exceeded, at least two passes.  `--trace 0` reports the
end-to-end metrics; `--trace 1` runs the first pass untraced and the rest
with every public function of the package wrapped, and reports the
per-layer metrics.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` (correctness checks) and `metrics`.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("mc_rates", "det_sweep", "cli_batch")
MIN_PASSES = 2
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("call_p50_ms", "ms"),
              ("call_p90_ms", "ms"), ("peak_rss_mb", "MB"))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # time one set-up and exit
    return p.parse_args(argv)


def pin_environment():
    """Sequential program: no package thread pool, one BLAS thread."""
    os.environ.pop("LQMFG_THREADS", None)
    for key in BLAS_ENV:
        os.environ[key] = "1"


def import_package(src: Path):
    """Import lqmfg from this checkout's source tree, never elsewhere."""
    sys.path.insert(0, str(src))
    import lqmfg
    if Path(lqmfg.__file__).resolve().parent != (src / "lqmfg").resolve():
        raise ImportError(f"lqmfg imported from {lqmfg.__file__}, "
                          f"not from {src}")
    return lqmfg


def set_up(args, src: Path, work: Path):
    """Import the package and load or generate the workload's inputs."""
    import_package(src)
    import workloads
    return workloads.make(args.workload, args.seed, work)


def setup_probe(args, src: Path, work: Path) -> None:
    from speed import SpeedSampler
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        set_up(args, src, work)
        end = time.perf_counter()
    print(json.dumps({"setup_s": sampler.at_reference(start, end),
                      "raw_s": end - start}))


def measure_setup(args, root: Path) -> list[dict]:
    """Set-up times (reference and raw) of fresh processes, one after
    another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return times


def blas_threads():
    """Thread count reported by the OpenBLAS loaded into this process."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment_record() -> dict:
    import platform

    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
        "LQMFG_THREADS": os.environ.get("LQMFG_THREADS"),
    }


def run_passes(args, wl, calls, tracer):
    """Run whole passes until the time is up; check the first pass's
    outputs and that every later pass reproduces them."""
    import checks as ck
    import layers

    passes, traced, found, extras = [], [], [], []
    first = None
    start = time.perf_counter()
    while True:
        index = len(passes)
        if tracer is not None and index == 1:
            tracer.install(layers.load_modules(), skip=layers.SKIP)
        calls.pass_index = index
        t0 = time.perf_counter()
        raw = wl.run_pass(calls)
        passes.append((t0, time.perf_counter()))
        if tracer is not None and index >= 1:
            traced.append(index)
        outputs = wl.collect(raw)
        if first is None:
            found += wl.checks(outputs)
            first = wl.fingerprint(outputs)
        else:
            found += ck.repeat_checks(first, wl.fingerprint(outputs),
                                      f"repeat{index}")
        extras.append(wl.extra(outputs))
        del raw, outputs
        elapsed = time.perf_counter() - start
        typical = statistics.median(end - begin for begin, end in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    return passes, traced, found, extras


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all
    order statistics.  Latencies of a pass's calls fall into clusters with
    gaps between them; an estimate from one or two order statistics jumps
    across a gap when two neighbours swap, this one moves smoothly."""
    import numpy as np
    from scipy.special import betainc
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1),
                              np.arange(n + 1) / n))
    return float(weights @ x)


def end_to_end_metrics(setup, passes, calls, sampler) -> dict[str, float]:
    """Timings at the reference speed (see speed.py); raw ones printed."""
    import numpy as np
    from speed import CALL_MARGIN_S
    walls = [sampler.at_reference(a, b) for a, b in passes]
    lat_ms = np.array([sampler.at_reference(a, b, CALL_MARGIN_S)
                       for _, _, a, b in calls.samples]) * 1e3
    raw_ms = np.array([b - a for _, _, a, b in calls.samples]) * 1e3
    print("raw: setup_s " + ", ".join(f"{s['raw_s']:.3f}" for s in setup)
          + "; wall_s " + ", ".join(f"{b - a:.3f}" for a, b in passes)
          + f"; call p50/p90 {quantile(raw_ms, 0.5):.2f}/"
          f"{quantile(raw_ms, 0.9):.2f} ms; mean relative speed "
          f"{np.mean([s for _, _, s in sampler.samples]):.3f}")
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "wall_s": statistics.median(walls),
        "call_p50_ms": quantile(lat_ms, 0.5),
        "call_p90_ms": quantile(lat_ms, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace_metrics(args, root, tracer, passes, traced, calls, extras, sampler):
    """Per-layer metrics from raw times; only the tracing overhead compares
    passes at the reference speed, since it compares different passes."""
    import layers
    at_ref = [sampler.at_reference(a, b) for a, b in passes]
    overhead = (statistics.median(at_ref[i] for i in traced)
                / statistics.median(w for i, w in enumerate(at_ref)
                                    if i not in traced) - 1)
    traced_walls = [passes[i][1] - passes[i][0] for i in traced]
    extra = {}
    for verb in layers.VERBS:
        extra[f"cli.{verb}.wall_s"] = sum(
            end - start for i, label, start, end in calls.samples
            if i in traced and label == verb) / len(traced)
    for i in traced:
        for key, value in extras[i].items():
            extra[key] = extra.get(key, 0.0) + value / len(traced)
    values = layers.per_layer_metrics(tracer, sum(traced_walls), len(traced),
                                      extra, overhead)
    out = root / ".lqbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-{args.seed}.json"
    tracer.write(path)
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(root)}")
    print(f"{'layer metric':44s} {'per pass':>14s}  unit")
    for name, unit in layers.PER_LAYER:
        print(f"{name:44s} {values[name]:14.6g}  {unit}")
    print("share of wall_s by module: " + ", ".join(
        f"{m} {values[f'{m}.share']:.1%}" for m in layers.MODULES))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in layers.PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "lqmfg" / "__init__.py").is_file():
        print(f"ERROR: no lqmfg source tree at {src}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    pin_environment()
    work = root / ".lqbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            setup_probe(args, src, work)
            return 0
        setup = measure_setup(args, root)
        wl = set_up(args, src, work)
        import layers
        import tracer as tr
        import workloads
        from speed import SpeedSampler
        calls = workloads.Calls()
        tracer = tr.Tracer(layers.OBSERVERS) if args.trace else None
        with SpeedSampler() as sampler:
            passes, traced, found, extras = run_passes(args, wl, calls, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env: " + json.dumps(environment_record(), sort_keys=True))
    failed = [c for c in found if not c.ok]
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes; "
          f"calls: {len(calls.samples)} samples")
    print(f"checks: {len(found)} attempted, {len(failed)} failed, "
          f"fail_frac {len(failed) / len(found):.4f}")
    for c in failed:
        print(f"  FAILED {c.name}: {c.detail}")
    for key, value in extras[0].items():
        print(f"measured on the first pass: {key} {value:.6g}")
    if args.trace:
        metrics = trace_metrics(args, root, tracer, passes, traced, calls,
                                extras, sampler)
    else:
        values = end_to_end_metrics(setup, passes, calls, sampler)
        for name, unit in END_TO_END:
            print(f"{name:12s} {values[name]:12.6g} {unit}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": not failed, "attempted": len(found),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
