"""Run loop of the benchmark: set-up probes, warm-up, timed instances, result line."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np
import scipy

import eigenknot
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

# fewest fresh interpreters timed for setup_s; the median is reported
SETUP_PROBES = 5
# Host-speed reference: a fresh interpreter that imports the libraries
# eigenknot uses, but not eigenknot.  Its median wall time was 0.51-0.61 s on
# the 2-core Intel Xeon (2.1 GHz) VM the bounds were set on; end-to-end times
# are scaled to a host on which it takes REFERENCE_S (see README.md).
REFERENCE_CMD = [sys.executable, "-c", "import numpy, scipy.spatial, scipy.special"]
REFERENCE_S = 0.6


def _blas_version(module) -> str:
    try:
        blas = module.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(nproc: int, threads: int) -> dict:
    return {
        "nproc": nproc,
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(np),
        "scipy_blas": _blas_version(scipy),
        "cpu": _cpu_model(),
        "eigenknot": eigenknot.__version__,
    }


def _timed(cmd, root) -> float:
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"probe {cmd[1:]} failed: {proc.stderr.decode(errors='replace')}")
    return elapsed


def probe(args, root, setup, refs) -> None:
    """Time one set-up probe between two host-speed references; append to the lists.

    The set-up probe is a fresh interpreter that imports eigenknot and makes
    the inputs; the reference does the same imports without eigenknot.  A
    reference time is noisier than an instance time, so it is sampled twice.
    """
    refs.append(_timed(REFERENCE_CMD, root))
    setup.append(_timed([
        sys.executable, str(root / "bench" / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-probe",
    ], root))
    refs.append(_timed(REFERENCE_CMD, root))


def run_instance(run, inp, workdir, tracer=None) -> dict:
    """One pipeline instance in an empty work directory; outputs are hashed, then removed."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    start = time.perf_counter()
    try:
        failures, observables = run(inp, tracer)
    except Exception:
        # a crash is a failed certificate, counted like any other
        failures, observables = [traceback.format_exc(limit=4)], {}
    finally:
        elapsed = time.perf_counter() - start
        os.chdir(cwd)
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(workdir.iterdir())}
    shutil.rmtree(workdir)
    return {"seconds": elapsed, "failures": failures, "observables": observables, "sha256": hashes}


def _metric_block(names_units, values) -> dict:
    missing = [n for n, _ in names_units if n not in values]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    return {n: {"value": values[n], "unit": u} for n, u in names_units}


def run_benchmark(args, root, nproc, threads) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    make_inputs, run, warm_up = WORKLOADS[args.workload]
    env = environment(nproc, threads)

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = out_dir / f"work-{os.getpid()}"
    tracer = Tracer() if args.trace else None

    # lazy imports, first BLAS and scipy calls, lru caches: paid once, untimed
    warm = run_instance(warm_up, None, workdir)
    if warm["failures"]:
        raise RuntimeError(f"warm-up failed: {warm['failures']}")
    mismatches = []
    untraced, traced, setup, refs = [], [], [], []
    unit_seconds = []
    start = time.perf_counter()
    index = 0
    while True:
        unit_start = time.perf_counter()
        # one probe per instance spreads them over the run, so that their
        # medians see the same host as the instances do
        probe(args, root, setup, refs)
        inp = make_inputs(args.seed, index)
        # in traced runs, alternate which of the pair goes first, so that
        # neither side always inherits the other's warm caches
        modes = [False] if tracer is None else [False, True] if index % 2 == 0 else [True, False]
        for traced_mode in modes:
            if traced_mode:
                tracer.instance = index
                with tracer.installed():
                    traced.append(run_instance(run, inp, workdir, tracer))
                tracer.instance = None
                traced[-1]["index"] = index
            else:
                untraced.append(run_instance(run, inp, workdir))
                untraced[-1]["index"] = index
        if tracer is not None and traced[-1]["sha256"] != untraced[-1]["sha256"]:
            mismatches.append(f"instance {index}: traced and untraced outputs differ")
        unit_seconds.append(time.perf_counter() - unit_start)
        index += 1
        # start another instance only if it is expected to end within the budget
        if time.perf_counter() - start + statistics.median(unit_seconds) > args.seconds:
            break

    while len(setup) < SETUP_PROBES:
        probe(args, root, setup, refs)

    attempted = len(untraced)
    failed = sum(1 for rec in untraced if rec["failures"])
    pipeline_wall_s = statistics.median(rec["seconds"] for rec in untraced)
    setup_wall_s = statistics.median(setup)
    host_factor = REFERENCE_S / statistics.median(refs)
    if tracer is None:
        values = {
            "setup_s": setup_wall_s * host_factor,
            "pipeline_s": pipeline_wall_s * host_factor,
            "certified_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    else:
        per_instance = [layer_metrics(tracer.spans, rec["index"]) for rec in traced]
        values = {key: statistics.median(m[key] for m in per_instance) for key in per_instance[0]}
        traced_wall_s = statistics.median(rec["seconds"] for rec in traced)
        values["trace.overhead_s"] = (traced_wall_s - pipeline_wall_s) * host_factor
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    metrics = _metric_block(names, values)

    digests = [
        hashlib.sha256(json.dumps(rec["sha256"], sort_keys=True).encode()).hexdigest()
        for rec in untraced
    ]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "setup_probe_s": setup,
        "reference_s": refs,
        "host_factor": host_factor,
        "setup_wall_s": setup_wall_s,
        "pipeline_wall_s": pipeline_wall_s,
        "instance_s": [rec["seconds"] for rec in untraced],
        "traced_instance_s": [rec["seconds"] for rec in traced],
        "samples": attempted,
        "instance_sha256": digests,
        "failures": {rec["index"]: rec["failures"] for rec in untraced if rec["failures"]},
        "mismatches": mismatches,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"result-{stem}.json").write_text(
        json.dumps({**detail, "instances": untraced, "traced_instances": traced, "metrics": metrics}, indent=1, default=str)
        + "\n"
    )
    if tracer is not None:
        (out_dir / f"spans-{stem}.json").write_text(json.dumps(tracer.dump()) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(detail, default=str))
    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0
