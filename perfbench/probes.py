"""Layer numbers measured outside a workload pass, for the traced run.

- field.ext_mul_us.*: GF(p^m) multiply on seeded full-width elements.
- cli.*: wall time of `coopdss` subprocesses (import, one verify-secrecy).
- acceptance.c*_s: each acceptance criterion's own elapsed time, taken from
  its `_stamp` call through a pytest plugin; the tests are not modified.
- machine facts recorded with every run.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

EXT_MUL_FIELDS = ((7, 6), (13, 24), (31, 30))
EXT_MUL_PAIRS = 64
EXT_MUL_ROUNDS = 40
REPEATS = 5

# ROADMAP baseline CLI call; secure, so it must exit 0 with leakage 0
VERIFY_ARGS = ["verify-secrecy", "--scheme", "mbcr-exact", "--n", "6", "--k", "5",
               "--d", "5", "--t", "1", "--l1", "4", "--e1", "1,2,3,4", "--mode", "rank"]
CLI_REPEATS = 3
ACCEPTANCE_TIMEOUT_S = 120


def ext_mul_us(seed: int) -> dict[str, float]:
    from coopdss.field import ext_field

    rng = random.Random(seed)
    out = {}
    for p, m in EXT_MUL_FIELDS:
        f = ext_field(p, m)

        def full():
            return f.from_coords([rng.randrange(p) for _ in range(m - 1)]
                                 + [rng.randrange(1, p)])

        pairs = [(full(), full()) for _ in range(EXT_MUL_PAIRS)]
        mul = f.mul
        reps = []
        for _ in range(REPEATS):
            started = time.perf_counter()
            for _ in range(EXT_MUL_ROUNDS):
                for a, b in pairs:
                    mul(a, b)
            reps.append((time.perf_counter() - started) / (EXT_MUL_ROUNDS * EXT_MUL_PAIRS))
        out[f"field.ext_mul_us.p{p}m{m}"] = statistics.median(reps) * 1e6
    return out


def _env(root: Path, extra_path: Path | None = None) -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(root / "src")] + ([str(extra_path)] if extra_path else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.pop("COOPDSS_SEED", None)
    return env


def cli_timings(root: Path) -> tuple[dict[str, float], int, list[str]]:
    """(metrics, attempted, failures) for the CLI subprocess layer."""
    env = _env(root)
    imports, verifies, failures = [], [], []
    probe = ("import time; t = time.perf_counter(); import coopdss.cli; "
             "print(time.perf_counter() - t)")
    for _ in range(CLI_REPEATS):
        done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=root,
                              capture_output=True, text=True, timeout=60, check=True)
        imports.append(float(done.stdout.strip().splitlines()[-1]))
    for _ in range(CLI_REPEATS):
        started = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "coopdss.cli", *VERIFY_ARGS], env=env,
                              cwd=root, capture_output=True, text=True, timeout=60)
        verifies.append(time.perf_counter() - started)
        if done.returncode != 0 or "leakage_qunits=0" not in done.stdout:
            failures.append(f"verify-secrecy exit {done.returncode}: {done.stdout.strip()} "
                            f"{done.stderr.strip()[-200:]}")
    return ({"cli.import_ms": statistics.median(imports) * 1e3,
             "cli.verify_secrecy_ms": statistics.median(verifies) * 1e3},
            CLI_REPEATS, failures)


def acceptance_timings(root: Path, out_dir: Path) -> tuple[dict[str, float], list[str]]:
    """(acceptance.c1_s .. c9_s, notes).  A criterion that did not pass is
    noted, not counted as a failed op: its wall-clock budgets are asserted
    and can be missed on a slow host."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stamps = out_dir / f"acceptance-stamps-{os.getpid()}.json"
    env = _env(root, Path(__file__).resolve().parent)
    env["PERFBENCH_STAMPS"] = str(stamps)
    cmd = [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
           "-p", "acceptance_stamps", "tests/test_acceptance.py"]
    tail = ""
    try:
        done = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                              timeout=ACCEPTANCE_TIMEOUT_S)
        tail = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    except subprocess.TimeoutExpired:
        tail = f"timed out after {ACCEPTANCE_TIMEOUT_S} s"
    finally:
        recorded = json.loads(stamps.read_text()) if stamps.exists() else {}
        stamps.unlink(missing_ok=True)
    elapsed, outcome = recorded.get("elapsed", {}), recorded.get("outcome", {})
    metrics, notes = {}, []
    for num in map(str, range(1, 10)):
        metrics[f"acceptance.c{num}_s"] = elapsed.get(num, 0.0)
        if outcome.get(num) != "passed":
            notes.append(f"acceptance criterion {num}: {outcome.get(num, 'not run')} ({tail})")
    return metrics, notes


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for base in (root / "src", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_facts(root: Path, workload: str, seed: int, seconds: int) -> dict:
    import numpy

    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except OSError:
            commit = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_digest": source_digest(root),
    }
