#!/usr/bin/env python3
"""Self-test of the benchmark itself.  Run from the root of a checkout:

    python3 bench/selftest.py

It checks that

* every workload runs at tiny size, with tracing off and on, and emits every
  metric ``BENCHMARK.json`` lists, each with its unit;
* a corrupted pinned hash is caught: the run exits 1 with ``"correct": false``
  and names the op;
* an op that raises is counted: tiny ``certify`` includes one ``symmetry``
  call above the 16-vertex automorphism cap, which must show in ``failed``
  and in ``iso.failed``;
* without the graphprod sources the benchmark exits non-zero and prints no
  result.

Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = [sys.executable, str(BENCH / "run.py")]
PIN_SEED = "1"


def run(args, cwd=ROOT, runner=RUN):
    proc = subprocess.run(runner + args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    tmp = ROOT / ".bench_tmp" / f"selftest-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for w in spec["workloads"]:
            for trace, listed in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
                code, res, err = run(["--workload", w["name"], "--scale", "tiny",
                                      "--seconds", "0.5", "--seed", PIN_SEED,
                                      "--trace", trace])
                where = f"{w['name']} trace {trace}"
                if code != 0 or not res or not res["correct"]:
                    problems.append(f"{where}: exit {code}, result {res}\n{err}")
                    continue
                for m in listed:
                    got = res["metrics"].get(m["name"])
                    if got is None or got.get("unit") != m["unit"] \
                            or not isinstance(got.get("value"), (int, float)):
                        problems.append(f"{where}: metric {m['name']} missing or "
                                        f"without unit {m['unit']}: {got}")
                if w["name"] == "certify":
                    if res["failed"] < 1:
                        problems.append(f"{where}: the capped op was not counted")
                    if trace == "1" and res["metrics"]["iso.failed"]["value"] < 1:
                        problems.append(f"{where}: iso.failed does not count the cap")

        pins = json.loads((BENCH / "pins.json").read_text())
        op_id = sorted(pins["tiny"]["analyze"])[0]
        pins["tiny"]["analyze"][op_id] = "0" * 16
        bad = tmp / "pins.json"
        bad.write_text(json.dumps(pins))
        code, res, err = run(["--workload", "analyze", "--scale", "tiny",
                              "--seconds", "0.5", "--seed", PIN_SEED,
                              "--pins", str(bad)])
        if code != 1 or res is None or res["correct"] is not False \
                or f"op {op_id} " not in err:
            problems.append(f"corrupted pin not caught: exit {code}, {res}\n{err}")

        bare = tmp / "bare"
        (bare / "bench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH.glob("*.py"):
            shutil.copy(path, bare / "bench")
        shutil.copy(BENCH / "pins.json", bare / "bench")
        code, res, err = run(["--workload", "words", "--seconds", "1"], cwd=bare,
                             runner=[sys.executable, "bench/run.py"])
        if code == 0 or res is not None:
            problems.append(f"ran without sources: exit {code}, result {res}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for p in problems:
        print("FAIL:", p)
    print("self-test:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
