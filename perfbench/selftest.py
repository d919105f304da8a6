#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run it from the repository root. For every workload, on a 64-core cluster
and one-second runs, it checks that:

- an untraced and a traced run pass their output checks and print every
  end-to-end, respectively per-layer, metric of BENCHMARK.json by name
  with its unit, both on the report lines and in the final JSON line;
- a deliberately wrong expected state digest (--expect-digest) is counted
  in `failed` and `failed_ratio`, so the output checks can fail;
- the benchmark exits non-zero without a result when the simulator's
  sources are missing.

Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
SMALL = ["--seed", "3", "--seconds", "1", "--small"]


def run(args, cwd=ROOT):
    return subprocess.run(["python3", RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(done):
    lines = done.stdout.strip().splitlines()
    return (json.loads(lines[-1]) if lines else None), lines[:-1]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            done = run(["--workload", workload, "--trace", trace, *SMALL])
            if done.returncode != 0:
                expect(False, f"{workload} trace {trace} exits 0: {done.stderr[-500:]}")
                continue
            res, report = result(done)
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"{workload} trace {trace}: checks pass ({res['attempted']} attempted)")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{workload} trace {trace}: JSON has every {key} metric "
                                f"with its unit")
            printed = {tuple(l.split()[::2][:2]) for l in report if len(l.split()) == 3}
            expect(all((n, u) in printed for n, u in want.items()),
                   f"{workload} trace {trace}: report lines name every metric with its unit")
            expect(any(l.startswith("failed_ratio") for l in report),
                   f"{workload} trace {trace}: failed_ratio is printed")
            expect(any(l.startswith("provenance:") for l in report),
                   f"{workload} trace {trace}: provenance is printed")

        done = run(["--workload", workload, "--trace", "0", "--expect-digest", "0x1", *SMALL])
        res, report = result(done)
        ratio = [l for l in report if l.startswith("failed_ratio")]
        expect(done.returncode == 0 and res["failed"] > 0 and not res["correct"]
               and ratio and float(ratio[0].split()[1]) > 0,
               f"{workload}: a wrong expected digest counts in failed_ratio "
               f"({ratio[0] if ratio else 'missing'})")

    # The benchmark alone, without the simulator's sources, must fail.
    bare = os.path.join(ROOT, "perfbench", "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = run(["--workload", "dct-local", "--trace", "0", *SMALL], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and not done.stdout.strip(),
           "without the simulator's sources it exits non-zero and prints no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
