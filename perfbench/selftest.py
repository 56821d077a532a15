#!/usr/bin/env python3
"""Smoke self-test of the benchmark at tiny sizes (well under a minute once
the build exists):

    python3 perfbench/selftest.py

For every workload it checks that
  * an untraced run prints every end_to_end metric of BENCHMARK.json and a
    traced run every per_layer metric, each with its unit, and that both
    pass their correctness gates;
  * a run whose gates compare against deliberately wrong expected values
    reports correct = false, failed > 0, and a failure from each of the
    sim, mc, synth and serve gates;
and that bad arguments exit with code 2 without a result line.
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(*args):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return done.returncode, result, done.stderr


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []

    def expect(ok, what):
        if not ok:
            errors.append(what)
            print("FAIL", what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result, stderr = run("--workload", workload, "--seed", "7",
                                       "--seconds", "1", "--trace",
                                       str(trace), "--tiny")
            tag = f"{workload} trace={trace}"
            expect(code == 0 and result is not None,
                   f"{tag}: exit {code}, no result\n{stderr[-2000:]}")
            if result is None:
                continue
            expect(set(result) == RESULT_KEYS, f"{tag}: result keys")
            expect(result["correct"] is True and result["failed"] == 0,
                   f"{tag}: gates failed\n{stderr[-2000:]}")
            expect(result["attempted"] >= 1, f"{tag}: nothing attempted")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            expect(set(got) == set(want),
                   f"{tag}: metrics missing {sorted(set(want) - set(got))}, "
                   f"unexpected {sorted(set(got) - set(want))}")
            for name, unit in want.items():
                if name in got:
                    expect(got[name] == unit,
                           f"{tag}: {name} has unit {got[name]}, not {unit}")
                    value = result["metrics"][name].get("value")
                    expect(isinstance(value, (int, float)),
                           f"{tag}: {name} value is not a number")

        code, result, stderr = run("--workload", workload, "--seed", "7",
                                   "--seconds", "1", "--trace", "0",
                                   "--tiny", "--perturb-expected")
        expect(code == 0 and result is not None
               and result["correct"] is False and result["failed"] > 0,
               f"{workload}: a wrong expected value did not fail a gate")
        for activity in ("sim", "mc", "synth", "serve"):
            expect(f"FAILED {activity} " in stderr,
                   f"{workload}: the {activity} gate missed a wrong value")

    code, result, _ = run("--workload", "no_such_workload", "--seed", "1",
                          "--seconds", "1", "--trace", "0")
    expect(code == 2 and result is None, "bad workload: expected exit 2")

    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
