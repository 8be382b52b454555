#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark is an OCaml executable (perfbench/main.ml) built with dune
from the checkout's own sources. Its last stdout line is the JSON result;
everything else goes to stderr. --selftest runs the checks described in
perfbench/README.md. Exits non-zero, without a result, when the sources
are missing or do not build.
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib/onet/rnode.ml", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("run from the root of a checkout: %s is missing" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode(errors="replace"))
        fail("build failed")


def run(args, capture=False):
    """Runs the executable; returns (exit code, stdout, stderr)."""
    try:
        p = subprocess.run([EXE] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                           stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        return 124, "", "timed out"
    err = p.stderr.decode(errors="replace") if capture else ""
    return p.returncode, p.stdout.decode(errors="replace"), err


def selftest():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what, file=sys.stderr)
        if not cond:
            failures.append(what)

    # a tiny-size pass of every workload prints every metric with its unit
    for w in names:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out, _ = run(["--workload", w, "--seed", "1", "--seconds",
                                "1", "--trace", trace], capture=True)
            res = json.loads(out.strip().splitlines()[-1]) if out.strip() else {}
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
            check(code == 0 and res.get("correct") is True
                  and res.get("failed") == 0 and got == want,
                  "%s --trace %s: correct, nothing lost, every metric and unit"
                  % (w, trace))

    # a message dropped or corrupted at a sink trips the correctness check
    for w in names:
        for inject in ("drop", "corrupt"):
            code, out, _ = run(["--workload", w, "--seed", "1", "--seconds",
                                "1", "--trace", "0", "--inject", inject],
                               capture=True)
            res = json.loads(out.strip().splitlines()[-1]) if out.strip() else {}
            check(code != 0 and res.get("correct") is False,
                  "%s --inject %s: detected" % (w, inject))

    # simulator counts repeat exactly for one seed; another seed changes
    # the generated inputs
    def inputs(seed):
        code, _, err = run(["--workload", "sim-hub-8x8", "--seed", str(seed),
                            "--seconds", "1", "--trace", "0"], capture=True)
        line = [l for l in err.splitlines() if " inputs " in l]
        return code, line[0].split(" inputs ", 1)[1] if line else None

    (c1, a), (c2, b), (c3, c) = inputs(7), inputs(7), inputs(8)
    check(c1 == c2 == c3 == 0 and a is not None and a == b,
          "sim-hub-8x8: same seed, same inputs and counts (%s)" % a)
    check(c is not None and a is not None and a.split()[0] != c.split()[0],
          "sim-hub-8x8: another seed, other inputs")
    if failures:
        print("%d self-test(s) failed" % len(failures), file=sys.stderr)
        sys.exit(1)
    print("all self-tests passed", file=sys.stderr)


def main():
    build()
    if sys.argv[1:] == ["--selftest"]:
        selftest()
        return
    code, out, _ = run(sys.argv[1:])
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
