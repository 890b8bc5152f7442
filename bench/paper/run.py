#!/usr/bin/env python3
"""Runs the paper's Section 8 experiments through ddc_driver.

    python3 bench/paper/run.py [--n=N] [--budget=S] [--seed=K]
        [--driver=build/tools/ddc_driver] [--out-dir=bench-paper] [LIST ...]

A LIST (default: every *.txt next to this script) holds one figure's runs.
Each line is a group of runs, written as whitespace-separated tokens:
`key=value` is a key of the paper-mixed scenario spec, `--flag=value` a
ddc_driver flag, and `fqry=f` sets the spec's qevery to max(1, floor(n*f)),
with f = 0.01 by default. A value `{a,b,...}` stands for one run per
alternative; several of them give their cross product. Each run is a point.
Its driver invocation writes one BENCH_paper-mixed_<method>.json per method
into its own directory, OUT_DIR/<list>/<point>.

--n scales every n of a list by one factor, so that its largest becomes N;
by default the lists run at the paper's sizes. --budget replaces every
run's time budget (default: the line's --budget, else 15 s).
"""

import argparse
import glob
import itertools
import os
import subprocess
import sys


def expand(line):
    """The runs of a list line, each a tuple of (key, value) pairs."""
    choices = []
    for token in line.split():
        key, value = token.split("=", 1)
        if value.startswith("{") and value.endswith("}"):
            choices.append([(key, v) for v in value[1:-1].split(",")])
        else:
            choices.append([(key, value)])
    return itertools.product(*choices)


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int)
    parser.add_argument("--budget", type=float)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--driver", default="build/tools/ddc_driver")
    parser.add_argument("--out-dir", default="bench-paper")
    parser.add_argument("lists", nargs="*",
                        default=sorted(glob.glob(os.path.join(here, "*.txt"))))
    args = parser.parse_args()

    for path in args.lists:
        name = os.path.splitext(os.path.basename(path))[0]
        with open(path) as f:
            runs = [run for line in f if line.strip()
                    and not line.startswith("#") for run in expand(line)]
        largest = max(int(dict(run)["n"]) for run in runs)
        for run in runs:
            spec = {k: v for k, v in run if not k.startswith("--")}
            flags = {"--budget": "15"}
            flags.update((k, v) for k, v in run if k.startswith("--"))
            n = int(spec["n"])
            if args.n is not None:
                n = max(1, n * args.n // largest)
            spec["n"] = str(n)
            fqry = float(spec.pop("fqry", 0.01))
            spec["qevery"] = str(max(1, int(n * fqry)))
            if args.budget is not None:
                flags["--budget"] = repr(args.budget)
            keys = ",".join(f"{k}={v}" for k, v in spec.items())
            point = ",".join([keys] + [f"{k[2:]}={v}" for k, v in flags.items()
                                       if k not in ("--methods", "--budget")])
            out = os.path.join(args.out_dir, name, point)
            cmd = [args.driver, f"--scenario=paper-mixed:{keys}",
                   f"--seed={args.seed}", f"--out-dir={out}"]
            cmd += [f"{k}={v}" for k, v in flags.items()]
            print(f"== {name} {point}", flush=True)
            if subprocess.run(cmd, check=False).returncode != 0:
                sys.exit("failed: " + " ".join(cmd))
            # The driver skips an insert-only method on a workload with
            # deletes and still succeeds: a list must not ask for that.
            for method in flags["--methods"].split(","):
                bench = os.path.join(out, f"BENCH_paper-mixed_{method}.json")
                if not os.path.exists(bench):
                    sys.exit(f"{name} {point}: no {bench}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
