#!/usr/bin/env python3
"""Runs, summarises and compares benchmark results.

Run from the repository root:

  python3 cqbench/tools.py runs --workload engine-scan --seeds 1-10 [--trace 0] [--out F]
      Runs the benchmark once per seed and appends each result line (plus its
      seed and workload) to F as JSON lines; prints, per metric, the median and
      the spread (interquartile range over median) against the metric's bound.
  python3 cqbench/tools.py compare BASE.jsonl NEW.jsonl
      Compares the medians of two sets of results workload by workload; exits 1
      if any end-to-end metric got worse by more than its bound.
  python3 cqbench/tools.py selftest
      Checks BENCHMARK.json against the benchmark's contract, and checks that
      `compare` passes two identical result sets and flags a 2x slowdown of any
      single metric.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def spread(values):
    """Interquartile range over median, as the acceptance rule computes it."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def run_once(spec, workload, seed, seconds, trace):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["workload"] = workload
    result["seed"] = seed
    result["trace"] = trace
    return result


def summarise(results, spec, trace):
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    print(f"{'metric':<28} {'median':>14} {'spread':>8} {'bound':>6}  ok")
    worst_ok = True
    for metric in declared:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        sp = spread(values)
        bound = metric.get("bound")
        ok = "" if bound is None else ("yes" if sp <= bound / 3 else ("bound" if sp <= bound else "NO"))
        if ok == "NO" and name != "setup_s":
            worst_ok = False
        print(f"{name:<28} {med:>14.4f} {sp:>8.3f} {bound if bound is not None else '-':>6}  {ok}")
    return worst_ok


def cmd_runs(argv):
    args = dict(zip(argv[::2], argv[1::2]))
    spec = load_spec()
    workload = args["--workload"]
    seconds = args.get("--seconds", str(spec["run_seconds"]))
    trace = int(args.get("--trace", "0"))
    out = args.get("--out")
    results = []
    for seed in parse_seeds(args.get("--seeds", "1-10")):
        result = run_once(spec, workload, seed, seconds, trace)
        results.append(result)
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed")
        brief = {k: round(v["value"], 3) for k, v in result["metrics"].items()}
        print(f"seed {seed}: {brief}", flush=True)
        if out:
            with open(out, "a") as f:
                f.write(json.dumps(result) + "\n")
    ok = summarise(results, spec, trace)
    return 0 if ok else 1


def read_results(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def medians(results):
    by = {}
    for r in results:
        if r.get("trace", 0):
            continue
        for name, m in r["metrics"].items():
            by.setdefault((r["workload"], name), []).append(m["value"])
    return {key: statistics.median(values) for key, values in by.items()}


def compare(spec, base, new):
    """Returns the regressions: (workload, metric, base median, new median)."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    before, after = medians(base), medians(new)
    regressions = []
    for (workload, name), old in sorted(before.items()):
        metric = bounds.get(name)
        if metric is None or (workload, name) not in after:
            continue
        now = after[(workload, name)]
        if metric["better"] == "lower":
            worse = now > old * (1 + metric["bound"])
        else:
            worse = now < old * (1 - metric["bound"])
        if worse:
            regressions.append((workload, name, old, now))
    return regressions


def cmd_compare(argv):
    spec = load_spec()
    regressions = compare(spec, read_results(argv[0]), read_results(argv[1]))
    for workload, name, old, now in regressions:
        print(f"REGRESSION {workload} {name}: median {old:.4f} -> {now:.4f}")
    if not regressions:
        print("no end-to-end metric worse than its bound")
    return 1 if regressions else 0


def check_spec(spec):
    import re
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "names are used once"
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["better"] in ("lower", "higher") and unit_re.match(m["unit"])
    for n in names:
        assert name_re.match(n), n
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(json.dumps(spec)) <= 64 * 1024


def cmd_selftest(_argv):
    spec = load_spec()
    check_spec(spec)
    base = []
    for w in spec["workloads"]:
        for seed in range(1, 11):
            metrics = {}
            for i, m in enumerate(spec["end_to_end"]):
                value = (i + 1) * 10.0 * (1 + 0.01 * ((seed * 7 + i) % 5))
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            base.append({"workload": w["name"], "seed": seed, "trace": 0, "metrics": metrics})
    assert compare(spec, base, json.loads(json.dumps(base))) == [], "identical sets must pass"
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            slow = json.loads(json.dumps(base))
            for r in slow:
                if r["workload"] == w["name"]:
                    v = r["metrics"][m["name"]]
                    v["value"] = v["value"] * 2 if m["better"] == "lower" else v["value"] / 2
            flagged = compare(spec, base, slow)
            assert [(f[0], f[1]) for f in flagged] == [(w["name"], m["name"])], (w, m, flagged)
    print("selftest ok: contract holds, identical sets pass, every 2x slowdown is flagged")
    return 0


def main():
    if len(sys.argv) < 2 or sys.argv[1] not in ("runs", "compare", "selftest"):
        print(__doc__)
        return 2
    return {"runs": cmd_runs, "compare": cmd_compare, "selftest": cmd_selftest}[sys.argv[1]](sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
