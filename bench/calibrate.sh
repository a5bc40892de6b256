#!/usr/bin/env bash
# Noise calibration: measures how far the end-to-end metrics of ONE
# commit move between runs, by the rule the benchmark is accepted by,
# and writes the result to bench/NOISE.md.
#
# For every workload it makes SETS sets of RUNS timed runs, each run
# with another --seed, through the exact command of BENCHMARK.json.
# Per set and metric it reports the median, the quartiles of Python's
# statistics.quantiles(values, n=4) and the relative IQR
# (Q3 - Q1) / median; between sets, how much the second median is
# worse than the first. The bounds in BENCHMARK.json (src/metrics.rs)
# are max(3 x relative IQR, 3 %), never above 10 %.
#
# Usage: bench/calibrate.sh            (from anywhere; ~35 min)
#        RUNS=4 SETS=1 bench/calibrate.sh
#        REPORT_ONLY=1 bench/calibrate.sh   (rewrite NOISE.md from the
#                                            last raw results)
set -euo pipefail

cd "$(dirname "$0")/.."
RUNS=${RUNS:-10}
SETS=${SETS:-2}
SECONDS_PER_RUN=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mapfile -t COMMAND < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
mapfile -t WORKLOADS < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

mkdir -p bench/out
RAW=bench/out/calibrate.jsonl
if [ -z "${REPORT_ONLY:-}" ]; then
: > "$RAW"
for set in $(seq 1 "$SETS"); do
  # Every set uses the seeds 1..RUNS, so that sets can be compared
  # exactly on their `checks` blocks.
  for seed in $(seq 1 "$RUNS"); do
    for workload in "${WORKLOADS[@]}"; do
      echo "set $set seed $seed $workload" >&2
      out=$("${COMMAND[@]}" --workload "$workload" --seed "$seed" \
            --seconds "$SECONDS_PER_RUN" --trace 0)
      result=$(tail -n 1 <<<"$out")
      checks=$(grep '^checks ' <<<"$out" | cut -d' ' -f4-)
      echo "{\"set\": $set, \"seed\": $seed, \"workload\": \"$workload\", \"checks\": $checks, \"result\": $result}" >> "$RAW"
    done
  done
done
fi

python3 - "$RAW" "$RUNS" "$SETS" > bench/NOISE.md <<'EOF'
import json, platform, statistics, subprocess, sys, os

raw, runs, sets = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
rows = [json.loads(line) for line in open(raw)]
bench = json.load(open("BENCHMARK.json"))
metrics = {m["name"]: m for m in bench["end_to_end"]}

def sh(cmd):
    return subprocess.run(cmd, shell=True, capture_output=True, text=True).stdout.strip()

print("# Run-to-run noise of the end-to-end metrics")
print()
print("Written by `bench/calibrate.sh`; do not edit by hand.")
print()
print("| host | |")
print("|---|---|")
cpu = sh("grep -m1 'model name' /proc/cpuinfo | cut -d: -f2")
print(f"| cpu | {cpu} |")
print(f"| nproc | {os.cpu_count()} |")
print(f"| kernel | {platform.release()} |")
print(f"| rustc | {sh('rustc --version')} |")
print(f"| commit | {sh('git rev-parse --short HEAD 2>/dev/null') or 'n/a'} |")
print()
print(f"{sets} set(s) of {runs} runs per workload, every run with another `--seed`, "
      f"`--seconds {bench['run_seconds']}`, tracing off. `rel IQR` is (Q3 - Q1) / median; "
      "`set 2 worse by` is how much the second set's median is worse than the first's "
      "(negative: better). A bound must stay above three times the relative IQR.")
print()
failed = sum(r["result"]["failed"] for r in rows)
wrong = sum(not r["result"]["correct"] for r in rows)
print(f"Operations failed: {failed}; runs with a failed output check: {wrong}.")
print()
print("| workload | metric | unit | set | median | Q1 | Q3 | rel IQR | set 2 worse by | bound |")
print("|---|---|---|---|---|---|---|---|---|---|")
worst = {}
for workload in [w["name"] for w in bench["workloads"]]:
    for name, m in metrics.items():
        medians = []
        for s in range(1, sets + 1):
            values = [r["result"]["metrics"][name]["value"] for r in rows
                      if r["workload"] == workload and r["set"] == s]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            medians.append(med)
            rel = (q3 - q1) / med
            worst[name] = max(worst.get(name, 0.0), rel)
            drift = ""
            if s == 2:
                sign = 1 if m["better"] == "lower" else -1
                drift = f"{100 * sign * (medians[1] - medians[0]) / medians[0]:+.2f} %"
            print(f"| {workload} | {name} | {m['unit']} | {s} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {100 * rel:.2f} % | {drift} | {100 * m['bound']:.0f} % |")
print()
print("Runs more than 10 % off their set's median (the quartiles ignore one such run in ten; "
      "`serve-grid` has about one in forty, slower by 1.4-1.5 x in every metric for the whole "
      "process, see README \"Load model\"):")
print()
for r in rows:
    for name in metrics:
        values = [x["result"]["metrics"][name]["value"] for x in rows
                  if x["workload"] == r["workload"] and x["set"] == r["set"]]
        med = statistics.median(values)
        value = r["result"]["metrics"][name]["value"]
        if abs(value - med) > 0.10 * med:
            print(f"- {r['workload']} set {r['set']} seed {r['seed']}: {name} = {value:.6g} "
                  f"(median {med:.6g})")
print()
print("| metric | worst rel IQR | 3 x worst | bound in BENCHMARK.json |")
print("|---|---|---|---|")
for name, m in metrics.items():
    print(f"| {name} | {100 * worst[name]:.2f} % | {300 * worst[name]:.2f} % | {100 * m['bound']:.0f} % |")
print()
print("## Exact results")
print()
print("The `checks` block of every run (simulated results: makespan and App_FIT bits, decision "
      "counts, trace hash, window count). Every set uses the same seeds and must print the same "
      "blocks; a change that only speeds the simulator up must leave every one of them as it is.")
print()
first = {(r["workload"], r["seed"]): r["checks"] for r in rows if r["set"] == 1}
differing = [(r["workload"], r["seed"]) for r in rows if r["checks"] != first[(r["workload"], r["seed"])]]
print(f"Blocks that differ between sets: {len(differing)} {differing if differing else ''}")
print()
print("| workload | seed | checks |")
print("|---|---|---|")
for (workload, seed), checks in first.items():
    print(f"| {workload} | {seed} | `{json.dumps(checks)}` |")
EOF
echo "wrote bench/NOISE.md" >&2
