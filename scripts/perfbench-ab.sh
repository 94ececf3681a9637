#!/usr/bin/env bash
# Alternating-pairs A/B run of the benchmark BENCHMARK.json declares: a
# parent revision against the working tree.
#
#   scripts/perfbench-ab.sh <parent-rev> <workload> <pairs> <seconds> [seed-base]
#
# Builds perfbench once in a `git archive` of <parent-rev> and once in the
# working tree, with the flags of BENCHMARK.json's own command, then runs
# <pairs> pairs on seeds seed-base, seed-base + 1, ... (default 1). The
# side that runs first alternates from pair to pair, so drift on a noisy
# host hits both sides alike. Prints each run's end-to-end metrics, then
# per metric the parent and change medians and quartiles and the change's
# wins, pair by pair (ties count for neither side). Exits non-zero if a run
# fails or reports `correct: false`. Needs git, cargo and jq.
set -euo pipefail
if [ $# -lt 4 ]; then
  echo "usage: $0 <parent-rev> <workload> <pairs> <seconds> [seed-base]" >&2
  exit 2
fi
parent_rev=$1 workload=$2 pairs=$3 seconds=$4 seed_base=${5:-1}
cd "$(dirname "$0")/.."
root="$PWD"
work="$(mktemp -d "${TMPDIR:-/tmp}/perfbench-ab.XXXXXX")"
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive "$parent_rev" | tar -x -C "$work/parent"

# The manifest's command runs the benchmark; the same flags with `run`
# turned into `build` (and nothing after `--`) build it.
mapfile -t cmd < <(jq -r '.command[]' BENCHMARK.json)
build=()
for arg in "${cmd[@]}"; do
  [ "$arg" = "--" ] && break
  if [ "$arg" = "run" ]; then build+=(build); else build+=("$arg"); fi
done
for dir in "$work/parent" "$root"; do
  (cd "$dir" && "${build[@]}")
done

runs="$work/runs.jsonl"
run_side() { # <side> <dir> <seed>
  local line
  line=$(cd "$2" && "${cmd[@]}" --workload "$workload" --seed "$3" \
    --seconds "$seconds" --trace 0 | tail -n 1)
  jq -c --arg side "$1" --argjson seed "$3" '{side: $side, seed: $seed, result: .}' \
    <<<"$line" >>"$runs"
  jq -r --arg side "$1" --argjson seed "$3" \
    '"\($side) seed \($seed): correct=\(.correct) "
     + ([.metrics | to_entries[] | "\(.key)=\(.value.value)"] | join(" "))' <<<"$line"
}
for ((i = 0; i < pairs; i++)); do
  seed=$((seed_base + i))
  if ((i % 2 == 0)); then
    run_side parent "$work/parent" "$seed"
    run_side change "$root" "$seed"
  else
    run_side change "$root" "$seed"
    run_side parent "$work/parent" "$seed"
  fi
done

echo
echo "$workload: $pairs pairs x ${seconds}s, parent $parent_rev vs working tree"
jq -s -r --slurpfile spec BENCHMARK.json '
  # Quantile with linear interpolation between order statistics.
  def q($p): sort as $a | ($a | length) as $n
    | if $n == 0 then null
      else ($p * ($n - 1)) as $pos | ($pos | floor) as $lo
        | if $lo + 1 < $n then $a[$lo] + ($pos - $lo) * ($a[$lo + 1] - $a[$lo])
          else $a[$lo] end
      end;
  def fmt: if . == null then "-" else (. * 1000 | round / 1000 | tostring) end;
  def summary: "\(q(0.5) | fmt) [\(q(0.25) | fmt), \(q(0.75) | fmt)]";
  . as $runs
  | ($runs | map(.seed) | unique) as $seeds
  | ["metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "change wins"],
    ($spec[0].end_to_end[] as $m
     | def val($side; $seed):
         [$runs[] | select(.side == $side and .seed == $seed)
          | .result.metrics[$m.name].value][0];
     [$seeds[] as $s | {p: val("parent"; $s), c: val("change"; $s)}
      | select(.p != null and .c != null)] as $pairs
     | [$pairs[] | select(if $m.better == "higher" then .c > .p else .c < .p end)]
       as $wins
     | [$m.name, $m.better,
        ($pairs | map(.p) | summary), ($pairs | map(.c) | summary),
        "\($wins | length)/\($pairs | length)"])
  | @tsv' "$runs"

if ! jq -s -e 'all(.[]; .result.correct == true)' "$runs" >/dev/null; then
  echo "a run reported correct: false" >&2
  exit 1
fi
