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
# per metric the parent and change medians and quartiles, the change's
# wins pair by pair (ties count for neither side), and a no-regression
# verdict against the metric's BENCHMARK.json `bound`:
#
#   worse       the change's median is worse than the parent's by more
#               than the bound (relative to the parent median; absolute
#               when that median is 0);
#   unresolved  the parent's own interquartile range, relative to its
#               median, exceeds the bound, and not every change run reads
#               better than every parent run;
#   ok          otherwise.
#
# The `worse by` column is signed so that positive means worse in the
# metric's `better` direction. Exits non-zero if a run fails or reports
# `correct: false`; the verdicts do not change the exit status. Needs git,
# cargo and jq.
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
  def pct: if . == null then "-" else (. * 1000 | round / 10 + 0 | tostring) + "%" end;
  def summary: "\(q(0.5) | fmt) [\(q(0.25) | fmt), \(q(0.75) | fmt)]";
  # `$x` relative to the parent median `$pm` (absolute when it is 0).
  def rel($x; $pm): if $pm == 0 then $x elif $pm < 0 then $x / (0 - $pm) else $x / $pm end;
  . as $runs
  | ($runs | map(.seed) | unique) as $seeds
  | ["metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "change wins",
     "worse by", "bound", "parent IQR", "verdict"],
    ($spec[0].end_to_end[] as $m
     | def val($side; $seed):
         [$runs[] | select(.side == $side and .seed == $seed)
          | .result.metrics[$m.name].value][0];
     [$seeds[] as $s | {p: val("parent"; $s), c: val("change"; $s)}
      | select(.p != null and .c != null)] as $pairs
     | ($pairs | map(.p)) as $ps
     | ($pairs | map(.c)) as $cs
     | [$pairs[] | select(if $m.better == "higher" then .c > .p else .c < .p end)]
       as $wins
     | ($ps | q(0.5)) as $pm
     | (if $m.better == "higher" then 1 else -1 end) as $sign
     | (if $pm == null then null
        else rel($sign * ($pm - ($cs | q(0.5))); $pm) end) as $worse
     | (if $pm == null then null
        else rel(($ps | q(0.75)) - ($ps | q(0.25)); $pm) end) as $spread
     | ($pairs != [] and (if $m.better == "higher" then ($cs | min) > ($ps | max)
                          else ($cs | max) < ($ps | min) end)) as $separated
     | [$m.name, $m.better, ($ps | summary), ($cs | summary),
        "\($wins | length)/\($pairs | length)",
        ($worse | pct), ($m.bound | pct), ($spread | pct),
        (if $worse == null then "-"
         elif $worse > $m.bound then "worse"
         elif $spread > $m.bound and ($separated | not) then "unresolved"
         else "ok" end)])
  | @tsv' "$runs"

if ! jq -s -e 'all(.[]; .result.correct == true)' "$runs" >/dev/null; then
  echo "a run reported correct: false" >&2
  exit 1
fi
