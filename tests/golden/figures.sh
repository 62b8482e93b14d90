#!/usr/bin/env bash
# Prints the sha256 of the stdout of every figure binary (run at
# `--quick --seed 42`) and of every example (run with no flags), one
# `<sha256>  <name>` line each — the format of `tests/golden/figures.txt`.
#
# Build first, then compare with the checked-in table:
#
#   cargo build --release --workspace --bins --examples
#   tests/golden/figures.sh | diff tests/golden/figures.txt -
set -euo pipefail
cd "$(dirname "$0")/../.."
bins=(interdomain_lookup fig4_stale_answers fig5_false_negatives fig6_update_cost
  fig7_query_cost stability tables ablation_walks approx_quality)
examples=(churn_and_maintenance decision_support medical_collaboration quickstart
  semantic_routing)
for b in "${bins[@]}"; do
  digest=$(target/release/"$b" --quick --seed 42 2>/dev/null | sha256sum)
  echo "${digest%% *}  $b"
done
for e in "${examples[@]}"; do
  digest=$(target/release/examples/"$e" 2>/dev/null | sha256sum)
  echo "${digest%% *}  examples/$e"
done
