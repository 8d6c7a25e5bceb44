#!/usr/bin/env bash
# Hermetic CI gate for the RSE workspace.
#
# Everything here must pass with zero network access: the workspace has
# no external crate dependencies (see DESIGN.md, "Hermetic dependency
# policy"), so --offline is load-bearing, not an optimisation.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Every replay output and mutation log lands in one scratch directory,
# removed on exit whichever gate stops the script.
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --release --offline"
cargo build --release --offline

echo "== cargo build --benches --offline"
cargo build --benches --offline --workspace

echo "== cargo test -q --offline (workspace)"
cargo test -q --offline --workspace

echo "== rsebench tests (benchmark wrappers stay transparent)"
# rsebench is a workspace of its own, so --workspace above skips it. Its
# tests wrap the Module trait and check a timed run simulates exactly
# what an untimed one does.
cargo test --release --offline --manifest-path rsebench/Cargo.toml

echo "== fault-injection smoke campaign (64 runs, fixed seed)"
# The campaign is a pure function of the seed: two invocations must be
# byte-identical, and both must match the pinned golden histogram. A
# diff here means an intentional behavior change — regenerate with:
#   cargo run --release --offline -p rse-bench --bin campaign -- \
#     --smoke --no-table --out tests/golden/campaign_smoke.jsonl
SMOKE_A="$SCRATCH/smoke_a"; SMOKE_B="$SCRATCH/smoke_b"
cargo run --release --offline -q -p rse-bench --bin campaign -- \
  --smoke --no-table --out "$SMOKE_A" 2>/dev/null
cargo run --release --offline -q -p rse-bench --bin campaign -- \
  --smoke --no-table --out "$SMOKE_B" 2>/dev/null
cmp "$SMOKE_A" "$SMOKE_B" \
  || { echo "FAIL: smoke campaign is nondeterministic"; exit 1; }
diff -u tests/golden/campaign_smoke.jsonl "$SMOKE_A" \
  || { echo "FAIL: smoke campaign diverges from pinned golden"; exit 1; }
echo "smoke campaign: deterministic and matches golden (64 runs)"

echo "== fault-injection control campaign (zero faults => 100% masked)"
cargo run --release --offline -q -p rse-bench --bin campaign -- \
  --control --runs 2 --no-table >/dev/null

echo "== quarantine campaign (module-targeted faults, fixed seed)"
# Same double-replay + pinned-golden discipline as the smoke campaign.
# Regenerate with:
#   cargo run --release --offline -p rse-bench --bin campaign -- \
#     --quarantine --runs 4 --no-table --out tests/golden/campaign_quarantine.jsonl
QUAR_A="$SCRATCH/quar_a"; QUAR_B="$SCRATCH/quar_b"
cargo run --release --offline -q -p rse-bench --bin campaign -- \
  --quarantine --runs 4 --no-table --out "$QUAR_A" 2>/dev/null
cargo run --release --offline -q -p rse-bench --bin campaign -- \
  --quarantine --runs 4 --no-table --out "$QUAR_B" 2>/dev/null
cmp "$QUAR_A" "$QUAR_B" \
  || { echo "FAIL: quarantine campaign is nondeterministic"; exit 1; }
diff -u tests/golden/campaign_quarantine.jsonl "$QUAR_A" \
  || { echo "FAIL: quarantine campaign diverges from pinned golden"; exit 1; }
echo "quarantine campaign: deterministic and matches golden (28 runs)"

echo "== adversarial attack smoke campaign (100 runs, fixed seed)"
# Same double-replay + pinned-golden discipline as the fault campaigns,
# and neither tiering nor sharding may change a byte. Regenerate with:
#   cargo run --release --offline -p rse-bench --bin attack_campaign -- \
#     --smoke --no-table --out tests/golden/attack_smoke.jsonl
ATK_A="$SCRATCH/atk_a"; ATK_B="$SCRATCH/atk_b"; ATK_T="$SCRATCH/atk_t"; ATK_S="$SCRATCH/atk_s"
cargo run --release --offline -q -p rse-bench --bin attack_campaign -- \
  --smoke --no-table --out "$ATK_A" 2>/dev/null
cargo run --release --offline -q -p rse-bench --bin attack_campaign -- \
  --smoke --no-table --out "$ATK_B" 2>/dev/null
cmp "$ATK_A" "$ATK_B" \
  || { echo "FAIL: attack campaign is nondeterministic"; exit 1; }
diff -u tests/golden/attack_smoke.jsonl "$ATK_A" \
  || { echo "FAIL: attack campaign diverges from pinned golden"; exit 1; }
cargo run --release --offline -q -p rse-bench --bin attack_campaign -- \
  --smoke --no-table --tiered --out "$ATK_T" 2>/dev/null
diff -u tests/golden/attack_smoke.jsonl "$ATK_T" \
  || { echo "FAIL: --tiered attack campaign diverges from pinned golden"; exit 1; }
cargo run --release --offline -q -p rse-bench --bin attack_campaign -- \
  --smoke --no-table --threads 4 --out "$ATK_S" 2>/dev/null
diff -u tests/golden/attack_smoke.jsonl "$ATK_S" \
  || { echo "FAIL: 4-thread attack campaign diverges from pinned golden"; exit 1; }
echo "attack campaign: deterministic (plain/tiered/sharded) and matches golden (100 runs)"

echo "== adaptive attack campaign (66 runs: chains, recovery strikes, DSM)"
# The adaptive spec (multi-stage chains + the instruction-stream models
# against the DSM twins) gets the same double-replay + pinned-golden
# discipline: strike-bearing rollback re-executions always run
# cycle-accurate, so neither tiering nor sharding may change a byte.
# Regenerate with:
#   cargo run --release --offline -p rse-bench --bin attack_campaign -- \
#     --adaptive --no-table --out tests/golden/attack_adaptive.jsonl
ADP_A="$SCRATCH/adp_a"; ADP_B="$SCRATCH/adp_b"; ADP_T="$SCRATCH/adp_t"; ADP_S="$SCRATCH/adp_s"
cargo run --release --offline -q -p rse-bench --bin attack_campaign -- \
  --adaptive --no-table --out "$ADP_A" 2>/dev/null
cargo run --release --offline -q -p rse-bench --bin attack_campaign -- \
  --adaptive --no-table --out "$ADP_B" 2>/dev/null
cmp "$ADP_A" "$ADP_B" \
  || { echo "FAIL: adaptive campaign is nondeterministic"; exit 1; }
diff -u tests/golden/attack_adaptive.jsonl "$ADP_A" \
  || { echo "FAIL: adaptive campaign diverges from pinned golden"; exit 1; }
cargo run --release --offline -q -p rse-bench --bin attack_campaign -- \
  --adaptive --no-table --tiered --out "$ADP_T" 2>/dev/null
diff -u tests/golden/attack_adaptive.jsonl "$ADP_T" \
  || { echo "FAIL: --tiered adaptive campaign diverges from pinned golden"; exit 1; }
cargo run --release --offline -q -p rse-bench --bin attack_campaign -- \
  --adaptive --no-table --threads 4 --out "$ADP_S" 2>/dev/null
diff -u tests/golden/attack_adaptive.jsonl "$ADP_S" \
  || { echo "FAIL: 4-thread adaptive campaign diverges from pinned golden"; exit 1; }
# The tentpole claim, gated directly on the artifact: the DSM-guarded
# twin never loses an inst-skip run (the ICM-only blind spot), and no
# defended adaptive run ends in a silent compromise.
if grep '"victim":"seq_guard"' "$ADP_A" | grep '"model":"inst-skip"' \
    | grep -qv '"outcome":"detected:DSM"'; then
  echo "FAIL: a seq_guard inst-skip run was not detected by the DSM"; exit 1
fi
if grep '"defended":true' "$ADP_A" | grep -q '"outcome":"compromised"'; then
  echo "FAIL: a defended adaptive run was silently compromised"; exit 1
fi
grep -q '"recovery":"recovered:retry' "$ADP_A" \
  || { echo "FAIL: no adaptive run exercised the bounded retry path"; exit 1; }
grep -q '"recovery":"failed-safe-halt"' "$ADP_A" \
  || { echo "FAIL: no adaptive run escalated past the retry budget"; exit 1; }
echo "adaptive campaign: deterministic (plain/tiered/sharded), DSM closes inst-skip (66 runs)"

echo "== attack control campaign (zero attacks => 100% prevented)"
# The attack_campaign binary itself exits non-zero unless every control
# record is prevented/not-needed/attack=none — including the DSM twins,
# whose sequence monitor must stay silent on a fault-free run.
cargo run --release --offline -q -p rse-bench --bin attack_campaign -- \
  --control --runs 2 --no-table >/dev/null

echo "== randomization entropy study (4-victim corpus, success vs rerand period)"
# Regenerates the committed BENCH_attack.json (one JSON line per victim
# kind) and gates the paper's §4.1 claim two ways: the binary exits
# non-zero unless the success count falls strictly at every period step
# of every victim's sweep, and an independent awk pass re-checks the
# committed artifact for the per-victim monotone decrease.
# Regenerate with:
#   cargo run --release --offline -p rse-bench --bin attack_campaign -- \
#     --entropy --out BENCH_attack.json
ENT_A="$SCRATCH/ent_a"
cargo run --release --offline -q -p rse-bench --bin attack_campaign -- \
  --entropy --out "$ENT_A" 2>/dev/null \
  || { echo "FAIL: entropy study failed its strict-decrease gate"; exit 1; }
diff -u BENCH_attack.json "$ENT_A" \
  || { echo "FAIL: entropy study diverges from committed BENCH_attack.json"; exit 1; }
# Each line is one victim's sweep; the strict decrease must hold within
# every line independently (the count resets to the static baseline at
# the start of the next victim).
awk '{
    n = 0; line = $0
    while (match(line, /"successes":[0-9]+/)) {
      v = substr(line, RSTART + 12, RLENGTH - 12) + 0
      if (n > 0 && v >= prev) bad = 1
      prev = v; n++
      line = substr(line, RSTART + RLENGTH)
    }
    if (n < 2) short = 1
  } END {
    if (NR < 4) { print "FAIL: entropy study is missing victim kinds"; exit 1 }
    if (short) { print "FAIL: an entropy sweep has too few points"; exit 1 }
    if (bad) { print "FAIL: attack success not strictly decreasing for every victim"; exit 1 }
  }' BENCH_attack.json || exit 1
echo "entropy study: randomization strictly cuts attack success on all 4 victims; artifact matches"

echo "== fleet soak smoke campaign (52 runs, 5 nodes, fixed seed)"
# The fleet history is a pure function of (config, seed, fault): two
# invocations must be byte-identical and match the pinned golden.
# Regenerate with:
#   cargo run --release --offline -p rse-bench --bin fleet_soak -- \
#     --smoke --no-table --out tests/golden/fleet_soak_smoke.jsonl
FLEET_A="$SCRATCH/fleet_a"; FLEET_B="$SCRATCH/fleet_b"
cargo run --release --offline -q -p rse-bench --bin fleet_soak -- \
  --smoke --no-table --out "$FLEET_A" 2>/dev/null
cargo run --release --offline -q -p rse-bench --bin fleet_soak -- \
  --smoke --no-table --out "$FLEET_B" 2>/dev/null
cmp "$FLEET_A" "$FLEET_B" \
  || { echo "FAIL: fleet soak is nondeterministic"; exit 1; }
diff -u tests/golden/fleet_soak_smoke.jsonl "$FLEET_A" \
  || { echo "FAIL: fleet soak diverges from pinned golden"; exit 1; }
if grep -q '"outcome":"split-brain"' "$FLEET_A"; then
  echo "FAIL: fleet soak observed split-brain"; exit 1
fi
if grep -q '"outcome":"false-suspicion"' "$FLEET_A"; then
  echo "FAIL: fleet soak observed false suspicion"; exit 1
fi
echo "fleet soak: deterministic, matches golden, no split-brain/false-suspicion (52 runs)"

echo "== fleet control soak (zero faults => 0 failovers, 0 false suspicions)"
# The fleet_soak binary itself exits non-zero unless every control run
# is masked with zero failovers and zero false suspicions.
cargo run --release --offline -q -p rse-bench --bin fleet_soak -- \
  --control --runs 2 --no-table >/dev/null

echo "== tiered + sharded smoke campaigns (must be byte-identical to golden)"
# Neither the functional fast-path (--tiered) nor run-level sharding
# (--threads) may change a single output byte: faulted runs stay fully
# cycle-accurate and the sharded merge is ordered by run index. All
# three variants must match the same pinned golden as the sequential
# smoke campaign above.
TIER_A="$SCRATCH/tier_a"; SHARD_A="$SCRATCH/shard_a"; BOTH_A="$SCRATCH/both_a"; FLEET_T="$SCRATCH/fleet_t"
cargo run --release --offline -q -p rse-bench --bin campaign -- \
  --smoke --no-table --tiered --out "$TIER_A" 2>/dev/null
diff -u tests/golden/campaign_smoke.jsonl "$TIER_A" \
  || { echo "FAIL: --tiered smoke campaign diverges from pinned golden"; exit 1; }
cargo run --release --offline -q -p rse-bench --bin campaign -- \
  --smoke --no-table --threads 4 --out "$SHARD_A" 2>/dev/null
diff -u tests/golden/campaign_smoke.jsonl "$SHARD_A" \
  || { echo "FAIL: 4-thread smoke campaign diverges from pinned golden"; exit 1; }
cargo run --release --offline -q -p rse-bench --bin campaign -- \
  --smoke --no-table --tiered --threads 4 --out "$BOTH_A" 2>/dev/null
diff -u tests/golden/campaign_smoke.jsonl "$BOTH_A" \
  || { echo "FAIL: tiered+sharded smoke campaign diverges from pinned golden"; exit 1; }
echo "tiered/sharded smoke campaigns: byte-identical to pinned golden"

echo "== tiered fleet soak (cross-tier verification, same golden)"
cargo run --release --offline -q -p rse-bench --bin fleet_soak -- \
  --smoke --no-table --tiered --out "$FLEET_T" 2>/dev/null
diff -u tests/golden/fleet_soak_smoke.jsonl "$FLEET_T" \
  || { echo "FAIL: --tiered fleet soak diverges from pinned golden"; exit 1; }
echo "tiered fleet soak: byte-identical to pinned golden"

echo "== lockstep fleet soak (equivalence shim, same golden)"
# The event-driven scheduler is the default engine; --lockstep replays
# the same smoke spec on the legacy per-cycle engine. Both must match
# the SAME pinned golden byte-for-byte — the discrete-event refactor's
# standing equivalence proof.
FLEET_L="$SCRATCH/fleet_l"
cargo run --release --offline -q -p rse-bench --bin fleet_soak -- \
  --smoke --no-table --lockstep --out "$FLEET_L" 2>/dev/null
diff -u tests/golden/fleet_soak_smoke.jsonl "$FLEET_L" \
  || { echo "FAIL: lockstep engine diverges from the event-driven golden"; exit 1; }
echo "lockstep fleet soak: byte-identical to the event-driven golden"

echo "== 1k-node churn smoke campaign (chaos engine, fixed seed)"
# Three 1,000-node runs: the availability control, a correlated rack
# partition, and full weather (rolling restarts + rack cut + cascading
# failure). Double-replayed and diffed against the pinned golden under
# a wall-clock budget; any split-brain completion fails the gate, and
# the weather runs must actually fail over. Regenerate with:
#   cargo run --release --offline -p rse-bench --bin fleet_soak -- \
#     --churn --no-table --out tests/golden/churn_smoke.jsonl
# The throughput JSON goes to the scratch directory: its host timings
# change on every run, so CI never rewrites the committed BENCH_fleet.json.
CHURN_A="$SCRATCH/churn_a"; CHURN_B="$SCRATCH/churn_b"; BENCH_F="$SCRATCH/bench_fleet.json"
timeout 300 cargo run --release --offline -q -p rse-bench --bin fleet_soak -- \
  --churn --no-table --out "$CHURN_A" --bench-json "$BENCH_F" 2>/dev/null \
  || { echo "FAIL: churn smoke failed or blew the 300s wall-clock budget"; exit 1; }
timeout 300 cargo run --release --offline -q -p rse-bench --bin fleet_soak -- \
  --churn --no-table --out "$CHURN_B" 2>/dev/null \
  || { echo "FAIL: churn replay failed or blew the 300s wall-clock budget"; exit 1; }
cmp "$CHURN_A" "$CHURN_B" \
  || { echo "FAIL: churn campaign is nondeterministic"; exit 1; }
diff -u tests/golden/churn_smoke.jsonl "$CHURN_A" \
  || { echo "FAIL: churn campaign diverges from pinned golden"; exit 1; }
if grep -Eq '"split_brain":[1-9]' "$CHURN_A"; then
  echo "FAIL: churn campaign observed a split-brain completion"; exit 1
fi
grep -q '"model":"full-weather"' "$CHURN_A" \
  || { echo "FAIL: churn smoke is missing the full-weather run"; exit 1; }
if grep '"model":"full-weather"' "$CHURN_A" | grep -q '"failovers":0,'; then
  echo "FAIL: full-weather run executed no failovers"; exit 1
fi
grep -q '"events_per_sec":' "$BENCH_F" \
  || { echo "FAIL: churn bench JSON missing throughput numbers"; exit 1; }
echo "churn smoke: deterministic 1k-node weather, matches golden, zero split-brain"

echo "== tier 3: bounded model checking (rse-mc)"
# Four theorem binaries drive the REAL production types (ModuleHealth,
# Ioq, NodeProtocol) through every schedule of a bounded adversary and
# exit non-zero on any counterexample, printing the shrunk event trace.
# Depth bounds are fixed here for CI; RSE_MC_DEPTH overrides the
# exhaustive runs and RSE_MC_SWEEP_DEPTH the unbounded-window fleet
# sweep for deeper offline sessions. Each line reports the explored
# state count and whether the run closed the full reachable space
# (exhaustive=true).
cargo test -q --offline --release -p rse-mc
cargo run --release --offline -q -p rse-mc --bin mc_health
cargo run --release --offline -q -p rse-mc --bin mc_ioq
cargo run --release --offline -q -p rse-mc --bin mc_liveness
cargo run --release --offline -q -p rse-mc --bin mc_fleet
# The standing self-test that the theorems have teeth: removing the
# contact lease must produce a printed split-brain counterexample and
# a non-zero exit.
if RSE_MC_MUTATE=no-self-fence cargo run --release --offline -q \
    -p rse-mc --bin mc_fleet >"$SCRATCH/mc_mutate.out" 2>&1; then
  echo "FAIL: seeded no-self-fence mutation was not caught"; exit 1
fi
grep -q "counterexample: invariant 'split-brain'" "$SCRATCH/mc_mutate.out" \
  || { echo "FAIL: mutation run printed no counterexample trace"; exit 1; }
# Likewise for the health ladder the quarantine-evade attack leans on: a
# forged ErrorBurst storm that could jump straight to Disabled must be a
# printed legal-edge counterexample, not a pass.
if RSE_MC_MUTATE=forged-burst-disable cargo run --release --offline -q \
    -p rse-mc --bin mc_health >"$SCRATCH/mc_mutate.out" 2>&1; then
  echo "FAIL: seeded forged-burst-disable mutation was not caught"; exit 1
fi
grep -q "counterexample: invariant 'legal-edge'" "$SCRATCH/mc_mutate.out" \
  || { echo "FAIL: health mutation run printed no counterexample trace"; exit 1; }
echo "model checking: four theorem groups verified; seeded mutations caught"

echo "== tiered execution speed curve (gate >= 5x)"
# Measures the speed curve committed as BENCH_tiered.json into the
# scratch directory (the committed file is left as it is) and gates the
# smoke_baseline/smoke_tiered median speedup at 5x (measured ~8x; the
# margin absorbs noisy CI hosts).
BENCH_T="$SCRATCH/bench_tiered.json"
RSE_BENCH_SAMPLES=5 RSE_BENCH_JSON="$BENCH_T" \
  cargo bench -q --offline -p rse-bench --bench tiered
awk -F'"median_ns":' '
  /"name":"tiered\/smoke_baseline"/ { split($2, a, ","); base = a[1] }
  /"name":"tiered\/smoke_tiered"/   { split($2, a, ","); tier = a[1] }
  END {
    if (base == "" || tier == "" || tier <= 0) { print "FAIL: bench JSON incomplete"; exit 1 }
    x = base / tier
    printf "tiered smoke speedup: %.1fx\n", x
    if (x < 5) { print "FAIL: tiered speedup below 5x gate"; exit 1 }
  }' "$BENCH_T" || exit 1

echo "CI OK"
