#!/bin/sh
# Tier-1 CI entry point. Runs fully offline; no network or external deps.
#
#   ./ci.sh          fmt check, release build, tests, rustdoc, bench smoke
#   ./ci.sh --quick  skip the bench smoke run
set -eu

cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

# --workspace matters: the root manifest is both a [workspace] and the
# pacer-suite [package], so a bare `cargo build` builds only pacer-suite
# and its dependency *libs* — the pacer / reproduce bin targets the smoke
# stages below drive would stay stale.
echo "== cargo build --release --workspace"
cargo build --release --workspace

echo "== cargo test -q"
cargo test -q

# Property tests are feature-gated so the default build stays lean. This
# stage compiles and runs them — including replay of the committed
# *.proptest-regressions entries — against the in-tree pacer-proptest shim.
echo "== cargo test --workspace --features proptest"
cargo test --workspace --features proptest -q

# Doc breakage fails CI; rustdoc warnings (broken intra-doc links,
# missing docs where a crate opts into #![warn(missing_docs)]) are errors.
echo "== cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# Differential fuzzing smoke (FUZZING.md): a short campaign must finish
# with zero oracle violations, and a second identical invocation must be
# byte-identical — the determinism contract the whole fuzzer rests on.
# The committed reproducers in tests/corpus/ already replayed under
# `cargo test` above (tests/corpus.rs).
echo "== pacer fuzz smoke"
FUZZ_A=$(./target/release/pacer fuzz --iters 200 --seed 1 --jobs 4)
FUZZ_B=$(./target/release/pacer fuzz --iters 200 --seed 1 --jobs 4)
if [ "$FUZZ_A" != "$FUZZ_B" ]; then
    echo "pacer fuzz is nondeterministic across identical invocations" >&2
    exit 1
fi
echo "$FUZZ_A" | head -n 1

# Resilience smoke (RESILIENCE.md): a fault-injection campaign must
# complete without aborting, quarantine deterministically at any --jobs,
# and exit 2 (completed-with-quarantines).
echo "== pacer fleet fault-injection smoke"
RESDIR=$(mktemp -d)
trap 'rm -rf "$RESDIR"' EXIT
cat > "$RESDIR/racy.pl" <<'PROGRAM'
shared x;
fn w() {
    let i = 0;
    while (i < 50) { let o = new obj; o.f = i; x = x + 1; i = i + 1; }
}
fn main() { let a = spawn w(); let b = spawn w(); join a; join b; }
PROGRAM
printf 'detector-panic every=3\nheap-oom budget=64 every=4\n' > "$RESDIR/campaign.plan"
campaign() {
    ./target/release/pacer fleet "$RESDIR/racy.pl" --instances 8 --rate 0.25 \
        --seed 3 --fault-plan "$RESDIR/campaign.plan" --max-retries 1 --jobs "$1"
}
rc=0; FLEET_A=$(campaign 1) || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "fault campaign: expected exit 2 (completed with quarantines), got $rc" >&2
    exit 1
fi
rc=0; FLEET_B=$(campaign 4) || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "fault campaign: expected exit 2 at --jobs 4, got $rc" >&2
    exit 1
fi
if [ "$FLEET_A" != "$FLEET_B" ]; then
    echo "fault campaign output differs across --jobs" >&2
    exit 1
fi
echo "$FLEET_A" | grep -q "quarantined=4" || {
    echo "fault campaign: expected 4 quarantined trials" >&2
    exit 1
}

# Record/replay smoke (TRACE_FORMAT.md): capture an execution once in
# the binary trace format and re-analyze it offline. Three properties
# gate: recording is deterministic (two captures are byte-identical),
# replaying the binary capture prints exactly what replaying a text
# capture of the same execution prints, and the replay finds the race.
echo "== pacer record/replay smoke"
./target/release/pacer record "$RESDIR/racy.pl" --rate 1.0 --seed 5 \
    --out "$RESDIR/racy.ptrace" > /dev/null
./target/release/pacer record "$RESDIR/racy.pl" --rate 1.0 --seed 5 \
    --out "$RESDIR/racy2.ptrace" > /dev/null
cmp -s "$RESDIR/racy.ptrace" "$RESDIR/racy2.ptrace" || {
    echo "pacer record is nondeterministic across identical invocations" >&2
    exit 1
}
./target/release/pacer record "$RESDIR/racy.pl" --rate 1.0 --seed 5 \
    --out "$RESDIR/racy.trace" --format text > /dev/null
REPLAY_BIN=$(./target/release/pacer replay "$RESDIR/racy.ptrace" --detector fasttrack)
REPLAY_TXT=$(./target/release/pacer replay "$RESDIR/racy.trace" --detector fasttrack)
if [ "$REPLAY_BIN" != "$REPLAY_TXT" ]; then
    echo "binary and text replays of the same execution differ" >&2
    exit 1
fi
echo "$REPLAY_BIN" | grep -q "distinct:" || {
    echo "replay found no races in the racy capture" >&2
    exit 1
}

# Streaming-service smoke (SERVICE.md): start the daemon, feed two
# recorded traces over the unix socket, and each reply must be
# byte-identical to `pacer replay` of the same file; then the framed
# input mode must print the same merged transcript at --shards 1 and 4.
echo "== pacer serve smoke"
./target/release/pacer record "$RESDIR/racy.pl" --rate 0.5 --seed 9 \
    --out "$RESDIR/second.ptrace" > /dev/null
# A multi-frame input: 12005 events span 3 frames, so shard batches
# fill up and frame-boundary flushes happen mid-session.
cat > "$RESDIR/long.pl" <<'PROGRAM'
shared x;
shared y;
lock l;
fn w() {
    let i = 0;
    while (i < 1000) { x = x + 1; sync l { y = y + i; } i = i + 1; }
}
fn main() { let a = spawn w(); let b = spawn w(); join a; join b; }
PROGRAM
LONG_REC=$(./target/release/pacer record "$RESDIR/long.pl" --rate 1.0 --seed 5 \
    --out "$RESDIR/long.ptrace")
echo "$LONG_REC" | grep -q "^3 frame(s)" || {
    echo "long.ptrace must span 3 frames" >&2
    exit 1
}
./target/release/pacer replay "$RESDIR/long.ptrace" --detector fasttrack \
    > "$RESDIR/long.replay"
./target/release/pacer serve --socket "$RESDIR/pacer.sock" --max-sessions 2 \
    --detector fasttrack --shards 2 > "$RESDIR/serve.out" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -S "$RESDIR/pacer.sock" ] && break
    sleep 0.05
done
for trace in racy second; do
    ./target/release/pacer serve --send "$RESDIR/$trace.ptrace" \
        --socket "$RESDIR/pacer.sock" > "$RESDIR/$trace.reply"
    ./target/release/pacer replay "$RESDIR/$trace.ptrace" \
        --detector fasttrack > "$RESDIR/$trace.replay"
    cmp -s "$RESDIR/$trace.reply" "$RESDIR/$trace.replay" || {
        echo "serve reply for $trace differs from pacer replay" >&2
        exit 1
    }
done
wait "$SERVE_PID" || {
    echo "serve daemon exited nonzero" >&2
    exit 1
}
grep -q "served 2 session(s)" "$RESDIR/serve.out" || {
    echo "serve daemon transcript is missing the session summary" >&2
    exit 1
}
{
    printf 'SESSION one %s\n' "$(wc -c < "$RESDIR/racy.ptrace")"
    cat "$RESDIR/racy.ptrace"
    printf 'SESSION two %s\n' "$(wc -c < "$RESDIR/second.ptrace")"
    cat "$RESDIR/second.ptrace"
    printf 'SESSION three %s\n' "$(wc -c < "$RESDIR/long.ptrace")"
    cat "$RESDIR/long.ptrace"
} > "$RESDIR/sessions.frames"
./target/release/pacer serve --stdin "$RESDIR/sessions.frames" --shards 1 \
    > "$RESDIR/serve1.out"
./target/release/pacer serve --stdin "$RESDIR/sessions.frames" --shards 4 \
    > "$RESDIR/serve4.out"
cmp -s "$RESDIR/serve1.out" "$RESDIR/serve4.out" || {
    echo "serve transcript differs between --shards 1 and --shards 4" >&2
    exit 1
}

# Chaos smoke (RESILIENCE.md "Service supervision"): the same framed
# input under an injected shard-panic plan must print a transcript
# byte-identical to the fault-free run — supervised replay absorbs the
# panics — while the metrics snapshot proves they really fired
# (nonzero shard_restarts, zero sessions_lost).
echo "== pacer serve chaos smoke"
printf 'shard-panic every=3\n' > "$RESDIR/chaos.plan"
for shards in 1 4; do
    ./target/release/pacer serve --stdin "$RESDIR/sessions.frames" --shards "$shards" \
        --fault-plan "$RESDIR/chaos.plan" > "$RESDIR/chaos$shards.out"
    ./target/release/pacer serve --stdin "$RESDIR/sessions.frames" --shards "$shards" \
        --fault-plan "$RESDIR/chaos.plan" --metrics-out "$RESDIR/chaos$shards.json" \
        > /dev/null
    cmp -s "$RESDIR/serve$shards.out" "$RESDIR/chaos$shards.out" || {
        echo "serve transcript changed under injected shard panics (--shards $shards)" >&2
        exit 1
    }
    grep -q '"shard_restarts":[1-9]' "$RESDIR/chaos$shards.json" || {
        echo "chaos smoke: expected nonzero shard_restarts in metrics (--shards $shards)" >&2
        exit 1
    }
    grep -q '"sessions_lost":[1-9]' "$RESDIR/chaos$shards.json" && {
        echo "chaos smoke: single-shot panics must not lose sessions (--shards $shards)" >&2
        exit 1
    }
done

# Drain smoke (SERVICE.md "Drain and shutdown"): SIGTERM to a serving
# daemon stops admission, finishes checkpointing, and exits 0; the
# journal it leaves behind must resume to the same transcript the
# framed run prints.
echo "== pacer serve drain smoke"
./target/release/pacer serve --socket "$RESDIR/drain.sock" \
    --detector fasttrack --shards 2 --checkpoint "$RESDIR/drain.journal" \
    > "$RESDIR/drain.out" &
DRAIN_PID=$!
for _ in $(seq 1 100); do
    [ -S "$RESDIR/drain.sock" ] && break
    sleep 0.05
done
./target/release/pacer serve --send "$RESDIR/racy.ptrace" --session one \
    --socket "$RESDIR/drain.sock" > /dev/null
kill -TERM "$DRAIN_PID"
rc=0; wait "$DRAIN_PID" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "drained daemon: expected exit 0, got $rc" >&2
    exit 1
fi
grep -q "served 1 session(s)" "$RESDIR/drain.out" || {
    echo "drained daemon transcript is missing the completed session" >&2
    exit 1
}
./target/release/pacer serve --stdin "$RESDIR/sessions.frames" --shards 1 \
    --resume "$RESDIR/drain.journal" > "$RESDIR/drain-resume.out"
cmp -s "$RESDIR/serve1.out" "$RESDIR/drain-resume.out" || {
    echo "journal left by a drained daemon does not resume byte-identically" >&2
    exit 1
}

# Durable-TCP smoke (SERVICE.md "Durable TCP sessions"): a daemon armed
# with a conn-reset plan kills the client's connection mid-session after
# every accepted frame; the client must reconnect with RESUME from the
# acked offset and its reply must still be byte-identical to
# `pacer replay` — at --shards 1 and 4 — while the metrics snapshot
# proves the chaos really fired (nonzero session_resumes). The 1-frame
# session takes 2 connections, the 3-frame one 4.
echo "== pacer serve tcp resume smoke"
printf 'seed 0\nconn-reset every=1 after=1\n' > "$RESDIR/tcp.plan"
for shards in 1 4; do
    rm -f "$RESDIR/tcp.addr"
    ./target/release/pacer serve --tcp 127.0.0.1:0 \
        --addr-file "$RESDIR/tcp.addr" --wal "$RESDIR/tcp-wal" \
        --detector fasttrack --shards "$shards" --max-sessions 6 \
        --fault-plan "$RESDIR/tcp.plan" --metrics-out "$RESDIR/tcp$shards.json" \
        > "$RESDIR/tcp$shards.out" &
    TCP_PID=$!
    for _ in $(seq 1 100); do
        [ -s "$RESDIR/tcp.addr" ] && break
        sleep 0.05
    done
    for trace in racy long; do
        ./target/release/pacer serve --send "$RESDIR/$trace.ptrace" --session "$trace" \
            --tcp "$(cat "$RESDIR/tcp.addr")" > "$RESDIR/tcp$shards-$trace.reply"
    done
    wait "$TCP_PID" || {
        echo "tcp daemon (--shards $shards) exited nonzero" >&2
        exit 1
    }
    for trace in racy long; do
        cmp -s "$RESDIR/tcp$shards-$trace.reply" "$RESDIR/$trace.replay" || {
            echo "tcp reply for $trace after forced reconnects differs from pacer replay (--shards $shards)" >&2
            exit 1
        }
    done
    grep -q '"session_resumes":[1-9]' "$RESDIR/tcp$shards.json" || {
        echo "tcp chaos smoke: expected nonzero session_resumes (--shards $shards)" >&2
        exit 1
    }
    grep -q "served 2 session(s)" "$RESDIR/tcp$shards.out" || {
        echo "tcp daemon transcript is missing the session summary (--shards $shards)" >&2
        exit 1
    }
done

# Benchmark correctness smoke (crates/bench/src/bin/pacerbench/README.md,
# "End-to-end metrics"): short runs of both serve workloads must exit 0.
# pacerbench exits nonzero unless every REPORT equals `pacer replay`, the
# daemon's ledger conserves with zero restarts, resumes and dedups, and
# the recorded inputs match `inputs.pinned` at --seed 1 — the checks the
# benchmark's comparisons rely on. serve-long gets 5 s so that, within
# pacerbench's 3x overrun cap, a slow host still completes the 20
# sessions its op_ms_p50 needs.
echo "== pacerbench serve correctness smoke"
bench_smoke() {
    ./target/release/pacerbench --workload "$1" --seconds "$2" --seed 1 \
        > "$RESDIR/bench-$1.out" || {
        echo "pacerbench --workload $1 failed its correctness checks:" >&2
        tail -n 5 "$RESDIR/bench-$1.out" >&2
        exit 1
    }
}
bench_smoke serve-short 2
bench_smoke serve-long 5

# Checkpoint/resume byte-identity (RESILIENCE.md): chop the journal
# mid-entry — as a kill -9 during an append would — and the resumed
# run's artifacts must be byte-identical to an uninterrupted run's.
echo "== pacer fleet truncate-journal-and-resume byte-identity"
observed_fleet() {
    tag=$1
    shift
    ./target/release/pacer fleet "$RESDIR/racy.pl" --instances 6 --rate 0.25 \
        --seed 7 --metrics-out "$RESDIR/$tag.json" --trace-out "$RESDIR/$tag.jsonl" \
        "$@" > /dev/null
}
observed_fleet full
observed_fleet tmp --checkpoint "$RESDIR/fleet.journal"
JSIZE=$(wc -c < "$RESDIR/fleet.journal")
head -c $((JSIZE - 300)) "$RESDIR/fleet.journal" > "$RESDIR/cut.journal"
mv "$RESDIR/cut.journal" "$RESDIR/fleet.journal"
observed_fleet res --resume "$RESDIR/fleet.journal"
cmp -s "$RESDIR/full.json" "$RESDIR/res.json" || {
    echo "resumed metrics differ from the uninterrupted run" >&2
    exit 1
}
cmp -s "$RESDIR/full.jsonl" "$RESDIR/res.jsonl" || {
    echo "resumed event trace differs from the uninterrupted run" >&2
    exit 1
}

# Graceful-degradation smoke (RESILIENCE.md "Graceful degradation"): a
# heavy workload under a heap-oom plan with an armed governor must finish
# the campaign (exit 0 or 2 — degraded/cancelled, never a hard failure)
# with nonzero governor counters in the metrics snapshot.
echo "== pacer fleet governor smoke"
cat > "$RESDIR/heavy.pl" <<'PROGRAM'
shared x;
fn w() {
    let i = 0;
    while (i < 800) { let o = new obj; o.f = i; x = x + 1; i = i + 1; }
}
fn main() { let a = spawn w(); let b = spawn w(); join a; join b; }
PROGRAM
printf 'heap-oom budget=6000 every=1\n' > "$RESDIR/oom.plan"
rc=0
./target/release/pacer fleet "$RESDIR/heavy.pl" --instances 4 --rate 0.25 \
    --seed 11 --fault-plan "$RESDIR/oom.plan" --max-retries 1 \
    --mem-budget 100000000 --metrics-out "$RESDIR/gov.json" \
    --jobs 4 > "$RESDIR/gov.out" || rc=$?
if [ "$rc" -ne 0 ] && [ "$rc" -ne 2 ]; then
    echo "governed campaign: expected exit 0 or 2, got $rc" >&2
    exit 1
fi
grep -q "quarantined=0" "$RESDIR/gov.out" || {
    echo "governed campaign: expected zero quarantines (degradation instead)" >&2
    exit 1
}
grep -q '"governor": {"steps_down":0,' "$RESDIR/gov.json" && {
    echo "governed campaign: expected nonzero governor counters in metrics" >&2
    exit 1
}
grep -q '"governor": {"steps_down":' "$RESDIR/gov.json" || {
    echo "governed campaign: metrics snapshot is missing the governor block" >&2
    exit 1
}

if [ "${1:-}" = "--quick" ]; then
    echo "== skipping bench smoke (--quick)"
    exit 0
fi

# Smoke-run every bench target in quick mode; each writes BENCH_<name>.json
# at the workspace root.
for bench in clock_ops detector_throughput workload_overhead version_ablation clock_ablation trace_codec; do
    echo "== cargo bench $bench --quick"
    cargo bench -p pacer-bench --bench "$bench" -- --quick
done

# Clock-layer regression gate: on the full-rate replay, each stacked
# storage layer (+arena, +join-cache) must keep at least 90% of the
# in-run baseline's throughput. The µs-scale fasttrack rows are
# informational only — too noisy to gate at --quick sampling.
echo "== clock_ablation layer gate"
python3 - <<'EOF'
import json, sys

results = {
    r["id"]: r["events_per_sec"]
    for r in json.load(open("BENCH_clock_ablation.json"))["results"]
    if r.get("events_per_sec")
}
floor = 0.9 * results["pacer@100%/baseline"]
bad = [
    (layer, results[f"pacer@100%/{layer}"])
    for layer in ("+arena", "+join-cache")
    if results[f"pacer@100%/{layer}"] < floor
]
for layer, eps in bad:
    print(
        f"clock layer `{layer}` regresses the full-rate replay: "
        f"{eps:.0f} events/s < 90% of baseline {results['pacer@100%/baseline']:.0f}",
        file=sys.stderr,
    )
sys.exit(1 if bad else 0)
EOF

echo "== ci.sh OK"
