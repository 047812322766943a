#!/bin/sh
# Tier-1 CI entry point. Runs fully offline; no network or external deps.
#
#   ./ci.sh          fmt check, release build, clippy, tests, rustdoc, bench smoke
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

# Lints are errors: any clippy warning, in any crate or target, fails CI.
echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

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
# with zero oracle violations, and the same campaign run sequentially
# must be byte-identical — the determinism contract the whole fuzzer
# rests on, at any job count. The committed reproducers in tests/corpus/
# already replayed under `cargo test` above (tests/corpus.rs).
echo "== pacer fuzz smoke"
FUZZ_A=$(./target/release/pacer fuzz --iters 200 --seed 1 --jobs 4)
FUZZ_B=$(./target/release/pacer fuzz --iters 200 --seed 1 --jobs 1)
if [ "$FUZZ_A" != "$FUZZ_B" ]; then
    echo "pacer fuzz output differs between --jobs 4 and --jobs 1" >&2
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
# replaying a binary capture prints exactly what replaying a text
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
# A multi-frame capture: 12005 events span 3 frames, so the binary
# replay hands the detector three runs (and shard batches in the serve
# smoke below fill up and flush mid-session) where the text replay
# hands it one.
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
./target/release/pacer record "$RESDIR/long.pl" --rate 1.0 --seed 5 \
    --out "$RESDIR/long.trace" --format text > /dev/null
# `pacer replay` pushes each run of decoded events through the
# `--resample` overlay, the §A check and the detector, and carries their
# state from one run to the next. For every detector, the binary and the
# text capture must print the same bytes, plain and resampled, and write
# the same metrics.
for det in pacer fasttrack generic literace; do
    for resample in "" "--resample 0.3 --seed 9"; do
        for ext in ptrace trace; do
            ./target/release/pacer replay "$RESDIR/long.$ext" --detector "$det" \
                $resample --metrics-out "$RESDIR/replay.json" > "$RESDIR/replay-$ext.out"
            mv "$RESDIR/replay.json" "$RESDIR/replay-$ext.json"
        done
        if ! cmp -s "$RESDIR/replay-ptrace.out" "$RESDIR/replay-trace.out" ||
            ! cmp -s "$RESDIR/replay-ptrace.json" "$RESDIR/replay-trace.json"; then
            echo "binary and text replays differ (--detector $det $resample)" >&2
            exit 1
        fi
        if [ "$det" = fasttrack ] && [ -z "$resample" ]; then
            grep -q "distinct:" "$RESDIR/replay-ptrace.out" || {
                echo "replay found no races in the racy capture" >&2
                exit 1
            }
        fi
    done
done

# Streaming-service smoke (SERVICE.md): the framed input mode must print
# the same merged transcript at --shards 1 and 4. The daemon's replies
# are checked against `pacer replay` over TCP in the resume smoke below.
echo "== pacer serve smoke"
./target/release/pacer record "$RESDIR/racy.pl" --rate 0.5 --seed 9 \
    --out "$RESDIR/second.ptrace" > /dev/null
for trace in racy long; do
    ./target/release/pacer replay "$RESDIR/$trace.ptrace" --detector fasttrack \
        > "$RESDIR/$trace.replay"
done
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
# byte-identical to the fault-free run — each drill panics before its
# event reaches the detector, and its supervised retry applies the event
# once — while the metrics snapshot proves they really fired (nonzero
# shard_restarts, zero sessions_lost).
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
# TCP daemon stops admission, finishes checkpointing, and exits 0; the
# journal it leaves behind must resume to the same transcript the
# framed run prints. A daemon that never saw a client must drain the
# same way: its accept wait is bounded, so SIGTERM is seen within 20 ms
# even with no connection to wake it. Either daemon still running 5 s
# after SIGTERM fails CI instead of hanging it.
echo "== pacer serve drain smoke"
# Sends SIGTERM to daemon $1, waits up to 5 s for it to exit, and sets
# rc to its exit code.
drain_daemon() {
    kill -TERM "$1"
    for _ in $(seq 1 100); do
        kill -0 "$1" 2>/dev/null || break
        sleep 0.05
    done
    if kill -0 "$1" 2>/dev/null; then
        kill -9 "$1"
        echo "daemon did not drain within 5 s of SIGTERM" >&2
        exit 1
    fi
    rc=0; wait "$1" || rc=$?
}
./target/release/pacer serve --tcp 127.0.0.1:0 --addr-file "$RESDIR/drain.addr" \
    --detector fasttrack --shards 2 --checkpoint "$RESDIR/drain.journal" \
    > "$RESDIR/drain.out" &
DRAIN_PID=$!
for _ in $(seq 1 100); do
    [ -s "$RESDIR/drain.addr" ] && break
    sleep 0.05
done
./target/release/pacer serve --send "$RESDIR/racy.ptrace" --session one \
    --tcp "$(cat "$RESDIR/drain.addr")" > /dev/null
drain_daemon "$DRAIN_PID"
if [ "$rc" -ne 0 ]; then
    echo "drained daemon: expected exit 0, got $rc" >&2
    exit 1
fi
grep -q "served 1 session(s)" "$RESDIR/drain.out" || {
    echo "drained daemon transcript is missing the completed session" >&2
    exit 1
}
./target/release/pacer serve --tcp 127.0.0.1:0 --addr-file "$RESDIR/idle.addr" \
    --wal "$RESDIR/idle-wal" > "$RESDIR/idle.out" &
IDLE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$RESDIR/idle.addr" ] && break
    sleep 0.05
done
# Signal a daemon already waiting in accept, not one still starting up.
sleep 0.2
drain_daemon "$IDLE_PID"
if [ "$rc" -ne 0 ]; then
    echo "idle tcp daemon drained with exit $rc, expected 0" >&2
    exit 1
fi
grep -q "served 0 session(s)" "$RESDIR/idle.out" || {
    echo "idle tcp daemon transcript is missing its empty summary" >&2
    exit 1
}
# Resuming into a second journal only reads the first (the `fleet`
# contract): the transcript matches the framed run, the drained journal
# keeps its bytes, and the second journal resumes to the same transcript.
cp "$RESDIR/drain.journal" "$RESDIR/drain.journal.orig"
./target/release/pacer serve --stdin "$RESDIR/sessions.frames" --shards 1 \
    --resume "$RESDIR/drain.journal" --checkpoint "$RESDIR/split.journal" \
    > "$RESDIR/split.out"
cmp -s "$RESDIR/serve1.out" "$RESDIR/split.out" || {
    echo "resuming into a second journal changed the transcript" >&2
    exit 1
}
cmp -s "$RESDIR/drain.journal.orig" "$RESDIR/drain.journal" || {
    echo "resuming into a second journal wrote to the journal it resumed from" >&2
    exit 1
}
./target/release/pacer serve --stdin "$RESDIR/sessions.frames" --shards 1 \
    --resume "$RESDIR/split.journal" > "$RESDIR/split-resume.out"
cmp -s "$RESDIR/serve1.out" "$RESDIR/split-resume.out" || {
    echo "the second journal does not resume byte-identically" >&2
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
# every accepted frame, and the shard-panic drill fires on the durable
# sessions' events as their frames are acked; the client must reconnect
# with RESUME from the acked offset and its reply must still be
# byte-identical to `pacer replay` — at --shards 1 and 4 — while the
# metrics snapshot proves the chaos really fired (nonzero session_resumes
# and shard_restarts) and lost no session. The 1-frame session takes 2
# connections, the 3-frame one 4. The two clients run at once, so one
# session's RESUME overlaps the other's frames.
echo "== pacer serve tcp resume smoke"
printf 'seed 0\nconn-reset every=1 after=1\nshard-panic every=7\n' > "$RESDIR/tcp.plan"
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
    ./target/release/pacer serve --send "$RESDIR/racy.ptrace" --session racy \
        --tcp "$(cat "$RESDIR/tcp.addr")" > "$RESDIR/tcp$shards-racy.reply" &
    RACY_PID=$!
    ./target/release/pacer serve --send "$RESDIR/long.ptrace" --session long \
        --tcp "$(cat "$RESDIR/tcp.addr")" > "$RESDIR/tcp$shards-long.reply" &
    LONG_PID=$!
    rc=0; wait "$RACY_PID" || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "tcp client for racy exited $rc (--shards $shards)" >&2
        exit 1
    fi
    rc=0; wait "$LONG_PID" || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "tcp client for long exited $rc (--shards $shards)" >&2
        exit 1
    fi
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
    grep -q '"shard_restarts":[1-9]' "$RESDIR/tcp$shards.json" || {
        echo "tcp chaos smoke: expected nonzero shard_restarts (--shards $shards)" >&2
        exit 1
    }
    grep -q '"sessions_lost":[1-9]' "$RESDIR/tcp$shards.json" && {
        echo "tcp chaos smoke: single-shot panics must not lose durable sessions (--shards $shards)" >&2
        exit 1
    }
    grep -q "served 2 session(s)" "$RESDIR/tcp$shards.out" || {
        echo "tcp daemon transcript is missing the session summary (--shards $shards)" >&2
        exit 1
    }
done

# Transport parity (SERVICE.md "Session outcomes"): the same sessions
# must print the same daemon transcript over --stdin and over durable
# TCP, including a corrupt one. `bad` is long.ptrace with the last
# payload byte of frame 2 set to 0xff under a rewritten FNV-1a checksum,
# so frame 2 passes its checksum and fails at its last event; the
# events before it count alike on both transports. `huge` is one frame
# whose only event is `vwr t0 v4000000000`: a detector sizing its table
# by that id would abort the daemon, so the id check must fail the
# session alone on both transports.
echo "== pacer serve transport parity"
python3 - "$RESDIR/long.ptrace" "$RESDIR/bad.ptrace" "$RESDIR/huge.ptrace" <<'EOF'
import struct, sys


def fnv1a64(data):
    digest = 0xCBF29CE484222325
    for byte in data:
        digest = ((digest ^ byte) * 0x100000001B3) % (1 << 64)
    return digest


data = bytearray(open(sys.argv[1], "rb").read())
at = 8
for frame in (1, 2):
    (length,) = struct.unpack_from("<I", data, at)
    payload = at + 12
    if frame == 2:
        data[payload + length - 1] = 0xFF
        struct.pack_into("<Q", data, at + 4, fnv1a64(data[payload : payload + length]))
    at = payload + length
open(sys.argv[2], "wb").write(data)
huge = bytes([0x07, 0x00, 0x80, 0xD0, 0xAC, 0xF3, 0x0E])
header = b"PTRC\x01\x00\x00\x00" + struct.pack("<IQ", len(huge), fnv1a64(huge))
open(sys.argv[3], "wb").write(header + huge)
EOF
for trace in racy long bad huge; do
    printf 'SESSION %s %s\n' "$trace" "$(wc -c < "$RESDIR/$trace.ptrace")"
    cat "$RESDIR/$trace.ptrace"
done > "$RESDIR/parity.frames"
rc=0
./target/release/pacer serve --stdin "$RESDIR/parity.frames" --detector fasttrack \
    > "$RESDIR/parity-stdin.out" || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "transport parity: --stdin daemon expected exit 2, got $rc" >&2
    exit 1
fi
rm -f "$RESDIR/tcp.addr"
./target/release/pacer serve --tcp 127.0.0.1:0 --addr-file "$RESDIR/tcp.addr" \
    --wal "$RESDIR/parity-wal" --detector fasttrack --max-sessions 4 \
    > "$RESDIR/parity-tcp.out" &
PARITY_PID=$!
for _ in $(seq 1 100); do
    [ -s "$RESDIR/tcp.addr" ] && break
    sleep 0.05
done
for trace in racy long bad huge; do
    rc=0
    ./target/release/pacer serve --send "$RESDIR/$trace.ptrace" --session "$trace" \
        --tcp "$(cat "$RESDIR/tcp.addr")" > /dev/null || rc=$?
    want=0
    case "$trace" in bad | huge) want=2 ;; esac
    if [ "$rc" -ne "$want" ]; then
        echo "transport parity: tcp client for $trace expected exit $want, got $rc" >&2
        exit 1
    fi
done
rc=0; wait "$PARITY_PID" || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "transport parity: tcp daemon expected exit 2, got $rc" >&2
    exit 1
fi
cmp -s "$RESDIR/parity-stdin.out" "$RESDIR/parity-tcp.out" || {
    echo "transport parity: --stdin and tcp daemon transcripts differ" >&2
    diff "$RESDIR/parity-stdin.out" "$RESDIR/parity-tcp.out" | tail -n 5 >&2
    exit 1
}
grep -q "v4000000000 is out of range" "$RESDIR/parity-stdin.out" || {
    echo "transport parity: the huge session lacks its out-of-range error" >&2
    exit 1
}
# `pacer replay` decodes the same frame with the same one-pass check:
# it must fail with the error the transcripts hold for session `bad`.
rc=0
./target/release/pacer replay "$RESDIR/bad.ptrace" --detector fasttrack \
    > /dev/null 2> "$RESDIR/bad.err" || rc=$?
want=$(sed -n '/^=== session bad ===$/{n;s/^error: //p;}' "$RESDIR/parity-stdin.out")
got=$(sed "s|^pacer: $RESDIR/bad.ptrace: ||" "$RESDIR/bad.err")
if [ "$rc" -ne 1 ] || [ -z "$want" ] || [ "$got" != "$want" ]; then
    echo "transport parity: pacer replay of bad.ptrace exits $rc with '$got';" \
        "the transcripts say '$want'" >&2
    exit 1
fi
[ -z "$(ls -A "$RESDIR/parity-wal")" ] || {
    echo "transport parity: failed sessions left WAL segments behind" >&2
    exit 1
}

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

# Results drift (EXPERIMENTS.md): the deterministic sections of the
# committed `results/reproduce_small.txt` must be what the code prints
# today. Each section run alone prints what it prints inside `reproduce
# all`. These six take about 3 s; fig3-5 and fleet would add about 20 s,
# and fig7-9 print wall-clock times, so those sections are checked only
# when the file is regenerated.
echo "== reproduce results drift"
DRIFT="table1 table2 table3 fig6 fig10 ablation"
./target/release/reproduce $DRIFT --small --jobs 2 > "$RESDIR/small.txt" \
    2> "$RESDIR/small.err" || {
    cat "$RESDIR/small.err" >&2
    exit 1
}
# Prints section $1 of reproduce output $2, header line included.
section() {
    awk -v want="================ $1 ================" '
        /^================ .* ================$/ { keep = ($0 == want) }
        keep' "$2"
}
for name in $DRIFT; do
    section "$name" results/reproduce_small.txt > "$RESDIR/want.txt"
    section "$name" "$RESDIR/small.txt" > "$RESDIR/got.txt"
    if [ ! -s "$RESDIR/want.txt" ] || ! cmp -s "$RESDIR/want.txt" "$RESDIR/got.txt"; then
        echo "results drift: \`reproduce $name --small\` differs from results/reproduce_small.txt;" \
            "regenerate it with \`reproduce all --small\`" >&2
        diff "$RESDIR/want.txt" "$RESDIR/got.txt" | head -n 10 >&2
        exit 1
    fi
done

if [ "${1:-}" = "--quick" ]; then
    echo "== skipping bench smoke (--quick)"
    exit 0
fi

# Smoke-run every bench target in quick mode; each writes BENCH_<name>.json
# at the workspace root.
for bench in clock_ops detector_throughput workload_overhead version_ablation trace_codec; do
    echo "== cargo bench $bench --quick"
    cargo bench -p pacer-bench --bench "$bench" -- --quick
done

# Clock-layer regression gate. On the synthetic full-rate replay, the
# stacked +arena layer must keep at least 90% of the in-run baseline's
# throughput, and +reuse at least 90% of +arena's (its no-reuse row):
# slot reuse has nothing to do there and must cost nothing. On hsqldb,
# whose 103 threads fit in 18 clock slots, +reuse's median must beat
# no-reuse's at both recorded rates. The bench times each input's rows
# round-robin, and the gate reads their medians over 11 rounds, not
# --quick's 5: the rounds cost under a second, and a burst of host noise
# then has to hit a row in 6 of them to move its median.
echo "== cargo bench clock_ablation --quick --samples 11"
cargo bench -p pacer-bench --bench clock_ablation -- --quick --samples 11
echo "== clock_ablation layer gate"
python3 - <<'EOF'
import json, sys

rows = {r["id"]: r for r in json.load(open("BENCH_clock_ablation.json"))["results"]}
eps = lambda row: rows[row]["events_per_sec"]
bad = []
for layer, below in (("+arena", "baseline"), ("+reuse", "+arena")):
    if eps(f"pacer@100%/{layer}") < 0.9 * eps(f"pacer@100%/{below}"):
        bad.append(
            f"clock layer `{layer}` regresses the full-rate replay: "
            f"{eps(f'pacer@100%/{layer}'):.0f} events/s < 90% of "
            f"`{below}` {eps(f'pacer@100%/{below}'):.0f}"
        )
for rate in ("3%", "100%"):
    reuse, plain = (rows[f"hsqldb@{rate}/{l}"]["median_ns"] for l in ("+reuse", "no-reuse"))
    if reuse >= plain:
        bad.append(
            f"slot reuse does not pay on hsqldb at r={rate}: "
            f"median {reuse:.0f} ns >= no-reuse {plain:.0f} ns"
        )
for line in bad:
    print(line, file=sys.stderr)
sys.exit(1 if bad else 0)
EOF

echo "== ci.sh OK"
