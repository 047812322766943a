//! End-to-end resilience acceptance tests, via the `pacer` CLI: a fault
//! campaign completes deterministically with quarantines (exit code 2),
//! and a killed-then-resumed fleet reproduces its artifacts byte for
//! byte (see RESILIENCE.md).

use pacer_cli::run;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// A racy workload that also allocates, so `heap-oom` budgets trigger.
const RACY_ALLOCATING: &str = "
    shared x;
    fn w() {
        let i = 0;
        while (i < 50) {
            let o = new obj;
            o.f = i;
            x = x + 1;
            i = i + 1;
        }
    }
    fn main() { let a = spawn w(); let b = spawn w(); join a; join b; }
";

/// A racy workload heavy enough to cross several full-GC boundaries
/// (nursery 2 KiB, full GC every 8 collections → one governed boundary
/// per ~16 KiB allocated), so an armed governor gets to walk its rate
/// ladder: two threads × 800 objects × 64 bytes ≈ 100 KiB.
const RACY_HEAVY: &str = "
    shared x;
    fn w() {
        let i = 0;
        while (i < 800) {
            let o = new obj;
            o.f = i;
            x = x + 1;
            i = i + 1;
        }
    }
    fn main() { let a = spawn w(); let b = spawn w(); join a; join b; }
";

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pacer-resilience-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &std::path::Path, name: &str, content: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path.to_string_lossy().into_owned()
}

#[test]
fn fault_campaign_completes_with_deterministic_quarantines() {
    let dir = temp_dir("campaign");
    let program = write(&dir, "racy.pl", RACY_ALLOCATING);
    // detector-panic targets trials 0, 3, 6; heap-oom targets 0 and 4.
    // Both fire on every attempt, so the targeted trials exhaust their
    // retries and quarantine: {0, 3, 4, 6}.
    let plan = write(
        &dir,
        "campaign.plan",
        "detector-panic every=3\nheap-oom budget=64 every=4\n",
    );
    let base = &[
        "fleet",
        &program,
        "--instances",
        "8",
        "--rate",
        "0.25",
        "--seed",
        "3",
        "--fault-plan",
        &plan,
        "--max-retries",
        "1",
    ];

    let seq = run(&args(&[base, &["--jobs", "1"][..]].concat())).unwrap();
    let par = run(&args(&[base, &["--jobs", "4"][..]].concat())).unwrap();

    assert_eq!(seq.code, 2, "completed-with-quarantines exits 2: {seq}");
    assert!(
        seq.contains("quarantined=4"),
        "trials 0, 3, 4, 6 quarantine: {seq}"
    );
    for trial in ["trial 0 ", "trial 3 ", "trial 4 ", "trial 6 "] {
        assert!(seq.contains(trial), "missing {trial}: {seq}");
    }
    assert!(
        seq.contains("injected: "),
        "failures carry the marker: {seq}"
    );
    assert_eq!(seq, par, "fault campaigns are byte-identical at any --jobs");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn governed_fleet_is_byte_identical_at_any_job_count() {
    let dir = temp_dir("governed-jobs");
    let program = write(&dir, "heavy.pl", RACY_HEAVY);
    // Both runs write the same artifact paths, so the printed output is
    // comparable verbatim; the first run's artifact bytes are captured
    // before the second run overwrites them.
    let metrics = dir.join("gov.json").to_string_lossy().into_owned();
    let trace = dir.join("gov.jsonl").to_string_lossy().into_owned();
    let governed = |jobs: &str| {
        run(&args(&[
            "fleet",
            &program,
            "--instances",
            "6",
            "--rate",
            "0.25",
            "--seed",
            "5",
            "--mem-budget",
            "128",
            "--metrics-out",
            &metrics,
            "--trace-out",
            &trace,
            "--jobs",
            jobs,
        ]))
        .unwrap()
    };

    let seq = governed("1");
    let m_seq = std::fs::read_to_string(&metrics).unwrap();
    let t_seq = std::fs::read_to_string(&trace).unwrap();
    let par = governed("4");

    assert!(seq.contains("governor:"), "armed governor reports: {seq}");
    assert!(
        !seq.contains("steps_down=0"),
        "metadata pressure walks the rate ladder: {seq}"
    );
    assert!(
        seq.contains("finished at reduced rate"),
        "degraded trials finish instead of quarantining: {seq}"
    );
    assert_eq!(seq.code, 0, "rate-degraded-but-finished is success: {seq}");
    assert_eq!(seq, par, "governed fleets are byte-identical at any --jobs");
    assert_eq!(
        m_seq,
        std::fs::read_to_string(&metrics).unwrap(),
        "governed metrics snapshot is byte-identical at any --jobs"
    );
    assert_eq!(
        t_seq,
        std::fs::read_to_string(&trace).unwrap(),
        "governed event trace is byte-identical at any --jobs"
    );
    assert!(
        m_seq.contains("\"governor\""),
        "metrics carry the governor counter block"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn armed_governor_degrades_heap_oom_plan_instead_of_quarantining() {
    let dir = temp_dir("governed-oom");
    let program = write(&dir, "heavy.pl", RACY_HEAVY);
    // Every trial gets a 6 KiB injected heap budget; the workload
    // allocates ~100 KiB, so ungoverned trials hit a hard InjectedOom.
    let plan = write(&dir, "oom.plan", "heap-oom budget=6000 every=1\n");
    let base = &[
        "fleet",
        &program,
        "--instances",
        "4",
        "--rate",
        "0.25",
        "--seed",
        "11",
        "--fault-plan",
        &plan,
        "--max-retries",
        "1",
    ];

    // Ungoverned: the OOM fires on every attempt and all trials quarantine.
    let plain = run(&args(base)).unwrap();
    assert_eq!(plain.code, 2, "{plain}");
    assert!(plain.contains("quarantined=4"), "{plain}");

    // Armed governor: the injected heap budget becomes governor-managed
    // memory pressure at GC boundaries. The rate walks down the ladder and
    // the trials end in a clean cooperative cancellation at the floor —
    // degraded coverage (still exit 2), but zero quarantines.
    let metrics = dir.join("gov.json").to_string_lossy().into_owned();
    let trace = dir.join("gov.jsonl").to_string_lossy().into_owned();
    let governed = run(&args(
        &[
            base,
            &[
                "--mem-budget",
                "100000000",
                "--metrics-out",
                &metrics,
                "--trace-out",
                &trace,
            ][..],
        ]
        .concat(),
    ))
    .unwrap();

    assert_eq!(governed.code, 2, "cancelled trials exit 2: {governed}");
    assert!(governed.contains("quarantined=0"), "{governed}");
    assert!(
        governed.contains("cancelled at floor rate"),
        "trials cancel cleanly at the ladder floor: {governed}"
    );
    let m = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        m.contains("\"governor\": {\"steps_down\":"),
        "metrics carry governor counters: {m}"
    );
    assert!(
        !m.contains("\"cancelled\":0}"),
        "cancelled counter is nonzero: {m}"
    );
    let t = std::fs::read_to_string(&trace).unwrap();
    assert!(
        t.contains("trial_degraded"),
        "trace records degradations instead of quarantines"
    );
    assert!(
        t.contains("rate_stepped") && t.contains("budget_breach"),
        "per-boundary governor decisions are traced"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_fleet_resumes_byte_identically() {
    let dir = temp_dir("resume");
    let program = write(&dir, "racy.pl", RACY_ALLOCATING);
    let journal = dir.join("fleet.journal").to_string_lossy().into_owned();
    let fleet = |extra: &[&str]| {
        let head = [
            "fleet",
            program.as_str(),
            "--instances",
            "6",
            "--rate",
            "0.25",
            "--seed",
            "7",
        ];
        run(&args(&[&head[..], extra].concat())).unwrap()
    };
    let artifacts = |tag: &str| {
        let m = dir
            .join(format!("{tag}.json"))
            .to_string_lossy()
            .into_owned();
        let t = dir
            .join(format!("{tag}.jsonl"))
            .to_string_lossy()
            .into_owned();
        (m, t)
    };

    // Reference: one uninterrupted observed run.
    let (m_full, t_full) = artifacts("full");
    fleet(&["--metrics-out", &m_full, "--trace-out", &t_full]);

    // "Crash": checkpoint a run, then chop the journal mid-entry, as a
    // kill -9 during an append would.
    let (m_tmp, t_tmp) = artifacts("tmp");
    fleet(&[
        "--checkpoint",
        &journal,
        "--metrics-out",
        &m_tmp,
        "--trace-out",
        &t_tmp,
    ]);
    let bytes = std::fs::read(&journal).unwrap();
    assert!(bytes.len() > 300, "journal has content");
    std::fs::write(&journal, &bytes[..bytes.len() - 300]).unwrap();

    // Resume: only the missing trials re-run, and the merged artifacts
    // are byte-identical to the uninterrupted run's.
    let (m_res, t_res) = artifacts("res");
    let resumed = fleet(&[
        "--resume",
        &journal,
        "--metrics-out",
        &m_res,
        "--trace-out",
        &t_res,
    ]);
    assert_eq!(resumed.code, 0);
    assert!(resumed.contains("resumed"), "{resumed}");
    assert_eq!(
        std::fs::read_to_string(&m_full).unwrap(),
        std::fs::read_to_string(&m_res).unwrap(),
        "metrics snapshot is byte-identical after kill + resume"
    );
    assert_eq!(
        std::fs::read_to_string(&t_full).unwrap(),
        std::fs::read_to_string(&t_res).unwrap(),
        "event trace is byte-identical after kill + resume"
    );

    // A second resume finds the journal complete and re-runs nothing,
    // still reproducing the same artifacts.
    let (m_again, t_again) = artifacts("again");
    let again = fleet(&[
        "--resume",
        &journal,
        "--metrics-out",
        &m_again,
        "--trace-out",
        &t_again,
    ]);
    assert!(again.contains("resumed 6 completed trial(s)"), "{again}");
    assert_eq!(
        std::fs::read_to_string(&m_full).unwrap(),
        std::fs::read_to_string(&m_again).unwrap()
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Kill-and-resume for the streaming service journal (SERVICE.md): a
/// serve run dies mid-ingest (its checkpoint journal torn mid-append, as
/// a kill -9 would leave it), is resumed with the full session stream,
/// and the merged transcript comes out byte-identical to an
/// uninterrupted run — even at a different shard count.
#[test]
fn killed_serve_resumes_byte_identically() {
    use pacer_trace::gen::GenConfig;

    let dir = temp_dir("serve-resume");
    let journal = dir.join("serve.journal").to_string_lossy().into_owned();

    let sessions: Vec<(String, Vec<u8>)> = (0..4)
        .map(|i| {
            let trace = GenConfig::small(300 + i)
                .with_lock_discipline(0.2)
                .generate();
            (format!("sess{i}"), trace.to_binary())
        })
        .collect();
    let frames_file = |name: &str, count: usize| {
        let mut frames = Vec::new();
        for (session, bytes) in &sessions[..count] {
            frames.extend_from_slice(format!("SESSION {session} {}\n", bytes.len()).as_bytes());
            frames.extend_from_slice(bytes);
        }
        let path = dir.join(name);
        std::fs::write(&path, frames).unwrap();
        path.to_string_lossy().into_owned()
    };
    let full = frames_file("full.frames", 4);
    let partial = frames_file("partial.frames", 2);

    // Reference: one uninterrupted run.
    let reference = run(&args(&["serve", "--stdin", &full, "--shards", "4"])).unwrap();
    assert_eq!(reference.code, 0, "{reference}");

    // "Crash": checkpoint a run that only got through two sessions, then
    // tear the journal mid-entry.
    let interrupted = run(&args(&[
        "serve",
        "--stdin",
        &partial,
        "--shards",
        "4",
        "--checkpoint",
        &journal,
    ]))
    .unwrap();
    assert_eq!(interrupted.code, 0, "{interrupted}");
    let bytes = std::fs::read(&journal).unwrap();
    assert!(bytes.len() > 40, "journal has content");
    std::fs::write(&journal, &bytes[..bytes.len() - 40]).unwrap();

    // Resume with the full stream at a different shard count: the
    // journaled session is restored verbatim, the torn one re-ingests,
    // and the transcript is byte-identical to the uninterrupted run.
    let resumed = run(&args(&[
        "serve", "--stdin", &full, "--shards", "2", "--resume", &journal,
    ]))
    .unwrap();
    assert_eq!(resumed.code, 0, "{resumed}");
    assert_eq!(
        reference.text, resumed.text,
        "kill + resume reproduces the uninterrupted transcript"
    );

    // A second resume restores everything and re-ingests nothing new,
    // still reproducing the same transcript.
    let again = run(&args(&[
        "serve", "--stdin", &full, "--shards", "8", "--resume", &journal,
    ]))
    .unwrap();
    assert_eq!(reference.text, again.text);

    std::fs::remove_dir_all(&dir).ok();
}

/// The kill-during-checkpoint drill again, this time with a chaos plan
/// armed on every leg: shard panics during the partial run, during the
/// resume, and during the reference-free re-resume. Supervised drill
/// retries plus the checksummed journal must still reproduce the
/// fault-free transcript byte for byte.
#[test]
fn torn_journal_resume_is_byte_identical_under_shard_panics() {
    use pacer_trace::gen::GenConfig;

    let dir = temp_dir("serve-chaos-resume");
    let journal = dir.join("serve.journal").to_string_lossy().into_owned();
    let plan = dir.join("plan.faults");
    std::fs::write(&plan, "shard-panic every=3\n").unwrap();
    let plan = plan.to_string_lossy().into_owned();

    let sessions: Vec<(String, Vec<u8>)> = (0..5)
        .map(|i| {
            let trace = GenConfig::small(8800 + i)
                .with_lock_discipline(0.3)
                .generate();
            (format!("sess{i}"), trace.to_binary())
        })
        .collect();
    let frames_file = |name: &str, count: usize| {
        let mut frames = Vec::new();
        for (session, bytes) in &sessions[..count] {
            frames.extend_from_slice(format!("SESSION {session} {}\n", bytes.len()).as_bytes());
            frames.extend_from_slice(bytes);
        }
        let path = dir.join(name);
        std::fs::write(&path, frames).unwrap();
        path.to_string_lossy().into_owned()
    };
    let full = frames_file("full.frames", 5);
    let partial = frames_file("partial.frames", 3);

    // Reference: uninterrupted and fault-free.
    let reference = run(&args(&["serve", "--stdin", &full, "--shards", "4"])).unwrap();
    assert_eq!(reference.code, 0, "{reference}");

    // "Crash" mid-campaign: a faulted run checkpoints three sessions,
    // then the journal is torn mid-entry as a kill -9 would leave it.
    let interrupted = run(&args(&[
        "serve",
        "--stdin",
        &partial,
        "--shards",
        "4",
        "--checkpoint",
        &journal,
        "--fault-plan",
        &plan,
    ]))
    .unwrap();
    assert_eq!(interrupted.code, 0, "{interrupted}");
    let bytes = std::fs::read(&journal).unwrap();
    assert!(bytes.len() > 40, "journal has content");
    std::fs::write(&journal, &bytes[..bytes.len() - 40]).unwrap();

    // Resume the full stream with the same chaos plan still armed, at a
    // different shard count: restored sessions come back verbatim, the
    // torn one re-ingests under injected panics, and the transcript
    // matches the fault-free reference exactly.
    let resumed = run(&args(&[
        "serve",
        "--stdin",
        &full,
        "--shards",
        "2",
        "--resume",
        &journal,
        "--fault-plan",
        &plan,
    ]))
    .unwrap();
    assert_eq!(resumed.code, 0, "{resumed}");
    assert_eq!(
        reference.text, resumed.text,
        "chaos + kill + resume reproduces the fault-free transcript"
    );

    std::fs::remove_dir_all(&dir).ok();
}
