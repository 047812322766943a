//! Which panics the engines keep off stderr. The panics they catch and
//! record — shard drills, detector panics, fleet trial attempts — never
//! reach the panic hook; any other panic unwinds out of `run_service`
//! with its payload and reaches the hook installed before the engine ran.
//! The file holds one test so that it runs alone in its binary: it
//! replaces the process-wide panic hook.

use std::sync::{Arc, Mutex};

use pacer_faults::FaultPlan;
use pacer_harness::{
    run_resilient_fleet, run_service, serve_sessions, FleetEngineConfig, RetryPolicy, ServeConfig,
    ServeDetectorKind, ServeError,
};
use pacer_trace::gen::GenConfig;
use pacer_workloads::{hsqldb, Scale};

fn message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

#[test]
fn only_uncaught_panics_reach_the_installed_hook() {
    let seen = Arc::new(Mutex::new(Vec::<String>::new()));
    let record = Arc::clone(&seen);
    std::panic::set_hook(Box::new(move |info| {
        record.lock().unwrap().push(message(info.payload()));
    }));

    // Shard drills fire and are retried, but stay off the hook.
    let mut cfg = ServeConfig::new(ServeDetectorKind::FastTrack);
    cfg.fault_plan = Some(FaultPlan::parse("shard-panic every=3\n").unwrap());
    let trace = GenConfig::small(7).generate().to_binary();
    let served = serve_sessions(&cfg, vec![("drilled".to_string(), trace)], 1).unwrap();
    let restarts: u64 = served.shard_counters.iter().map(|c| c.shard_restarts).sum();
    assert!(restarts > 0, "the drill fired");
    assert!(served.transcript.contains("=== session drilled ==="));

    // Injected detector panics quarantine fleet trials, off the hook too.
    let program = hsqldb(Scale::Test).compiled();
    let plan = FaultPlan::parse("detector-panic every=2\n").unwrap();
    let fleet = run_resilient_fleet(&FleetEngineConfig {
        program: &program,
        instances: 4,
        rate: 0.25,
        base_seed: 3,
        policy: RetryPolicy { max_retries: 0 },
        plan: Some(&plan),
        ring_capacity: None,
        checkpoint: None,
        resume: None,
        governor: None,
    })
    .unwrap();
    assert!(fleet.quarantine.counters.injected > 0, "the plan fired");
    let caught = seen.lock().unwrap().clone();
    assert!(
        caught.is_empty(),
        "caught panics reached the hook: {caught:?}"
    );

    // A driver bug is no engine business: it unwinds out of
    // `run_service` with its payload, and the hook sees it.
    let unwound = std::panic::catch_unwind(|| {
        run_service(
            &ServeConfig::new(ServeDetectorKind::FastTrack),
            |_| -> Result<(), ServeError> { panic!("driver bug") },
        )
    });
    drop(std::panic::take_hook());
    let payload = unwound.expect_err("the driver's panic unwinds out of run_service");
    assert_eq!(message(payload.as_ref()), "driver bug");
    assert_eq!(*seen.lock().unwrap(), ["driver bug"]);
}
