//! The benchmark's inputs: each workload records its own traces with
//! `pacer record … --seed S` from the `pacer_workloads` programs, checks
//! them against the pinned identities, and takes `pacer replay`'s output
//! as the reference every later output must match byte for byte.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use pacer_core::PacerDetector;
use pacer_trace::{Action, AnyTraceReader, Detector, ValidatedActions};
use pacer_workloads::{Scale, Workload};

/// The seed whose input identities `inputs.pinned` records.
pub const DEFAULT_SEED: u64 = 1;

/// Event counts and fnv1a64 digests of every input at [`DEFAULT_SEED`].
const PINNED: &str = include_str!("inputs.pinned");

/// Builds a workload's program at a scale.
type Program = fn(Scale) -> Workload;

/// The four paper programs, in the order every pass replays them.
pub const PROGRAMS: [(&str, Program); 4] = [
    ("eclipse", pacer_workloads::eclipse),
    ("hsqldb", pacer_workloads::hsqldb),
    ("xalan", pacer_workloads::xalan),
    ("pseudojbb", pacer_workloads::pseudojbb),
];

/// One recorded input set: the four programs at one scale and rate.
#[derive(Clone, Copy, Debug)]
pub struct InputSet {
    /// The key in `inputs.pinned`.
    pub key: &'static str,
    pub scale: Scale,
    /// The `--rate` argument of `pacer record`.
    pub rate: &'static str,
}

pub const PAPER_R3: InputSet = InputSet {
    key: "paper-r3",
    scale: Scale::Paper,
    rate: "0.03",
};
pub const PAPER_R100: InputSet = InputSet {
    key: "paper-r100",
    scale: Scale::Paper,
    rate: "1.0",
};
pub const TEST_R3: InputSet = InputSet {
    key: "test-r3",
    scale: Scale::Test,
    rate: "0.03",
};

/// One recorded trace with everything the checks need.
pub struct Input {
    pub program: &'static str,
    /// The `.ptrace` file.
    pub path: PathBuf,
    pub bytes: Vec<u8>,
    pub events: u64,
    pub digest: u64,
    /// `pacer replay --detector pacer` stdout.
    pub reference: Vec<u8>,
    /// Byte ranges of the whole frames (header included), in order.
    pub frames: Vec<(usize, usize)>,
}

impl Input {
    /// The frames as the wire carries them.
    pub fn frame_slices(&self) -> Vec<&[u8]> {
        self.frames
            .iter()
            .map(|&(s, e)| &self.bytes[s..e])
            .collect()
    }
}

/// Decodes a `.ptrace` buffer completely.
pub fn decode(bytes: &[u8]) -> Result<Vec<Action>, String> {
    let mut reader = AnyTraceReader::new(bytes).map_err(|e| e.to_string())?;
    let actions = reader
        .by_ref()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    if reader.truncated() {
        return Err("trace ends mid-frame".into());
    }
    Ok(actions)
}

/// Runs `pacer` with `args` and returns its stdout.
pub fn pacer_output(pacer: &Path, args: &[&std::ffi::OsStr]) -> Result<Vec<u8>, String> {
    let out = Command::new(pacer)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", pacer.display()))?;
    if !out.status.success() {
        return Err(format!(
            "pacer {:?} failed ({}): {}",
            args,
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(out.stdout)
}

/// `(dynamic, distinct)` from a report's `N dynamic race report(s), M
/// distinct:` line.
pub fn race_counts(report: &[u8]) -> Option<(u64, u64)> {
    let text = std::str::from_utf8(report).ok()?;
    text.lines().find_map(|line| {
        let (dynamic, rest) = line.split_once(" dynamic race report(s), ")?;
        let distinct = rest.strip_suffix(" distinct:")?;
        Some((dynamic.parse().ok()?, distinct.parse().ok()?))
    })
}

/// Records the four programs of `set` into `dir` with `seed`, and
/// prepares each input's reference. Returns the inputs and the oracle
/// failures: a reference whose race counts differ from an in-process
/// [`PacerDetector`] run over the same decoded actions.
pub fn prepare(
    pacer: &Path,
    dir: &Path,
    set: InputSet,
    seed: u64,
) -> Result<(Vec<Input>, Vec<String>), String> {
    let mut inputs = Vec::new();
    let mut problems = Vec::new();
    for (program, workload) in PROGRAMS {
        let source = dir.join(format!("{program}.pl"));
        std::fs::write(&source, workload(set.scale).source)
            .map_err(|e| format!("cannot write {}: {e}", source.display()))?;
        let path = dir.join(format!("{program}.ptrace"));
        let seed_arg = seed.to_string();
        pacer_output(
            pacer,
            &[
                "record".as_ref(),
                source.as_os_str(),
                "--rate".as_ref(),
                set.rate.as_ref(),
                "--seed".as_ref(),
                seed_arg.as_ref(),
                "--out".as_ref(),
                path.as_os_str(),
            ],
        )?;
        let bytes =
            std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let actions = decode(&bytes).map_err(|e| format!("{program}: {e}"))?;
        let mut detector = PacerDetector::new();
        let mut validated = ValidatedActions::new(actions.iter().copied());
        for action in validated.by_ref() {
            detector.on_action(&action);
        }
        if let Some(e) = validated.error() {
            return Err(format!("{program}: recorded trace is invalid: {e}"));
        }
        let reference = pacer_output(
            pacer,
            &[
                "replay".as_ref(),
                path.as_os_str(),
                "--detector".as_ref(),
                "pacer".as_ref(),
            ],
        )?;
        let oracle = (
            detector.races().len() as u64,
            detector.distinct_races().len() as u64,
        );
        match race_counts(&reference) {
            Some(counts) if counts == oracle => {}
            other => problems.push(format!(
                "{program}: `pacer replay` reports (dynamic, distinct) = {other:?}, \
                 the in-process detector {oracle:?}"
            )),
        }
        let split = pacer_trace::binary::split_frames(&bytes)
            .map_err(|e| format!("{program}: cannot split frames: {e}"))?;
        inputs.push(Input {
            program,
            path,
            events: actions.len() as u64,
            digest: pacer_collections::fnv1a64(&bytes),
            reference,
            frames: split.frames.iter().map(|f| (f.start, f.end)).collect(),
            bytes,
        });
    }
    Ok((inputs, problems))
}

/// The pinned `(events, digest)` of `program` in input set `key`.
fn pinned(key: &str, program: &str) -> Option<(u64, u64)> {
    PINNED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        if f.next()? != key || f.next()? != program {
            return None;
        }
        let events = f.next()?.parse().ok()?;
        let digest = u64::from_str_radix(f.next()?.strip_prefix("0x")?, 16).ok()?;
        Some((events, digest))
    })
}

/// The identity line of one input, in `inputs.pinned` format.
pub fn identity_line(set: InputSet, input: &Input) -> String {
    format!(
        "{} {} {} {:#018x}",
        set.key, input.program, input.events, input.digest
    )
}

/// Checks the inputs against the pinned identities when `seed` is
/// [`DEFAULT_SEED`]: results are only comparable across commits that
/// benchmark identical inputs. Other seeds print their identities.
///
/// # Errors
///
/// The mismatch report, when an identity differs from its pin.
pub fn check_identity(set: InputSet, inputs: &[Input], seed: u64) -> Result<(), String> {
    if seed != DEFAULT_SEED {
        for input in inputs {
            eprintln!("input {}", identity_line(set, input));
        }
        return Ok(());
    }
    let mismatches: Vec<String> = inputs
        .iter()
        .filter(|i| pinned(set.key, i.program) != Some((i.events, i.digest)))
        .map(|i| format!("  got    {}", identity_line(set, i)))
        .collect();
    if mismatches.is_empty() {
        return Ok(());
    }
    Err(format!(
        "inputs changed: this commit alters `pacer record` output\n{}\n  \
         (pinned in crates/bench/src/bin/pacerbench/inputs.pinned for --seed {DEFAULT_SEED})",
        mismatches.join("\n")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn race_counts_parse_the_report_line() {
        let report = b"replaying 9 actions (5 accesses, 4 sync ops, 2 threads)\n\n\
                       12 dynamic race report(s), 3 distinct:\n  s1  <->  s2\n";
        assert_eq!(race_counts(report), Some((12, 3)));
        assert_eq!(race_counts(b"replaying 0 actions\n"), None);
    }

    #[test]
    fn every_input_of_every_set_is_pinned() {
        for set in [PAPER_R3, PAPER_R100, TEST_R3] {
            for (program, _) in PROGRAMS {
                assert!(pinned(set.key, program).is_some(), "{} {program}", set.key);
            }
        }
        assert_eq!(pinned("paper-r3", "nonesuch"), None);
    }
}
