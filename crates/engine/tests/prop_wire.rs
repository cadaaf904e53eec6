//! The `aqed-serve` wire decoder never panics. `verify` command lines
//! built from valid requests are cut short or have bytes replaced,
//! inserted or deleted, numbers swapped for extreme ones and brackets
//! piled up; each is decoded lossily, parsed, and read as a request.
//! Every input must give an error or a request.

use aqed_engine::{BackendKind, VerifyRequest};
use aqed_obs::json::{self, Json};
use proptest::prelude::*;
use std::time::Duration;

const CASES: &[&str] = &["aes_v1", "dataflow_fifo_sizing", "lb_tap_off_by_one", "x"];

/// Numbers a hostile client might put in any numeric field.
const EXTREME_NUMBERS: &[&str] = &[
    "0",
    "-0",
    "-1",
    "0.5",
    "5e-324",
    "1e20",
    "1e300",
    "1e999",
    "9007199254740993",
    "18446744073709551616",
];

/// Bytes that steer a replacement or insertion towards JSON structure.
const JSON_BYTES: &[u8] = b"{}[]\",:0123456789-+.eEtrufalsn\\ ";

fn request_strategy() -> impl Strategy<Value = VerifyRequest> {
    (
        (0..CASES.len(), any::<bool>(), 0usize..40, 1usize..9),
        (any::<bool>(), 1usize..9, 0u64..600, 0u64..100_000),
        (any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |(
                (case, healthy, bound, jobs),
                (portfolio, workers, timeout, budget),
                (fail_fast, preprocess, coi),
            )| {
                let mut r = VerifyRequest::new(CASES[case]);
                r.healthy = healthy;
                r.bound = (bound > 0).then_some(bound);
                r.jobs = jobs;
                if portfolio {
                    r.backend = BackendKind::Portfolio;
                }
                r.portfolio_workers = workers;
                r.timeout = (timeout > 0).then(|| Duration::from_secs(timeout));
                r.conflict_budget = (budget > 0).then_some(budget);
                r.fail_fast = fail_fast;
                r.preprocess = preprocess;
                r.coi = coi;
                r
            },
        )
}

/// The command line a client sends for `req`.
fn command_line(req: &VerifyRequest) -> Vec<u8> {
    let cmd = Json::obj(vec![
        ("cmd", Json::Str("verify".into())),
        ("request", req.to_json()),
    ]);
    cmd.to_string().into_bytes()
}

/// Decodes a line the way the daemon does: lossy UTF-8, JSON, then the
/// `request` object. A mutation may also leave a bare request, so the
/// outer object is read as one too. `None` when no request object
/// parses.
fn decode(line: &[u8]) -> Option<Result<VerifyRequest, String>> {
    let text = String::from_utf8_lossy(line);
    let msg = json::parse(text.trim()).ok()?;
    let _ = VerifyRequest::from_json(&msg);
    Some(VerifyRequest::from_json(msg.get("request")?))
}

/// Applies one mutation: `kind` picks what, `at` where, `byte` with
/// what.
fn mutate(line: &mut Vec<u8>, kind: u8, at: usize, byte: u8) {
    let pick = |b: u8| {
        if b < 128 {
            JSON_BYTES[usize::from(b) % JSON_BYTES.len()]
        } else {
            b
        }
    };
    let pos = at % (line.len() + 1);
    match kind {
        0 if pos < line.len() => line[pos] = pick(byte),
        1 => line.insert(pos, pick(byte)),
        2 if pos < line.len() => {
            line.remove(pos);
        }
        3 => {
            // Swap one digit run for an extreme number.
            let runs: Vec<(usize, usize)> = digit_runs(line);
            if let Some(&(start, end)) = runs.get(at % runs.len().max(1)) {
                let num = EXTREME_NUMBERS[usize::from(byte) % EXTREME_NUMBERS.len()];
                line.splice(start..end, num.bytes());
            }
        }
        _ => {
            let open = if byte.is_multiple_of(2) { b'[' } else { b'{' };
            let count = 100 + usize::from(byte);
            line.splice(pos..pos, std::iter::repeat_n(open, count));
        }
    }
}

/// `[start, end)` of every maximal run of ASCII digits.
fn digit_runs(line: &[u8]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < line.len() {
        if line[i].is_ascii_digit() {
            let start = i;
            while i < line.len() && line[i].is_ascii_digit() {
                i += 1;
            }
            runs.push((start, i));
        } else {
            i += 1;
        }
    }
    runs
}

/// What every decoded request satisfies: the decoder's own clamps.
fn well_formed(req: &VerifyRequest) -> bool {
    req.jobs >= 1 && req.portfolio_workers >= 1 && req.timeout.is_none_or(|t| !t.is_zero())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// A valid line decodes to its request; every prefix of it decodes
    /// to an error or a request.
    #[test]
    fn truncated_lines_never_panic(req in request_strategy(), cut in any::<usize>()) {
        let line = command_line(&req);
        prop_assert_eq!(decode(&line), Some(Ok(req)));
        let prefix = &line[..cut % (line.len() + 1)];
        if let Some(Ok(got)) = decode(prefix) {
            prop_assert!(well_formed(&got), "{:?}", got);
        }
    }

    /// Lines with one to six mutations, then optionally cut short,
    /// decode to an error or a request.
    #[test]
    fn mutated_lines_never_panic(
        req in request_strategy(),
        edits in prop::collection::vec((0u8..5, any::<usize>(), any::<u8>()), 1..7),
        cut in any::<usize>(),
        truncate in any::<bool>(),
    ) {
        let mut line = command_line(&req);
        for (kind, at, byte) in edits {
            mutate(&mut line, kind, at, byte);
        }
        if truncate {
            line.truncate(cut % (line.len() + 1));
        }
        if let Some(Ok(got)) = decode(&line) {
            prop_assert!(well_formed(&got), "{:?}", got);
        }
    }
}

/// Extreme values in each numeric field are rejected or clamped, never
/// a panic.
#[test]
fn extreme_numbers_in_every_field() {
    for field in [
        "bound",
        "jobs",
        "portfolio_workers",
        "timeout_secs",
        "conflict_budget",
    ] {
        for num in EXTREME_NUMBERS {
            let line = format!(r#"{{"cmd":"verify","request":{{"case":"x","{field}":{num}}}}}"#);
            if let Some(Ok(got)) = decode(line.as_bytes()) {
                assert!(well_formed(&got), "{line}: {got:?}");
            }
        }
    }
    // A timeout beyond what `Duration` holds is an error.
    let line = br#"{"cmd":"verify","request":{"case":"x","timeout_secs":1e20}}"#;
    assert!(matches!(decode(line), Some(Err(_))));
}
