//! The hand-written reference verdicts (`expected_verdicts.tsv`) and the
//! comparison that counts `wrong_verdicts`.

use aqed_core::{CheckOutcome, ParallelVerifyReport};
use aqed_engine::{EngineError, VerifyOutcome};
use aqed_obs::json::Json;
use std::collections::HashMap;

/// A definitive verdict, in the terms the reference file records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A counterexample: property (`FC`/`RB`), bad name, depth.
    Bug {
        property: String,
        bad: String,
        depth: usize,
    },
    /// No violation up to this bound.
    Clean(usize),
}

impl Verdict {
    /// The verdict of an in-process report, or a description of why the
    /// run was not definitive (inconclusive, errored, degraded).
    pub fn of_report(report: &ParallelVerifyReport) -> Result<Verdict, String> {
        if report.degraded {
            return Err(format!("degraded run: {report}"));
        }
        match &report.outcome {
            CheckOutcome::Bug {
                property,
                counterexample,
            } => Ok(Verdict::Bug {
                property: property.to_string(),
                bad: counterexample.bad_name.clone(),
                depth: counterexample.depth,
            }),
            CheckOutcome::Clean { bound } => Ok(Verdict::Clean(*bound)),
            other => Err(format!("{other:?}")),
        }
    }

    /// The verdict of an `Engine::verify` call.
    pub fn of_engine(out: Result<VerifyOutcome, EngineError>) -> Result<Verdict, String> {
        out.map_err(|e| e.to_string())
            .and_then(|o| Verdict::of_report(&o.report))
    }

    /// The verdict of a served report's JSON (`job.done` → `report`).
    pub fn of_report_json(report: &Json) -> Result<Verdict, String> {
        let outcome = report.get("outcome").ok_or("report has no outcome")?;
        let field = |k: &str| outcome.get(k);
        let num = |k: &str| field(k).and_then(Json::as_u64).map(|v| v as usize);
        let text = |k: &str| field(k).and_then(Json::as_str).map(str::to_string);
        if report.get("degraded").and_then(Json::as_bool) == Some(true) {
            return Err("degraded run".into());
        }
        match field("verdict").and_then(Json::as_str) {
            Some("bug") => Ok(Verdict::Bug {
                property: text("property").ok_or("bug without property")?,
                bad: text("bad_name").ok_or("bug without bad_name")?,
                depth: num("depth").ok_or("bug without depth")?,
            }),
            Some("clean") => Ok(Verdict::Clean(num("bound").ok_or("clean without bound")?)),
            other => Err(format!("verdict {other:?}")),
        }
    }
}

/// The reference table, keyed by `(case, healthy, bound)`.
#[derive(Debug)]
pub struct Expected(HashMap<(String, bool, usize), Verdict>);

/// The reference file, compiled into the binary.
const REFERENCE: &str = include_str!("../expected_verdicts.tsv");

impl Expected {
    /// The compiled-in reference.
    ///
    /// # Panics
    ///
    /// Panics if the checked-in file is malformed (a unit test pins it).
    #[must_use]
    pub fn reference() -> Expected {
        Expected::parse(REFERENCE).expect("expected_verdicts.tsv is well-formed")
    }

    /// Parses the tab-separated reference format; `#` starts a comment
    /// line.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut rows = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let at = n + 1;
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let cols: Vec<&str> = line.split('\t').collect();
            let [case, variant, bound, verdict, property, bad, depth] = cols[..] else {
                return Err(format!("line {at}: expected 7 tab-separated columns"));
            };
            let healthy = match variant {
                "buggy" => false,
                "healthy" => true,
                other => return Err(format!("line {at}: unknown variant '{other}'")),
            };
            let bound: usize = bound
                .parse()
                .map_err(|_| format!("line {at}: bound '{bound}' is not a number"))?;
            let v = match (verdict, property, bad, depth) {
                ("clean", "-", "-", "-") => Verdict::Clean(bound),
                ("bug", "FC" | "RB", _, _) if !bad.is_empty() && bad != "-" => Verdict::Bug {
                    property: property.to_string(),
                    bad: bad.to_string(),
                    depth: depth
                        .parse()
                        .map_err(|_| format!("line {at}: depth '{depth}' is not a number"))?,
                },
                _ => return Err(format!("line {at}: malformed verdict columns")),
            };
            if rows.insert((case.to_string(), healthy, bound), v).is_some() {
                return Err(format!("line {at}: duplicate row for {case}"));
            }
        }
        Ok(Expected(rows))
    }

    /// The reference verdict of one request, if the file has a row.
    #[must_use]
    pub fn get(&self, case: &str, healthy: bool, bound: usize) -> Option<&Verdict> {
        self.0.get(&(case.to_string(), healthy, bound))
    }
}

/// How one checked request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// The definitive verdict matches the reference.
    Right,
    /// A definitive verdict that differs from the reference (or a
    /// request the reference does not cover).
    Wrong,
    /// No definitive verdict (inconclusive, errored, rejected, transport
    /// failure).
    Failed,
}

/// Tallies of checked requests.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub wrong: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one checked request, logging mismatches to stderr.
    pub fn note(&mut self, check: Check, what: &str) {
        self.attempted += 1;
        match check {
            Check::Right => {}
            Check::Wrong => {
                self.wrong += 1;
                eprintln!("aqedbench: wrong verdict: {what}");
            }
            Check::Failed => {
                self.failed += 1;
                eprintln!("aqedbench: failed request: {what}");
            }
        }
    }
}

/// Compares an observed outcome with the reference row (or with a cold
/// reference verdict, for edited designs the file cannot list).
#[must_use]
pub fn check(expected: Option<&Verdict>, got: &Result<Verdict, String>) -> Check {
    match (expected, got) {
        (_, Err(_)) => Check::Failed,
        (Some(want), Ok(v)) if want == v => Check::Right,
        _ => Check::Wrong,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_reference_parses() {
        let e = Expected::reference();
        assert_eq!(
            e.get("lb_tap_off_by_one", false, 16),
            Some(&Verdict::Bug {
                property: "FC".into(),
                bad: "aqed_fc_violation".into(),
                depth: 7
            })
        );
        assert_eq!(e.get("gsm_acc_race", true, 10), Some(&Verdict::Clean(10)));
        assert_eq!(e.get("gsm_acc_race", true, 12), None);
    }

    #[test]
    fn parser_accepts_comments_and_both_verdict_kinds() {
        let text = "# header\n\nx\tbuggy\t4\tbug\tRB\taqed_rb_missing_output\t3\n\
                    x\thealthy\t4\tclean\t-\t-\t-\n";
        let e = Expected::parse(text).expect("valid");
        assert_eq!(
            e.get("x", false, 4),
            Some(&Verdict::Bug {
                property: "RB".into(),
                bad: "aqed_rb_missing_output".into(),
                depth: 3
            })
        );
        assert_eq!(e.get("x", true, 4), Some(&Verdict::Clean(4)));
    }

    #[test]
    fn parser_rejects_malformed_rows() {
        for bad in [
            "x\tbuggy\t4\tbug\tFC\taqed_fc_violation",     // 6 columns
            "x\tweird\t4\tclean\t-\t-\t-",                 // variant
            "x\tbuggy\tfour\tclean\t-\t-\t-",              // bound
            "x\tbuggy\t4\tbug\tSAC\taqed_fc_violation\t1", // property
            "x\tbuggy\t4\tbug\tFC\t-\t1",                  // bad name
            "x\tbuggy\t4\tbug\tFC\taqed_fc_violation\tdeep", // depth
            "x\tbuggy\t4\tclean\tFC\t-\t-",                // clean with property
            "x\thealthy\t4\tclean\t-\t-\t-\nx\thealthy\t4\tclean\t-\t-\t-", // duplicate
        ] {
            assert!(Expected::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn check_separates_wrong_from_failed() {
        let want = Verdict::Clean(8);
        assert_eq!(check(Some(&want), &Ok(Verdict::Clean(8))), Check::Right);
        assert_eq!(check(Some(&want), &Ok(Verdict::Clean(6))), Check::Wrong);
        assert_eq!(check(None, &Ok(Verdict::Clean(8))), Check::Wrong);
        assert_eq!(
            check(Some(&want), &Err("inconclusive".into())),
            Check::Failed
        );
    }

    #[test]
    fn served_report_json_decodes() {
        let j = aqed_obs::json::parse(
            r#"{"outcome":{"verdict":"bug","property":"FC","bad_name":"aqed_fc_violation","depth":7},"degraded":false}"#,
        )
        .expect("json");
        assert_eq!(
            Verdict::of_report_json(&j),
            Ok(Verdict::Bug {
                property: "FC".into(),
                bad: "aqed_fc_violation".into(),
                depth: 7
            })
        );
        let j = aqed_obs::json::parse(r#"{"outcome":{"verdict":"inconclusive"}}"#).expect("json");
        assert!(Verdict::of_report_json(&j).is_err());
    }
}
