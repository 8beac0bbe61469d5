//! The `/status` board: a typed, lock-protected mirror of live campaign
//! state, rendered as one stable JSON document.
//!
//! The board is deliberately dumb: setters overwrite fields, counters
//! accumulate, and `render_json` serializes whatever is there with a
//! hand-rolled writer (insertion-ordered keys, no dependencies). The
//! trace → board translation lives in `minpsid-trace`'s bridge observer;
//! this crate never sees a trace event.

use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Live view of one campaign (one workload being screened).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignView {
    pub workload: String,
    pub kind: String,
    pub done: u64,
    pub total: u64,
    pub sdc: u64,
    pub benign: u64,
    pub crash: u64,
    pub timeout: u64,
    /// Wall-clock elapsed in the campaign so far, microseconds.
    pub elapsed_us: u64,
    /// Estimated remaining microseconds (linear extrapolation from the
    /// engine's plan); `None` until at least one injection completes.
    pub eta_us: Option<u64>,
    /// Completeness score in [0, 1] once the scheduler reports one.
    pub completeness: Option<f64>,
    pub finished: bool,
}

/// One quarantined injection site.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuarantineEntry {
    pub workload: String,
    pub site: String,
    pub failures: u64,
}

#[derive(Debug, Default)]
struct BoardState {
    tool: String,
    campaigns: Vec<CampaignView>,
    quarantine: Vec<QuarantineEntry>,
    retries: u64,
    early_stops: u64,
    deadline_truncations: u64,
}

/// Cap on the quarantine list kept in memory: `/status` is a live
/// snapshot, not an archive (the WAL has the full record).
const QUARANTINE_CAP: usize = 64;

/// The shared status board. One per process; the HTTP server holds an
/// `Arc` and renders on demand.
#[derive(Debug, Default)]
pub struct StatusBoard {
    state: Mutex<BoardState>,
}

impl StatusBoard {
    pub fn new() -> StatusBoard {
        StatusBoard::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BoardState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record the tool banner (name/version) shown in the document head.
    pub fn set_tool(&self, tool: &str) {
        self.lock().tool = tool.to_string();
    }

    /// Upsert a campaign view keyed by (workload, kind).
    pub fn upsert_campaign(&self, view: CampaignView) {
        let mut st = self.lock();
        match st
            .campaigns
            .iter_mut()
            .find(|c| c.workload == view.workload && c.kind == view.kind)
        {
            Some(slot) => *slot = view,
            None => st.campaigns.push(view),
        }
    }

    /// Append a quarantine entry (bounded; oldest dropped past the cap).
    pub fn push_quarantine(&self, entry: QuarantineEntry) {
        let mut st = self.lock();
        st.quarantine.push(entry);
        if st.quarantine.len() > QUARANTINE_CAP {
            let excess = st.quarantine.len() - QUARANTINE_CAP;
            st.quarantine.drain(..excess);
        }
    }

    pub fn add_retry(&self) {
        self.lock().retries += 1;
    }

    pub fn add_early_stop(&self) {
        self.lock().early_stops += 1;
    }

    pub fn add_deadline_truncation(&self) {
        self.lock().deadline_truncations += 1;
    }

    /// Render the board as a stable JSON document.
    ///
    /// `now_unix_ms` is injected so tests can pin it; the HTTP server
    /// passes the current wall clock.
    pub fn render_json_at(&self, now_unix_ms: u64) -> String {
        let st = self.lock();
        let mut o = String::with_capacity(512);
        o.push('{');
        push_str_field(&mut o, "tool", &st.tool, true);
        push_u64_field(&mut o, "now_unix_ms", now_unix_ms, false);
        o.push_str(",\"campaigns\":[");
        for (i, c) in st.campaigns.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push('{');
            push_str_field(&mut o, "workload", &c.workload, true);
            push_str_field(&mut o, "kind", &c.kind, false);
            push_u64_field(&mut o, "done", c.done, false);
            push_u64_field(&mut o, "total", c.total, false);
            push_u64_field(&mut o, "sdc", c.sdc, false);
            push_u64_field(&mut o, "benign", c.benign, false);
            push_u64_field(&mut o, "crash", c.crash, false);
            push_u64_field(&mut o, "timeout", c.timeout, false);
            push_u64_field(&mut o, "elapsed_us", c.elapsed_us, false);
            match c.eta_us {
                Some(eta) => push_u64_field(&mut o, "eta_us", eta, false),
                None => o.push_str(",\"eta_us\":null"),
            }
            match c.completeness {
                Some(s) => push_f64_field(&mut o, "completeness", s),
                None => o.push_str(",\"completeness\":null"),
            }
            push_bool_field(&mut o, "finished", c.finished);
            o.push('}');
        }
        o.push_str("],\"quarantine\":[");
        for (i, q) in st.quarantine.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push('{');
            push_str_field(&mut o, "workload", &q.workload, true);
            push_str_field(&mut o, "site", &q.site, false);
            push_u64_field(&mut o, "failures", q.failures, false);
            o.push('}');
        }
        o.push_str("],\"sched\":{");
        push_u64_field(&mut o, "retries", st.retries, true);
        push_u64_field(&mut o, "early_stops", st.early_stops, false);
        push_u64_field(
            &mut o,
            "deadline_truncations",
            st.deadline_truncations,
            false,
        );
        o.push_str("}}");
        o
    }

    /// Render with the current wall clock.
    pub fn render_json(&self) -> String {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        self.render_json_at(now)
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn push_str_field(o: &mut String, key: &str, v: &str, first: bool) {
    if !first {
        o.push(',');
    }
    o.push('"');
    o.push_str(key);
    o.push_str("\":\"");
    o.push_str(&escape_json(v));
    o.push('"');
}

fn push_u64_field(o: &mut String, key: &str, v: u64, first: bool) {
    if !first {
        o.push(',');
    }
    o.push('"');
    o.push_str(key);
    o.push_str("\":");
    o.push_str(&v.to_string());
}

fn push_f64_field(o: &mut String, key: &str, v: f64) {
    o.push(',');
    o.push('"');
    o.push_str(key);
    o.push_str("\":");
    if v.is_finite() {
        o.push_str(&format!("{v}"));
    } else {
        o.push_str("null");
    }
}

fn push_bool_field(o: &mut String, key: &str, v: bool) {
    o.push(',');
    o.push('"');
    o.push_str(key);
    o.push_str("\":");
    o.push_str(if v { "true" } else { "false" });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_board_renders_minimal_document() {
        let b = StatusBoard::new();
        assert_eq!(
            b.render_json_at(0),
            "{\"tool\":\"\",\"now_unix_ms\":0,\"campaigns\":[],\"quarantine\":[],\
             \"sched\":{\"retries\":0,\"early_stops\":0,\"deadline_truncations\":0}}"
        );
    }

    #[test]
    fn golden_document_for_small_campaign() {
        let b = StatusBoard::new();
        b.set_tool("minpsid 0.1.0");
        b.upsert_campaign(CampaignView {
            workload: "hpccg".into(),
            kind: "per_inst".into(),
            done: 40,
            total: 100,
            sdc: 3,
            benign: 30,
            crash: 5,
            timeout: 2,
            elapsed_us: 8_000,
            eta_us: Some(12_000),
            completeness: Some(0.4),
            finished: false,
        });
        b.push_quarantine(QuarantineEntry {
            workload: "hpccg".into(),
            site: "inst#17".into(),
            failures: 3,
        });
        b.add_retry();
        b.add_retry();
        b.add_early_stop();
        let doc = b.render_json_at(1_700_000_000_000);
        assert_eq!(
            doc,
            "{\"tool\":\"minpsid 0.1.0\",\"now_unix_ms\":1700000000000,\
             \"campaigns\":[{\"workload\":\"hpccg\",\"kind\":\"per_inst\",\
             \"done\":40,\"total\":100,\"sdc\":3,\"benign\":30,\"crash\":5,\
             \"timeout\":2,\"elapsed_us\":8000,\"eta_us\":12000,\
             \"completeness\":0.4,\"finished\":false}],\
             \"quarantine\":[{\"workload\":\"hpccg\",\"site\":\"inst#17\",\
             \"failures\":3}],\
             \"sched\":{\"retries\":2,\"early_stops\":1,\"deadline_truncations\":0}}"
        );
    }

    #[test]
    fn upsert_replaces_matching_campaign() {
        let b = StatusBoard::new();
        let mut v = CampaignView {
            workload: "fft".into(),
            kind: "program".into(),
            done: 1,
            total: 10,
            ..Default::default()
        };
        b.upsert_campaign(v.clone());
        v.done = 9;
        b.upsert_campaign(v);
        let doc = b.render_json_at(0);
        assert!(doc.contains("\"done\":9"));
        assert!(!doc.contains("\"done\":1"));
        assert_eq!(doc.matches("\"workload\":\"fft\"").count(), 1);
    }

    #[test]
    fn quarantine_list_is_bounded() {
        let b = StatusBoard::new();
        for i in 0..(QUARANTINE_CAP + 10) {
            b.push_quarantine(QuarantineEntry {
                workload: "w".into(),
                site: format!("inst#{i}"),
                failures: 1,
            });
        }
        let doc = b.render_json_at(0);
        assert_eq!(doc.matches("\"site\"").count(), QUARANTINE_CAP);
        assert!(doc.contains("inst#73"), "newest entries survive");
        assert!(!doc.contains("\"site\":\"inst#0\""), "oldest dropped");
    }

    #[test]
    fn strings_are_escaped() {
        let b = StatusBoard::new();
        b.set_tool("a\"b\\c\nd");
        assert!(b.render_json_at(0).contains("\"tool\":\"a\\\"b\\\\c\\nd\""));
    }
}
