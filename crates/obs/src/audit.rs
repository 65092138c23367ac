//! The replica-selection audit log: every cost-model decision, with the
//! full per-candidate factor breakdown the paper's Table 1 argues from.

use crate::event::{json_f64, json_string};
use datagrid_simnet::time::SimTime;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// One candidate replica as the selection server scored it.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateAudit {
    /// Host holding the replica.
    pub host: String,
    /// The network factor `BW_P` (predicted available bandwidth fraction).
    pub bw_p: f64,
    /// The CPU factor `CPU_P` (idle fraction from MDS).
    pub cpu_p: f64,
    /// The I/O factor `IO_P` (idle fraction from sysstat).
    pub io_p: f64,
    /// `weight.bandwidth * BW_P` — the weighted network term.
    pub weighted_bw: f64,
    /// `weight.cpu * CPU_P` — the weighted CPU term.
    pub weighted_cpu: f64,
    /// `weight.io * IO_P` — the weighted I/O term.
    pub weighted_io: f64,
    /// Final combined score.
    pub score: f64,
    /// Whether the replica is local to the requesting client.
    pub is_local: bool,
    /// Rank by score (0 = best).
    pub rank: usize,
    /// Measured transfer time in seconds, when a counterfactual replay or
    /// real fetch attached one.
    pub measured_secs: Option<f64>,
}

impl CandidateAudit {
    fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"host\":{},\"bw_p\":{},\"cpu_p\":{},\"io_p\":{},\
             \"weighted_bw\":{},\"weighted_cpu\":{},\"weighted_io\":{},\
             \"score\":{},\"is_local\":{},\"rank\":{},\"measured_secs\":{}}}",
            json_string(&self.host),
            json_f64(self.bw_p),
            json_f64(self.cpu_p),
            json_f64(self.io_p),
            json_f64(self.weighted_bw),
            json_f64(self.weighted_cpu),
            json_f64(self.weighted_io),
            json_f64(self.score),
            self.is_local,
            self.rank,
            self.measured_secs
                .map_or_else(|| "null".to_string(), json_f64),
        );
        out
    }
}

/// One recorded replica-selection decision.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionDecision {
    /// Simulation time of the decision.
    pub time: SimTime,
    /// Logical file name being fetched.
    pub lfn: String,
    /// Requesting client host.
    pub client: String,
    /// Selection policy in force (`cost-model`, `random`, ...).
    pub policy: String,
    /// The `(bandwidth, cpu, io)` weights the cost model used.
    pub weights: (f64, f64, f64),
    /// Every candidate, in the order the selector saw them.
    pub candidates: Vec<CandidateAudit>,
    /// Host the selector chose.
    pub winner: String,
}

impl SelectionDecision {
    /// The chosen candidate's audit record.
    pub fn winner_audit(&self) -> Option<&CandidateAudit> {
        self.candidates.iter().find(|c| c.host == self.winner)
    }

    /// Candidate hosts ordered by score rank (best first).
    pub fn hosts_by_rank(&self) -> Vec<&str> {
        let mut by_rank: Vec<&CandidateAudit> = self.candidates.iter().collect();
        by_rank.sort_by_key(|c| c.rank);
        by_rank.iter().map(|c| c.host.as_str()).collect()
    }

    /// Attach a measured transfer time (seconds) to one candidate.
    pub fn attach_measured(&mut self, host: &str, secs: f64) {
        if let Some(c) = self.candidates.iter_mut().find(|c| c.host == host) {
            c.measured_secs = Some(secs);
        }
    }

    /// Agreement between the score ranking and the measured transfer
    /// times: the fraction of candidate pairs (both measured) where the
    /// better-scored candidate was also the faster one. `None` until at
    /// least one comparable pair exists. `1.0` is the paper's Table 1
    /// claim — the cost model's order explains the measured order.
    pub fn rank_agreement(&self) -> Option<f64> {
        let measured: Vec<&CandidateAudit> = self
            .candidates
            .iter()
            .filter(|c| c.measured_secs.is_some())
            .collect();
        let mut pairs = 0u32;
        let mut agree = 0u32;
        for (i, a) in measured.iter().enumerate() {
            for b in &measured[i + 1..] {
                let (ta, tb) = (
                    a.measured_secs.expect("filtered"),
                    b.measured_secs.expect("filtered"),
                );
                if ta == tb {
                    continue;
                }
                pairs += 1;
                // Lower rank = better score; lower time = faster.
                if (a.rank < b.rank) == (ta < tb) {
                    agree += 1;
                }
            }
        }
        (pairs > 0).then(|| f64::from(agree) / f64::from(pairs))
    }

    /// Render as one JSON object (stable field order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"t_ns\":{},\"lfn\":{},\"client\":{},\"policy\":{},\
             \"weights\":{{\"bandwidth\":{},\"cpu\":{},\"io\":{}}},\"candidates\":[",
            self.time.as_nanos(),
            json_string(&self.lfn),
            json_string(&self.client),
            json_string(&self.policy),
            json_f64(self.weights.0),
            json_f64(self.weights.1),
            json_f64(self.weights.2),
        );
        for (i, c) in self.candidates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&c.to_json());
        }
        let _ = write!(
            out,
            "],\"winner\":{},\"rank_agreement\":{}}}",
            json_string(&self.winner),
            self.rank_agreement()
                .map_or_else(|| "null".to_string(), json_f64),
        );
        out
    }

    /// Render as an aligned human-readable block.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "selection @ {:.3}s  lfn={}  client={}  policy={}  weights=({}, {}, {})",
            self.time.as_secs_f64(),
            self.lfn,
            self.client,
            self.policy,
            self.weights.0,
            self.weights.1,
            self.weights.2,
        );
        let mut by_rank: Vec<&CandidateAudit> = self.candidates.iter().collect();
        by_rank.sort_by_key(|c| c.rank);
        for c in by_rank {
            let _ = writeln!(
                out,
                "  #{} {:<10} BW_P {:.4}  CPU_P {:.4}  IO_P {:.4}  -> score {:.4}{}{}{}",
                c.rank + 1,
                c.host,
                c.bw_p,
                c.cpu_p,
                c.io_p,
                c.score,
                if c.host == self.winner {
                    "  [chosen]"
                } else {
                    ""
                },
                if c.is_local { "  (local)" } else { "" },
                c.measured_secs
                    .map_or_else(String::new, |t| format!("  measured {t:.2}s")),
            );
        }
        if let Some(agreement) = self.rank_agreement() {
            let _ = writeln!(
                out,
                "  rank-vs-measured agreement: {:.0}%",
                agreement * 100.0
            );
        }
        out
    }
}

/// Bounded log of selection decisions, oldest first. A ring: recording
/// at capacity evicts the oldest decision in O(1).
#[derive(Debug, Clone)]
pub struct SelectionAuditLog {
    decisions: VecDeque<SelectionDecision>,
    cap: usize,
    dropped: u64,
}

impl SelectionAuditLog {
    /// Default retention (decisions kept before the oldest are dropped).
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// A log with the default capacity.
    pub fn new() -> Self {
        SelectionAuditLog::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A log retaining at most `cap` decisions (clamped to ≥ 1).
    pub fn with_capacity(cap: usize) -> Self {
        SelectionAuditLog {
            decisions: VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    /// Append a decision, dropping the oldest at capacity.
    pub fn record(&mut self, decision: SelectionDecision) {
        if self.decisions.len() == self.cap {
            self.decisions.pop_front();
            self.dropped += 1;
        }
        self.decisions.push_back(decision);
    }

    /// Retained decisions, oldest first.
    pub fn decisions(&self) -> impl ExactSizeIterator<Item = &SelectionDecision> {
        self.decisions.iter()
    }

    /// The most recent decision.
    pub fn last(&self) -> Option<&SelectionDecision> {
        self.decisions.back()
    }

    /// Mutable access to the most recent decision (for attaching measured
    /// times after the fetch completes).
    pub fn last_mut(&mut self) -> Option<&mut SelectionDecision> {
        self.decisions.back_mut()
    }

    /// The sequence number the *next* recorded decision will get.
    /// Sequence numbers count every decision ever recorded (retained or
    /// evicted), so they are stable handles: capture `next_seq()` just
    /// before recording and the pair survives later evictions.
    pub fn next_seq(&self) -> u64 {
        self.dropped + self.decisions.len() as u64
    }

    /// Mutable access to the decision with sequence number `seq`, or
    /// `None` once it has been evicted. Concurrent workloads interleave
    /// decisions, so "the last entry" is not necessarily "my entry" —
    /// this is the indexed counterpart of [`SelectionAuditLog::last_mut`].
    pub fn decision_mut_by_seq(&mut self, seq: u64) -> Option<&mut SelectionDecision> {
        let idx = usize::try_from(seq.checked_sub(self.dropped)?).ok()?;
        self.decisions.get_mut(idx)
    }

    /// Number of retained decisions.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// True when no decision has been retained.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// How many decisions were evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// All retained decisions as JSON Lines.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for d in &self.decisions {
            out.push_str(&d.to_json());
            out.push('\n');
        }
        out
    }

    /// All retained decisions as human-readable text blocks.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.decisions {
            out.push_str(&d.render_text());
        }
        out
    }
}

impl Default for SelectionAuditLog {
    fn default() -> Self {
        SelectionAuditLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate(host: &str, score: f64, rank: usize) -> CandidateAudit {
        CandidateAudit {
            host: host.to_string(),
            bw_p: score,
            cpu_p: 0.9,
            io_p: 0.8,
            weighted_bw: 0.8 * score,
            weighted_cpu: 0.09,
            weighted_io: 0.08,
            score: 0.8 * score + 0.17,
            is_local: false,
            rank,
            measured_secs: None,
        }
    }

    fn decision() -> SelectionDecision {
        SelectionDecision {
            time: SimTime::from_secs_f64(120.0),
            lfn: "file-d".into(),
            client: "alpha1".into(),
            policy: "cost-model".into(),
            weights: (0.8, 0.1, 0.1),
            candidates: vec![
                candidate("lz02", 0.1, 2),
                candidate("alpha4", 0.9, 0),
                candidate("gridhit0", 0.5, 1),
            ],
            winner: "alpha4".into(),
        }
    }

    #[test]
    fn ranks_and_winner_lookup() {
        let d = decision();
        assert_eq!(d.hosts_by_rank(), vec!["alpha4", "gridhit0", "lz02"]);
        assert_eq!(d.winner_audit().expect("winner").host, "alpha4");
    }

    #[test]
    fn rank_agreement_counts_pairs() {
        let mut d = decision();
        assert_eq!(d.rank_agreement(), None);
        d.attach_measured("alpha4", 2.0);
        d.attach_measured("gridhit0", 5.0);
        d.attach_measured("lz02", 60.0);
        assert_eq!(d.rank_agreement(), Some(1.0));
        // Swap: now the best-scored is the slowest -> 1 of 3 pairs agree.
        d.attach_measured("alpha4", 100.0);
        let agreement = d.rank_agreement().expect("measured");
        assert!((agreement - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn log_caps_and_renders() {
        let mut log = SelectionAuditLog::with_capacity(2);
        for _ in 0..3 {
            log.record(decision());
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
        let jsonl = log.render_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"winner\":\"alpha4\""));
        assert!(log.render_text().contains("[chosen]"));
    }

    #[test]
    fn ring_evicts_oldest_first_and_keeps_seq_handles() {
        let mut log = SelectionAuditLog::with_capacity(3);
        for i in 0..10u32 {
            let mut d = decision();
            d.lfn = format!("file-{i}");
            assert_eq!(log.next_seq(), u64::from(i));
            log.record(d);
        }
        let lfns: Vec<&str> = log.decisions().map(|d| d.lfn.as_str()).collect();
        assert_eq!(lfns, ["file-7", "file-8", "file-9"]);
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 7);
        assert_eq!(log.next_seq(), 10);
        for evicted in 0..7 {
            assert!(log.decision_mut_by_seq(evicted).is_none(), "seq {evicted}");
        }
        assert!(log.decision_mut_by_seq(10).is_none());
        // Seq 7..10 span the ring's wrap point (the head moved 7 slots).
        for seq in 7..10u64 {
            let d = log.decision_mut_by_seq(seq).expect("retained");
            assert_eq!(d.lfn, format!("file-{seq}"));
        }
        log.decision_mut_by_seq(8)
            .expect("retained")
            .attach_measured("alpha4", 2.0);
        log.last_mut().expect("non-empty").policy = "failover".into();
        let last = log.last().expect("non-empty");
        assert_eq!(
            (last.lfn.as_str(), last.policy.as_str()),
            ("file-9", "failover")
        );
        let jsonl = log.render_jsonl();
        let order: Vec<usize> = ["file-7", "file-8", "file-9"]
            .iter()
            .map(|lfn| jsonl.find(&format!("\"lfn\":\"{lfn}\"")).expect("rendered"))
            .collect();
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "oldest first:\n{jsonl}"
        );
        assert_eq!(jsonl.lines().count(), 3);
        let measured = jsonl.lines().nth(1).expect("three lines");
        assert!(measured.contains("\"measured_secs\":2"), "{measured}");
    }
}
