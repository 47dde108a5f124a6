//! What every workload provides to the measurement loop, and the
//! pieces the three workloads share.

use crate::trace::Trace;
use std::time::Instant;

/// A deliberate corruption of a workload's result, applied before its
/// checker runs, to show that the checker can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corrupt {
    /// Remove one delivered record.
    DropRecord,
    /// Swap the delivery order of two packets of one flow.
    SwapFlow,
    /// Shift one departure cycle.
    ShiftCycle,
}

impl Corrupt {
    /// Parse the command-line token.
    pub fn parse(s: &str) -> Option<Corrupt> {
        match s {
            "drop-record" => Some(Corrupt::DropRecord),
            "swap-flow" => Some(Corrupt::SwapFlow),
            "shift-cycle" => Some(Corrupt::ShiftCycle),
            _ => None,
        }
    }
}

/// Checks attempted and failed; failures are described on stderr.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks evaluated.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
}

impl Checks {
    /// Count one check; `what` describes it when it fails.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// What one repetition produced, reduced to what the report needs.
#[derive(Debug)]
pub struct Summary {
    /// Packets delivered in the timed phase, summed over the switches
    /// simulated.
    pub delivered: u64,
    /// Digest of every simulated output of the repetition.
    pub digest: u64,
    /// Packets offered (the base of `sim_loss`).
    pub offered: u64,
    /// Of those, packets dropped.
    pub lost: u64,
    /// Simulated latencies in cycles.
    pub latencies: Vec<u64>,
    /// Host seconds of each successive piece of the timed phase; every
    /// repetition of an input has the same pieces, doing the same work.
    pub pieces: Vec<f64>,
    /// Per-layer counts, by metric name.
    pub counts: Vec<(&'static str, f64)>,
}

/// One workload; every repetition builds it afresh from an input seed.
pub trait Workload {
    /// Models and rendered inputs, built by [`Workload::setup`].
    type State;
    /// Everything the timed phase produced.
    type Out;
    /// Threads the timed phase uses.
    fn jobs(&self) -> usize {
        1
    }
    /// Threads of the sharded executor that [`Workload::reference`]
    /// runs, where it runs one.
    fn shard_jobs(&self) -> usize {
        1
    }
    /// Build the models and render the inputs of `seed` (timed as
    /// `setup_s`).
    fn setup<T: Trace>(&self, seed: u64, t: &mut T) -> Self::State;
    /// The timed phase.
    fn run<T: Trace>(&self, st: Self::State, t: &mut T) -> Self::Out;
    /// Reduce a result for the report.
    fn summary(&self, out: &Self::Out) -> Summary;
    /// Apply `kind` to a result (the negative control).
    fn corrupt(&self, out: &mut Self::Out, kind: Corrupt);
    /// Check a result against the workload's oracles.
    fn check(&self, out: &Self::Out, c: &mut Checks);
    /// Traced runs only: digests of the repetition with input `seed`
    /// computed by an independent executor, each of which must equal
    /// [`Summary::digest`].
    fn reference<T: Trace>(&self, _seed: u64, _t: &mut T) -> Vec<u64> {
        Vec::new()
    }
}

/// Timestamps that split a timed phase into pieces of about a
/// millisecond or two, at points fixed by the input.
pub struct Pieces(Vec<Instant>);

impl Pieces {
    /// Start the first piece.
    pub fn start() -> Self {
        Pieces(vec![Instant::now()])
    }

    /// End one piece and start the next.
    pub fn mark(&mut self) {
        self.0.push(Instant::now());
    }

    /// End the last piece; each piece's host seconds.
    pub fn finish(mut self) -> Vec<f64> {
        self.mark();
        self.0
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect()
    }
}

/// FNV-1a over 64-bit words: one number two outputs share iff they
/// agree field by field.
pub struct Digest(u64);

impl Digest {
    /// The FNV offset basis.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Fold in one word.
    pub fn mix(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// True when, for every flow key, the sequence numbers appear strictly
/// increasing in `items` order: first in, first out per flow.
pub fn fifo_per_flow(items: impl Iterator<Item = ((usize, usize), u64)>) -> bool {
    let mut last: std::collections::HashMap<(usize, usize), u64> = std::collections::HashMap::new();
    for (flow, seq) in items {
        if let Some(prev) = last.insert(flow, seq) {
            if prev >= seq {
                return false;
            }
        }
    }
    true
}
