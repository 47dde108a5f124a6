//! `switch-saturated`: one 8×8 switch (16 stages, 32 packet slots) at
//! 0.85 uniform load, fed word by word to the three word-level memory
//! organizations from one pre-rendered wire schedule.
//!
//! Bank waves run every cycle and the horizon has nothing to skip, so
//! the word-level bank and wave machinery is nearly all of the host
//! time. The fabric and the horizon are bypassed.

use crate::trace::{Span, Trace};
use crate::workload::{fifo_per_flow, Checks, Corrupt, Digest, Pieces, Summary, Workload};
use simkernel::ids::Cycle;
use std::collections::{HashMap, HashSet};
use switch_core::events::SwitchCounters;
use switch_core::rtl::OutputCollector;
use switch_core::{
    BehavioralSwitch, InterleavedSwitch, InterleavedSwitchConfig, PipelinedSwitch, SwitchConfig,
    WideMemorySwitchRtl, WideSwitchConfig,
};
use traffic::{DestDist, PacketFeeder};

/// Ports per side.
const N: usize = 8;
/// Words per packet = pipeline stages.
const S: usize = 2 * N;
/// Packet slots of the shared buffer.
const SLOTS: usize = 32;
/// Offered link load.
const LOAD: f64 = 0.85;
/// Cycles in which new packets may start, per repetition.
const CYCLES: Cycle = 150_000;
/// Drain budget after the last packet; a switch still busy then fails
/// its drained check.
const DRAIN_CAP: Cycle = 100_000;
/// Cycles per timed piece (about two milliseconds).
const PIECE: Cycle = 4096;

/// One packet put on an input link.
#[derive(Debug, Clone, Copy)]
struct Launch {
    id: u64,
    input: usize,
    dst: usize,
    at: Cycle,
}

/// The pre-rendered input: `N` wire words per cycle plus a validity
/// mask per cycle, and the launch list it encodes.
pub struct Schedule {
    words: Vec<u64>,
    valid: Vec<u8>,
    launches: Vec<Launch>,
}

impl Schedule {
    fn cycles(&self) -> Cycle {
        self.valid.len() as Cycle
    }

    fn wire(&self, c: Cycle, wire: &mut [Option<u64>; N]) {
        match self.valid.get(c as usize) {
            Some(&mask) => {
                let row = &self.words[c as usize * N..(c as usize + 1) * N];
                for (i, w) in wire.iter_mut().enumerate() {
                    *w = (mask >> i & 1 == 1).then_some(row[i]);
                }
            }
            None => *wire = [None; N],
        }
    }
}

/// A delivered packet as the benchmark records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Delivery {
    id: u64,
    output: usize,
    first: Cycle,
    last: Cycle,
    intact: bool,
}

/// One organization's result.
pub struct OrgOut {
    deliveries: Vec<Delivery>,
    counters: SwitchCounters,
    drained: bool,
}

/// The three organizations' results, in [`ORGS`] order.
pub struct Out {
    launches: Vec<Launch>,
    orgs: Vec<OrgOut>,
    pieces: Vec<f64>,
}

const ORGS: [&str; 3] = ["pipelined", "wide", "interleaved"];

/// The models built for one repetition.
pub struct State {
    sched: Schedule,
    rtl: PipelinedSwitch,
    wide: WideMemorySwitchRtl,
    ibank: InterleavedSwitch,
}

/// The word-level switch interface the three organizations share.
trait WordSwitch {
    fn tick(&mut self, wire: &[Option<u64>]) -> &[Option<u64>];
    fn is_quiescent(&self) -> bool;
    fn counters(&self) -> SwitchCounters;
}

macro_rules! word_switch {
    ($t:ty) => {
        impl WordSwitch for $t {
            fn tick(&mut self, wire: &[Option<u64>]) -> &[Option<u64>] {
                <$t>::tick(self, wire)
            }
            fn is_quiescent(&self) -> bool {
                <$t>::is_quiescent(self)
            }
            fn counters(&self) -> SwitchCounters {
                <$t>::counters(self)
            }
        }
    };
}
word_switch!(PipelinedSwitch);
word_switch!(WideMemorySwitchRtl);
word_switch!(InterleavedSwitch);

/// Feed the schedule to `sw` word by word, then idle until it has been
/// quiescent for a packet time (tail words leave the output registers
/// after the buffer empties).
fn drive<W: WordSwitch, T: Trace>(
    sw: &mut W,
    span: Span,
    sched: &Schedule,
    t: &mut T,
    p: &mut Pieces,
) -> OrgOut {
    let mut col = OutputCollector::new(N, S);
    let mut wire = [None; N];
    let mut deliveries = Vec::with_capacity(sched.launches.len());
    let end = sched.cycles();
    let mut idle_for = 0;
    let mut c: Cycle = 0;
    while idle_for <= S + 4 && c < end + DRAIN_CAP {
        if c % PIECE == PIECE - 1 {
            p.mark();
        }
        sched.wire(c, &mut wire);
        t.enter(span);
        let out = sw.tick(&wire);
        t.exit();
        col.observe(c, out);
        if !col.delivered().is_empty() {
            deliveries.extend(col.take().into_iter().map(|d| Delivery {
                id: d.id,
                output: d.output.index(),
                first: d.first_cycle,
                last: d.last_cycle,
                intact: d.verify_payload(),
            }));
        }
        c += 1;
        idle_for = if c >= end && sw.is_quiescent() {
            idle_for + 1
        } else {
            0
        };
    }
    OrgOut {
        deliveries,
        counters: sw.counters(),
        drained: idle_for > S + 4,
    }
}

/// The workload.
pub struct Saturated;

impl Workload for Saturated {
    type State = State;
    type Out = Out;

    fn setup<T: Trace>(&self, seed: u64, t: &mut T) -> State {
        t.enter(Span::Render);
        let mut feeders: Vec<PacketFeeder> = (0..N)
            .map(|i| PacketFeeder::random(i, S, LOAD, DestDist::uniform(N), seed, N as u64))
            .collect();
        let mut words = Vec::with_capacity((CYCLES as usize + S) * N);
        let mut valid = Vec::with_capacity(CYCLES as usize + S);
        for c in 0.. {
            if c == CYCLES {
                feeders.iter_mut().for_each(PacketFeeder::halt);
            }
            if c >= CYCLES && !feeders.iter().any(PacketFeeder::busy) {
                break;
            }
            let mut mask = 0u8;
            for (i, f) in feeders.iter_mut().enumerate() {
                let w = f.tick(c);
                mask |= (w.is_some() as u8) << i;
                words.push(w.unwrap_or(0));
            }
            valid.push(mask);
        }
        let mut launches: Vec<Launch> = feeders
            .iter()
            .flat_map(|f| {
                f.sent().iter().map(|r| Launch {
                    id: r.id,
                    input: f.port(),
                    dst: r.dst,
                    at: r.birth,
                })
            })
            .collect();
        launches.sort_unstable_by_key(|l| (l.at, l.input));
        t.exit();
        State {
            sched: Schedule {
                words,
                valid,
                launches,
            },
            rtl: PipelinedSwitch::new(SwitchConfig::symmetric(N, SLOTS)),
            wide: WideMemorySwitchRtl::new(WideSwitchConfig::fig3(N, SLOTS)),
            ibank: InterleavedSwitch::new(InterleavedSwitchConfig::symmetric(N, SLOTS)),
        }
    }

    fn run<T: Trace>(&self, mut st: State, t: &mut T) -> Out {
        let mut p = Pieces::start();
        let orgs = vec![
            drive(&mut st.rtl, Span::RtlTick, &st.sched, t, &mut p),
            drive(&mut st.wide, Span::WideTick, &st.sched, t, &mut p),
            drive(&mut st.ibank, Span::IbankTick, &st.sched, t, &mut p),
        ];
        Out {
            launches: st.sched.launches,
            orgs,
            pieces: p.finish(),
        }
    }

    fn summary(&self, out: &Out) -> Summary {
        let mut d = Digest::new();
        for o in &out.orgs {
            d.mix(o.deliveries.len() as u64);
            for x in &o.deliveries {
                for v in [x.id, x.output as u64, x.first, x.last, x.intact as u64] {
                    d.mix(v);
                }
            }
            let c = &o.counters;
            for v in [
                c.arrived,
                c.departed,
                c.dropped_buffer_full,
                c.policy_drops,
                c.fused_reads,
                c.rw_collisions,
            ] {
                d.mix(v);
            }
        }
        let birth: HashMap<u64, Cycle> = out.launches.iter().map(|l| (l.id, l.at)).collect();
        let rtl = &out.orgs[0];
        let latencies: Vec<u64> = rtl
            .deliveries
            .iter()
            .filter_map(|x| birth.get(&x.id).map(|&b| x.first.saturating_sub(b)))
            .collect();
        let c = rtl.counters;
        let offered = out.launches.len() as u64;
        let lost = |x: &SwitchCounters| x.dropped_buffer_full + x.policy_drops + x.policy_preempts;
        // Loss, like throughput, sums the three switches; latency is the
        // pipelined organization's.
        Summary {
            delivered: out.orgs.iter().map(|o| o.deliveries.len() as u64).sum(),
            digest: d.value(),
            offered: offered * ORGS.len() as u64,
            lost: out.orgs.iter().map(|o| lost(&o.counters)).sum(),
            latencies,
            pieces: out.pieces.clone(),
            counts: vec![
                ("traffic.offered_packets", offered as f64),
                ("rtl.fused_reads", c.fused_reads as f64),
                ("rtl.rw_collisions", c.rw_collisions as f64),
                ("rtl.dropped", c.dropped_buffer_full as f64),
                (
                    "wide.dropped",
                    out.orgs[1].counters.dropped_buffer_full as f64,
                ),
                (
                    "ibank.dropped",
                    out.orgs[2].counters.dropped_buffer_full as f64,
                ),
                ("policy.drops", c.policy_drops as f64),
                ("policy.preempts", c.policy_preempts as f64),
                (
                    "policy.admit_ratio",
                    (offered - lost(&c)) as f64 / offered.max(1) as f64,
                ),
            ],
        }
    }

    fn corrupt(&self, out: &mut Out, kind: Corrupt) {
        let ds = &mut out.orgs[0].deliveries;
        let k = ds.len() / 2;
        match kind {
            Corrupt::DropRecord => {
                ds.remove(k);
            }
            Corrupt::ShiftCycle => {
                ds[k].first += 1;
                ds[k].last += 1;
            }
            Corrupt::SwapFlow => {
                // Packet ids are `input + k·N`, so `id % N` names the input.
                let mut seen: HashMap<(u64, usize), usize> = HashMap::new();
                for j in 0..ds.len() {
                    if let Some(&i) = seen.get(&(ds[j].id % N as u64, ds[j].output)) {
                        let (fi, li) = (ds[i].first, ds[i].last);
                        (ds[i].first, ds[i].last) = (ds[j].first, ds[j].last);
                        (ds[j].first, ds[j].last) = (fi, li);
                        return;
                    }
                    seen.insert((ds[j].id % N as u64, ds[j].output), j);
                }
            }
        }
    }

    fn check(&self, out: &Out, ck: &mut Checks) {
        let launched: HashMap<u64, &Launch> = out.launches.iter().map(|l| (l.id, l)).collect();
        let offered = out.launches.len() as u64;
        for (name, o) in ORGS.iter().zip(&out.orgs) {
            let c = &o.counters;
            ck.expect(o.drained, || format!("{name}: did not drain"));
            ck.expect(c.arrived == offered, || {
                format!("{name}: saw {} headers of {offered} launched", c.arrived)
            });
            let delivered = o.deliveries.len() as u64;
            let accounted = delivered
                + c.dropped_buffer_full
                + c.policy_drops
                + c.policy_preempts
                + c.corrupt_drops
                + c.latch_overruns;
            ck.expect(accounted == offered && delivered == c.departed, || {
                format!(
                    "{name}: conservation: {delivered} delivered (counter {}) + {} dropped != {offered} offered",
                    c.departed,
                    accounted - delivered
                )
            });
            let bad = o.deliveries.iter().filter(|d| !d.intact).count();
            ck.expect(bad == 0, || {
                format!("{name}: {bad} payloads failed the integrity check")
            });
            let mut ids = HashSet::new();
            let misrouted = o
                .deliveries
                .iter()
                .filter(|d| {
                    !ids.insert(d.id) || launched.get(&d.id).is_none_or(|l| l.dst != d.output)
                })
                .count();
            ck.expect(misrouted == 0, || {
                format!("{name}: {misrouted} deliveries duplicated, unknown or misrouted")
            });
            let mut by_time: Vec<&Delivery> = o.deliveries.iter().collect();
            by_time.sort_by_key(|d| (d.first, d.output));
            ck.expect(
                fifo_per_flow(
                    by_time
                        .iter()
                        .map(|d| ((d.id as usize % N, d.output), d.id / N as u64)),
                ),
                || format!("{name}: a flow delivered out of order"),
            );
        }

        // The behavioral twin replays the same arrivals untimed; the
        // pipelined RTL must match its departures and drops exactly.
        let mut twin = BehavioralSwitch::new(SwitchConfig::symmetric(N, SLOTS));
        let ids: HashMap<(usize, Cycle), u64> = out
            .launches
            .iter()
            .map(|l| ((l.input, l.at), l.id))
            .collect();
        let mut expect = Vec::with_capacity(out.launches.len());
        let mut arrivals = [None; N];
        let mut next = 0;
        let mut c: Cycle = 0;
        while next < out.launches.len() || !twin.is_quiescent() {
            arrivals.fill(None);
            while let Some(l) = out.launches.get(next).filter(|l| l.at == c) {
                arrivals[l.input] = Some(l.dst);
                next += 1;
            }
            for d in twin.tick(&arrivals) {
                expect.push((ids[&(d.input, d.birth)], d.output, d.read_start + 1, d.done));
            }
            c += 1;
        }
        let mut got: Vec<_> = out.orgs[0]
            .deliveries
            .iter()
            .map(|d| (d.id, d.output, d.first, d.last))
            .collect();
        got.sort_unstable();
        expect.sort_unstable();
        let rtl = &out.orgs[0].counters;
        ck.expect(
            twin.arrived + twin.dropped + twin.policy_drops == offered,
            || "behavioral twin: launch count differs from the schedule".into(),
        );
        ck.expect(got == expect, || {
            let first = got.iter().zip(&expect).find(|(a, b)| a != b);
            format!(
                "rtl vs behavioral twin: {} vs {} departures, first mismatch {first:?}",
                got.len(),
                expect.len()
            )
        });
        ck.expect(
            rtl.dropped_buffer_full == twin.dropped && rtl.policy_drops == twin.policy_drops,
            || {
                format!(
                    "rtl vs behavioral twin: drops {} vs {}",
                    rtl.dropped_buffer_full, twin.dropped
                )
            },
        );
    }
}
