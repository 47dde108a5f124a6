//! `switch-bursty-incast`: one 8×8 behavioral switch with Dynamic
//! Thresholds sharing (α = 1), advanced through
//! `simkernel::horizon::advance_to_batched`.
//!
//! All inputs burst together and a share of each burst converges on one
//! hot output, at a mean load near 0.2: the horizon skips most cycles,
//! and each burst overflows the pool, so admission and the drop path do
//! the work. Word RTL and the fabric are bypassed.

use crate::trace::{Span, Trace};
use crate::workload::{fifo_per_flow, Checks, Corrupt, Digest, Pieces, Summary, Workload};
use simkernel::horizon::advance_to_batched;
use simkernel::ids::Cycle;
use simkernel::SplitMix64;
use switch_core::{BehavioralSwitch, PolicyKind, SwitchConfig};
use traffic::DestDist;

/// Ports per side.
const N: usize = 8;
/// Cycles per packet on a link.
const S: Cycle = 2 * N as Cycle;
/// Packet slots of the shared buffer.
const SLOTS: usize = 32;
/// Cycles in which bursts may start, per repetition.
const CYCLES: Cycle = 2_000_000;
/// Mean packets per input per burst.
const MEAN_BURST: f64 = 8.0;
/// Mean idle cycles between bursts: with bursts of `(MEAN_BURST + 1)·S`
/// cycles this gives a mean load of about 0.2.
const MEAN_GAP: f64 = 496.0;
/// Share of each burst sent to its hot output.
const HOT_SHARE: f64 = 0.5;
/// Idle cycles after the last arrival: far more than a full buffer
/// needs to drain through one output (`SLOTS · S`).
const DRAIN: Cycle = 4096;
/// Arrival cycles per timed piece (about a millisecond).
const PIECE: usize = 4096;

fn config() -> SwitchConfig {
    SwitchConfig::symmetric(N, SLOTS).with_policy(PolicyKind::dynamic_thresholds())
}

/// One packet header offered on an input.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: Cycle,
    input: usize,
    dst: usize,
}

/// A departure as the benchmark records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Dep {
    input: usize,
    output: usize,
    birth: Cycle,
    read_start: Cycle,
    done: Cycle,
}

/// The switch's end-of-run counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counters {
    arrived: u64,
    dropped: u64,
    policy_drops: u64,
    policy_preempts: u64,
    overruns: u64,
    occupancy: u64,
}

fn counters(sw: &BehavioralSwitch) -> Counters {
    Counters {
        arrived: sw.arrived,
        dropped: sw.dropped,
        policy_drops: sw.policy_drops,
        policy_preempts: sw.policy_preempts,
        overruns: sw.overruns,
        occupancy: sw.occupancy() as u64,
    }
}

fn collect(sw: &mut BehavioralSwitch, deps: &mut Vec<Dep>) {
    deps.extend(sw.departures().iter().map(|d| Dep {
        input: d.input,
        output: d.output,
        birth: d.birth,
        read_start: d.read_start,
        done: d.done,
    }));
    sw.forget_departures();
}

/// Models and inputs of one repetition.
pub struct State {
    arrivals: Vec<Arrival>,
    sw: BehavioralSwitch,
}

/// What the fast-forwarded run produced.
pub struct Out {
    arrivals: Vec<Arrival>,
    deps: Vec<Dep>,
    counters: Counters,
    end: Cycle,
    pieces: Vec<f64>,
}

/// The workload.
pub struct Incast;

impl Workload for Incast {
    type State = State;
    type Out = Out;

    fn setup<T: Trace>(&self, seed: u64, t: &mut T) -> State {
        t.enter(Span::Render);
        let mut rng = SplitMix64::new(seed);
        // Sized for the mean load with headroom, so the vector does not
        // regrow (and peak memory does not jump) on a busier seed.
        let mut arrivals =
            Vec::with_capacity((N as f64 * CYCLES as f64 * 0.25 / S as f64) as usize);
        let mut c: Cycle = 0;
        loop {
            c += rng.geometric(1.0 / (1.0 + MEAN_GAP));
            if c >= CYCLES {
                break;
            }
            let len = 1 + rng.geometric(1.0 / MEAN_BURST);
            let dist = DestDist::hotspot(N, rng.below_usize(N), HOT_SHARE);
            for input in 0..N {
                let phase = rng.below(S);
                for k in 0..len {
                    let dst = dist.draw(&mut rng);
                    arrivals.push(Arrival {
                        at: c + phase + k * S,
                        input,
                        dst,
                    });
                }
            }
            // The next burst starts after every input's last packet.
            c += (len + 1) * S;
        }
        arrivals.sort_unstable_by_key(|a| (a.at, a.input));
        t.exit();
        State {
            arrivals,
            sw: BehavioralSwitch::new(config()),
        }
    }

    fn run<T: Trace>(&self, mut st: State, t: &mut T) -> Out {
        let sw = &mut st.sw;
        let mut deps = Vec::with_capacity(st.arrivals.len());
        let mut offer = [None; N];
        let mut next = 0;
        let mut p = Pieces::start();
        for i in 1.. {
            let Some(c) = st.arrivals.get(next).map(|a| a.at) else {
                break;
            };
            if i % PIECE == 0 {
                p.mark();
            }
            t.enter(Span::Advance);
            advance_to_batched(sw, c);
            t.exit();
            offer.fill(None);
            while let Some(a) = st.arrivals.get(next).filter(|a| a.at == c) {
                offer[a.input] = Some(a.dst);
                next += 1;
            }
            t.enter(Span::BehavioralTick);
            sw.tick(&offer);
            t.exit();
            collect(sw, &mut deps);
        }
        let end = st.arrivals.last().map_or(0, |a| a.at) + DRAIN;
        t.enter(Span::Advance);
        advance_to_batched(sw, end);
        t.exit();
        collect(sw, &mut deps);
        Out {
            counters: counters(sw),
            arrivals: st.arrivals,
            deps,
            end,
            pieces: p.finish(),
        }
    }

    fn summary(&self, out: &Out) -> Summary {
        let mut d = Digest::new();
        d.mix(out.deps.len() as u64);
        for x in &out.deps {
            for v in [
                x.input as u64,
                x.output as u64,
                x.birth,
                x.read_start,
                x.done,
            ] {
                d.mix(v);
            }
        }
        let c = out.counters;
        for v in [
            c.arrived,
            c.dropped,
            c.policy_drops,
            c.policy_preempts,
            c.overruns,
        ] {
            d.mix(v);
        }
        let latencies: Vec<u64> = out
            .deps
            .iter()
            .map(|x| (x.read_start + 1).saturating_sub(x.birth))
            .collect();
        let offered = out.arrivals.len() as u64;
        Summary {
            delivered: out.deps.len() as u64,
            digest: d.value(),
            offered,
            lost: c.dropped + c.policy_drops + c.policy_preempts + c.overruns,
            latencies,
            pieces: out.pieces.clone(),
            counts: vec![
                ("traffic.offered_packets", offered as f64),
                ("policy.drops", c.policy_drops as f64),
                ("policy.preempts", c.policy_preempts as f64),
                (
                    "policy.admit_ratio",
                    c.arrived as f64 / offered.max(1) as f64,
                ),
            ],
        }
    }

    fn corrupt(&self, out: &mut Out, kind: Corrupt) {
        let ds = &mut out.deps;
        let k = ds.len() / 2;
        match kind {
            Corrupt::DropRecord => {
                ds.remove(k);
            }
            Corrupt::ShiftCycle => {
                ds[k].read_start += 1;
                ds[k].done += 1;
            }
            Corrupt::SwapFlow => {
                let j = (k + 1..ds.len())
                    .find(|&j| (ds[j].input, ds[j].output) == (ds[k].input, ds[k].output))
                    .expect("a second packet of the flow");
                let (bk, bj) = (ds[k].birth, ds[j].birth);
                ds[k].birth = bj;
                ds[j].birth = bk;
            }
        }
    }

    fn check(&self, out: &Out, ck: &mut Checks) {
        let c = out.counters;
        let offered = out.arrivals.len() as u64;
        ck.expect(c.occupancy == 0, || {
            format!("{} packets left after the drain", c.occupancy)
        });
        ck.expect(
            c.arrived + c.dropped + c.policy_drops == offered
                && c.arrived == out.deps.len() as u64 + c.policy_preempts + c.overruns + c.occupancy,
            || {
                format!(
                    "conservation: {offered} offered, {} departed, {} dropped, {} policy drops, {} preempted",
                    out.deps.len(),
                    c.dropped,
                    c.policy_drops,
                    c.policy_preempts
                )
            },
        );
        ck.expect(
            fifo_per_flow(out.deps.iter().map(|d| ((d.input, d.output), d.birth))),
            || "a flow departed out of order".into(),
        );
        ck.expect(
            out.deps
                .iter()
                .all(|d| d.done == d.read_start + S && d.read_start > d.birth),
            || "a departure reads before its header arrived or spans the wrong length".into(),
        );

        // Fast-forward must equal dense per-cycle stepping.
        let mut sw = BehavioralSwitch::new(config());
        let mut dense = Vec::with_capacity(out.deps.len());
        let mut offer = [None; N];
        let mut next = 0;
        for c in 0..out.end {
            offer.fill(None);
            while let Some(a) = out.arrivals.get(next).filter(|a| a.at == c) {
                offer[a.input] = Some(a.dst);
                next += 1;
            }
            if !sw.tick(&offer).is_empty() {
                collect(&mut sw, &mut dense);
            }
        }
        collect(&mut sw, &mut dense);
        ck.expect(dense == out.deps, || {
            let first = dense.iter().zip(&out.deps).position(|(a, b)| a != b);
            format!(
                "fast-forward vs dense: {} vs {} departures, first difference at {first:?}",
                out.deps.len(),
                dense.len()
            )
        });
        ck.expect(counters(&sw) == c, || {
            format!(
                "fast-forward vs dense counters: {c:?} vs {:?}",
                counters(&sw)
            )
        });
    }
}
