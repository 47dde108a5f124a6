//! `fabric-omega1024`: the fabric runtime on a 5-stage omega of 4×4
//! behavioral elements (1024 terminals, 256 elements per stage) at
//! uniform load 0.6 plus a drain. The timed phase runs on one thread;
//! traced runs add the sharded executor on `min(2, nproc)` threads.
//!
//! The only workload that runs the fabric runtime: its windowed
//! executor, link routing and, in traced runs, the mailboxes and the
//! shard partition. Word RTL is bypassed.

use crate::trace::{Off, Span, Trace};
use crate::workload::{fifo_per_flow, Checks, Corrupt, Pieces, Summary, Workload};
use fabric::{topo, ElementKind, Fabric, FabricRun, Pattern, TerminalSource, Workload as Offered};
use simkernel::cell::Cell;
use simkernel::ids::{Cycle, PortId};
use std::collections::HashMap;

/// Omega radix.
const K: usize = 4;
/// Omega stages (`K^STAGES` terminals).
const STAGES: usize = 5;
/// Behavioral elements with 8 packet slots each: at load 0.6 this pool
/// drops about 1% of cells, so `sim_loss` is never 0 (16 slots drop none).
const KIND: ElementKind = ElementKind::Behavioral { slots: 8 };
/// Injection slots per repetition.
const SLOTS: u64 = 256;
/// Empty slots after injection stops.
const DRAIN: u64 = 128;
/// Per-terminal injection probability per slot.
const LOAD: f64 = 0.6;
/// Cell ids are `(terminal << 40) | seq`.
const SEQ_BITS: u32 = 40;

fn build() -> Fabric {
    Fabric::new(topo::omega(K, STAGES), KIND)
}

fn offered(seed: u64) -> Offered {
    Offered {
        pattern: Pattern::Uniform,
        load: LOAD,
        seed,
    }
}

/// The workload.
pub struct Omega {
    /// Worker threads of the sharded `Fabric::run` leg of traced runs.
    pub shard_jobs: usize,
}

/// A fresh fabric and the traffic seed it will run.
pub struct State {
    fab: Fabric,
    seed: u64,
}

/// The timed run.
pub struct Out {
    run: FabricRun,
    pieces: Vec<f64>,
}

impl Workload for Omega {
    type State = State;
    type Out = Out;

    fn shard_jobs(&self) -> usize {
        self.shard_jobs
    }

    fn setup<T: Trace>(&self, seed: u64, _t: &mut T) -> State {
        State { fab: build(), seed }
    }

    fn run<T: Trace>(&self, st: State, t: &mut T) -> Out {
        t.enter(Span::FabricSeqRun);
        // One piece per window of the executor.
        let mut p = Pieces::start();
        let run = run_with(st.fab, st.seed, &mut Off, || p.mark());
        t.exit();
        Out {
            run,
            pieces: p.finish(),
        }
    }

    fn summary(&self, out: &Out) -> Summary {
        let r = &out.run;
        // Per-shard accepted cells under the sharded executor's
        // `e mod shard_jobs` partition: the busiest shard against the
        // mean. Every executor accepts the same cells.
        let mut shard = vec![0u64; self.shard_jobs];
        for (e, &a) in r.elem_accepted.iter().enumerate() {
            shard[e % self.shard_jobs] += a;
        }
        let mean = shard.iter().sum::<u64>() as f64 / self.shard_jobs as f64;
        let imbalance = *shard.iter().max().expect("at least one shard") as f64 / mean.max(1.0);
        Summary {
            delivered: r.delivered_total(),
            digest: r.digest(),
            offered: r.offered,
            lost: r.dropped,
            latencies: r.latencies(),
            pieces: out.pieces.clone(),
            counts: vec![
                ("traffic.offered_packets", r.offered as f64),
                ("fabric.windows", r.windows as f64),
                ("fabric.shard_imbalance", imbalance),
                ("fabric.dropped", r.dropped as f64),
                ("fabric.residual", r.residual as f64),
            ],
        }
    }

    fn corrupt(&self, out: &mut Out, kind: Corrupt) {
        let logs = &mut out.run.delivered;
        if kind == Corrupt::SwapFlow {
            // Swap the first two cells of one (src, dst) flow found.
            for log in logs.iter_mut() {
                let mut seen: HashMap<PortId, usize> = HashMap::new();
                for j in 0..log.len() {
                    if let Some(&i) = seen.get(&log[j].1.src) {
                        let (ci, cj) = (log[i].1, log[j].1);
                        log[i].1 = cj;
                        log[j].1 = ci;
                        return;
                    }
                    seen.insert(log[j].1.src, j);
                }
            }
            panic!("no flow delivered two cells");
        }
        let log = logs
            .iter_mut()
            .max_by_key(|l| l.len())
            .expect("terminals exist");
        let k = log.len() / 2;
        if kind == Corrupt::DropRecord {
            log.remove(k);
        } else {
            log[k].0 = log[k - 1].0 + 1;
        }
    }

    fn check(&self, out: &Out, ck: &mut Checks) {
        let r = &out.run;
        let topo = topo::omega(K, STAGES);
        let delivered = r.delivered_total();
        ck.expect(r.offered == delivered + r.dropped + r.residual, || {
            format!(
                "conservation: {} offered != {delivered} delivered + {} dropped + {} residual",
                r.offered, r.dropped, r.residual
            )
        });
        let cells = || {
            r.delivered
                .iter()
                .enumerate()
                .flat_map(|(t, l)| l.iter().map(move |x| (t, x)))
        };
        let early = cells()
            .filter(|&(t, &(c, cell)): &(usize, &(Cycle, Cell))| {
                cell.dst.index() != t
                    || c < cell.birth + topo.hops(cell.src.index(), t) as u64 * r.latency
            })
            .count();
        ck.expect(early == 0, || {
            format!("{early} cells misdelivered or faster than hops × link latency")
        });
        ck.expect(
            fifo_per_flow(
                cells().map(|(t, &(_, cell))| {
                    ((cell.src.index(), t), cell.id.0 & ((1 << SEQ_BITS) - 1))
                }),
            ),
            || "a (src, dst) flow delivered out of order".into(),
        );
        // One egress link carries one cell per cell time.
        let crowded = r
            .delivered
            .iter()
            .filter(|l| l.windows(2).any(|w| w[1].0 < w[0].0 + KIND.cell_time(K)))
            .count();
        ck.expect(crowded == 0, || {
            format!("{crowded} terminals received cells closer than one cell time")
        });
    }

    /// Two other executors: the sharded `Fabric::run` on `shard_jobs`
    /// threads (`fabric.run_s`), then the jobs=1 `Fabric::run_with`
    /// driven by the benchmark's own `TerminalSource` injector, with a
    /// span around every draw (`traffic.draw_s`).
    fn reference<T: Trace>(&self, seed: u64, t: &mut T) -> Vec<u64> {
        let mut fab = build();
        t.enter(Span::FabricRun);
        let sharded = fab.run(SLOTS, DRAIN, &offered(seed), self.shard_jobs);
        t.exit();
        let fab = build();
        t.enter(Span::FabricDrawRun);
        let traced = run_with(fab, seed, t, || {});
        t.exit();
        vec![sharded.digest(), traced.digest()]
    }
}

/// Run `fab` on one thread through `Fabric::run_with`, injecting the
/// cells of `seed` drawn from one `TerminalSource` per terminal, each
/// draw inside a `Draw` span of `d`, and calling `on_window` as each
/// window starts. The same loop as `Fabric::run` at jobs=1.
fn run_with<D: Trace>(
    mut fab: Fabric,
    seed: u64,
    d: &mut D,
    mut on_window: impl FnMut(),
) -> FabricRun {
    let wl = offered(seed);
    let n = fab.topology().endpoints;
    let ct = fab.cell_time();
    let windows = fab.windows_for(SLOTS, DRAIN);
    let mut sources: Vec<TerminalSource> = (0..n).map(|i| TerminalSource::new(&wl, i)).collect();
    fab.run_with(windows, |from, to, inj| {
        on_window();
        let mut slot = from.div_ceil(ct);
        while slot * ct < to && slot < SLOTS {
            let cycle = slot * ct;
            for (i, src) in sources.iter_mut().enumerate() {
                d.enter(Span::Draw);
                let cell = src.draw(&wl, n, cycle);
                d.exit();
                if let Some(cell) = cell {
                    inj.push((i, cycle, cell));
                }
            }
            slot += 1;
        }
    })
}
