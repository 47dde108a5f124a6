//! Benchmark-side spans around the calls the benchmark makes into each
//! layer's public API.
//!
//! A workload is generic over [`Trace`]: the untraced build ([`Off`])
//! compiles every `enter`/`exit` to nothing, so end-to-end numbers are
//! measured without tracing; the traced build ([`Spans`]) records a span
//! per call with its parent and run id and folds it into per-layer
//! totals and self time (duration minus the time its child spans cover).

use std::fmt::Write as _;
use std::time::Instant;

/// The span names. Leaf spans wrap one public call each; the others
/// group a phase of one repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// One repetition of a workload (parent of everything below).
    Rep,
    /// Model construction and traffic rendering.
    Setup,
    /// The timed phase.
    Timed,
    /// `traffic` calls that render a schedule.
    Render,
    /// `fabric::TerminalSource::draw`.
    Draw,
    /// `rtl::PipelinedSwitch::tick`.
    RtlTick,
    /// `widemem::WideMemorySwitchRtl::tick`.
    WideTick,
    /// `ibank::InterleavedSwitch::tick`.
    IbankTick,
    /// `behavioral::BehavioralSwitch::tick`.
    BehavioralTick,
    /// `simkernel::horizon::advance_to_batched`.
    Advance,
    /// `fabric::Fabric::run` at the workload's `shard_jobs`, the sharded
    /// executor (traced runs only).
    FabricRun,
    /// `fabric::Fabric::run` on one thread: the timed phase.
    FabricSeqRun,
    /// `fabric::Fabric::run_with` (one thread, benchmark injector), with
    /// a span around every draw (traced runs only).
    FabricDrawRun,
}

impl Span {
    /// Every span, in index order.
    pub const ALL: [Span; 13] = [
        Span::Rep,
        Span::Setup,
        Span::Timed,
        Span::Render,
        Span::Draw,
        Span::RtlTick,
        Span::WideTick,
        Span::IbankTick,
        Span::BehavioralTick,
        Span::Advance,
        Span::FabricRun,
        Span::FabricSeqRun,
        Span::FabricDrawRun,
    ];

    /// Name written to the span log.
    pub fn name(self) -> &'static str {
        match self {
            Span::Rep => "rep",
            Span::Setup => "setup",
            Span::Timed => "timed",
            Span::Render => "traffic.render",
            Span::Draw => "traffic.draw",
            Span::RtlTick => "rtl.tick",
            Span::WideTick => "wide.tick",
            Span::IbankTick => "ibank.tick",
            Span::BehavioralTick => "behavioral.tick",
            Span::Advance => "horizon.advance_to_batched",
            Span::FabricRun => "fabric.run",
            Span::FabricSeqRun => "fabric.run_with",
            Span::FabricDrawRun => "fabric.run_with.traced_draws",
        }
    }

    /// Per-call spans, far more numerous than the phase spans: only
    /// these are subject to the log cap.
    fn is_leaf(self) -> bool {
        matches!(
            self,
            Span::Draw
                | Span::RtlTick
                | Span::WideTick
                | Span::IbankTick
                | Span::BehavioralTick
                | Span::Advance
        )
    }
}

/// Span recording, statically on or off.
pub trait Trace {
    /// Open a span; spans nest strictly.
    fn enter(&mut self, span: Span);
    /// Close the innermost open span.
    fn exit(&mut self);
}

/// No tracing: every call compiles away.
pub struct Off;

impl Trace for Off {
    #[inline(always)]
    fn enter(&mut self, _: Span) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

/// Per-span totals of one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans closed.
    pub calls: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), ns.
    pub self_ns: u64,
}

impl Agg {
    /// Summed duration in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    /// Fold in another run's totals.
    pub fn add(&mut self, o: Agg) {
        self.calls += o.calls;
        self.total_ns += o.total_ns;
        self.self_ns += o.self_ns;
    }

    /// Mean duration per call in ns (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

struct Open {
    id: u64,
    parent: u64,
    span: Span,
    start_ns: u64,
    child_ns: u64,
}

/// One closed span as written to the log.
struct Record {
    run: u64,
    id: u64,
    parent: u64,
    span: Span,
    start_ns: u64,
    end_ns: u64,
}

/// Leaf spans kept in the log (per process); later ones still count in
/// the per-layer totals and are reported as not logged.
const LOG_CAP: usize = 20_000;

/// The recording tracer: spans live in memory until [`Spans::write`].
pub struct Spans {
    origin: Instant,
    run: u64,
    next_id: u64,
    stack: Vec<Open>,
    agg: [Agg; Span::ALL.len()],
    log: Vec<Record>,
    leaves_logged: usize,
    leaves_unlogged: u64,
}

impl Spans {
    /// An empty tracer; times are relative to its creation.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            run: 0,
            next_id: 1,
            stack: Vec::new(),
            agg: [Agg::default(); Span::ALL.len()],
            log: Vec::new(),
            leaves_logged: 0,
            leaves_unlogged: 0,
        }
    }

    /// Start a new run id (one per repetition) and reset the per-run
    /// totals.
    pub fn begin_run(&mut self, run: u64) {
        assert!(self.stack.is_empty(), "run boundary inside an open span");
        self.run = run;
        self.agg = [Agg::default(); Span::ALL.len()];
    }

    /// Per-span totals of the current run.
    pub fn totals(&self, span: Span) -> Agg {
        self.agg[span as usize]
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Write the span log as JSON lines: one `header` object, one
    /// object per logged span, then per-span totals with self time.
    pub fn write(&self, path: &str, header: &str, totals: &[(Span, Agg)]) -> std::io::Result<()> {
        let mut s = String::with_capacity(self.log.len() * 96 + 4096);
        let _ = writeln!(
            s,
            "{{\"header\": {header}, \"spans_logged\": {}, \"leaf_spans_not_logged\": {}}}",
            self.log.len(),
            self.leaves_unlogged
        );
        for r in &self.log {
            let _ = writeln!(
                s,
                "{{\"run\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                r.run,
                r.id,
                r.parent,
                r.span.name(),
                r.start_ns,
                r.end_ns
            );
        }
        for (span, a) in totals {
            let _ = writeln!(
                s,
                "{{\"total\": \"{}\", \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                span.name(),
                a.calls,
                a.total_ns,
                a.self_ns
            );
        }
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

impl Trace for Spans {
    fn enter(&mut self, span: Span) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map_or(0, |o| o.id);
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id,
            parent,
            span,
            start_ns,
            child_ns: 0,
        });
    }

    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let o = self.stack.pop().expect("exit without a matching enter");
        let dur = end_ns - o.start_ns;
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += dur;
        }
        let a = &mut self.agg[o.span as usize];
        a.calls += 1;
        a.total_ns += dur;
        a.self_ns += dur - o.child_ns.min(dur);
        if o.span.is_leaf() {
            if self.leaves_logged == LOG_CAP {
                self.leaves_unlogged += 1;
                return;
            }
            self.leaves_logged += 1;
        }
        self.log.push(Record {
            run: self.run,
            id: o.id,
            parent: o.parent,
            span: o.span,
            start_ns: o.start_ns,
            end_ns,
        });
    }
}
