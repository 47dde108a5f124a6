//! The repository benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <switch-saturated|switch-bursty-incast|fabric-omega1024>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--spans-dir <dir>] [--corrupt <drop-record|swap-flow|shift-cycle>]
//! ```
//!
//! Every repetition builds its models and renders its inputs from one of
//! [`INPUTS`] seeds split off `--seed` (`setup_s`), then runs the timed
//! phase. A pass is [`INPUTS`] consecutive repetitions, one of each
//! input; passes continue while another fits in `--seconds`. The timed
//! phase is split into pieces of a millisecond or two at points fixed by
//! the input, and the report takes each piece's best time in the run.
//! The first repetition of each input is checked against the workload's
//! oracles and every later one must reproduce its digest. `--trace 1`
//! alternates untraced and traced repetitions and reports the per-layer
//! metrics instead; `--corrupt` damages the checked result on purpose,
//! so the run must fail. The line before the last is the run's context
//! as JSON, the last line the JSON result; the exit code is 0 only when
//! every check passed.

mod fabric_omega;
mod incast;
mod saturated;
mod trace;
mod workload;

use std::time::{Duration, Instant};
use trace::{Off, Span, Spans, Trace};
use workload::{Checks, Corrupt, Summary, Workload};

/// Inputs a run cycles through, each from its own seed split off the
/// run's seed. The simulated metrics pool all of them, and an untraced
/// run measures whole passes over them, so every pass does the same work.
const INPUTS: usize = 8;
/// Traced runs make at least this many repetitions of each kind.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_dir: Option<String>,
    corrupt: Option<Corrupt>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut spans_dir, mut corrupt) = (None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--spans-dir" => spans_dir = Some(value),
            "--corrupt" => {
                corrupt = Some(Corrupt::parse(&value).ok_or_else(|| {
                    format!("--corrupt takes drop-record, swap-flow or shift-cycle, not {value}")
                })?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans_dir,
        corrupt,
    })
}

/// Host timings of one repetition.
struct Rep {
    setup_s: f64,
    timed_s: f64,
    skipped: u64,
    executed: u64,
}

/// Run one repetition on input `seed`: setup, then the timed phase.
fn rep<W: Workload, T: Trace>(w: &W, seed: u64, t: &mut T) -> (Rep, W::Out) {
    let (skipped, executed) = (
        simkernel::horizon::ff_skipped(),
        simkernel::horizon::ff_executed(),
    );
    t.enter(Span::Rep);
    let t0 = Instant::now();
    t.enter(Span::Setup);
    let st = w.setup(seed, t);
    t.exit();
    let t1 = Instant::now();
    t.enter(Span::Timed);
    let out = w.run(st, t);
    t.exit();
    let t2 = Instant::now();
    t.exit();
    let rep = Rep {
        setup_s: (t1 - t0).as_secs_f64(),
        timed_s: (t2 - t1).as_secs_f64(),
        skipped: simkernel::horizon::ff_skipped() - skipped,
        executed: simkernel::horizon::ff_executed() - executed,
    };
    (rep, out)
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of samples given as value -> count.
fn percentile(hist: &std::collections::BTreeMap<u64, u64>, q: f64) -> f64 {
    let n: u64 = hist.values().sum();
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n.max(1));
    let mut seen = 0;
    for (&v, &c) in hist {
        seen += c;
        if seen >= rank {
            return v as f64;
        }
    }
    0.0
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Moving the calling thread between CPUs. On a shared host each CPU
/// is slowed by its own neighbours, at its own times.
#[cfg(target_os = "linux")]
mod cpu {
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The CPUs this thread may run on.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: the kernel writes at most `size` bytes into `mask`.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Run the calling thread on `c` only.
    pub fn pin(c: usize) {
        let mut mask = [0u64; WORDS];
        mask[c / 64] = 1 << (c % 64);
        // SAFETY: the kernel reads `size` bytes from `mask`. A failure
        // leaves the thread where it was, which only costs steadiness.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod cpu {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_: usize) {}
}

/// Peak resident memory of this process (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One metric of the report.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Measured in host time, as opposed to simulated results and counts,
    /// which are exact for a given seed.
    host: bool,
}

fn host(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        host: true,
    }
}

fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        host: false,
    }
}

/// The per-layer metrics of one traced repetition.
fn layer_sample(t: &Spans, rep: &Rep, s: &Summary, jobs: usize) -> Vec<Metric> {
    let count = |name: &str| {
        s.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |c| c.1)
    };
    let tot = |span: Span| t.totals(span);
    let run_s = tot(Span::FabricRun).total_s();
    let seq_s = tot(Span::FabricSeqRun).total_s();
    let speedup = ratio(seq_s, run_s);
    let windows = count("fabric.windows");
    let horizon_cycles = (rep.skipped + rep.executed) as f64;
    vec![
        host("traffic.render_s", "s", tot(Span::Render).total_s()),
        host("traffic.draw_s", "s", tot(Span::Draw).total_s()),
        exact(
            "traffic.offered_packets",
            "count",
            count("traffic.offered_packets"),
        ),
        host("rtl.tick_ns", "ns", tot(Span::RtlTick).mean_ns()),
        host("rtl.busy_s", "s", tot(Span::RtlTick).total_s()),
        host("wide.tick_ns", "ns", tot(Span::WideTick).mean_ns()),
        host("wide.busy_s", "s", tot(Span::WideTick).total_s()),
        host("ibank.tick_ns", "ns", tot(Span::IbankTick).mean_ns()),
        host("ibank.busy_s", "s", tot(Span::IbankTick).total_s()),
        exact("rtl.fused_reads", "count", count("rtl.fused_reads")),
        exact("rtl.rw_collisions", "count", count("rtl.rw_collisions")),
        exact("rtl.dropped", "count", count("rtl.dropped")),
        exact("wide.dropped", "count", count("wide.dropped")),
        exact("ibank.dropped", "count", count("ibank.dropped")),
        host(
            "behavioral.tick_ns",
            "ns",
            tot(Span::BehavioralTick).mean_ns(),
        ),
        exact(
            "behavioral.tick_calls",
            "count",
            tot(Span::BehavioralTick).calls as f64,
        ),
        host(
            "behavioral.busy_s",
            "s",
            tot(Span::BehavioralTick).total_s(),
        ),
        exact("policy.drops", "count", count("policy.drops")),
        exact("policy.preempts", "count", count("policy.preempts")),
        exact("policy.admit_ratio", "ratio", count("policy.admit_ratio")),
        host("horizon.advance_s", "s", tot(Span::Advance).total_s()),
        exact(
            "horizon.advance_calls",
            "count",
            tot(Span::Advance).calls as f64,
        ),
        exact("horizon.skipped_cycles", "cycles", rep.skipped as f64),
        exact("horizon.executed_cycles", "cycles", rep.executed as f64),
        exact(
            "horizon.skip_ratio",
            "ratio",
            ratio(rep.skipped as f64, horizon_cycles),
        ),
        host("fabric.run_s", "s", run_s),
        host("fabric.seq_run_s", "s", seq_s),
        host("fabric.shard_speedup", "x", speedup),
        host("fabric.shard_efficiency", "ratio", speedup / jobs as f64),
        exact("fabric.windows", "count", windows),
        host("fabric.ns_per_window", "ns", ratio(run_s * 1e9, windows)),
        exact(
            "fabric.shard_imbalance",
            "ratio",
            count("fabric.shard_imbalance"),
        ),
        exact("fabric.dropped", "count", count("fabric.dropped")),
        exact("fabric.residual", "count", count("fabric.residual")),
    ]
}

/// Run `w` for the requested time and report.
fn measure<W: Workload>(w: &W, args: &Args) -> i32 {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut checks = Checks::default();
    // The first repetition of each input is checked in full; every later
    // one must reproduce its digest.
    let mut firsts: Vec<Option<Summary>> = (0..INPUTS).map(|_| None).collect();
    // The first repetitions' simulated latencies, pooled: cycles -> count.
    let mut lat_hist: std::collections::BTreeMap<u64, u64> = Default::default();
    let mut pps_off = Vec::new();
    // Untraced repetitions: (delivered, timed_s, setup_s).
    let mut off: Vec<(f64, f64, f64)> = Vec::new();
    // Host times take each input's best untraced times: every repetition
    // of an input does the same work, piece by piece, and on a shared
    // host work can only be slowed, so the fastest time is the one that
    // best repeats from run to run. Per input: (delivered, best timed_s,
    // best setup_s), and the best time of each piece of the timed phase.
    let mut best = [(0.0, f64::INFINITY, f64::INFINITY); INPUTS];
    let mut best_pieces: Vec<Vec<f64>> = vec![Vec::new(); INPUTS];
    let mut pass_start = Instant::now();
    let mut pps_on = Vec::new();
    let mut layers: Vec<Vec<Metric>> = Vec::new();
    let mut spans = Spans::new();
    let mut span_totals = [trace::Agg::default(); Span::ALL.len()];
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    // A single-threaded workload moves to the next CPU it may use at
    // every pass, so each input is measured on each of them.
    let cpus = if w.jobs() == 1 && !args.trace {
        cpu::allowed()
    } else {
        Vec::new()
    };
    for k in 0.. {
        let input = k % INPUTS;
        if input == 0 && cpus.len() > 1 {
            cpu::pin(cpus[k / INPUTS % cpus.len()]);
        }
        let seed = simkernel::split_seed(args.seed, input as u64);
        let traced = args.trace && k % 2 == 1;
        let (r, mut out) = if traced {
            spans.begin_run(k as u64);
            rep(w, seed, &mut spans)
        } else {
            rep(w, seed, &mut Off)
        };
        let s = w.summary(&out);
        let pps = s.delivered as f64 / r.timed_s;
        if traced {
            for d in w.reference(seed, &mut spans) {
                checks.expect(d == s.digest, || {
                    format!(
                        "reference executor digest {d:#x} != timed run digest {:#x}",
                        s.digest
                    )
                });
            }
            for (sum, &span) in span_totals.iter_mut().zip(&Span::ALL) {
                sum.add(spans.totals(span));
            }
            pps_on.push(pps);
            layers.push(layer_sample(&spans, &r, &s, w.shard_jobs()));
        } else {
            pps_off.push(pps);
            off.push((s.delivered as f64, r.timed_s, r.setup_s));
            let b = &mut best[input];
            *b = (s.delivered as f64, b.1.min(r.timed_s), b.2.min(r.setup_s));
            let bp = &mut best_pieces[input];
            if bp.is_empty() {
                bp.clone_from(&s.pieces);
            } else {
                bp.iter_mut()
                    .zip(&s.pieces)
                    .for_each(|(b, p)| *b = b.min(*p));
            }
        }
        match &firsts[input] {
            None => {
                if let Some(kind) = args.corrupt.filter(|_| k == 0) {
                    w.corrupt(&mut out, kind);
                }
                w.check(&out, &mut checks);
                let mut s = s;
                for l in std::mem::take(&mut s.latencies) {
                    *lat_hist.entry(l).or_default() += 1;
                }
                firsts[input] = Some(s);
            }
            Some(f) => checks.expect(s.digest == f.digest, || {
                format!(
                    "repetition {k} digest {:#x} != input {input}'s first {:#x}",
                    s.digest, f.digest
                )
            }),
        }
        if args.trace {
            if pps_off.len().min(pps_on.len()) >= MIN_REPS && start.elapsed() >= budget {
                break;
            }
        } else if off.len().is_multiple_of(INPUTS) {
            // Stop when another pass as long as this one would overrun.
            let pass = pass_start.elapsed();
            pass_start = Instant::now();
            if start.elapsed() + pass > budget {
                break;
            }
        }
    }

    // Simulated results pool the inputs run (all of them without --trace).
    let mut digest = workload::Digest::new();
    let (mut offered, mut lost) = (0, 0);
    for f in firsts.iter().flatten() {
        digest.mix(f.digest);
        offered += f.offered;
        lost += f.lost;
    }
    let sim_digest = digest.value();
    let samples: u64 = lat_hist.values().sum();

    // packets_per_s: the inputs' delivered packets over their best timed
    // seconds; setup_s: the mean of their best setups.
    let sum = |f: fn(&(f64, f64, f64)) -> f64| best.iter().map(f).sum::<f64>();
    let best_rep_pps = sum(|b| b.0) / sum(|b| b.1);
    let best_setup = sum(|b| b.2) / INPUTS as f64;
    let best_timed: f64 = best_pieces.iter().flatten().sum();
    let best_pps = sum(|b| b.0) / best_timed;
    let passes: Vec<(f64, f64)> = off
        .chunks_exact(INPUTS)
        .map(|p| {
            let sum = |f: fn(&(f64, f64, f64)) -> f64| p.iter().map(f).sum::<f64>();
            (sum(|r| r.0) / sum(|r| r.1), sum(|r| r.2) / INPUTS as f64)
        })
        .collect();

    let report = if args.trace {
        // Host times take the median of every traced repetition; exact
        // values that of the first MIN_REPS (always the same inputs), so
        // they do not depend on how many repetitions the host managed.
        let mut m: Vec<Metric> = layers[0]
            .iter()
            .enumerate()
            .map(|(i, x)| {
                let reps = if x.host {
                    &layers[..]
                } else {
                    &layers[..MIN_REPS]
                };
                let values: Vec<f64> = reps.iter().map(|l| l[i].value).collect();
                Metric {
                    value: median(&values),
                    ..*x
                }
            })
            .collect();
        m.push(host(
            "trace.overhead",
            "x",
            ratio(median(&pps_off), median(&pps_on)),
        ));
        m
    } else {
        vec![
            host("packets_per_s", "1/s", best_pps),
            host("setup_s", "s", best_setup),
            host("peak_rss_mb", "MiB", peak_rss_mb()),
            exact(
                "checks_passed_share",
                "ratio",
                ratio(
                    (checks.attempted - checks.failed) as f64,
                    checks.attempted as f64,
                ),
            ),
            exact("sim_loss", "ratio", ratio(lost as f64, offered as f64)),
            exact(
                "sim_latency_p50_cycles",
                "cycles",
                percentile(&lat_hist, 0.5),
            ),
            exact(
                "sim_latency_p999_cycles",
                "cycles",
                percentile(&lat_hist, 0.999),
            ),
        ]
    };
    let rustc = env!("PERFBENCH_RUSTC");
    let header = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {nproc}, \"jobs\": {}, \"shard_jobs\": {}, \"rustc\": \"{rustc}\", \"sim_digest\": \"{:#018x}\", \"passes\": {}, \"reps_untraced\": {}, \"reps_traced\": {}}}",
        args.workload,
        args.seed,
        w.jobs(),
        w.shard_jobs(),
        sim_digest,
        passes.len(),
        pps_off.len(),
        pps_on.len()
    );
    if let Some(dir) = args.spans_dir.as_deref().filter(|_| args.trace) {
        let path = format!("{dir}/spans-{}.jsonl", args.workload);
        let totals: Vec<_> = Span::ALL.iter().copied().zip(span_totals).collect();
        if let Err(e) = spans.write(&path, &header, &totals) {
            eprintln!("cannot write spans to {path}: {e}");
        }
        println!("# self time per span, summed over traced repetitions:");
        for (s, a) in totals.iter().filter(|(_, a)| a.calls > 0) {
            println!(
                "#   {:<28} calls {:>10}  total {:>10.6} s  self {:>10.6} s",
                s.name(),
                a.calls,
                a.total_s(),
                a.self_ns as f64 * 1e-9
            );
        }
    }
    println!(
        "# sim_digest {sim_digest:#018x}  latency samples {samples}  offered {offered}  lost {lost}"
    );
    println!(
        "# checks attempted {} failed {} failed_share {}",
        checks.attempted,
        checks.failed,
        ratio(checks.failed as f64, checks.attempted as f64)
    );
    let mut sorted = pps_off.clone();
    sorted.sort_by(f64::total_cmp);
    let q = |f: f64| sorted[((sorted.len() - 1) as f64 * f).round() as usize];
    println!(
        "# untraced packets_per_s over {} repetitions: min {:.0} q1 {:.0} median {:.0} q3 {:.0} max {:.0}",
        sorted.len(),
        q(0.0),
        q(0.25),
        median(&sorted),
        q(0.75),
        q(1.0)
    );
    if !args.trace {
        let rates: Vec<String> = passes.iter().map(|p| format!("{:.0}", p.0)).collect();
        println!("# packets_per_s per pass: {}", rates.join(" "));
        println!("# packets_per_s of the best repetitions: {best_rep_pps:.0}");
        let pieces: usize = best_pieces.iter().map(Vec::len).sum();
        println!(
            "# timed pieces per pass: {pieces}, best {:.3} ms each on average",
            best_timed * 1e3 / pieces as f64
        );
        let setups: Vec<String> = passes.iter().map(|p| format!("{:.5}", p.1)).collect();
        println!("# setup_s per pass: {}", setups.join(" "));
    }
    for m in &report {
        let clock = if m.host { "host" } else { "exact" };
        println!("# {:<28} {:>22} {:<6} {clock}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = report
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let correct = checks.failed == 0;
    // The run's context, as JSON, on the line before the result.
    println!("{{\"run\": {header}}}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let code = match args.workload.as_str() {
        "switch-saturated" => measure(&saturated::Saturated, &args),
        "switch-bursty-incast" => measure(&incast::Incast, &args),
        "fabric-omega1024" => measure(
            &fabric_omega::Omega {
                shard_jobs: nproc.min(2),
            },
            &args,
        ),
        other => {
            eprintln!(
                "perfbench: unknown workload {other} (switch-saturated, switch-bursty-incast, fabric-omega1024)"
            );
            2
        }
    };
    std::process::exit(code);
}
