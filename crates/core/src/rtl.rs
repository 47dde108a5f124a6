//! The word-level RTL model of the pipelined-memory shared-buffer switch.
//!
//! This model contains, as explicit state, every datapath element of
//! figures 4 and 5 of the paper:
//!
//! * one **input latch row** per incoming link (`stages` word latches per
//!   link, written cyclically as words arrive — *no double buffering*);
//! * `stages` single-ported **SRAM banks** (from `membank`; the port
//!   discipline is asserted every cycle, release builds included: any
//!   schedule a real bank could not execute panics);
//! * one shared **output register row** (`stages` registers; a register
//!   loaded at cycle `c` drives its bound outgoing link at `c + 1`);
//! * the **wave arbiter** (one initiation per cycle, read priority, EDF
//!   among writes);
//! * **buffer management** (free list + per-output descriptor queues);
//! * **automatic cut-through**, including the fused form where the output
//!   register samples the write bus in the very cycle the write wave
//!   begins.
//!
//! The public interface is one [`PipelinedSwitch::tick`] per clock cycle:
//! words in on every input link, words out on every output link. Packet
//! reassembly/verification for testbenches is provided by
//! [`OutputCollector`].
//!
//! ## The dense word-level kernel
//!
//! The paper's memory does little per cycle — at most one wave
//! initiation, and every stage repeats what stage 0 did one cycle
//! earlier — and the kernel is laid out so a cycle costs a few word
//! operations (DESIGN.md §6):
//!
//! * **Arbitration** folds three flat arrays into packed request words
//!   for [`Arbiter::decide_dense`]: `ready_at[j]` (earliest read
//!   initiation for output `j`'s live queue head, already folding the
//!   link's busy time), `welig_at[i]` / `wdead_at[i]` (eligibility and
//!   latch deadline of input `i`'s front pending write). They are
//!   refreshed only where queue heads or pending writes change; an
//!   overdue deadline in the same fold takes the cold latch-overrun
//!   sweep.
//! * **Waves** live in a ring indexed by `start % stages`, as parallel
//!   field arrays plus two packed 64-bit slot words (hence at most 64
//!   stages, `n_in + n_out ≤ 64`) — one for slots carrying a write, one
//!   for slots carrying a read (both bits: a fused wave). The
//!   stage walk is one pass over the write word and one over the read
//!   word; a per-cycle bank-busy word asserts the single-port discipline
//!   on every access.
//! * The fig. 5 **control row** is not stored:
//!   [`PipelinedSwitch::stage_controls`] derives it on demand from the
//!   wave ring.
//! * **Probe sites** are folded away at compile time: the kernel is
//!   monomorphized over `const PROBED: bool`, and the probed instance
//!   walks waves oldest-first so `BankAccess` and ECC events keep the
//!   order of the frozen scalar reference.
//!
//! ## Why latch overruns cannot happen (and are still counted)
//!
//! A write wave for a packet whose header arrived at `a` must initiate in
//! `[a+1, a+S]` (S cycles). Within any S consecutive cycles: each outgoing
//! link initiates at most one read (a link stays busy S cycles per
//! packet), so reads take at most `n_out` of the S slots; each *other*
//! input contributes at most one write with an earlier deadline (its
//! deadlines are S apart), so at most `n_in − 1` writes precede ours under
//! EDF. That totals `S − 1` competitors for `S` slots — the wave always
//! fits, even at 100 % load on every link. The model still counts
//! latch overruns (and probes them as [`DropReason::LatchOverrun`]) so
//! that any policy change violating the argument fails tests loudly
//! instead of silently corrupting packets.

use crate::arbiter::{Arbiter, Decision};
use crate::bufmgr::{BufferManager, Descriptor};
use crate::config::SwitchConfig;
use crate::events::{IntegrityReason, SwitchCounters};
use crate::policy::{AdmitDecision, PolicyEngine, PolicyView, SharingPolicy};
use crate::recovery::{RecoveryReport, RecoveryWindows};
use membank::bank::{EccOutcome, PortKind, SramBank};
use simkernel::cell::Packet;
use simkernel::ids::{Addr, Cycle, PortId};
use telemetry::{
    ArbOutcome, DropReason, FaultTag, GaugeKind, ProbeEvent, ProbeHandle, RecoveryTag,
    SharedRecorder, TelemetryConfig, WaveDir,
};

/// Map an integrity verdict onto the probe stream's drop vocabulary.
pub(crate) fn drop_reason(r: IntegrityReason) -> DropReason {
    match r {
        IntegrityReason::BadHeader => DropReason::BadHeader,
        IntegrityReason::TruncatedPacket => DropReason::Truncated,
        IntegrityReason::ChecksumMismatch => DropReason::Checksum,
        IntegrityReason::PayloadMismatch => DropReason::Payload,
    }
}

/// What one memory stage is doing in a given cycle (the fig. 5 control
/// signals, reconstructed per stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StageCtrl {
    /// No operation.
    #[default]
    Nop,
    /// Writing `addr` from input link `link`.
    Write {
        /// Slot written.
        addr: Addr,
        /// Source input link.
        link: PortId,
    },
    /// Reading `addr` for output link `link`.
    Read {
        /// Slot read.
        addr: Addr,
        /// Destination output link.
        link: PortId,
    },
    /// Fused write+cut-through: writing from `input` while the output
    /// register for `output` samples the bus.
    Fused {
        /// Slot written.
        addr: Addr,
        /// Source input link.
        input: PortId,
        /// Destination output link.
        output: PortId,
    },
}

#[derive(Debug, Clone)]
struct PendingWrite {
    addr: Addr,
    eligible: Cycle,
    deadline: Cycle,
}

#[derive(Debug, Clone, Default)]
struct InputState {
    /// Words of the current packet received so far (0 = between packets).
    k: usize,
    pending: std::collections::VecDeque<PendingWrite>,
    /// Slot of the packet currently arriving (`None` once the tail is in,
    /// or if the packet was dropped at ingress).
    addr: Option<Addr>,
    /// Id of the packet currently arriving, to guard tail-time descriptor
    /// updates: under cut-through the slot may already have been freed
    /// *and reallocated* to a later packet.
    cur_id: u64,
    /// Running ingress checksum over the words received so far.
    chk: u64,
    /// Id to verify payload words against (ingress payload check only).
    expected_id: Option<u64>,
    /// A payload word deviated from the synthesis rule.
    corrupt: bool,
}

/// Per-output egress-verification state (the modeled link CRC).
#[derive(Debug, Clone, Copy, Default)]
struct OutVerify {
    id: u64,
    k: usize,
    corrupt: bool,
}

/// The wave ring: one entry per `start % stages` slot, stored as
/// parallel field arrays. A wave lives exactly `stages` cycles and at
/// most one initiates per cycle, so live slots never collide. Which
/// slots are live — and whether each writes, reads, or both (fused) —
/// is held in the two packed words `writes` / `reads`; the field arrays
/// are read only under a set bit.
#[derive(Debug)]
struct WaveRing {
    /// Initiation cycle; the wave is at stage `c - start` in cycle `c`.
    start: [Cycle; MAX_STAGES],
    addr: [Addr; MAX_STAGES],
    /// Source input link of a write.
    input: [usize; MAX_STAGES],
    /// Destination output link of a read.
    output: [usize; MAX_STAGES],
    /// Id and birth of the packet a read transmits (departure record).
    id: [u64; MAX_STAGES],
    birth: [Cycle; MAX_STAGES],
    /// Slots whose wave writes the banks.
    writes: u64,
    /// Slots whose wave loads the output registers.
    reads: u64,
    /// `writes` / `reads` as executed in the most recent cycle (before
    /// that cycle's retirement): the source of the derived control row.
    last_writes: u64,
    last_reads: u64,
    /// Ring slot of the current cycle (`cycle % stages`).
    pos: usize,
}

impl WaveRing {
    fn new() -> Self {
        WaveRing {
            start: [0; MAX_STAGES],
            addr: [Addr(0); MAX_STAGES],
            input: [0; MAX_STAGES],
            output: [0; MAX_STAGES],
            id: [0; MAX_STAGES],
            birth: [0; MAX_STAGES],
            writes: 0,
            reads: 0,
            last_writes: 0,
            last_reads: 0,
            pos: 0,
        }
    }

    /// Park a write wave initiated at `c` in the current slot; returns
    /// the slot (a fused read is attached with [`WaveRing::bind_read`]).
    #[inline]
    fn push_write(&mut self, c: Cycle, addr: Addr, input: usize) -> usize {
        let slot = self.pos;
        let bit = 1u64 << slot;
        debug_assert!(
            (self.writes | self.reads) & bit == 0,
            "wave ring slot collision"
        );
        self.start[slot] = c;
        self.addr[slot] = addr;
        self.input[slot] = input;
        self.writes |= bit;
        slot
    }

    /// Park a read wave initiated at `c` in the current slot.
    #[inline]
    fn push_read(&mut self, c: Cycle, addr: Addr, output: usize, id: u64, birth: Cycle) {
        let slot = self.pos;
        debug_assert!(
            (self.writes | self.reads) & (1u64 << slot) == 0,
            "wave ring slot collision"
        );
        self.start[slot] = c;
        self.addr[slot] = addr;
        self.bind_read(slot, output, id, birth);
    }

    #[inline]
    fn bind_read(&mut self, slot: usize, output: usize, id: u64, birth: Cycle) {
        self.output[slot] = output;
        self.id[slot] = id;
        self.birth[slot] = birth;
        self.reads |= 1u64 << slot;
    }

    /// The control signal of the wave in `slot` under the given masks.
    fn ctrl(&self, slot: usize, writes: u64, reads: u64) -> StageCtrl {
        let bit = 1u64 << slot;
        let addr = self.addr[slot];
        match (writes & bit != 0, reads & bit != 0) {
            (true, false) => StageCtrl::Write {
                addr,
                link: PortId(self.input[slot]),
            },
            (false, true) => StageCtrl::Read {
                addr,
                link: PortId(self.output[slot]),
            },
            (true, true) => StageCtrl::Fused {
                addr,
                input: PortId(self.input[slot]),
                output: PortId(self.output[slot]),
            },
            (false, false) => StageCtrl::Nop,
        }
    }
}

/// Stages the kernel supports: one bit per stage in a 64-bit word.
const MAX_STAGES: usize = 64;

/// Index of the lowest set bit of a non-zero slot or stage word.
#[inline]
fn lowest(m: u64) -> usize {
    m.trailing_zeros() as usize & (MAX_STAGES - 1)
}

/// Claim bank `k` for one access in cycle `c`: the single-port
/// discipline as one word operation, asserted in every build.
#[inline]
fn claim_bank(busy: &mut u64, k: usize, c: Cycle) {
    let bit = 1u64 << k;
    assert!(
        *busy & bit == 0,
        "port violation: two accesses to bank {k} in cycle {c}"
    );
    *busy |= bit;
}

/// Visit the set bits of `mask` (ring slots) oldest wave first: slot
/// `first` holds the oldest live wave, so the bits at or above it come
/// before the wrapped ones below it, each ascending.
#[inline]
fn for_each_oldest_first(mask: u64, first: usize, mut f: impl FnMut(usize)) {
    let low = (1u64 << first) - 1;
    for mut m in [mask & !low, mask & low] {
        while m != 0 {
            let slot = lowest(m);
            m &= m - 1;
            f(slot);
        }
    }
}

/// The checksum rule of the integrity scrub: fold words with
/// rotate-and-xor. Any single-bit flip anywhere in the packet flips
/// exactly one bit of the result, so single-event upsets are always
/// detected; word transpositions are caught by the rotation.
pub fn integrity_checksum(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0u64, |c, w| c.rotate_left(1) ^ w)
}

/// The pipelined-memory shared-buffer switch, word-accurate.
#[derive(Debug)]
pub struct PipelinedSwitch {
    cfg: SwitchConfig,
    stages: usize,
    banks: Vec<SramBank>,
    /// Committed input latch values: one row of stage latches per input
    /// link, so the per-wave latch fetch is a single indexed load.
    latches: Vec<[u64; MAX_STAGES]>,
    inputs: Vec<InputState>,
    /// Output register row: the word register `k` drives next cycle and
    /// the link it is bound to, valid where bit `k` of `outreg_mask` is
    /// set. Egress reads the row before the stage walk reloads it, so
    /// one row serves as both the committed and the next-cycle values.
    outreg_word: Vec<u64>,
    outreg_link: Vec<usize>,
    /// `(id, birth)` of the packet whose tail word sits in the last
    /// register (valid when its mask bit is set).
    outreg_tail: (u64, Cycle),
    outreg_mask: u64,
    /// Earliest cycle each output may initiate its next read.
    out_next_init: Vec<Cycle>,
    /// Earliest read-initiation cycle of each output's live queue head
    /// (`Cycle::MAX` when there is none or its write has not started);
    /// folds `out_next_init`.
    ready_at: Vec<Cycle>,
    /// Eligibility and latch deadline of each input's front pending
    /// write (`Cycle::MAX` when none).
    welig_at: Vec<Cycle>,
    wdead_at: Vec<Cycle>,
    /// Cycles from write-wave start to head readiness: 1 under
    /// cut-through, `stages` store-and-forward.
    ready_base: Cycle,
    /// Outputs whose queue may hold stale entries (a slot released while
    /// queued). The arbitration step discards them exactly where the
    /// scalar reference's per-cycle head walk does, which keeps the
    /// queue-depth gauges identical. Cold: only overruns and hardened
    /// truncation release queued slots.
    stale_mask: u64,
    /// Egress payload-verification state per output link.
    out_verify: Vec<OutVerify>,
    /// Injected stuck-stage-control fault: `(stage, until_cycle)` — bank
    /// writes at that stage are suppressed through `until_cycle`.
    stuck_write: Option<(usize, Cycle)>,
    /// Spare bank columns held in reserve for hot failover.
    spares: Vec<SramBank>,
    /// Declared recovery outages (failover settle spans, degraded-mode
    /// shedding); loss inside a window is excused by the oracle.
    recovery_windows: RecoveryWindows,
    /// Any recovery machinery armed (one precomputed flag so the
    /// disabled path pays a single predictable branch per header).
    recovery_on: bool,
    /// Spares exhausted and a bank over threshold: admission permanently
    /// capped at `admission_cap`.
    degraded: bool,
    /// Occupancy ceiling for new admissions (normally `slots`).
    admission_cap: usize,
    /// Cycles of admission pause charged per failover (settle time).
    degrade_len: u64,
    /// Stage whose bank crossed the correction threshold mid-wave; the
    /// failover runs after the stage walk.
    pending_failover: Option<usize>,
    mgr: BufferManager,
    /// The buffer-sharing policy (admission/preemption decisions).
    policy: PolicyEngine,
    /// Cached `policy.is_static()` — the header path branches on this
    /// once per arrival to keep the static pool at its pre-policy cost.
    policy_static: bool,
    /// Scratch for the policy's live queue-length view (cold path).
    scratch_qlens: Vec<usize>,
    arb: Arbiter,
    waves: WaveRing,
    /// The last cycle's fig. 5 control row, once
    /// [`PipelinedSwitch::stage_controls`] has derived it.
    ctrl_row: std::cell::OnceCell<Vec<StageCtrl>>,
    cycle: Cycle,
    counters: SwitchCounters,
    probe: Option<ProbeHandle>,
    /// Last occupancy / queue-depth gauges emitted (probe attached only;
    /// gauges are emitted on change, not per cycle).
    last_occ: u64,
    last_qdepth: Vec<u64>,
    /// Reusable per-cycle scratch (hot path: one `tick` per simulated
    /// cycle — these must not allocate in steady state).
    wire_out: Vec<Option<u64>>,
    /// An all-idle input row for the idle-tick entry points.
    idle_row: Vec<Option<u64>>,
}

impl PipelinedSwitch {
    /// Build a switch from a validated configuration.
    ///
    /// The kernel keeps one bit per stage (and so per port) in a 64-bit
    /// word, which bounds the switch at `n_in + n_out ≤ 64` stages — a
    /// 32×32 switch; multicast headers already limit outputs to 16.
    pub fn new(cfg: SwitchConfig) -> Self {
        cfg.validate();
        assert!(
            cfg.stages() <= MAX_STAGES,
            "the word-level RTL supports at most 64 stages (n_in + n_out)"
        );
        let stages = cfg.stages();
        // Banks carry full 64-bit payload words; `cfg.word_bits` is the
        // physical width used for capacity/throughput accounting (and by
        // `vlsimodel`), not a functional truncation — truncating payloads
        // would only obscure data-integrity checks.
        let mut banks: Vec<SramBank> = (0..stages)
            .map(|_| SramBank::new(cfg.slots, 64, PortKind::SinglePort))
            .collect();
        let mut spares: Vec<SramBank> = (0..cfg.recovery.spare_banks)
            .map(|_| SramBank::new(cfg.slots, 64, PortKind::SinglePort))
            .collect();
        if cfg.recovery.ecc {
            for b in banks.iter_mut().chain(spares.iter_mut()) {
                b.enable_ecc();
            }
        }
        PipelinedSwitch {
            stages,
            banks,
            latches: vec![[0; MAX_STAGES]; cfg.n_in],
            inputs: vec![InputState::default(); cfg.n_in],
            outreg_word: vec![0; stages],
            outreg_link: vec![0; stages],
            outreg_tail: (0, 0),
            outreg_mask: 0,
            out_next_init: vec![0; cfg.n_out],
            ready_at: vec![Cycle::MAX; cfg.n_out],
            welig_at: vec![Cycle::MAX; cfg.n_in],
            wdead_at: vec![Cycle::MAX; cfg.n_in],
            ready_base: if cfg.cut_through { 1 } else { stages as Cycle },
            stale_mask: 0,
            out_verify: vec![OutVerify::default(); cfg.n_out],
            stuck_write: None,
            spares,
            recovery_windows: RecoveryWindows::new(),
            recovery_on: cfg.recovery.enabled(),
            degraded: false,
            admission_cap: cfg.slots,
            pending_failover: None,
            degrade_len: if cfg.recovery.degrade_window == 0 {
                // Natural settle time of one failover: the spare copies
                // one slot per cycle — a full column sweep.
                cfg.slots as u64
            } else {
                cfg.recovery.degrade_window
            },
            mgr: BufferManager::new(cfg.slots, cfg.n_out),
            policy: cfg.policy.engine(cfg.n_out, stages),
            policy_static: cfg.policy.is_static(),
            scratch_qlens: Vec::with_capacity(cfg.n_out),
            arb: Arbiter::new(cfg.arbiter),
            waves: WaveRing::new(),
            ctrl_row: std::cell::OnceCell::new(),
            cycle: 0,
            counters: SwitchCounters::default(),
            probe: None,
            last_occ: 0,
            last_qdepth: vec![0; cfg.n_out],
            wire_out: vec![None; cfg.n_out],
            idle_row: vec![None; cfg.n_in],
            cfg,
        }
    }

    /// Build a switch with telemetry per `tel`: returns the switch and
    /// the attached recorder (if `tel` enables one).
    pub fn with_telemetry(
        cfg: SwitchConfig,
        tel: &TelemetryConfig,
    ) -> (Self, Option<SharedRecorder>) {
        let mut sw = Self::new(cfg);
        let rec = tel.recorder();
        if let Some(r) = &rec {
            sw.attach_probe(r.handle());
        }
        (sw, rec)
    }

    /// Attach a probe sink; every subsequent tick streams structured
    /// [`ProbeEvent`]s into it. Without a probe the kernel runs its
    /// unprobed instantiation, with every emission site compiled out.
    pub fn attach_probe(&mut self, probe: ProbeHandle) {
        self.probe = Some(probe);
    }

    /// Aggregate counters.
    pub fn counters(&self) -> SwitchCounters {
        self.counters
    }

    /// The configuration this switch was built with.
    pub fn config(&self) -> &SwitchConfig {
        &self.cfg
    }

    /// Current cycle (the one the next `tick` will execute).
    pub fn now(&self) -> Cycle {
        self.cycle
    }

    /// Buffer occupancy in packets.
    pub fn occupancy(&self) -> usize {
        self.mgr.occupancy()
    }

    /// Emit one probe event; compiled out of the unprobed kernel.
    #[inline]
    fn emit<const PROBED: bool>(&self, c: Cycle, ev: ProbeEvent) {
        if PROBED {
            if let Some(p) = &self.probe {
                p.emit(c, ev);
            }
        }
    }

    /// Cold path: one non-static admission decision. Returns true when
    /// the arrival may take a slot (a preemption has already freed one
    /// if the policy demanded it). Mirrors the behavioral model's
    /// `policy_admit`: the view (occupancy, live queue lengths) and the
    /// evictability rule (write wave fully retired, no copy in
    /// transmission) are computed identically, so the two models stay
    /// cycle-exact under every policy.
    #[cold]
    fn policy_admit<const PROBED: bool>(&mut self, dst: usize, c: Cycle) -> bool {
        let s = self.stages as Cycle;
        let mut qlens = std::mem::take(&mut self.scratch_qlens);
        qlens.clear();
        qlens.extend((0..self.cfg.n_out).map(|j| self.mgr.queue_len_live(PortId(j))));
        let decision = self.policy.admit(&PolicyView {
            occupancy: self.mgr.occupancy(),
            capacity: self.cfg.slots,
            n_out: self.cfg.n_out,
            dst,
            qlens: &qlens,
        });
        self.scratch_qlens = qlens;
        match decision {
            AdmitDecision::Accept => true,
            AdmitDecision::Reject => false,
            AdmitDecision::Preempt { victim } => {
                // Evictable: the write wave has fully retired (freeing a
                // slot mid-write would let the reallocated address
                // collide with the in-flight wave) and no copy's read
                // has initiated (refs still equals the fanout).
                let addr = self.mgr.rearmost_matching(PortId(victim), |d, refs| {
                    d.write_start.is_some_and(|ws| c >= ws + s) && refs == d.fanout()
                });
                match addr {
                    Some(a) => {
                        let d = self.mgr.evict(a);
                        self.refresh_ready_mask(d.dsts);
                        self.counters.policy_preempts += 1;
                        self.emit::<PROBED>(
                            c,
                            ProbeEvent::Drop {
                                id: d.id,
                                reason: DropReason::Preempted,
                            },
                        );
                        true
                    }
                    None => false,
                }
            }
        }
    }

    /// The per-stage control signals of the most recently executed cycle
    /// (the fig. 5 table row). Derived from the wave ring on the first
    /// call after a tick — stage `k` shows the wave that initiated `k`
    /// cycles earlier — so cycles nobody inspects never build it.
    pub fn stage_controls(&self) -> &[StageCtrl] {
        self.ctrl_row.get_or_init(|| self.derive_controls())
    }

    fn derive_controls(&self) -> Vec<StageCtrl> {
        let mut row = vec![StageCtrl::Nop; self.stages];
        let w = &self.waves;
        let mut m = w.last_writes | w.last_reads;
        if m != 0 {
            let c = self.cycle - 1;
            while m != 0 {
                let slot = lowest(m);
                m &= m - 1;
                row[(c - w.start[slot]) as usize] = w.ctrl(slot, w.last_writes, w.last_reads);
            }
        }
        row
    }

    /// Fault injection (testbench only): flip `mask` bits in bank
    /// `stage` at buffer address `addr`, as a single-event upset would.
    /// The fault-injection suite uses this to prove the end-to-end
    /// integrity checks detect storage corruption.
    ///
    /// Returns `Some(packet_id)` when the flipped word is *live* packet
    /// data — already deposited by a buffered packet's write wave, or
    /// still ahead of an in-flight read wave — i.e. the upset can reach a
    /// reader. Upsets landing in unoccupied or already-consumed storage
    /// are harmless and return `None`; campaigns use this to compute
    /// detection coverage over *effective* faults only.
    pub fn inject_bank_fault(&mut self, stage: usize, addr: Addr, mask: u64) -> Option<u64> {
        self.banks[stage].inject_fault(addr, mask);
        if let Some(d) = self.mgr.descriptor(addr) {
            // The write wave touches `stage` at cycle `ws + stage`; the
            // word is in the bank once that cycle has executed.
            if d.write_start
                .is_some_and(|ws| ws + (stage as Cycle) < self.cycle)
            {
                return Some(d.id);
            }
        }
        // Slot already freed (read-initiated), but a read wave may still
        // be on its way to this stage: the first live wave in ring order
        // on this address that has not passed the stage decides.
        let w = &self.waves;
        let mut m = w.writes | w.reads;
        while m != 0 {
            let slot = lowest(m);
            m &= m - 1;
            if w.addr[slot] == addr && w.start[slot] + stage as Cycle >= self.cycle {
                return (w.reads >> slot & 1 != 0).then_some(w.id[slot]);
            }
        }
        None
    }

    /// Fault injection (testbench only): stick the write-control signal
    /// of `stage` low through cycle `until` — bank writes at that stage
    /// are suppressed (counted in `writes_suppressed`), leaving a stale
    /// word in every slot written while the fault is active.
    pub fn force_stuck_write(&mut self, stage: usize, until: Cycle) {
        assert!(stage < self.stages, "no such stage");
        self.stuck_write = Some((stage, until));
    }

    /// Checksum of slot `addr` as currently stored across the banks
    /// (stage 0 first — the same fold order as the ingress computation).
    fn banks_checksum(&self, addr: Addr) -> u64 {
        integrity_checksum(self.banks.iter().map(|b| b.peek(addr)))
    }

    /// ECC scrub of a fully written slot, stage by stage, correcting
    /// single-bit upsets in place before the checksum verdict is taken.
    /// Rides the sense amplifiers of the scheduled access — no port cost.
    /// Banks that accumulate corrections past the failover threshold are
    /// hot-swapped for a spare.
    #[cold]
    fn scrub_slot<const PROBED: bool>(&mut self, addr: Addr, c: Cycle) {
        for k in 0..self.stages {
            match self.banks[k].scrub(addr) {
                EccOutcome::Clean => continue,
                EccOutcome::Corrected { bit } => {
                    self.counters.ecc_corrected += 1;
                    self.emit::<PROBED>(
                        c,
                        ProbeEvent::Recovery {
                            tag: RecoveryTag::EccCorrected,
                            index: k,
                            info: u64::from(bit),
                        },
                    );
                    if self.cfg.recovery.failover_threshold > 0
                        && self.banks[k].ecc_corrections() >= self.cfg.recovery.failover_threshold
                    {
                        self.fail_over::<PROBED>(k, c);
                    }
                }
                EccOutcome::Uncorrectable => {
                    self.counters.ecc_uncorrectable += 1;
                    self.emit::<PROBED>(
                        c,
                        ProbeEvent::Recovery {
                            tag: RecoveryTag::EccUncorrectable,
                            index: k,
                            info: addr.index() as u64,
                        },
                    );
                }
            }
        }
    }

    /// ECC at the moment of a read wave's access: a cut-through read
    /// reaches banks the initiation-time scrub could not (the slot was
    /// not fully written yet), so the word is repaired right before it
    /// is sampled. A bank crossing the failover threshold is swapped
    /// after the stage walk.
    #[cold]
    fn scrub_on_read<const PROBED: bool>(&mut self, k: usize, addr: Addr, c: Cycle) {
        match self.banks[k].scrub(addr) {
            EccOutcome::Clean => {}
            EccOutcome::Corrected { bit } => {
                self.counters.ecc_corrected += 1;
                self.emit::<PROBED>(
                    c,
                    ProbeEvent::Recovery {
                        tag: RecoveryTag::EccCorrected,
                        index: k,
                        info: u64::from(bit),
                    },
                );
                if self.cfg.recovery.failover_enabled()
                    && self.banks[k].ecc_corrections() >= self.cfg.recovery.failover_threshold
                {
                    self.pending_failover = Some(k);
                }
            }
            EccOutcome::Uncorrectable => {
                self.counters.ecc_uncorrectable += 1;
                self.emit::<PROBED>(
                    c,
                    ProbeEvent::Recovery {
                        tag: RecoveryTag::EccUncorrectable,
                        index: k,
                        info: addr.index() as u64,
                    },
                );
            }
        }
    }

    /// Mask out the failing bank at `stage`: promote a spare column in
    /// its place (contents copied, check codes recomputed) and declare a
    /// `degrade_len`-cycle settle window during which admission pauses.
    /// With the reserve exhausted, the switch instead enters *permanent*
    /// degraded mode: admission capacity is halved, trading throughput
    /// for continued conservation and per-flow FIFO.
    #[cold]
    fn fail_over<const PROBED: bool>(&mut self, stage: usize, c: Cycle) {
        match self.spares.pop() {
            Some(mut spare) => {
                spare.copy_contents_from(&self.banks[stage]);
                self.banks[stage] = spare;
                self.counters.bank_failovers += 1;
                self.recovery_windows.open(c, self.degrade_len);
                self.emit::<PROBED>(
                    c,
                    ProbeEvent::Recovery {
                        tag: RecoveryTag::BankFailover,
                        index: stage,
                        info: self.spares.len() as u64,
                    },
                );
                self.emit::<PROBED>(
                    c,
                    ProbeEvent::Recovery {
                        tag: RecoveryTag::DegradedEnter,
                        index: stage,
                        info: self.degrade_len,
                    },
                );
            }
            None => {
                if !self.degraded {
                    self.degraded = true;
                    self.admission_cap = (self.cfg.slots / 2).max(1);
                    self.emit::<PROBED>(
                        c,
                        ProbeEvent::Recovery {
                            tag: RecoveryTag::DegradedEnter,
                            index: stage,
                            info: self.admission_cap as u64,
                        },
                    );
                }
            }
        }
    }

    /// Is the switch in permanent degraded mode (spares exhausted,
    /// admission capped)?
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Spare bank columns still in reserve.
    pub fn spares_remaining(&self) -> usize {
        self.spares.len()
    }

    /// The declared-outage ledger accumulated so far.
    pub fn recovery_windows(&self) -> &RecoveryWindows {
        &self.recovery_windows
    }

    /// Aggregate recovery outcome (corrections, failovers, shed packets,
    /// windows) for campaign reporting and the conformance oracle.
    pub fn recovery_report(&self) -> RecoveryReport {
        RecoveryReport {
            corrections: self.counters.ecc_corrected,
            uncorrectable: self.counters.ecc_uncorrectable,
            failovers: self.counters.bank_failovers,
            shed: self.counters.recovery_shed,
            retries: 0,
            retry_give_ups: 0,
            windows: self.recovery_windows.clone(),
        }
    }

    /// True if the switch holds no packets and no waves are in flight
    /// (safe to stop feeding idle cycles).
    pub fn is_quiescent(&self) -> bool {
        self.mgr.occupancy() == 0
            && self.waves.writes | self.waves.reads == 0
            && self.outreg_mask == 0
            && self.inputs.iter().all(|s| s.k == 0 && s.pending.is_empty())
    }

    /// Recompute `ready_at[j]` from output `j`'s live queue head.
    #[inline]
    fn refresh_ready(&mut self, j: usize) {
        self.ready_at[j] = match self.mgr.live_head(PortId(j)) {
            Some((_, d)) => d.write_start.map_or(Cycle::MAX, |ws| {
                (ws + self.ready_base).max(self.out_next_init[j])
            }),
            None => Cycle::MAX,
        };
    }

    /// Refresh `ready_at` for every output in `mask`.
    #[inline]
    fn refresh_ready_mask(&mut self, mask: u32) {
        let mut m = mask;
        while m != 0 {
            let j = m.trailing_zeros() as usize;
            m &= m - 1;
            self.refresh_ready(j);
        }
    }

    /// Recompute `welig_at[i]` / `wdead_at[i]` from input `i`'s front
    /// pending write.
    #[inline]
    fn refresh_write(&mut self, i: usize) {
        (self.welig_at[i], self.wdead_at[i]) = match self.inputs[i].pending.front() {
            Some(f) => (f.eligible, f.deadline),
            None => (Cycle::MAX, Cycle::MAX),
        };
    }

    /// Release a queued slot outright (overrun, hardened truncation):
    /// its queue entries turn stale and the heads behind them surface.
    #[cold]
    fn release_slot(&mut self, addr: Addr) -> Descriptor {
        let d = self.mgr.release(addr);
        self.stale_mask |= u64::from(d.dsts);
        self.refresh_ready_mask(d.dsts);
        d
    }

    /// Step 1: drive the output links from the register row committed
    /// last cycle — egress verification, departure accounting.
    #[inline]
    fn egress<const PROBED: bool>(&mut self, c: Cycle) {
        self.wire_out.fill(None);
        let mut driven = 0u64;
        let mut m = self.outreg_mask;
        while m != 0 {
            let k = lowest(m);
            m &= m - 1;
            let (j, word) = (self.outreg_link[k], self.outreg_word[k]);
            assert!(
                driven >> j & 1 == 0,
                "two output registers drove link {j} in cycle {c}"
            );
            driven |= 1 << j;
            self.wire_out[j] = Some(word);
            if self.cfg.integrity.payload_check {
                self.verify_egress_word(j, word);
            }
        }
        if self.outreg_mask >> (self.stages - 1) & 1 != 0 {
            self.depart::<PROBED>(c);
        }
    }

    /// Egress verification (the modeled link CRC): every word on the
    /// wire is checked against the synthesis rule.
    #[cold]
    fn verify_egress_word(&mut self, j: usize, word: u64) {
        let v = &mut self.out_verify[j];
        if v.k == 0 {
            let (mask, id) = Packet::decode_header_any(word);
            v.id = id;
            v.corrupt = mask & (1 << j) == 0;
        } else if word != Packet::payload_word(v.id, v.k) {
            v.corrupt = true;
        }
        v.k += 1;
    }

    /// The last register held a tail word: the packet has departed.
    #[inline]
    fn depart<const PROBED: bool>(&mut self, c: Cycle) {
        let j = self.outreg_link[self.stages - 1];
        let (id, birth) = self.outreg_tail;
        self.counters.departed += 1;
        self.emit::<PROBED>(
            c,
            ProbeEvent::Departed {
                output: j,
                id,
                birth,
                latency: c - birth,
            },
        );
        if self.cfg.integrity.payload_check {
            if self.out_verify[j].corrupt {
                self.counters.corrupt_delivered += 1;
                self.emit::<PROBED>(
                    c,
                    ProbeEvent::Fault {
                        id,
                        kind: FaultTag::CorruptDelivered,
                    },
                );
            }
            self.out_verify[j] = OutVerify::default();
        }
    }

    /// Step 2: input arrivals — framing, header decode, slot allocation,
    /// ingress checks. Latch loads commit at the clock edge (step 6).
    #[inline]
    fn ingress<const PROBED: bool>(&mut self, c: Cycle, wire_in: &[Option<u64>]) {
        let s = self.stages;
        for (i, w) in wire_in.iter().enumerate() {
            let Some(word) = *w else {
                if self.inputs[i].k != 0 {
                    self.idle_mid_packet::<PROBED>(i, c);
                }
                continue;
            };
            let k = self.inputs[i].k;
            if k == 0 {
                self.header::<PROBED>(i, word, c);
            } else if let Some(id) = self.inputs[i].expected_id {
                if word != Packet::payload_word(id, k) {
                    self.inputs[i].corrupt = true;
                }
            }
            self.emit::<PROBED>(c, ProbeEvent::LatchLoad { input: i, stage: k });
            let st = &mut self.inputs[i];
            st.chk = st.chk.rotate_left(1) ^ word;
            st.k += 1;
            if st.k == s {
                st.k = 0;
                st.expected_id = None;
                // Tail received: seal the slot with its checksum (and
                // poison it if the ingress check tripped). Guard on the
                // id — under cut-through the slot may already be freed
                // and reallocated to a later packet, which must not
                // inherit our verdicts.
                if let Some(addr) = st.addr.take() {
                    let (id, corrupt, chk) = (st.cur_id, st.corrupt, st.chk);
                    if self.mgr.descriptor(addr).is_some_and(|d| d.id == id) {
                        if corrupt {
                            self.mgr.poison(addr, IntegrityReason::PayloadMismatch);
                        }
                        if self.cfg.integrity.checksum {
                            self.mgr.set_checksum(addr, chk);
                        }
                    }
                }
            }
        }
    }

    /// A header word on input `i`: decode, admit, allocate.
    #[inline]
    fn header<const PROBED: bool>(&mut self, i: usize, word: u64, c: Cycle) {
        let (mask, id) = Packet::decode_header_any(word);
        let st = &mut self.inputs[i];
        st.addr = None;
        st.chk = 0;
        st.corrupt = false;
        st.expected_id = None;
        let bad = mask == 0 || mask.checked_shr(self.cfg.n_out as u32).unwrap_or(0) != 0;
        if bad && self.cfg.integrity.harden {
            // Hardened framing: a header addressing no valid output is
            // counted and the packet swallowed (no slot allocated; the
            // remaining words fall on the floor at the tail).
            self.counters.arrived += 1;
            self.counters.corrupt_drops += 1;
            self.emit::<PROBED>(
                c,
                ProbeEvent::Drop {
                    id,
                    reason: DropReason::BadHeader,
                },
            );
            return;
        }
        assert!(
            !bad,
            "packet {id} on input {i} addressed nonexistent outputs (mask {mask:#x}, {} outputs)",
            self.cfg.n_out
        );
        let desc = Descriptor::multicast(id, PortId(i), mask, c);
        let dst = desc.dst.index();
        self.counters.arrived += 1;
        self.emit::<PROBED>(c, ProbeEvent::HeaderArrived { input: i, id, dst });
        let st = &mut self.inputs[i];
        st.expected_id = self.cfg.integrity.payload_check.then_some(id);
        st.cur_id = id;
        // Degraded-mode admission: inside a failover settle window (or
        // permanently, with spares exhausted and occupancy at the reduced
        // cap) new packets are shed at the door instead of risking the
        // settling spare — conservation and FIFO hold, throughput drops.
        let shed = self.recovery_on && self.shed_arrival(c);
        // Non-static sharing policy: decide (and preempt) before touching
        // the free list; recovery shedding keeps priority over it.
        if !shed && !self.policy_static && !self.policy_admit::<PROBED>(dst, c) {
            self.counters.policy_drops += 1;
            self.emit::<PROBED>(
                c,
                ProbeEvent::Drop {
                    id,
                    reason: DropReason::AdmissionPolicy,
                },
            );
            return;
        }
        match if shed { None } else { self.mgr.alloc(desc) } {
            Some(addr) => {
                let st = &mut self.inputs[i];
                st.addr = Some(addr);
                st.pending.push_back(PendingWrite {
                    addr,
                    eligible: c + 1,
                    deadline: c + self.stages as Cycle,
                });
                if st.pending.len() == 1 {
                    self.refresh_write(i);
                }
                // No `ready_at` refresh: a fresh queue entry has no write
                // wave yet, so its output's readiness cannot change.
            }
            None => {
                self.counters.dropped_buffer_full += 1;
                if shed {
                    self.counters.recovery_shed += 1;
                }
                self.emit::<PROBED>(
                    c,
                    ProbeEvent::Drop {
                        id,
                        reason: DropReason::BufferFull,
                    },
                );
            }
        }
    }

    /// Recovery admission: is an arrival at `c` shed at the door?
    #[cold]
    fn shed_arrival(&mut self, c: Cycle) -> bool {
        let in_window = self.recovery_windows.active(c);
        let shed = in_window || (self.degraded && self.mgr.occupancy() >= self.admission_cap);
        if shed && !in_window {
            // Permanent-degraded shedding declares its own (mergeable)
            // outage span.
            self.recovery_windows.open(c, 0);
        }
        shed
    }

    /// An idle cycle inside a packet on input `i`.
    #[cold]
    fn idle_mid_packet<const PROBED: bool>(&mut self, i: usize, c: Cycle) {
        assert!(
            self.cfg.integrity.harden,
            "link protocol violation: idle cycle inside a packet on input {i}"
        );
        // Hardened framing: the link idled mid-packet, so the tail will
        // never arrive. Condemn the partial packet instead of panicking.
        let st = &mut self.inputs[i];
        if let Some(addr) = st.addr.take() {
            if let Some(pos) = st.pending.iter().position(|p| p.addr == addr) {
                // Write wave not yet granted: reclaim the slot outright.
                st.pending.remove(pos);
                self.refresh_write(i);
                let d = self.release_slot(addr);
                self.counters.corrupt_drops += 1;
                self.emit::<PROBED>(
                    c,
                    ProbeEvent::Drop {
                        id: d.id,
                        reason: DropReason::Truncated,
                    },
                );
            } else if self
                .mgr
                .descriptor(addr)
                .is_some_and(|d| d.id == self.inputs[i].cur_id)
            {
                // Write wave already streaming stale latch words: poison
                // so the read side drops it (counted there). If the slot
                // was already freed by a cut-through read, the damage is
                // on the wire — the egress check is the remaining line of
                // defense.
                self.mgr.poison(addr, IntegrityReason::TruncatedPacket);
            }
        }
        let st = &mut self.inputs[i];
        st.k = 0;
        st.chk = 0;
        st.corrupt = false;
        st.expected_id = None;
    }

    /// Latch-overrun sweep (provably unreachable under the shipped
    /// policies; see module docs).
    #[cold]
    fn sweep_overruns<const PROBED: bool>(&mut self, c: Cycle) {
        for i in 0..self.cfg.n_in {
            while let Some(front) = self.inputs[i].pending.front() {
                if front.deadline >= c {
                    break;
                }
                let addr = front.addr;
                self.inputs[i].pending.pop_front();
                let d = self.release_slot(addr);
                self.counters.latch_overruns += 1;
                self.emit::<PROBED>(
                    c,
                    ProbeEvent::Drop {
                        id: d.id,
                        reason: DropReason::LatchOverrun,
                    },
                );
            }
            self.refresh_write(i);
        }
    }

    /// Discard stale queue fronts where the scalar reference's per-cycle
    /// head walk would (a non-empty buffer and a link free to start).
    #[cold]
    fn discard_stale(&mut self, c: Cycle) {
        if self.mgr.occupancy() == 0 {
            return;
        }
        let mut m = self.stale_mask;
        while m != 0 {
            let j = m.trailing_zeros() as usize;
            m &= m - 1;
            if c < self.out_next_init[j] {
                continue;
            }
            let _ = self.mgr.head(PortId(j));
            if !self.mgr.has_stale(PortId(j)) {
                self.stale_mask &= !(1 << j);
            }
        }
    }

    /// Steps 3–4: fold the flat request arrays into packed words (an
    /// overdue latch deadline takes the cold overrun sweep), choose at
    /// most one wave to initiate, and execute the grant.
    #[inline]
    fn arbitrate<const PROBED: bool>(&mut self, c: Cycle) {
        let mut write_mask = 0u64;
        let mut overdue = false;
        for (i, (&e, &d)) in self.welig_at.iter().zip(&self.wdead_at).enumerate() {
            write_mask |= u64::from(e <= c) << i;
            overdue |= d < c;
        }
        if overdue {
            self.sweep_overruns::<PROBED>(c);
            write_mask = 0;
            for (i, &e) in self.welig_at.iter().enumerate() {
                write_mask |= u64::from(e <= c) << i;
            }
        }
        if self.stale_mask != 0 {
            self.discard_stale(c);
        }
        let mut read_mask = 0u64;
        for (j, &r) in self.ready_at.iter().enumerate() {
            read_mask |= u64::from(r <= c) << j;
        }
        if read_mask | write_mask == 0 {
            return;
        }
        if read_mask != 0 && write_mask != 0 {
            // §3.2 collision: the single initiation port must stagger one
            // of the contenders to a later cycle.
            self.counters.rw_collisions += 1;
        }
        let decision = self.arb.decide_dense(read_mask, write_mask, &self.wdead_at);
        self.emit::<PROBED>(
            c,
            ProbeEvent::Arbitration {
                reads: read_mask.count_ones() as usize,
                writes: write_mask.count_ones() as usize,
                outcome: match decision {
                    Decision::Read(_) => ArbOutcome::Read,
                    Decision::Write(_) => ArbOutcome::Write,
                    Decision::Idle => ArbOutcome::Idle,
                },
            },
        );
        match decision {
            Decision::Read(j) => self.grant_read::<PROBED>(j.index(), c),
            Decision::Write(i) => self.grant_write::<PROBED>(i.index(), c),
            // Requests existed but none was servable — possible only
            // with a broken policy; diagnostic.
            Decision::Idle => self.counters.idle_with_work += 1,
        }
    }

    /// A read grant for output `j`: integrity verdicts, then the wave.
    #[inline]
    fn grant_read<const PROBED: bool>(&mut self, j: usize, c: Cycle) {
        let s = self.stages as Cycle;
        let (addr, d, freed) = self.mgr.pop_and_free(PortId(j));
        let fully_written = d.write_start.is_some_and(|ws| c >= ws + s);
        // With ECC armed, correct single-bit upsets in place *before* the
        // checksum verdict: a corrected slot passes the scrub and is
        // delivered instead of dropped.
        if self.cfg.recovery.ecc && fully_written {
            self.scrub_slot::<PROBED>(addr, c);
        }
        // Integrity scrub at read initiation (the ECC check a real bank
        // performs): only a fully written slot can be verified —
        // cut-through reads start mid-write and rely on the egress check
        // instead.
        let scrub_fail = self.cfg.integrity.checksum
            && fully_written
            && d.checksum
                .is_some_and(|sum| self.banks_checksum(addr) != sum);
        if d.poisoned.is_some() || scrub_fail {
            // Detect-and-drop: the initiation slot is spent but no wave
            // launches; the output link stays free for its next
            // head-of-line packet. Multicast copies each take this path;
            // count once, when the slot is freed.
            if freed {
                self.counters.corrupt_drops += 1;
                self.emit::<PROBED>(
                    c,
                    ProbeEvent::Drop {
                        id: d.id,
                        reason: drop_reason(
                            d.poisoned.unwrap_or(IntegrityReason::ChecksumMismatch),
                        ),
                    },
                );
            }
        } else {
            self.out_next_init[j] = c + s;
            if !self.policy_static {
                // BShare queueing-delay signal: birth-to-read.
                self.policy.on_read(j, c - d.birth);
            }
            if PROBED {
                self.probe_read(j, addr, &d, c);
            }
            self.waves.push_read(c, addr, j, d.id, d.birth);
        }
        self.refresh_ready(j);
    }

    /// Telemetry for an unfused read initiation (probed kernel only).
    #[cold]
    fn probe_read(&self, j: usize, addr: Addr, d: &Descriptor, c: Cycle) {
        let Some(p) = &self.probe else { return };
        let s = self.stages as Cycle;
        p.emit(
            c,
            ProbeEvent::ReadWave {
                output: j,
                addr: addr.index(),
                fused: false,
            },
        );
        // §3.4: any unfused read started later than the packet's earliest
        // opportunity — the initiation slot staggered the output's start.
        let earliest = d
            .write_start
            .map(|ws| if self.cfg.cut_through { ws + 1 } else { ws + s });
        if earliest.is_some_and(|e| c > e) {
            p.emit(
                c,
                ProbeEvent::StaggeredStart {
                    output: j,
                    id: d.id,
                },
            );
        }
        // Cut-through (unfused form): the read overlaps a write wave
        // still depositing this packet.
        if d.write_start.is_some_and(|ws| c < ws + s) {
            p.emit(
                c,
                ProbeEvent::CutThrough {
                    output: j,
                    id: d.id,
                    fused: false,
                },
            );
        }
    }

    /// A write grant for input `i`: the wave, and a fused cut-through
    /// read when the packet heads an idle destination.
    #[inline]
    fn grant_write<const PROBED: bool>(&mut self, i: usize, c: Cycle) {
        let s = self.stages as Cycle;
        let pw = self.inputs[i]
            .pending
            .pop_front()
            .expect("arbiter granted a write with no pending request");
        self.refresh_write(i);
        self.mgr.mark_write_started(pw.addr, c);
        self.emit::<PROBED>(
            c,
            ProbeEvent::WriteWave {
                input: i,
                addr: pw.addr.index(),
            },
        );
        let slot = self.waves.push_write(c, pw.addr, i);
        let d = self.mgr.descriptor(pw.addr).expect("just marked");
        let (dsts, id, birth) = (d.dsts, d.id, d.birth);
        // Fused cut-through: if this packet is next in line for an idle
        // destination, one copy's read wave rides the write bus
        // (multicast packets fuse at most one copy; the rest read
        // normally later). A packet already condemned at ingress must
        // not fuse: the read side drops it instead.
        if self.cfg.fused_cut_through && d.poisoned.is_none() {
            let mut m = dsts;
            while m != 0 {
                let dst = m.trailing_zeros() as usize;
                m &= m - 1;
                if c < self.out_next_init[dst] {
                    continue;
                }
                if !matches!(self.mgr.head(PortId(dst)), Some((a, _)) if a == pw.addr) {
                    continue;
                }
                let (addr2, d2, _freed) = self.mgr.pop_and_free(PortId(dst));
                debug_assert_eq!(addr2, pw.addr);
                debug_assert_eq!(d2.id, id);
                self.out_next_init[dst] = c + s;
                if !self.policy_static {
                    // BShare queueing-delay signal (fused read).
                    self.policy.on_read(dst, c - d2.birth);
                }
                self.counters.fused_reads += 1;
                self.emit::<PROBED>(
                    c,
                    ProbeEvent::ReadWave {
                        output: dst,
                        addr: pw.addr.index(),
                        fused: true,
                    },
                );
                self.emit::<PROBED>(
                    c,
                    ProbeEvent::CutThrough {
                        output: dst,
                        id,
                        fused: true,
                    },
                );
                self.waves.bind_read(slot, dst, id, birth);
                break;
            }
        }
        // The write start makes the packet readable wherever it heads a
        // destination queue (and a fused read moved one head on).
        self.refresh_ready_mask(dsts);
    }

    /// Step 5: every live wave performs its stage's operation — one pass
    /// over the write slots, one over the read slots — under the
    /// per-cycle bank-busy word.
    #[inline]
    fn execute_stages<const PROBED: bool>(&mut self, c: Cycle) {
        let s = self.stages;
        let mut busy = 0u64;
        let (writes, reads) = (self.waves.writes, self.waves.reads);
        let mut m = writes;
        while m != 0 {
            let slot = lowest(m);
            m &= m - 1;
            let k = (c - self.waves.start[slot]) as usize;
            claim_bank(&mut busy, k, c);
            let v = self.latches[self.waves.input[slot]][k];
            if self
                .stuck_write
                .is_some_and(|(ks, until)| ks == k && c <= until)
            {
                // Stuck stage control: the word never lands in the bank.
                // The bus still carries it, so a fused output register
                // samples the correct value — but the slot keeps a stale
                // word, which the checksum scrub catches at
                // (store-and-forward) read time.
                self.counters.writes_suppressed += 1;
            } else {
                self.banks[k].store(self.waves.addr[slot], v);
            }
        }
        // Reads walk oldest-first: ECC events (and, probed, the
        // `BankAccess` events of every wave) keep the reference order,
        // and the youngest bank crossing its failover threshold wins.
        let first = if self.waves.pos + 1 == s {
            0
        } else {
            self.waves.pos + 1
        };
        let visit = if PROBED { writes | reads } else { reads };
        let mut outreg = 0u64;
        for_each_oldest_first(visit, first, |slot| {
            let bit = 1u64 << slot;
            let k = (c - self.waves.start[slot]) as usize;
            let addr = self.waves.addr[slot];
            if reads & bit != 0 {
                let v = if writes & bit != 0 {
                    // Fused: the output register samples the write bus.
                    self.latches[self.waves.input[slot]][k]
                } else {
                    claim_bank(&mut busy, k, c);
                    if self.cfg.recovery.ecc {
                        self.scrub_on_read::<PROBED>(k, addr, c);
                    }
                    self.banks[k].peek(addr)
                };
                self.outreg_word[k] = v;
                self.outreg_link[k] = self.waves.output[slot];
                outreg |= 1u64 << k;
                if k + 1 == s {
                    self.outreg_tail = (self.waves.id[slot], self.waves.birth[slot]);
                }
            }
            if PROBED {
                let (w, r) = (writes & bit != 0, reads & bit != 0);
                self.emit::<PROBED>(
                    c,
                    ProbeEvent::BankAccess {
                        stage: k,
                        addr: addr.index(),
                        op: match (w, r) {
                            (true, false) => WaveDir::Write,
                            (false, true) => WaveDir::Read,
                            _ => WaveDir::Fused,
                        },
                        input: w.then_some(self.waves.input[slot]),
                        output: r.then_some(self.waves.output[slot]),
                    },
                );
            }
        });
        self.outreg_mask = outreg;
        self.waves.last_writes = writes;
        self.waves.last_reads = reads;
    }

    /// Advance one clock cycle.
    ///
    /// `wire_in[i]` is the word on input link `i` during this cycle.
    /// Returns the words on the output links during this cycle; the
    /// slice borrows internal scratch and is valid until the next tick.
    ///
    /// Packets must be contiguous on each input link (the paper's links
    /// have no mid-packet idles); a `None` inside a packet panics.
    pub fn tick(&mut self, wire_in: &[Option<u64>]) -> &[Option<u64>] {
        if self.probe.is_some() {
            self.step::<true>(wire_in);
        } else {
            self.step::<false>(wire_in);
        }
        &self.wire_out
    }

    /// One cycle of the kernel, compiled once with every probe site
    /// live and once with all of them folded away.
    fn step<const PROBED: bool>(&mut self, wire_in: &[Option<u64>]) {
        assert_eq!(wire_in.len(), self.cfg.n_in, "one word slot per input");
        let c = self.cycle;
        let s = self.stages;

        // 1. Output links driven by the register row committed last cycle.
        self.egress::<PROBED>(c);
        // 2. Input arrivals.
        self.ingress::<PROBED>(c, wire_in);
        // 3–4. Latch-overrun sweep and arbitration.
        self.arbitrate::<PROBED>(c);
        // 5. Stage execution.
        self.execute_stages::<PROBED>(c);
        // A bank crossed its correction threshold during the stage walk:
        // hot-swap it now, before the clock edge (the spare copies the
        // bank's contents, so in-flight slots survive the swap).
        if let Some(k) = self.pending_failover.take() {
            self.fail_over::<PROBED>(k, c);
        }

        // 6. Clock edge: commit this cycle's latch loads (the stage walk
        //    read the previous values), retire the wave that entered `s`
        //    cycles ago — its ring slot is the one a wave starting next
        //    cycle claims — and advance time.
        for (i, w) in wire_in.iter().enumerate() {
            if let Some(word) = *w {
                let k = self.inputs[i].k;
                let k = if k == 0 { s - 1 } else { k - 1 };
                self.latches[i][k] = word;
            }
        }
        let w = &mut self.waves;
        w.pos = if w.pos + 1 == s { 0 } else { w.pos + 1 };
        let keep = !(1u64 << w.pos);
        w.writes &= keep;
        w.reads &= keep;
        if PROBED {
            self.emit_gauges(c);
        }
        self.ctrl_row.take();
        self.cycle = c + 1;
    }

    /// Occupancy and queue-depth gauges, emitted on change.
    fn emit_gauges(&mut self, c: Cycle) {
        let Some(p) = &self.probe else { return };
        let occ = self.mgr.occupancy() as u64;
        if occ != self.last_occ {
            self.last_occ = occ;
            p.emit(
                c,
                ProbeEvent::Gauge {
                    gauge: GaugeKind::Occupancy,
                    index: 0,
                    value: occ,
                },
            );
        }
        for j in 0..self.cfg.n_out {
            let depth = self.mgr.queue_len(PortId(j)) as u64;
            if depth != self.last_qdepth[j] {
                self.last_qdepth[j] = depth;
                p.emit(
                    c,
                    ProbeEvent::Gauge {
                        gauge: GaugeKind::QueueDepth,
                        index: j,
                        value: depth,
                    },
                );
            }
        }
    }

    /// Run `n` idle cycles (no input words), collecting outputs via `f`.
    pub fn idle_cycles(&mut self, n: usize, mut f: impl FnMut(Cycle, &[Option<u64>])) {
        let idle = std::mem::take(&mut self.idle_row);
        for _ in 0..n {
            let c = self.cycle;
            let out = self.tick(&idle);
            f(c, out);
        }
        self.idle_row = idle;
    }
}

impl simkernel::Horizon for PipelinedSwitch {
    fn now(&self) -> Cycle {
        self.cycle
    }

    /// The word-level model keeps too much intertwined per-cycle state
    /// (latch rows, bank port checks, egress verification) to derive a
    /// fine-grained horizon safely, so it reports the coarsest correct
    /// one: quiescent-forever or event-now. That still buys the big win —
    /// the conformance driver's inter-burst gaps, where the switch sits
    /// completely empty.
    fn next_event(&self) -> Option<Cycle> {
        if self.is_quiescent() {
            None
        } else {
            Some(self.cycle)
        }
    }

    fn jump_to(&mut self, target: Cycle) {
        debug_assert!(target >= self.cycle, "jump_to moves time forward only");
        debug_assert!(
            self.is_quiescent(),
            "the RTL model only skips quiescent spans"
        );
        // A quiescent switch ticking idle input changes nothing but the
        // clock; mirror what dense idle ticks would leave behind.
        self.wire_out.fill(None);
        self.waves.last_writes = 0;
        self.waves.last_reads = 0;
        self.ctrl_row.take();
        self.waves.pos = (target % self.stages as Cycle) as usize;
        self.cycle = target;
    }
}

impl simkernel::BatchTick for PipelinedSwitch {
    /// The word-level model has no fused multi-cycle kernel (every
    /// cycle touches latch rows and bank ports), so the batch entry is
    /// a plain idle-tick loop: the driver-side win (no per-cycle
    /// horizon query) still applies, the model-side fusion does not.
    fn tick_idle_batch(&mut self, n: u64) {
        let idle = std::mem::take(&mut self.idle_row);
        for _ in 0..n {
            self.tick(&idle);
        }
        self.idle_row = idle;
    }
}

/// A packet reassembled from an output link by [`OutputCollector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveredPacket {
    /// Output link it emerged on.
    pub output: PortId,
    /// Packet id decoded from the delivered header.
    pub id: u64,
    /// Primary (lowest) destination decoded from the delivered header;
    /// for unicast packets this should equal `output` (asserted by
    /// tests), for multicast `output` is some member of `dsts_mask`.
    pub dst: PortId,
    /// Full destination bitmask decoded from the header.
    pub dsts_mask: u32,
    /// All `stages` words as delivered.
    pub words: Vec<u64>,
    /// Cycle the first word appeared on the link.
    pub first_cycle: Cycle,
    /// Cycle the tail word appeared on the link.
    pub last_cycle: Cycle,
}

impl DeliveredPacket {
    /// Check the payload against the deterministic synthesis rule of
    /// [`Packet::synth`]/[`Packet::synth_multicast`] — detects any
    /// datapath corruption or word misordering — and that this copy
    /// emerged on a link the header actually addressed.
    pub fn verify_payload(&self) -> bool {
        let (mask, id) = Packet::decode_header_any(self.words[0]);
        mask & (1 << self.output.index()) != 0
            && id == self.id
            && self.words[1..]
                .iter()
                .enumerate()
                .all(|(i, &w)| w == Packet::payload_word(self.id, i + 1))
    }
}

/// Reassembles the word streams of the output links into packets.
#[derive(Debug)]
pub struct OutputCollector {
    packet_words: usize,
    /// Words of the packet in progress per link; each buffer becomes a
    /// delivered packet's `words` when its tail arrives.
    partial: Vec<Vec<u64>>,
    /// Cycle of the in-progress packet's first word, per link.
    first: Vec<Cycle>,
    done: Vec<DeliveredPacket>,
}

impl OutputCollector {
    /// A collector for `n_out` links carrying `packet_words`-word packets.
    pub fn new(n_out: usize, packet_words: usize) -> Self {
        OutputCollector {
            packet_words,
            partial: (0..n_out)
                .map(|_| Vec::with_capacity(packet_words))
                .collect(),
            first: vec![0; n_out],
            done: Vec::new(),
        }
    }

    /// Feed the output words of one cycle.
    pub fn observe(&mut self, cycle: Cycle, wire_out: &[Option<u64>]) {
        for (j, w) in wire_out.iter().enumerate() {
            let buf = &mut self.partial[j];
            match w {
                Some(word) => {
                    if buf.is_empty() {
                        self.first[j] = cycle;
                    }
                    buf.push(*word);
                    if buf.len() == self.packet_words {
                        let words = std::mem::replace(buf, Vec::with_capacity(self.packet_words));
                        let (mask, id) = Packet::decode_header_any(words[0]);
                        self.done.push(DeliveredPacket {
                            output: PortId(j),
                            id,
                            dst: PortId(mask.trailing_zeros() as usize),
                            dsts_mask: mask,
                            words,
                            first_cycle: self.first[j],
                            last_cycle: cycle,
                        });
                    }
                }
                None => {
                    assert!(
                        buf.is_empty(),
                        "output link {j} idled mid-packet at cycle {cycle}"
                    );
                }
            }
        }
    }

    /// Completed packets so far (drains).
    pub fn take(&mut self) -> Vec<DeliveredPacket> {
        std::mem::take(&mut self.done)
    }

    /// Completed packets so far (borrow).
    pub fn delivered(&self) -> &[DeliveredPacket] {
        &self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::cell::Packet;

    /// Drive a 2×2 switch (4 stages, 4-word packets) with one packet and
    /// return (delivered packets, trace copy, counters).
    fn run_single_packet(cfg: SwitchConfig) -> (Vec<DeliveredPacket>, PipelinedSwitch) {
        let mut sw = PipelinedSwitch::new(cfg);
        let s = sw.config().stages();
        let p = Packet::synth(7, 0, 1, s, 0);
        let mut col = OutputCollector::new(sw.config().n_out, s);
        // Feed the packet on input 0, then idle until quiescent.
        for k in 0..s {
            let mut wire = vec![None; sw.config().n_in];
            wire[0] = Some(p.words[k]);
            let c = sw.now();
            let out = sw.tick(&wire);
            col.observe(c, out);
        }
        for _ in 0..4 * s {
            let c = sw.now();
            let out = sw.tick(&vec![None; sw.config().n_in]);
            col.observe(c, out);
        }
        let pkts = col.take();
        (pkts, sw)
    }

    #[test]
    fn single_packet_delivered_intact() {
        let (pkts, sw) = run_single_packet(SwitchConfig::symmetric(2, 8));
        assert_eq!(pkts.len(), 1);
        let d = &pkts[0];
        assert_eq!(d.output, PortId(1));
        assert_eq!(d.id, 7);
        assert!(d.verify_payload(), "payload corrupted: {:?}", d.words);
        let ctr = sw.counters();
        assert_eq!(ctr.arrived, 1);
        assert_eq!(ctr.departed, 1);
        assert_eq!(ctr.latch_overruns, 0);
        assert!(sw.is_quiescent());
    }

    #[test]
    fn fused_cut_through_latency_is_two_cycles() {
        // Paper §3.3: header arrives at a (here 0), write wave at a+1
        // fuses the read; first word leaves "in the very next cycle",
        // a+2.
        let (pkts, sw) = run_single_packet(SwitchConfig::symmetric(2, 8));
        assert_eq!(pkts[0].first_cycle, 2, "cut-through first word at a+2");
        assert_eq!(sw.counters().fused_reads, 1);
    }

    #[test]
    fn unfused_cut_through_latency_is_three_cycles() {
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.fused_cut_through = false;
        let (pkts, sw) = run_single_packet(cfg);
        // Write wave at 1, read wave at 2, first word out at 3.
        assert_eq!(pkts[0].first_cycle, 3);
        assert_eq!(sw.counters().fused_reads, 0);
    }

    #[test]
    fn store_and_forward_latency() {
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.cut_through = false;
        cfg.fused_cut_through = false;
        let (pkts, _) = run_single_packet(cfg);
        // Write wave at ws=1 completes its tail at ws+S-1 = 4; the read
        // may initiate at ws+S = 5; first word out at 6 = 2 + S.
        let s = 4;
        assert_eq!(pkts[0].first_cycle, (2 + s) as u64);
    }

    #[test]
    fn tail_never_sent_before_it_arrived() {
        // The §3.3 safety property: transmission of the tail is attempted
        // only after the tail has been written into the rightmost input
        // latch. With fused cut-through the tail departs exactly 2 cycles
        // after it arrives.
        let (pkts, _) = run_single_packet(SwitchConfig::symmetric(2, 8));
        let s = 4u64;
        let tail_arrival = s - 1; // word k arrives at cycle k
        assert_eq!(pkts[0].last_cycle, tail_arrival + 2);
        assert!(pkts[0].last_cycle > tail_arrival);
    }

    #[test]
    fn contending_packets_both_delivered_in_fifo_order() {
        // Two packets to the same output, arriving simultaneously on
        // different inputs: one cuts through, the other queues behind it.
        let mut sw = PipelinedSwitch::new(SwitchConfig::symmetric(2, 8));
        let s = 4;
        let p0 = Packet::synth(10, 0, 0, s, 0);
        let p1 = Packet::synth(11, 1, 0, s, 0);
        let mut col = OutputCollector::new(2, s);
        for k in 0..s {
            let wire = vec![Some(p0.words[k]), Some(p1.words[k])];
            let c = sw.now();
            let out = sw.tick(&wire);
            col.observe(c, out);
        }
        for _ in 0..6 * s {
            let c = sw.now();
            let out = sw.tick(&[None, None]);
            col.observe(c, out);
        }
        let pkts = col.take();
        assert_eq!(pkts.len(), 2);
        assert!(pkts.iter().all(|p| p.verify_payload()));
        // Output 0 transmits them back to back: the second starts right
        // after the first ends.
        assert_eq!(pkts[1].first_cycle, pkts[0].last_cycle + 1);
        assert_eq!(sw.counters().departed, 2);
        assert_eq!(sw.counters().latch_overruns, 0);
    }

    #[test]
    fn buffer_full_drops_and_recovers() {
        // 1-slot buffer, two simultaneous arrivals: the second is dropped,
        // the first is delivered, and the switch keeps working.
        let mut sw = PipelinedSwitch::new(SwitchConfig::symmetric(2, 1));
        let s = 4;
        let p0 = Packet::synth(1, 0, 0, s, 0);
        let p1 = Packet::synth(2, 1, 1, s, 0);
        let mut col = OutputCollector::new(2, s);
        for k in 0..s {
            let wire = vec![Some(p0.words[k]), Some(p1.words[k])];
            let c = sw.now();
            let out = sw.tick(&wire);
            col.observe(c, out);
        }
        for _ in 0..6 * s {
            let c = sw.now();
            let out = sw.tick(&[None, None]);
            col.observe(c, out);
        }
        let pkts = col.take();
        assert_eq!(pkts.len(), 1);
        assert_eq!(sw.counters().dropped_buffer_full, 1);
        assert_eq!(sw.counters().departed, 1);
        // A later packet still goes through.
        let p2 = Packet::synth(3, 1, 0, s, 0);
        for k in 0..s {
            let wire = vec![None, Some(p2.words[k])];
            let c = sw.now();
            let out = sw.tick(&wire);
            col.observe(c, out);
        }
        for _ in 0..6 * s {
            let c = sw.now();
            let out = sw.tick(&[None, None]);
            col.observe(c, out);
        }
        let pkts = col.take();
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].verify_payload());
    }

    #[test]
    fn stage_controls_report_wave_progression() {
        let mut sw = PipelinedSwitch::new(SwitchConfig::symmetric(2, 8));
        let s = 4;
        let p = Packet::synth(7, 0, 1, s, 0);
        // Cycle 0: header arrives, nothing initiated yet.
        let mut wire = vec![Some(p.words[0]), None];
        sw.tick(&wire);
        assert_eq!(sw.stage_controls()[0], StageCtrl::Nop);
        // Cycle 1: fused write+cut-through initiates at stage 0.
        wire[0] = Some(p.words[1]);
        sw.tick(&wire);
        assert!(matches!(sw.stage_controls()[0], StageCtrl::Fused { .. }));
        // Cycle 2: the wave is at stage 1.
        wire[0] = Some(p.words[2]);
        sw.tick(&wire);
        assert!(matches!(sw.stage_controls()[1], StageCtrl::Fused { .. }));
        assert_eq!(sw.stage_controls()[0], StageCtrl::Nop);
    }

    /// Feed `packets` word-streams back to back on input 0, then idle to
    /// quiescence; returns delivered packets and the switch.
    fn feed_and_drain(
        mut sw: PipelinedSwitch,
        words: &[u64],
    ) -> (Vec<DeliveredPacket>, PipelinedSwitch) {
        let s = sw.config().stages();
        let mut col = OutputCollector::new(sw.config().n_out, s);
        for &w in words {
            let c = sw.now();
            let out = sw.tick(&[Some(w), None]);
            col.observe(c, out);
        }
        for _ in 0..8 * s {
            let c = sw.now();
            let out = sw.tick(&[None, None]);
            col.observe(c, out);
        }
        (col.take(), sw)
    }

    #[test]
    fn hardened_bad_header_is_swallowed_and_flow_continues() {
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.integrity.harden = true;
        let sw = PipelinedSwitch::new(cfg);
        let s = 4;
        let bad = Packet::encode_header(5, 1); // output 5 of a 2×2
        let good = Packet::synth(9, 0, 1, s, 0);
        let mut words = vec![bad, 0, 0, 0];
        words.extend_from_slice(&good.words);
        let (pkts, sw) = feed_and_drain(sw, &words);
        assert_eq!(pkts.len(), 1, "only the good packet emerges");
        assert_eq!(pkts[0].id, 9);
        assert!(pkts[0].verify_payload());
        let ctr = sw.counters();
        assert_eq!(ctr.corrupt_drops, 1);
        assert_eq!(ctr.departed, 1);
        assert!(sw.is_quiescent());
    }

    #[test]
    fn hardened_truncation_is_dropped_and_flow_continues() {
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.integrity.harden = true;
        let mut sw = PipelinedSwitch::new(cfg);
        let s = 4;
        let cut = Packet::synth(3, 0, 0, s, 0);
        let mut col = OutputCollector::new(2, s);
        // Two words of the packet, then the link goes dead mid-packet.
        for k in 0..2 {
            let c = sw.now();
            let out = sw.tick(&[Some(cut.words[k]), None]);
            col.observe(c, out);
        }
        for _ in 0..8 * s {
            let c = sw.now();
            let out = sw.tick(&[None, None]);
            col.observe(c, out);
        }
        // A fused read may already be streaming the truncated packet when
        // the link dies; its copy is poisoned and dropped at read time
        // only if the read had not launched. Either way the switch
        // settles, counts the loss, and keeps working.
        let good = Packet::synth(4, 0, 1, s, 0);
        for k in 0..s {
            let c = sw.now();
            let out = sw.tick(&[Some(good.words[k]), None]);
            col.observe(c, out);
        }
        for _ in 0..8 * s {
            let c = sw.now();
            let out = sw.tick(&[None, None]);
            col.observe(c, out);
        }
        let delivered: Vec<_> = col.take();
        assert!(delivered.iter().any(|p| p.id == 4 && p.verify_payload()));
        assert!(sw.is_quiescent());
        assert_eq!(sw.counters().in_flight(), 0, "loss is fully accounted");
    }

    #[test]
    fn tampered_payload_dropped_in_store_and_forward() {
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.cut_through = false;
        cfg.fused_cut_through = false;
        cfg.integrity.payload_check = true;
        let sw = PipelinedSwitch::new(cfg);
        let s = 4;
        let mut p = Packet::synth(7, 0, 1, s, 0);
        p.words[2] ^= 1; // corrupt on the input wire
        let (pkts, sw) = feed_and_drain(sw, &p.words);
        assert!(pkts.is_empty(), "condemned before the read launches");
        assert_eq!(sw.counters().corrupt_drops, 1);
        assert!(sw.is_quiescent());
    }

    #[test]
    fn tampered_payload_flagged_at_egress_under_cut_through() {
        // With fused cut-through the read wave is already streaming when
        // the ingress check trips — too late to drop; the egress check
        // (the modeled link CRC) flags the delivery instead.
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.integrity.payload_check = true;
        let sw = PipelinedSwitch::new(cfg);
        let s = 4;
        let mut p = Packet::synth(7, 0, 1, s, 0);
        p.words[2] ^= 1;
        let (pkts, sw) = feed_and_drain(sw, &p.words);
        assert_eq!(pkts.len(), 1, "already on the wire");
        assert!(!pkts[0].verify_payload());
        assert_eq!(sw.counters().corrupt_delivered, 1);
        assert_eq!(sw.counters().corrupt_drops, 0);
    }

    #[test]
    fn bank_upset_caught_by_scrub_and_liveness_reported() {
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.cut_through = false;
        cfg.fused_cut_through = false;
        let mut sw = PipelinedSwitch::new(cfg);
        let s = 4;
        let p = Packet::synth(7, 0, 1, s, 0);
        for k in 0..s {
            sw.tick(&[Some(p.words[k]), None]);
        }
        // Packet fully buffered, read not yet launched: flip one bit of
        // its stage-2 word wherever it lives.
        let mut hit = None;
        for a in 0..8 {
            if let Some(id) = sw.inject_bank_fault(2, Addr(a), 1) {
                hit = Some(id);
            }
        }
        assert_eq!(hit, Some(7), "exactly one slot held live data");
        let mut col = OutputCollector::new(2, s);
        for _ in 0..8 * s {
            let c = sw.now();
            let out = sw.tick(&[None, None]);
            col.observe(c, out);
        }
        assert!(col.take().is_empty(), "scrub dropped the packet");
        assert_eq!(sw.counters().corrupt_drops, 1);
        assert!(sw.is_quiescent());
    }

    #[test]
    fn ecc_corrects_bank_upset_and_delivers_the_packet() {
        // Same strike as bank_upset_caught_by_scrub…, but with recovery
        // armed: the single-bit upset is corrected in place and the
        // packet departs intact instead of being condemned.
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.cut_through = false;
        cfg.fused_cut_through = false;
        cfg.recovery = crate::recovery::RecoveryConfig::ecc_only();
        let mut sw = PipelinedSwitch::new(cfg);
        let s = 4;
        let p = Packet::synth(7, 0, 1, s, 0);
        for k in 0..s {
            sw.tick(&[Some(p.words[k]), None]);
        }
        let mut hit = None;
        for a in 0..8 {
            if let Some(id) = sw.inject_bank_fault(2, Addr(a), 1) {
                hit = Some(id);
            }
        }
        assert_eq!(hit, Some(7));
        let mut col = OutputCollector::new(2, s);
        for _ in 0..8 * s {
            let c = sw.now();
            let out = sw.tick(&[None, None]);
            col.observe(c, out);
        }
        let pkts = col.take();
        assert_eq!(pkts.len(), 1, "corrected, not dropped");
        assert!(pkts[0].verify_payload());
        let ctr = sw.counters();
        assert_eq!(ctr.ecc_corrected, 1);
        assert_eq!(ctr.corrupt_drops, 0);
        assert_eq!(ctr.departed, 1);
        assert!(sw.is_quiescent());
    }

    #[test]
    fn repeated_upsets_trigger_spare_failover_then_degraded_mode() {
        let mut cfg = SwitchConfig::symmetric(2, 2);
        cfg.cut_through = false;
        cfg.fused_cut_through = false;
        cfg.recovery = crate::recovery::RecoveryConfig::full(1, 2);
        cfg.recovery.degrade_window = 3;
        let mut sw = PipelinedSwitch::new(cfg);
        let s = 4;
        assert_eq!(sw.spares_remaining(), 1);
        // Strike stage 2 once per buffered packet; every read scrubs and
        // corrects, and the second correction crosses the threshold.
        for round in 0..4u64 {
            let p = Packet::synth(round, 0, 1, s, 0);
            for k in 0..s {
                sw.tick(&[Some(p.words[k]), None]);
            }
            for a in 0..2 {
                sw.inject_bank_fault(2, Addr(a), 1);
            }
            for _ in 0..8 * s {
                sw.tick(&[None, None]);
            }
        }
        let ctr = sw.counters();
        assert_eq!(ctr.bank_failovers, 1, "spare consumed at the threshold");
        assert_eq!(sw.spares_remaining(), 0);
        assert!(
            sw.is_degraded(),
            "second threshold crossing with no spare left degrades"
        );
        assert!(sw.recovery_windows().count() >= 1);
        // Every corrected packet still departed; conservation holds.
        assert_eq!(ctr.in_flight(), 0);
        assert!(sw.is_quiescent());
    }

    #[test]
    fn admission_pauses_inside_a_failover_window() {
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.cut_through = false;
        cfg.fused_cut_through = false;
        cfg.recovery = crate::recovery::RecoveryConfig::full(1, 1);
        cfg.recovery.degrade_window = 200;
        let mut sw = PipelinedSwitch::new(cfg);
        let s = 4;
        // Buffer a packet, upset it: its read crosses the threshold
        // immediately (threshold 1) and opens a 200-cycle window.
        let p = Packet::synth(1, 0, 1, s, 0);
        for k in 0..s {
            sw.tick(&[Some(p.words[k]), None]);
        }
        for a in 0..8 {
            sw.inject_bank_fault(2, Addr(a), 1);
        }
        for _ in 0..8 * s {
            sw.tick(&[None, None]);
        }
        assert_eq!(sw.counters().bank_failovers, 1);
        assert!(sw.recovery_windows().active(sw.now()));
        // A packet offered during the settle window is shed at the door.
        let q = Packet::synth(2, 0, 1, s, 0);
        for k in 0..s {
            sw.tick(&[Some(q.words[k]), None]);
        }
        for _ in 0..8 * s {
            sw.tick(&[None, None]);
        }
        let ctr = sw.counters();
        assert_eq!(ctr.recovery_shed, 1);
        assert_eq!(ctr.dropped_buffer_full, 1, "shed counts as buffer-full");
        assert_eq!(ctr.in_flight(), 0, "conservation through the shed");
        assert!(sw.is_quiescent());
    }

    #[test]
    fn stuck_write_detected_by_scrub() {
        let mut cfg = SwitchConfig::symmetric(2, 8);
        cfg.cut_through = false;
        cfg.fused_cut_through = false;
        let mut sw = PipelinedSwitch::new(cfg);
        let s = 4;
        sw.force_stuck_write(2, 1_000);
        let p = Packet::synth(7, 0, 1, s, 3);
        let (pkts, sw) = feed_and_drain(sw, &p.words);
        assert!(pkts.is_empty(), "stale word condemned the packet");
        let ctr = sw.counters();
        assert_eq!(ctr.corrupt_drops, 1);
        assert!(ctr.writes_suppressed >= 1);
        assert!(sw.is_quiescent());
    }

    #[test]
    #[should_panic(expected = "two accesses to bank 1 in cycle 2")]
    fn second_access_to_one_bank_in_a_cycle_panics() {
        // Forge a second write wave at the stage of a live one: the
        // bank-busy word must refuse the second access to that bank
        // instead of letting the walk execute it.
        let mut sw = PipelinedSwitch::new(SwitchConfig::symmetric(2, 8));
        let p = Packet::synth(7, 0, 1, 4, 0);
        sw.tick(&[Some(p.words[0]), None]);
        sw.tick(&[Some(p.words[1]), None]);
        assert_eq!(
            sw.waves.writes.count_ones(),
            1,
            "write wave started at cycle 1"
        );
        let live = sw.waves.writes.trailing_zeros() as usize;
        let forged = (live + 2) % 4;
        sw.waves.start[forged] = sw.waves.start[live];
        sw.waves.addr[forged] = Addr(5);
        sw.waves.writes |= 1 << forged;
        sw.tick(&[Some(p.words[2]), None]);
    }

    #[test]
    #[should_panic(expected = "at most 64 stages")]
    fn more_than_64_stages_rejected() {
        let mut cfg = SwitchConfig::symmetric(32, 8);
        cfg.n_in = 33;
        PipelinedSwitch::new(cfg);
    }

    #[test]
    #[should_panic(expected = "link protocol violation")]
    fn idle_mid_packet_panics() {
        let mut sw = PipelinedSwitch::new(SwitchConfig::symmetric(2, 8));
        let p = Packet::synth(7, 0, 1, 4, 0);
        sw.tick(&[Some(p.words[0]), None]);
        sw.tick(&[None, None]);
    }

    #[test]
    #[should_panic(expected = "nonexistent output")]
    fn bad_destination_panics() {
        let mut sw = PipelinedSwitch::new(SwitchConfig::symmetric(2, 8));
        let header = Packet::encode_header(5, 1); // output 5 of a 2×2
        sw.tick(&[Some(header), None]);
    }
}
