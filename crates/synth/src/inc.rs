//! Incremental synthesis session: re-synthesize an edited netlist in
//! time proportional to the edit, with results bit-identical to a
//! from-scratch [`Synthesizer`] run.
//!
//! The session caches, between calls, everything a full run would
//! rebuild from zero even though most of it did not change:
//!
//! * the previous netlist and its [`NetConn`] connectivity tables —
//!   patched over the differing gate suffix instead of rebuilt;
//! * the all-X1 baseline arrival times — rebased through the edit's
//!   fanout cone by [`IncrementalSta::patch_baseline`] instead of a
//!   whole-netlist propagation pass;
//! * the (ascending) flip-flop gate list for endpoint scans.
//!
//! Per delay target, the sizing loop then runs
//! [`size_to_target_seeded`], which mirrors [`size_to_target`]
//! decision for decision. Because every floating-point operation that
//! feeds a decision is evaluated on identical operands in identical
//! order, the reported PPA numbers equal the full run's bit for bit —
//! only the [`StaStats`] work counters differ (that equality is
//! asserted as a debug-build oracle against a real full run).

use crate::library::{Drive, Library};
use crate::map::{x1_cell_of, MappedNetlist, NetConn};
use crate::power::estimate;
use crate::size::{size_to_target_seeded, size_to_targets_seeded};
use crate::sta::{critical_path_from, worst_endpoint, IncrementalSta, StaStats, TimingReport};
use crate::synth::{SynthObs, SynthesisOptions, SynthesisReport, Synthesizer};
use crate::SynthError;
use rlmul_rtl::{GateKind, NetId, Netlist};

/// State carried from the previous call.
#[derive(Debug, Clone)]
struct PrevState {
    netlist: Netlist,
    conn: NetConn,
    /// All-X1 arrival times (the sizing loops' shared starting point).
    baseline: Vec<f64>,
    /// Dff gate indices in ascending (= netlist) order.
    dffs: Vec<u32>,
    /// All-X1 cell binding — each target's mapping starts as a memcpy
    /// of this instead of per-gate library scans.
    cell_of: Vec<usize>,
}

/// How the shared per-step state was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthMode {
    /// No usable previous state: everything was built from scratch.
    Full,
    /// Previous state was patched over the edit suffix.
    Patched,
}

/// A stateful synthesis engine for sequences of closely related
/// netlists — the RL loop's one-action-per-step edits.
///
/// [`IncrementalSynthesis::run_many`] accepts the same inputs as
/// [`Synthesizer::run_many`] and returns bit-identical reports
/// (modulo [`StaStats`]); it is simply faster when the netlist shares
/// a long gate prefix with the previous call's.
#[derive(Debug, Clone)]
pub struct IncrementalSynthesis {
    synthesizer: Synthesizer,
    prev: Option<PrevState>,
    last_mode: Option<SynthMode>,
    obs: SynthObs,
}

/// Longest shared gate prefix of two netlists.
fn shared_gate_prefix(a: &Netlist, b: &Netlist) -> usize {
    a.gates().iter().zip(b.gates()).take_while(|(x, y)| x == y).count()
}

impl IncrementalSynthesis {
    /// A session around `synthesizer`, with its metric handles
    /// registered once in the global registry.
    pub fn new(synthesizer: Synthesizer) -> Self {
        let obs = SynthObs::new(rlmul_obs::global());
        IncrementalSynthesis { synthesizer, prev: None, last_mode: None, obs }
    }

    /// Session with the NanGate45-flavoured default library.
    pub fn nangate45() -> Self {
        Self::new(Synthesizer::nangate45())
    }

    /// The bound library.
    pub fn library(&self) -> &Library {
        self.synthesizer.library()
    }

    /// The underlying stateless engine.
    pub fn synthesizer(&self) -> &Synthesizer {
        &self.synthesizer
    }

    /// Drops cached state; the next call rebuilds from scratch.
    pub fn reset(&mut self) {
        self.prev = None;
        self.last_mode = None;
    }

    /// Whether the previous [`IncrementalSynthesis::run_many`] patched
    /// cached state or built it from scratch.
    pub fn last_mode(&self) -> Option<SynthMode> {
        self.last_mode
    }

    /// Synthesizes once per target delay, like
    /// [`Synthesizer::run_multi`].
    ///
    /// # Errors
    ///
    /// As [`IncrementalSynthesis::run_many`].
    pub fn run_multi(
        &mut self,
        netlist: &Netlist,
        targets_ns: &[f64],
    ) -> Result<Vec<SynthesisReport>, SynthError> {
        let options: Vec<SynthesisOptions> =
            targets_ns.iter().map(|&t| SynthesisOptions::with_target(t)).collect();
        self.run_many(netlist, &options)
    }

    /// Runs one synthesis per option set against `netlist`, reusing as
    /// much of the previous call's work as the gate-prefix overlap
    /// allows. Reports are in option order and bit-identical (modulo
    /// [`StaStats`]) to [`Synthesizer::run_many`].
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::EmptyNetlist`] for gate-free netlists.
    pub fn run_many(
        &mut self,
        netlist: &Netlist,
        options: &[SynthesisOptions],
    ) -> Result<Vec<SynthesisReport>, SynthError> {
        if netlist.gates().is_empty() {
            return Err(SynthError::EmptyNetlist);
        }
        let obs = rlmul_obs::global();
        let _span = obs.span_into("synth.inc_run", &self.obs.seconds);

        let (conn, baseline, dffs, cell_of, mode) = self.prepare_state(netlist);
        let library = self.synthesizer.library();

        let mut slots: Vec<Option<SynthesisReport>> = options.iter().map(|_| None).collect();
        // Min-area options report straight off the shared baseline.
        for (i, o) in options.iter().enumerate() {
            if o.target_delay_ns.is_none() {
                slots[i] = Some(run_option(netlist, library, &conn, &baseline, &dffs, &cell_of, o));
            }
        }

        // Delay-targeted options with a common move budget share one
        // sizing trajectory: batch selection never reads the target,
        // so each option's independent run is a prefix of the
        // tightest's, and its report is emitted at its stop point.
        let targeted: Vec<usize> =
            (0..options.len()).filter(|&i| options[i].target_delay_ns.is_some()).collect();
        let shareable = targeted.len() >= 2
            && targeted.iter().all(|&i| options[i].max_upsizes == options[targeted[0]].max_upsizes);
        if shareable {
            let _s = obs.span("synth.inc_sizing");
            let targets: Vec<f64> =
                targeted.iter().map(|&i| options[i].target_delay_ns.expect("targeted")).collect();
            let mut mapped =
                MappedNetlist::map_with_parts(netlist, library, &conn, cell_of.clone());
            size_to_targets_seeded(
                &mut mapped,
                &targets,
                options[targeted[0]].max_upsizes,
                baseline.clone(),
                &dffs,
                |m, ti, stop| {
                    let oi = targeted[ti];
                    let delay = stop.worst_delay_ns.max(1e-6);
                    let power = estimate(m, 1.0 / delay);
                    slots[oi] = Some(SynthesisReport {
                        area_um2: m.area_um2(),
                        delay_ns: stop.worst_delay_ns,
                        power_mw: power.total_mw(),
                        target_delay_ns: options[oi].target_delay_ns,
                        met_target: stop.met_target,
                        drive_histogram: m.drive_histogram(),
                        sizing_moves: stop.moves,
                        num_cells: netlist.gates().len(),
                        sta: stop.sta,
                    });
                },
            );
        } else {
            for &i in &targeted {
                slots[i] = Some(run_option(
                    netlist,
                    library,
                    &conn,
                    &baseline,
                    &dffs,
                    &cell_of,
                    &options[i],
                ));
            }
        }
        let reports: Vec<SynthesisReport> =
            slots.into_iter().map(|s| s.expect("every option produced a report")).collect();

        // Debug oracle: the incremental session must report the same
        // PPA as a from-scratch run, bit for bit (work counters aside).
        #[cfg(debug_assertions)]
        for (r, o) in reports.iter().zip(options) {
            let full = self.synthesizer.synthesize(netlist, o);
            debug_assert!(
                r.area_um2 == full.area_um2
                    && r.delay_ns == full.delay_ns
                    && r.power_mw == full.power_mw
                    && r.met_target == full.met_target
                    && r.drive_histogram == full.drive_histogram
                    && r.sizing_moves == full.sizing_moves
                    && r.num_cells == full.num_cells,
                "incremental synthesis diverged from full run at target {:?}: \
                 {:?} vs {:?}",
                o.target_delay_ns,
                (r.area_um2, r.delay_ns, r.power_mw),
                (full.area_um2, full.delay_ns, full.power_mw),
            );
        }

        let mut sta = StaStats::default();
        for r in &reports {
            sta.merge(r.sta);
        }
        self.obs.record(reports.len(), sta);

        self.prev = Some(PrevState { netlist: netlist.clone(), conn, baseline, dffs, cell_of });
        self.last_mode = Some(mode);
        Ok(reports)
    }

    /// Produces the shared per-step state for `netlist`: connectivity
    /// tables, all-X1 baseline arrivals, and the Dff list — patched
    /// from the previous call when the netlists overlap, rebuilt
    /// otherwise.
    fn prepare_state(
        &mut self,
        netlist: &Netlist,
    ) -> (NetConn, Vec<f64>, Vec<u32>, Vec<usize>, SynthMode) {
        let _s = rlmul_obs::global().span("synth.inc_prepare");
        let taken = self.prev.take();
        let library = self.synthesizer.library();
        let prev = match taken {
            // Patching splices suffixes over a shared gate prefix and
            // identical input ports; anything else falls back to a
            // from-scratch build.
            Some(p) if p.netlist.inputs() == netlist.inputs() => p,
            _ => {
                let conn = NetConn::build(netlist);
                let cell_of = x1_cell_of(netlist, library);
                let mapped =
                    MappedNetlist::map_with_parts(netlist, library, &conn, cell_of.clone());
                let baseline = crate::sta::analyze(&mapped).arrivals;
                let dffs = dff_list(netlist, 0, &[]);
                return (conn, baseline, dffs, cell_of, SynthMode::Full);
            }
        };

        let k = shared_gate_prefix(&prev.netlist, netlist);
        let PrevState { netlist: old, mut conn, baseline, mut dffs, mut cell_of } = prev;

        // Prefix gates whose output load the edit can change: drivers
        // of any net the old or new suffix reads, and drivers of
        // primary-output bits (their PO fanout may move). Collected
        // against the *new* netlist's tables — stale old-only nets
        // resolve to None and suffix drivers (≥ k) are already queued.
        conn.patch(&old, netlist, k);
        let mut touched: Vec<NetId> = Vec::new();
        for g in old.gates().iter().skip(k).chain(netlist.gates().iter().skip(k)) {
            touched.extend(g.inputs().iter().copied());
        }
        for p in old.outputs().iter().chain(netlist.outputs()) {
            touched.extend(p.bits.iter().copied());
        }
        let mut seeds: Vec<usize> = touched
            .into_iter()
            .filter_map(|net| conn.driver_index(net))
            .filter(|&d| (d as usize) < k)
            .map(|d| d as usize)
            .collect();
        seeds.sort_unstable();
        seeds.dedup();

        // Rebase the cell template over the suffix: prefix bindings
        // are all-X1 already, so only the new tail needs lookups —
        // memoized per gate kind, since `Library::cell_index` is a
        // linear scan and the suffix repeats a handful of kinds.
        let mut x1_memo = [usize::MAX; 16];
        cell_of.truncate(k);
        cell_of.extend(netlist.gates().iter().skip(k).map(|g| {
            let slot = &mut x1_memo[g.kind as usize];
            if *slot == usize::MAX {
                *slot = library.cell_index(g.kind, Drive::X1);
            }
            *slot
        }));

        let mapped = MappedNetlist::map_with_parts(netlist, library, &conn, cell_of.clone());
        let mut sta = IncrementalSta::from_baseline(baseline);
        sta.patch_baseline(&mapped, &seeds, k);
        let baseline = sta.into_arrivals();

        dffs.retain(|&gi| (gi as usize) < k);
        let suffix_dffs = dff_list(netlist, k, &dffs);
        (conn, baseline, suffix_dffs, cell_of, SynthMode::Patched)
    }
}

/// One synthesis target over the shared per-step state — the per-job
/// body of [`IncrementalSynthesis::run_many`].
fn run_option(
    netlist: &Netlist,
    library: &Library,
    conn: &NetConn,
    baseline: &[f64],
    dffs: &[u32],
    cell_of: &[usize],
    o: &SynthesisOptions,
) -> SynthesisReport {
    let _s = rlmul_obs::global().span("synth.inc_option");
    let mut mapped = MappedNetlist::map_with_parts(netlist, library, conn, cell_of.to_vec());
    let (timing, moves, met, sta) = match o.target_delay_ns {
        Some(target) => {
            let out =
                size_to_target_seeded(&mut mapped, target, o.max_upsizes, baseline.to_vec(), dffs);
            (out.timing, out.moves, out.met_target, out.sta)
        }
        None => {
            // Minimum-area mapping: report straight off the shared
            // baseline, no sizing.
            let (worst, worst_net) = worst_endpoint(&mapped, baseline, Some(dffs));
            let critical_path = critical_path_from(&mapped, baseline, worst_net);
            let timing =
                TimingReport { worst_delay_ns: worst, arrivals: baseline.to_vec(), critical_path };
            (timing, 0, true, StaStats::default())
        }
    };
    let delay = timing.worst_delay_ns.max(1e-6);
    let power = estimate(&mapped, 1.0 / delay);
    SynthesisReport {
        area_um2: mapped.area_um2(),
        delay_ns: timing.worst_delay_ns,
        power_mw: power.total_mw(),
        target_delay_ns: o.target_delay_ns,
        met_target: met,
        drive_histogram: mapped.drive_histogram(),
        sizing_moves: moves,
        num_cells: netlist.gates().len(),
        sta,
    }
}

/// Moves `prefix` + the Dff gates of `netlist.gates()[from..]` into
/// one ascending list.
fn dff_list(netlist: &Netlist, from: usize, prefix: &[u32]) -> Vec<u32> {
    let mut dffs = prefix.to_vec();
    for (gi, g) in netlist.gates().iter().enumerate().skip(from) {
        if g.kind == GateKind::Dff {
            dffs.push(gi as u32);
        }
    }
    dffs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlmul_ct::{CompressorTree, PpgKind};
    use rlmul_rtl::{IncrementalMultiplier, MultiplierNetlist};

    const TARGETS: [f64; 4] = [0.7, 0.85, 1.0, 1.15];

    fn strip_sta(mut r: SynthesisReport) -> SynthesisReport {
        r.sta = StaStats::default();
        r
    }

    #[test]
    fn session_matches_full_runs_across_an_action_walk() {
        let tree = CompressorTree::dadda(8, PpgKind::And).unwrap();
        let mut inc = IncrementalMultiplier::new(&tree).unwrap();
        let mut session = IncrementalSynthesis::nangate45();
        let full = Synthesizer::nangate45();

        // Deterministic action walk, as in the rtl incremental tests.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut tree = tree;
        for step in 0..4 {
            let reports = session.run_multi(inc.netlist(), &TARGETS).unwrap();
            let oracle = full.run_multi(inc.netlist(), &TARGETS).unwrap();
            for (r, o) in reports.into_iter().zip(oracle) {
                assert_eq!(strip_sta(r), strip_sta(o), "step {step}");
            }
            let actions = tree.valid_actions();
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = actions[(seed >> 33) as usize % actions.len()];
            tree = tree.apply_action(a).unwrap();
            inc.retarget(&tree).unwrap();
        }
        assert_eq!(session.last_mode(), Some(SynthMode::Patched));
    }

    #[test]
    fn first_run_is_full_then_patched() {
        let tree = CompressorTree::wallace(4, PpgKind::And).unwrap();
        let nl = MultiplierNetlist::elaborate(&tree).unwrap().into_netlist();
        let mut session = IncrementalSynthesis::nangate45();
        session.run_multi(&nl, &[1.0]).unwrap();
        assert_eq!(session.last_mode(), Some(SynthMode::Full));
        session.run_multi(&nl, &[1.0]).unwrap();
        assert_eq!(session.last_mode(), Some(SynthMode::Patched));
        session.reset();
        session.run_multi(&nl, &[1.0]).unwrap();
        assert_eq!(session.last_mode(), Some(SynthMode::Full));
    }

    #[test]
    fn session_records_the_synthesis_families() {
        // The session is the only synthesis a release-built env runs,
        // so it must feed the same families as `Synthesizer::run`.
        // Other tests share the global registry, hence `>=`.
        let obs = rlmul_obs::global();
        obs.enable();
        let runs = obs.counter("rlmul_synth_runs_total", "");
        let seconds = obs.histogram("rlmul_synth_run_seconds", "");
        let (runs_before, calls_before) = (runs.get(), seconds.count());
        let tree = CompressorTree::wallace(4, PpgKind::And).unwrap();
        let nl = MultiplierNetlist::elaborate(&tree).unwrap().into_netlist();
        IncrementalSynthesis::nangate45().run_multi(&nl, &[0.8, 1.0]).unwrap();
        assert!(runs.get() >= runs_before + 2);
        assert!(seconds.count() > calls_before);
    }

    #[test]
    fn min_area_run_matches_full_path() {
        let tree = CompressorTree::dadda(4, PpgKind::Mbe).unwrap();
        let nl = MultiplierNetlist::elaborate(&tree).unwrap().into_netlist();
        let mut session = IncrementalSynthesis::nangate45();
        let r = session.run_many(&nl, &[SynthesisOptions::default()]).unwrap();
        let o = Synthesizer::nangate45().run(&nl, &SynthesisOptions::default()).unwrap();
        assert_eq!(strip_sta(r.into_iter().next().unwrap()), strip_sta(o));
    }

    #[test]
    fn empty_netlist_is_an_error() {
        let mut b = rlmul_rtl::NetlistBuilder::new("empty");
        let x = b.input("x", 1);
        b.output("y", &[x[0]]);
        let n = b.finish();
        let mut session = IncrementalSynthesis::nangate45();
        assert!(matches!(session.run_many(&n, &[]), Err(SynthError::EmptyNetlist)));
    }
}
