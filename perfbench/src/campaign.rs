//! The campaign workloads, `mlpct-s1` and `pct-durable`.
//!
//! Untraced, a unit of work is one `run_supervised_campaign` over the
//! seed's CTI stream, set up the way `snowcat campaign` sets it up; the
//! unit repeats until the run's time is spent. Traced, the benchmark first
//! runs the program once (for its history, report and final SCCP bytes) and
//! `explore_pct`/`explore_mlpct` once per CTI (for per-CTI outcomes), then
//! replays the supervisor and explorer loops in this file with a span
//! around every layer call, and checks the replay against both.

use crate::layers::{ratio, Layers, ROOT};
use crate::trace::{Agg, Tracer};
use crate::{check_expected, median, spans_path, BoxError, Ctx, RunOutput};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snowcat_cfg::KernelCfg;
use snowcat_core::{
    checkpoint_fingerprint, explore_mlpct, explore_pct, graph_fingerprint, load_checkpoint,
    CostModel, ExploreConfig, ExploreOutcome, Explorer, HistoryPoint, Pic, PredictorService,
    SelectionStrategy, StrategyKind,
};
use snowcat_corpus::{interacting_cti_pairs, StiFuzzer, StiProfile};
use snowcat_events::{validate_stream, validate_trace, CampaignEvent, EventSink, EventWriter};
use snowcat_harness::{
    encode_checkpoint, load_checkpoint_with_fallback, report_from_campaign_checkpoint,
    report_from_supervised, run_supervised_campaign, save_bytes_atomic, CampaignCheckpoint,
    RecoveryLog, SupervisedResult, SupervisorConfig,
};
use snowcat_kernel::{BugId, Kernel, KernelVersion};
use snowcat_nn::Checkpoint;
use snowcat_race::{RaceDetector, RaceKey, RaceSet};
use snowcat_vm::{propose_hints, run_ct, BitSet, Cti};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Kernel family seed of the shipped PIC-5 model, and the default seed of
/// the CLI. The kernel, corpus and CTI stream are built from it, so every
/// run explores the same CTIs; `--seed` is the exploration seed, which
/// draws every schedule the run proposes. A seed that also picked the CTIs
/// would move CTIs/s by more than any bound (up to 1.7x between seeds on 20
/// CTIs), because CTIs differ widely in cost.
pub const FAMILY_SEED: u64 = 0x5EED_2023;
/// Bit-exact SCMC copy of `results/cache/PIC-5-5_12-s5eed2023-c400-h32-l5-e8.json`.
const MODEL_PATH: &str = "perfbench/model/PIC-5-5_12-s5eed2023-c400-h32-l5-e8.scmc";
/// `checkpoint_fingerprint` of that model.
const MODEL_FINGERPRINT: u64 = 0xbc8f_11c4_3b26_4567;
/// Per-CTI seed derivation of the supervisor (`supervisor.rs`).
const SEED_GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
const CKPT_FILE: &str = "campaign.sccp";
const EVENTS_DIR: &str = "events";
const EVENT_QUEUE_CAP: usize = 1 << 16;

/// One campaign workload.
pub struct CampaignSpec {
    pub name: &'static str,
    /// MLPCT with S1 and the shipped PIC-5, or plain PCT.
    pub mlpct: bool,
    pub ctis: usize,
    pub exec_budget: usize,
    pub inference_cap: usize,
    /// SCCP checkpoint cadence in CTIs (None: no checkpoints).
    pub ckpt_every: Option<usize>,
    /// JSONL and Perfetto event export, as `snowcat campaign --events`.
    pub events: bool,
}

pub const MLPCT_S1: CampaignSpec = CampaignSpec {
    name: "mlpct-s1",
    mlpct: true,
    ctis: 20,
    exec_budget: 50,
    inference_cap: 1600,
    ckpt_every: None,
    events: false,
};

pub const PCT_DURABLE: CampaignSpec = CampaignSpec {
    name: "pct-durable",
    mlpct: false,
    ctis: 2000,
    exec_budget: 50,
    inference_cap: 1600,
    ckpt_every: Some(25),
    events: true,
};

impl CampaignSpec {
    fn params(&self) -> String {
        format!(
            "{{\"kernel\": \"5.12\", \"family_seed\": {FAMILY_SEED}, \"explorer\": \"{}\", \
             \"ctis\": {}, \"exec_budget\": {}, \"inference_cap\": {}, \"checkpoint_every\": \
             {}, \"events\": {}, \"threads\": 1}}",
            if self.mlpct { "MLPCT-S1" } else { "PCT" },
            self.ctis,
            self.exec_budget,
            self.inference_cap,
            self.ckpt_every.map_or("null".to_string(), |n| n.to_string()),
            self.events,
        )
    }

    fn explore_cfg(&self, seed: u64) -> ExploreConfig {
        ExploreConfig::default()
            .with_exec_budget(self.exec_budget)
            .with_inference_cap(self.inference_cap)
            .with_seed(seed)
    }
}

struct Setup {
    kernel: Kernel,
    cfg: KernelCfg,
    corpus: Vec<StiProfile>,
    stream: Vec<(usize, usize)>,
    model: Option<Checkpoint>,
}

fn setup(spec: &CampaignSpec, tr: &mut Tracer) -> Result<Setup, BoxError> {
    let kernel = tr.span("kernel.build", 0, || KernelVersion::V5_12.spec(FAMILY_SEED).build());
    let cfg = tr.span("cfg.build", 0, || KernelCfg::build(&kernel));
    // As `snowcat campaign`: seeded corpus, then an interacting CTI stream.
    let (corpus, stream) = tr.span("corpus.fuzz", 0, || {
        let mut fz = StiFuzzer::new(&kernel, FAMILY_SEED);
        fz.seed_each_syscall();
        fz.fuzz(100);
        let corpus = fz.into_corpus();
        let mut rng = ChaCha8Rng::seed_from_u64(FAMILY_SEED ^ 0xE0);
        let stream = interacting_cti_pairs(&mut rng, &corpus, spec.ctis);
        (corpus, stream)
    });
    let model = if spec.mlpct { Some(tr.span("core.model_load", 0, load_model)?) } else { None };
    Ok(Setup { kernel, cfg, corpus, stream, model })
}

fn load_model() -> Result<Checkpoint, BoxError> {
    let ck = load_checkpoint(Path::new(MODEL_PATH))?;
    let fp = checkpoint_fingerprint(&ck);
    if fp != MODEL_FINGERPRINT {
        return Err(format!(
            "{MODEL_PATH}: checkpoint fingerprint {fp:#018x}, expected {MODEL_FINGERPRINT:#018x}"
        )
        .into());
    }
    Ok(ck)
}

/// The output summary of one campaign, as recorded in `expected.txt`.
fn summary(res: &SupervisedResult) -> String {
    let l = res.result.last();
    let forwards = res.predictor_stats.map_or(0, |p| p.inferences());
    format!(
        "ctis={} executions={} inferences={} forwards={} races={} harmful={} blocks={} bugs={} \
         hours={:?}",
        l.ctis,
        l.executions,
        l.inferences,
        forwards,
        l.races,
        l.harmful_races,
        l.sched_dep_blocks,
        l.bugs,
        l.hours
    )
}

/// One program run: what `snowcat campaign` does after set-up.
struct ProgramRun {
    result: SupervisedResult,
    secs: f64,
    /// Peak RSS after the run, before its outputs are checked.
    rss_mib: f64,
    /// Final SCCP bytes (durable workloads).
    sccp: Option<Vec<u8>>,
    /// Durable-output checks that failed (events, SCCP reload).
    problems: Vec<String>,
}

fn run_program(
    spec: &CampaignSpec,
    s: &Setup,
    seed: u64,
    work: &Path,
) -> Result<ProgramRun, BoxError> {
    let ckpt = work.join(CKPT_FILE);
    let events = work.join(EVENTS_DIR);
    clear_outputs(work)?;

    let t0 = Instant::now();
    let pic = s.model.as_ref().map(|ck| Pic::new(ck, &s.kernel, &s.cfg));
    let explorer = match &pic {
        Some(p) => Explorer::mlpct(p, StrategyKind::S1.build()),
        None => Explorer::Pct,
    };
    let mut sup = SupervisorConfig::new();
    if let Some(every) = spec.ckpt_every {
        sup.checkpoint_path = Some(ckpt.clone());
        sup.checkpoint_every = every;
    }
    let writer = if spec.events {
        let sink = EventSink::bounded(EVENT_QUEUE_CAP);
        let w = EventWriter::spawn(sink.clone(), &events)?;
        sup.events = Some(sink);
        Some(w)
    } else {
        None
    };
    let result = run_supervised_campaign(
        &s.kernel,
        &s.corpus,
        &s.stream,
        explorer,
        &spec.explore_cfg(seed),
        &CostModel::default(),
        &sup,
        None,
    )?;
    let dropped = match writer {
        Some(w) => w.finish()?.dropped,
        None => 0,
    };
    let secs = t0.elapsed().as_secs_f64();
    let rss_mib = crate::peak_rss_mib();

    let mut problems = Vec::new();
    if dropped > 0 {
        problems.push(format!("{dropped} events dropped"));
    }
    if spec.events {
        problems.extend(check_events(&events).err());
    }
    let sccp = match spec.ckpt_every {
        Some(_) => {
            let (ck, fell_back) = load_checkpoint_with_fallback(&ckpt)?;
            let want = report_from_supervised(&result, seed).to_canonical_json();
            if fell_back || report_from_campaign_checkpoint(&ck).to_canonical_json() != want {
                problems.push("final SCCP does not reload to the run's report".into());
            }
            Some(std::fs::read(&ckpt)?)
        }
        None => None,
    };
    Ok(ProgramRun { result, secs, rss_mib, sccp, problems })
}

fn clear_outputs(work: &Path) -> std::io::Result<()> {
    for f in [CKPT_FILE, "campaign.sccp.prev", "campaign.sccp.tmp"] {
        match std::fs::remove_file(work.join(f)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
    }
    match std::fs::remove_dir_all(work.join(EVENTS_DIR)) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// The event stream passes `validate_stream` and the Perfetto export
/// `validate_trace`.
fn check_events(dir: &Path) -> Result<(), String> {
    let jsonl = std::fs::read_to_string(dir.join(snowcat_events::EVENTS_FILE))
        .map_err(|e| format!("events.jsonl: {e}"))?;
    validate_stream(&jsonl).map_err(|e| format!("events.jsonl: {e}"))?;
    let trace = std::fs::read_to_string(dir.join(snowcat_events::TRACE_FILE))
        .map_err(|e| format!("trace.json: {e}"))?;
    validate_trace(&trace).map_err(|e| format!("trace.json: {e}"))?;
    Ok(())
}

/// CTIs of `run` that fail: a history point that differs from the
/// reference run's, a missing point, a hung attempt or a quarantined pair.
fn failed_ctis(run: &SupervisedResult, reference: &SupervisedResult, n: usize) -> u64 {
    let bad = (0..n)
        .filter(|&i| {
            let got = run.result.history.get(i);
            got.is_none() || got != reference.result.history.get(i)
        })
        .count() as u64;
    let r = &run.recovery;
    (bad + r.hung_attempts + r.quarantined + r.skipped_quarantined).min(n as u64)
}

pub fn run(ctx: &Ctx, spec: &CampaignSpec) -> Result<RunOutput, BoxError> {
    if ctx.trace {
        return run_traced(ctx, spec);
    }
    let mut off = Tracer::new(false);
    let (s, setup) = crate::repeated_setup(ctx, &mut off, |tr| setup(spec, tr))?;
    let n = s.stream.len();
    let mut reference: Option<SupervisedResult> = None;
    let mut rss_mib = 0.0;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut expected = "unrecorded";
    let timings = crate::timed_units(ctx.seconds, || {
        let run = run_program(spec, &s, ctx.seed, &ctx.work)?;
        attempted += n as u64;
        for p in &run.problems {
            eprintln!("perfbench: {p}");
        }
        // The first unit is checked against expected.txt, later ones
        // against the first.
        if reference.is_none() {
            rss_mib = run.rss_mib;
            expected = check_expected(spec.name, ctx.seed, &summary(&run.result));
        }
        failed += if expected == "recorded-mismatch" || !run.problems.is_empty() {
            n as u64
        } else {
            failed_ctis(&run.result, reference.as_ref().unwrap_or(&run.result), n)
        };
        reference.get_or_insert(run.result);
        Ok(run.secs)
    })?;
    let reference = reference.expect("at least one unit ran");
    let (metrics, host) = crate::end_to_end(&timings, n as f64, &setup, rss_mib, attempted, failed);
    Ok(RunOutput {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        params: spec.params(),
        outputs: summary(&reference),
        expected,
        host,
    })
}

/// What one CTI's exploration produced, in comparable form.
#[derive(Debug, PartialEq)]
struct CtiOutcome {
    executions: u64,
    inferences: u64,
    race_keys: Vec<RaceKey>,
    bugs: Vec<BugId>,
    blocks: BitSet,
    hangs: u64,
    crashes: u64,
}

impl From<&ExploreOutcome> for CtiOutcome {
    fn from(o: &ExploreOutcome) -> Self {
        CtiOutcome {
            executions: o.executions,
            inferences: o.inferences,
            race_keys: o.race_keys(),
            bugs: o.bugs.clone(),
            blocks: o.sched_dep_blocks.clone(),
            hangs: o.hangs,
            crashes: o.crashes,
        }
    }
}

fn cti_seed(base: u64, position: usize) -> u64 {
    base ^ (position as u64).wrapping_mul(SEED_GOLDEN)
}

/// Per-CTI outcomes straight from the program's explorers, in stream order
/// with the supervisor's seeds and one strategy carried across CTIs.
fn reference_outcomes(spec: &CampaignSpec, s: &Setup, seed: u64) -> Vec<CtiOutcome> {
    let base = spec.explore_cfg(seed);
    let pic = s.model.as_ref().map(|ck| Pic::new(ck, &s.kernel, &s.cfg));
    let mut strategy = StrategyKind::S1.build();
    s.stream
        .iter()
        .enumerate()
        .map(|(ci, &(ia, ib))| {
            let cfg = base.with_seed(cti_seed(seed, ci));
            let (a, b) = (&s.corpus[ia], &s.corpus[ib]);
            let outcome = match &pic {
                Some(p) => explore_mlpct(
                    &s.kernel,
                    &PredictorService::direct(p),
                    strategy.as_mut(),
                    a,
                    b,
                    &cfg,
                ),
                None => explore_pct(&s.kernel, a, b, &cfg),
            };
            CtiOutcome::from(&outcome)
        })
        .collect()
}

/// Counters the replay keeps for the ratio metrics.
#[derive(Default)]
struct Counts {
    dup_draws: u64,
    forwards: u64,
    repeat_graphs: u64,
    overlay_rows: u64,
    executions: u64,
    race_reports: u64,
    new_campaign_races: u64,
    ckpt_bytes_max: u64,
}

/// Campaign accumulators, mirroring the supervisor's.
struct State {
    races: RaceSet,
    harmful: RaceSet,
    blocks: BitSet,
    bugs_found: Vec<BugId>,
    executions: u64,
    inferences: u64,
    history: Vec<HistoryPoint>,
    recovery: RecoveryLog,
}

struct Replay<'a> {
    spec: &'a CampaignSpec,
    s: &'a Setup,
    seed: u64,
    pic: Option<Pic<'a>>,
    seen_graphs: HashSet<u64>,
    counts: Counts,
}

/// What one replayed campaign produced.
struct ReplayRun {
    outcomes: Vec<CtiOutcome>,
    history: Vec<HistoryPoint>,
    bugs_found: Vec<BugId>,
    sccp: Option<Vec<u8>>,
    problems: Vec<String>,
}

impl Replay<'_> {
    /// `explore_pct` / `explore_mlpct`, with a span around each layer call.
    fn explore(
        &mut self,
        tr: &mut Tracer,
        strategy: &mut dyn SelectionStrategy,
        a: &StiProfile,
        b: &StiProfile,
        cfg: &ExploreConfig,
        pos: u32,
    ) -> ExploreOutcome {
        let kernel = &self.s.kernel;
        let c = &mut self.counts;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let detector = RaceDetector::default();
        let (cti, seq_cov) = tr.span("core.accumulate", pos, || {
            let mut u = BitSet::new(kernel.num_blocks());
            u.union_with(&a.seq.coverage);
            u.union_with(&b.seq.coverage);
            (Cti::new(a.sti.clone(), b.sti.clone()), u)
        });
        let service = self.pic.as_ref().map(PredictorService::direct);
        let base = service.map(|svc| tr.span("graph.base", pos, || svc.base_graph(a, b)));
        let mut out = ExploreOutcome {
            executions: 0,
            inferences: 0,
            races: Vec::new(),
            bugs: Vec::new(),
            sched_dep_blocks: BitSet::new(kernel.num_blocks()),
            hangs: 0,
            crashes: 0,
        };
        let mut seen_races = HashSet::new();
        let mut seen_hints = HashSet::new();
        let mut attempts = 0usize;
        loop {
            let more = match service {
                Some(_) => {
                    (out.executions as usize) < cfg.exec_budget
                        && (out.inferences as usize) < cfg.inference_cap
                }
                None => {
                    (out.executions as usize) < cfg.exec_budget && attempts < cfg.exec_budget * 20
                }
            };
            if !more {
                break;
            }
            attempts += 1;
            let hints =
                tr.span("vm.propose", pos, || propose_hints(&mut rng, a.seq.steps, b.seq.steps));
            let fresh = tr.span("core.accumulate", pos, || seen_hints.insert(hints.clone()));
            if let (Some(svc), Some(base)) = (service, &base) {
                if !fresh {
                    out.inferences += 1;
                    c.dup_draws += 1;
                    continue;
                }
                let graph =
                    tr.span("graph.overlay", pos, || svc.pic().candidate_graph(base, a, b, &hints));
                c.overlay_rows += graph.num_verts() as u64;
                if !self.seen_graphs.insert(graph_fingerprint(&graph)) {
                    c.repeat_graphs += 1;
                }
                let pred = tr.span("nn.forward", pos, || svc.predictor().predict_one(&graph));
                out.inferences += 1;
                c.forwards += 1;
                let selected = tr.span("core.select", pos, || strategy.select(&pred));
                if !selected {
                    continue;
                }
            } else if !fresh {
                continue;
            }
            let r = tr.span("vm.exec", pos, || run_ct(kernel, &cti, hints, cfg.vm_config()));
            c.executions += 1;
            let reports = tr.span("race.detect", pos, || detector.detect(kernel, &r));
            c.race_reports += reports.len() as u64;
            tr.span("core.accumulate", pos, || {
                out.executions += 1;
                out.hangs += u64::from(r.hung());
                out.crashes += u64::from(r.crashed());
                for report in reports {
                    if seen_races.insert(report.key) {
                        out.races.push(report);
                    }
                }
                out.bugs.extend(r.unique_bugs());
                out.sched_dep_blocks.union_with(&r.coverage.difference(&seq_cov));
                drop(r);
            });
        }
        out.bugs.sort_unstable();
        out.bugs.dedup();
        out
    }

    /// `run_supervised_campaign` on the happy path (no faults, no hangs),
    /// with a span around each layer call.
    fn campaign(&mut self, tr: &mut Tracer, work: &Path, unit: u32) -> Result<ReplayRun, BoxError> {
        clear_outputs(work)?;
        let spec = self.spec;
        let s = self.s;
        let base_cfg = spec.explore_cfg(self.seed);
        let cost = CostModel::default();
        let ckpt_path: Option<PathBuf> = spec.ckpt_every.map(|_| work.join(CKPT_FILE));
        let mut strategy = StrategyKind::S1.build();
        let label = if spec.mlpct { format!("MLPCT-{}", strategy.name()) } else { "PCT".into() };

        tr.begin(ROOT, unit);
        let (sink, writer) = if spec.events {
            let sink = EventSink::bounded(EVENT_QUEUE_CAP);
            let w = EventWriter::spawn(sink.clone(), &work.join(EVENTS_DIR))?;
            (Some(sink), Some(w))
        } else {
            (None, None)
        };
        let emit = |tr: &mut Tracer, pos: u32, e: CampaignEvent| {
            if let Some(sink) = &sink {
                tr.span("events.emit", pos, || sink.campaign(e));
            }
        };
        emit(
            tr,
            0,
            CampaignEvent::Started {
                label: label.clone(),
                seed: base_cfg.seed,
                ctis: s.stream.len() as u64,
                resumed_from: None,
            },
        );
        let mut st = State {
            races: RaceSet::new(),
            harmful: RaceSet::new(),
            blocks: BitSet::new(s.kernel.num_blocks()),
            bugs_found: Vec::new(),
            executions: 0,
            inferences: 0,
            history: Vec::new(),
            recovery: RecoveryLog::default(),
        };
        let mut outcomes = Vec::with_capacity(s.stream.len());
        let mut problems = Vec::new();
        for (ci, &(ia, ib)) in s.stream.iter().enumerate() {
            let pos = ci as u32;
            let cfg = base_cfg.with_seed(cti_seed(self.seed, ci));
            tr.begin("core.cti", pos);
            let t0 = Instant::now();
            let outcome =
                self.explore(tr, strategy.as_mut(), &s.corpus[ia], &s.corpus[ib], &cfg, pos);
            let latency_us = t0.elapsed().as_micros() as u64;
            if outcome.executions > 0 && outcome.hangs == outcome.executions {
                problems.push(format!("CTI {ci}: every execution hung"));
            }
            outcomes.push(CtiOutcome::from(&outcome));
            let (new_races, new_blocks) = tr.span("core.accumulate", pos, || {
                let pre_races = st.races.len();
                let pre_blocks = st.blocks.count();
                st.executions += outcome.executions;
                st.inferences += outcome.inferences;
                for r in &outcome.races {
                    st.races.insert(r.key);
                    if !r.benign {
                        st.harmful.insert(r.key);
                    }
                }
                st.blocks.union_with(&outcome.sched_dep_blocks);
                for bug in &outcome.bugs {
                    if !st.bugs_found.contains(bug) {
                        st.bugs_found.push(*bug);
                    }
                }
                st.history.push(HistoryPoint {
                    ctis: ci + 1,
                    executions: st.executions,
                    inferences: st.inferences,
                    hours: cost.hours(st.executions, st.inferences),
                    races: st.races.len(),
                    harmful_races: st.harmful.len(),
                    sched_dep_blocks: st.blocks.count(),
                    bugs: st.bugs_found.len(),
                });
                (st.races.len() - pre_races, st.blocks.count() - pre_blocks)
            });
            self.counts.new_campaign_races += new_races as u64;
            tr.end();
            emit(
                tr,
                pos,
                CampaignEvent::ExecutionOutcome {
                    position: ci as u64,
                    ct_a: ia as u64,
                    ct_b: ib as u64,
                    attempt: 0,
                    executions: outcome.executions,
                    new_races: new_races as u64,
                    new_blocks: new_blocks as u64,
                    latency_us,
                },
            );
            if let (Some(path), Some(every)) = (&ckpt_path, spec.ckpt_every) {
                if (ci + 1) % every.max(1) == 0 {
                    self.checkpoint(tr, path, &mut st, &label, ci + 1, strategy.as_ref(), &emit)?;
                }
            }
        }
        let n = s.stream.len();
        if let Some(path) = &ckpt_path {
            self.checkpoint(tr, path, &mut st, &label, n, strategy.as_ref(), &emit)?;
        }
        let last = st.history.last().copied();
        if let Some(l) = last {
            emit(
                tr,
                n as u32,
                CampaignEvent::Finished {
                    label: label.clone(),
                    executions: l.executions,
                    inferences: l.inferences,
                    races: l.races as u64,
                    harmful_races: l.harmful_races as u64,
                    blocks: l.sched_dep_blocks as u64,
                    bugs: l.bugs as u64,
                    quarantined: 0,
                    sim_hours: l.hours,
                },
            );
        }
        if let Some(w) = writer {
            let summary = tr.span("events.flush", n as u32, || w.finish())?;
            if summary.dropped > 0 {
                problems.push(format!("{} events dropped", summary.dropped));
            }
        }
        tr.end();

        if spec.events {
            problems.extend(check_events(&work.join(EVENTS_DIR)).err());
        }
        let sccp = match &ckpt_path {
            Some(p) => Some(std::fs::read(p)?),
            None => None,
        };
        Ok(ReplayRun { outcomes, history: st.history, bugs_found: st.bugs_found, sccp, problems })
    }

    /// The supervisor's `write_checkpoint` on the happy path.
    #[allow(clippy::too_many_arguments)]
    fn checkpoint(
        &mut self,
        tr: &mut Tracer,
        path: &Path,
        st: &mut State,
        label: &str,
        position: usize,
        strategy: &dyn SelectionStrategy,
        emit: &dyn Fn(&mut Tracer, u32, CampaignEvent),
    ) -> Result<(), BoxError> {
        let pos = position as u32;
        let bytes = tr.span("harness.ckpt_encode", pos, || {
            let mut race_keys: Vec<_> = st.races.iter().copied().collect();
            race_keys.sort_unstable();
            let mut harmful_keys: Vec<_> = st.harmful.iter().copied().collect();
            harmful_keys.sort_unstable();
            encode_checkpoint(&CampaignCheckpoint {
                label: label.to_owned(),
                seed: self.spec.explore_cfg(self.seed).seed,
                position,
                executions: st.executions,
                inferences: st.inferences,
                race_keys,
                harmful_keys,
                blocks: st.blocks.clone(),
                bugs_found: st.bugs_found.clone(),
                history: st.history.clone(),
                quarantine: Vec::new(),
                strategy: self.spec.mlpct.then(|| strategy.snapshot()),
                recovery: st.recovery,
            })
        })?;
        self.counts.ckpt_bytes_max = self.counts.ckpt_bytes_max.max(bytes.len() as u64);
        let ordinal = st.recovery.checkpoints_written + 1;
        let rotated = tr.span("harness.ckpt_write", pos, || {
            let rotated = path.exists();
            save_bytes_atomic(path, &bytes).map(|()| rotated)
        })?;
        emit(
            tr,
            pos,
            CampaignEvent::CheckpointWritten {
                path: path.display().to_string(),
                position: position as u64,
                ordinal,
                rotated,
            },
        );
        st.recovery.checkpoints_written += 1;
        Ok(())
    }
}

fn run_traced(ctx: &Ctx, spec: &CampaignSpec) -> Result<RunOutput, BoxError> {
    let mut tr = Tracer::new(true);
    let (s, _) = crate::repeated_setup(ctx, &mut tr, |tr| setup(spec, tr))?;
    let mut setup_agg = BTreeMap::new();
    tr.drain_into(&mut setup_agg);
    let n = s.stream.len();

    let program = run_program(spec, &s, ctx.seed, &ctx.work)?;
    let expected = check_expected(spec.name, ctx.seed, &summary(&program.result));
    let reference = reference_outcomes(spec, &s, ctx.seed);

    let mut replay = Replay {
        spec,
        s: &s,
        seed: ctx.seed,
        pic: s.model.as_ref().map(|ck| Pic::new(ck, &s.kernel, &s.cfg)),
        seen_graphs: HashSet::new(),
        counts: Counts::default(),
    };
    let mut agg: BTreeMap<&'static str, Agg> = BTreeMap::new();
    let (mut attempted, mut failed, mut units) = (0u64, 0u64, 0usize);
    let mut problems = program.problems.clone();
    if expected == "recorded-mismatch" {
        problems.push("program output differs from expected.txt".into());
    }
    let t_run = Instant::now();
    while units == 0 || t_run.elapsed().as_secs_f64() < ctx.seconds {
        // Graph repeats count within one campaign, as a cache would see them.
        replay.seen_graphs.clear();
        let run = replay.campaign(&mut tr, &ctx.work, units as u32)?;
        if units == 0 {
            tr.dump(&spans_path(ctx))?;
        }
        tr.drain_into(&mut agg);
        units += 1;
        attempted += n as u64;
        let mut bad = (0..n).filter(|&i| run.outcomes.get(i) != reference.get(i)).count() as u64;
        if run.history != program.result.result.history
            || run.bugs_found != program.result.result.bugs_found
        {
            problems.push("replayed history differs from run_supervised_campaign".into());
            bad = n as u64;
        }
        if run.sccp != program.sccp {
            problems.push("replayed final SCCP bytes differ from the program's".into());
            bad = n as u64;
        }
        if !run.problems.is_empty() {
            problems.extend(run.problems);
            bad = n as u64;
        }
        failed += bad;
    }
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    let mut unit_walls: Vec<f64> =
        agg[ROOT].durations_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
    let traced_wall = median(&mut unit_walls);
    let c = &replay.counts;
    let per_unit = units as u64;
    let mut layers = Layers::from_spans(&setup_agg, &mut agg, units);
    layers.set("race.new.ratio", ratio(c.new_campaign_races, c.race_reports));
    layers.set("graph.overlay.rows_mean", ratio(c.overlay_rows, c.forwards));
    layers.set("core.select.ratio", ratio(c.executions, c.forwards));
    layers.set("core.dup_draw.ratio", ratio(c.dup_draws, c.dup_draws + c.forwards));
    layers.set("core.repeat_graph.ratio", ratio(c.repeat_graphs, c.forwards));
    layers.set("harness.ckpt.bytes_max", c.ckpt_bytes_max as f64);
    layers.set("trace.overhead", traced_wall / program.secs - 1.0);
    eprintln!(
        "perfbench: traced {units} units ({} executions, {} forwards per unit)\n{}",
        c.executions / per_unit,
        c.forwards / per_unit,
        layers.describe(&agg)
    );
    let failed = if problems.is_empty() { failed } else { failed.max(1) };
    Ok(RunOutput {
        correct: failed == 0,
        attempted,
        failed,
        metrics: layers.into_metrics(),
        params: spec.params(),
        outputs: summary(&program.result),
        expected,
        host: "null".into(),
    })
}
