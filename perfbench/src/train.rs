//! The `train-pic` workload.
//!
//! Set-up builds a labelled dataset the way `snowcat collect` does and
//! pre-trains the token encoder the way `snowcat train` does. Untraced, a
//! unit of work is one `robust_train` run (STCP checkpoint every epoch)
//! followed by the SCMC model write, repeated until the run's time is spent.
//! Traced, the benchmark runs the program once, then replays the trainer's
//! loop in this file with a span around every layer call and checks the
//! replay's parameters, checkpoint and model bytes against the program's.

use crate::campaign::FAMILY_SEED;
use crate::layers::{Layers, ROOT};
use crate::trace::{percentile, Agg, Tracer};
use crate::{check_expected, median, spans_path, BoxError, Ctx, RunOutput};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snowcat_cfg::KernelCfg;
use snowcat_core::{as_labeled, pretrain_encoder, save_checkpoint};
use snowcat_corpus::{
    build_dataset, crc32, interacting_cti_pairs, Dataset, DatasetConfig, StiFuzzer,
};
use snowcat_harness::{
    encode_train_checkpoint, load_train_checkpoint_with_fallback, loss_diverged, params_crc32,
    report_from_checkpoint, robust_train, save_bytes_atomic, AnomalyEvent, RobustTrainConfig,
    TrainCheckpoint, TrainRunReport,
};
use snowcat_kernel::KernelVersion;
use snowcat_nn::{
    dataset_fingerprint, tune_threshold_f2_pooled, urb_average_precision, Adam, AdamConfig,
    Checkpoint, EpochError, EpochRunner, Mat, PicConfig, PicModel, PicParams, StepInfo,
    TrainConfig,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

const NAME: &str = "train-pic";
/// CTIs collected for the dataset, as `snowcat collect --ctis`.
const CTIS: usize = 60;
/// Interleavings per CTI, as `snowcat collect --interleavings`.
const INTERLEAVINGS: usize = 8;
const EPOCHS: usize = 2;
const STCP_FILE: &str = "train.stcp";
const MODEL_FILE: &str = "model.scmc";
const MODEL_NAME: &str = "PIC-perfbench";
/// The trainer's gradient-norm EWMA (`trainer.rs`): smoothing, and steps
/// before the spike guard arms. The STCP checkpoint carries the EWMA.
const EWMA_ALPHA: f32 = 0.2;
const EWMA_WARMUP: u64 = 3;
/// Retry salt of the trainer's salted epoch retries (`trainer.rs`).
const RETRY_SALT: u64 = 0x7A19_EE0C_55AB_41D7;

/// The trainer's retry-seed mixing (`trainer.rs`): splitmix64 over
/// (epoch, attempt) folded into the captured RNG state.
fn salt_state(state: [u64; 4], epoch: usize, attempt: usize) -> [u64; 4] {
    let mut s = state;
    let mut z = (epoch as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((attempt as u64).wrapping_mul(RETRY_SALT));
    for w in &mut s {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        *w ^= x ^ (x >> 31);
    }
    s
}

fn params() -> String {
    format!(
        "{{\"kernel\": \"5.12\", \"family_seed\": {FAMILY_SEED}, \"ctis\": {CTIS}, \
         \"interleavings\": {INTERLEAVINGS}, \"epochs\": {EPOCHS}, \"model\": \
         \"PicConfig::default\", \"checkpoint_every\": 1, \"threads\": 1}}"
    )
}

/// The training schedule; `seed` orders the training set.
fn train_config(seed: u64) -> TrainConfig {
    TrainConfig { epochs: EPOCHS, threads: 1, seed, ..TrainConfig::default() }
}

struct Setup {
    train: Dataset,
    valid: Dataset,
    tok_emb: Mat,
}

fn setup(tr: &mut Tracer) -> Result<Setup, BoxError> {
    let kernel = tr.span("kernel.build", 0, || KernelVersion::V5_12.spec(FAMILY_SEED).build());
    let cfg = tr.span("cfg.build", 0, || KernelCfg::build(&kernel));
    // The data and the pre-trained encoder are fixed, as the CTIs are in the
    // campaign workloads; the seed orders the training set each epoch.
    let (corpus, ctis) = tr.span("corpus.fuzz", 0, || {
        let mut fz = StiFuzzer::new(&kernel, FAMILY_SEED);
        fz.seed_each_syscall();
        fz.fuzz(100);
        fz.push_random(50);
        let corpus = fz.into_corpus();
        let mut rng = ChaCha8Rng::seed_from_u64(FAMILY_SEED ^ 0xC0);
        let ctis = interacting_cti_pairs(&mut rng, &corpus, CTIS);
        (corpus, ctis)
    });
    let (train, valid) = tr.span("corpus.dataset", 0, || {
        let ds = build_dataset(
            &kernel,
            &cfg,
            &corpus,
            &ctis,
            DatasetConfig { interleavings_per_cti: INTERLEAVINGS, seed: FAMILY_SEED ^ 0xD5 },
        );
        // `snowcat train --data`: a 90/10 train/valid split by position.
        let (mut train, mut valid) = (Dataset::default(), Dataset::default());
        for (i, e) in ds.examples.into_iter().enumerate() {
            if i % 10 == 9 {
                valid.examples.push(e);
            } else {
                train.examples.push(e);
            }
        }
        (train, valid)
    });
    let tok_emb = tr.span("core.model_load", 0, || {
        pretrain_encoder(&kernel, &PicConfig::default(), FAMILY_SEED).tok_emb
    });
    Ok(Setup { train, valid, tok_emb })
}

fn fresh_model(s: &Setup) -> PicModel {
    let mut model = PicModel::new(PicConfig::default());
    model.params.tok_emb = s.tok_emb.clone();
    model
}

/// One program run: what `snowcat train --checkpoint` does after loading data.
struct ProgramRun {
    report: TrainRunReport,
    secs: f64,
    /// Peak RSS after the run, before its outputs are checked.
    rss_mib: f64,
    stcp: Vec<u8>,
    model: Vec<u8>,
    problems: Vec<String>,
}

fn run_program(s: &Setup, seed: u64, work: &Path) -> Result<ProgramRun, BoxError> {
    let stcp = work.join(STCP_FILE);
    let model_path = work.join(MODEL_FILE);
    for f in [STCP_FILE, "train.stcp.prev", MODEL_FILE] {
        let _ = std::fs::remove_file(work.join(f));
    }
    let train_refs = as_labeled(&s.train);
    let valid_refs = as_labeled(&s.valid);

    let t0 = Instant::now();
    let mut model = fresh_model(s);
    let mut rcfg = RobustTrainConfig::new(train_config(seed));
    rcfg.checkpoint_path = Some(stcp.clone());
    rcfg.checkpoint_every = 1;
    let report = robust_train(&mut model, &train_refs, &valid_refs, &rcfg, false)?;
    let ck = Checkpoint::new(&model, report.threshold.unwrap_or(0.5), MODEL_NAME);
    save_checkpoint(&model_path, &ck)?;
    let secs = t0.elapsed().as_secs_f64();
    let rss_mib = crate::peak_rss_mib();

    let mut problems = Vec::new();
    let (reloaded, fell_back) = load_train_checkpoint_with_fallback(&stcp)?;
    if fell_back || !reloaded.complete || report_from_checkpoint(&reloaded) != report {
        problems.push("final STCP does not reload to the run's report".into());
    }
    if !report.completed {
        problems.push("training stopped before its last epoch".into());
    }
    Ok(ProgramRun {
        report,
        secs,
        rss_mib,
        stcp: std::fs::read(&stcp)?,
        model: std::fs::read(&model_path)?,
        problems,
    })
}

/// The output summary of one training run, as recorded in `expected.txt`.
fn summary(s: &Setup, run: &ProgramRun) -> String {
    let r = &run.report;
    format!(
        "graphs={} valid={} epochs={} params_crc32={:08x} model_crc32={:08x} threshold={:?} \
         val_ap={:?} losses={:?}",
        s.train.len(),
        s.valid.len(),
        r.epoch_losses.len(),
        r.params_crc32,
        crc32(&run.model),
        r.threshold,
        r.val_ap,
        r.epoch_losses
    )
}

/// Epochs of `run` whose loss or validation AP differs from the reference.
fn failed_epochs(run: &TrainRunReport, reference: &TrainRunReport) -> u64 {
    (0..EPOCHS)
        .filter(|&e| {
            let loss = |r: &TrainRunReport| r.epoch_losses.get(e).map(|l| l.to_bits());
            let ap = |r: &TrainRunReport| r.val_ap.get(e).map(|a| a.to_bits());
            loss(run).is_none() || loss(run) != loss(reference) || ap(run) != ap(reference)
        })
        .count() as u64
}

pub fn run(ctx: &Ctx) -> Result<RunOutput, BoxError> {
    if ctx.trace {
        return run_traced(ctx);
    }
    let mut off = Tracer::new(false);
    let (s, setup) = crate::repeated_setup(ctx, &mut off, setup)?;
    let mut reference: Option<ProgramRun> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut expected = "unrecorded";
    let timings = crate::timed_units(ctx.seconds, || {
        let run = run_program(&s, ctx.seed, &ctx.work)?;
        attempted += EPOCHS as u64;
        for p in &run.problems {
            eprintln!("perfbench: {p}");
        }
        // The first unit is checked against expected.txt, later ones
        // against the first, down to the model file's bytes.
        if reference.is_none() {
            expected = check_expected(NAME, ctx.seed, &summary(&s, &run));
        }
        let r = reference.as_ref().unwrap_or(&run);
        failed += if expected == "recorded-mismatch"
            || !run.problems.is_empty()
            || run.model != r.model
            || run.report != r.report
        {
            EPOCHS as u64
        } else {
            failed_epochs(&run.report, &r.report)
        };
        let secs = run.secs;
        reference.get_or_insert(run);
        Ok(secs)
    })?;
    let reference = reference.expect("at least one unit ran");
    let work = (s.train.len() * EPOCHS) as f64;
    let (metrics, host) =
        crate::end_to_end(&timings, work, &setup, reference.rss_mib, attempted, failed);
    Ok(RunOutput {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        params: params(),
        outputs: summary(&s, &reference),
        expected,
        host,
    })
}

/// What a replayed training run produced.
struct Replayed {
    report: TrainRunReport,
    stcp: Vec<u8>,
    model: Vec<u8>,
    stcp_bytes: u64,
    step_us: Vec<u64>,
}

/// `robust_train` on the happy path (no faults, no anomalies, no resume)
/// plus the model write, with a span around each layer call.
fn replay(
    tr: &mut Tracer,
    s: &Setup,
    seed: u64,
    work: &Path,
    unit: u32,
) -> Result<Replayed, BoxError> {
    let stcp_path = work.join(STCP_FILE);
    let model_path = work.join(MODEL_FILE);
    for f in [STCP_FILE, "train.stcp.prev", MODEL_FILE] {
        let _ = std::fs::remove_file(work.join(f));
    }
    let train = as_labeled(&s.train);
    let valid = as_labeled(&s.valid);
    let tc = train_config(seed);
    let guard = RobustTrainConfig::new(tc);

    tr.begin(ROOT, unit);
    let mut model = tr.span("harness.trainer", 0, || fresh_model(s));
    let (fingerprint, mut rng, mut opt, mut order) = tr.span("harness.trainer", 0, || {
        (
            dataset_fingerprint(&train),
            ChaCha8Rng::seed_from_u64(tc.seed),
            Adam::new(AdamConfig { lr: tc.lr, ..Default::default() }, &model.params.shapes()),
            (0..train.len()).collect::<Vec<usize>>(),
        )
    });
    let mut runner = EpochRunner::new(&model);
    let mut epoch_losses: Vec<f32> = Vec::new();
    let mut val_ap: Vec<f64> = Vec::new();
    let mut best: Option<(usize, f64, PicParams)> = None;
    let mut anomalies: Vec<AnomalyEvent> = Vec::new();
    let (mut ewma, mut ewma_steps) = (0.0f32, 0u64);
    let mut step_us = Vec::new();
    let mut stcp_bytes = 0u64;
    for epoch in 0..tc.epochs {
        let pos = epoch as u32;
        // The trainer captures everything an epoch mutates, for rollback.
        let pre = tr.span("harness.trainer", pos, || {
            (model.params.clone(), opt.snapshot(), rng.state(), order.clone(), ewma, ewma_steps)
        });
        let mut attempt = 0usize;
        let out = loop {
            tr.span("harness.trainer", pos, || {
                if attempt > 0 {
                    model.params = pre.0.clone();
                    opt = Adam::from_snapshot(&pre.1);
                    order.copy_from_slice(&pre.3);
                    rng = ChaCha8Rng::from_state(salt_state(pre.2, epoch, attempt));
                    (ewma, ewma_steps) = (pre.4, pre.5);
                }
                order.shuffle(&mut rng);
            });
            let (mut g_ewma, mut g_steps) = (ewma, ewma_steps);
            let mut pending: Option<(String, String)> = None;
            let mut last = Instant::now();
            // The trainer's anomaly guard; step time runs from the previous
            // step's end (or the epoch's start).
            let mut obs = |info: &StepInfo| -> Result<(), String> {
                let now = Instant::now();
                step_us.push(now.duration_since(last).as_micros() as u64);
                last = now;
                let (kind, detail) = if !info.loss_sum.is_finite() {
                    ("nan-loss", format!("non-finite batch loss at step {}", info.step))
                } else if !info.grad_norm.is_finite() {
                    ("nan-grad", format!("non-finite gradient norm at step {}", info.step))
                } else if g_steps >= EWMA_WARMUP
                    && g_ewma > 0.0
                    && info.grad_norm > guard.spike_factor * g_ewma
                {
                    let detail = format!(
                        "gradient norm {:.4} exceeds {}x EWMA baseline {:.4} at step {}",
                        info.grad_norm, guard.spike_factor, g_ewma, info.step
                    );
                    ("grad-spike", detail)
                } else {
                    g_ewma = if g_steps == 0 {
                        info.grad_norm
                    } else {
                        EWMA_ALPHA * info.grad_norm + (1.0 - EWMA_ALPHA) * g_ewma
                    };
                    g_steps += 1;
                    return Ok(());
                };
                pending = Some((kind.to_owned(), detail.clone()));
                Err(detail)
            };
            let result = tr.span("nn.epoch", pos, || {
                runner.run_coverage_epoch(
                    &mut model,
                    &train,
                    &order,
                    tc.batch,
                    tc.threads,
                    &mut opt,
                    None,
                    Some(&mut obs),
                )
            });
            let (kind, detail) = match result {
                Ok(out)
                    if !loss_diverged(out.mean_loss, &epoch_losses, guard.divergence_factor) =>
                {
                    (ewma, ewma_steps) = (g_ewma, g_steps);
                    break out;
                }
                Ok(out) => (
                    "loss-divergence".to_owned(),
                    format!(
                        "mean epoch loss {} vs best prior {:?} (breaker x{})",
                        out.mean_loss,
                        epoch_losses.iter().copied().fold(f32::INFINITY, f32::min),
                        guard.divergence_factor
                    ),
                ),
                Err(EpochError::WorkerPanicked { message }) => ("worker-panic".to_owned(), message),
                Err(EpochError::Aborted { step, reason }) => {
                    pending.take().unwrap_or(("anomaly".into(), format!("step {step}: {reason}")))
                }
            };
            anomalies.push(AnomalyEvent { epoch, attempt, kind, detail });
            if attempt >= guard.max_retries {
                return Err(format!("replayed epoch {epoch} diverged: {anomalies:?}").into());
            }
            attempt += 1;
        };
        drop(pre);
        epoch_losses.push(out.mean_loss);
        let ap = tr.span("nn.validate", pos, || urb_average_precision(&model, &valid));
        val_ap.push(ap);
        tr.span("harness.trainer", pos, || {
            if ap > best.as_ref().map_or(f64::NEG_INFINITY, |b| b.1) {
                best = Some((epoch, ap, model.params.clone()));
            }
        });
        let bytes = tr.span("harness.train_ckpt", pos, || {
            encode_train_checkpoint(&TrainCheckpoint {
                pic_cfg: model.cfg,
                epochs: tc.epochs,
                lr: tc.lr,
                batch: tc.batch,
                seed: tc.seed,
                data_fingerprint: fingerprint,
                epochs_done: epoch + 1,
                rng_state: rng.state(),
                order: order.iter().map(|&i| i as u32).collect(),
                params: model.params.clone(),
                best: best.clone(),
                adam: opt.snapshot(),
                ewma,
                ewma_steps,
                epoch_losses: epoch_losses.clone(),
                val_ap: val_ap.clone(),
                anomalies: anomalies.clone(),
                threshold: None,
                early_stopped: false,
                complete: false,
            })
        });
        stcp_bytes = bytes.len() as u64;
        tr.span("harness.ckpt_write", pos, || save_bytes_atomic(&stcp_path, &bytes))?;
    }
    let pos = tc.epochs as u32;
    let best_epoch = best.as_ref().map(|b| b.0);
    if let Some((_, _, p)) = &best {
        tr.span("harness.trainer", pos, || model.params = p.clone());
    }
    let threshold = tr.span("nn.tune", pos, || tune_threshold_f2_pooled(&model, &valid));
    let bytes = tr.span("harness.train_ckpt", pos, || {
        encode_train_checkpoint(&TrainCheckpoint {
            pic_cfg: model.cfg,
            epochs: tc.epochs,
            lr: tc.lr,
            batch: tc.batch,
            seed: tc.seed,
            data_fingerprint: fingerprint,
            epochs_done: tc.epochs,
            rng_state: rng.state(),
            order: order.iter().map(|&i| i as u32).collect(),
            params: model.params.clone(),
            best: best.clone(),
            adam: opt.snapshot(),
            ewma,
            ewma_steps,
            epoch_losses: epoch_losses.clone(),
            val_ap: val_ap.clone(),
            anomalies: anomalies.clone(),
            threshold: Some(threshold),
            early_stopped: false,
            complete: true,
        })
    });
    stcp_bytes = stcp_bytes.max(bytes.len() as u64);
    tr.span("harness.ckpt_write", pos, || save_bytes_atomic(&stcp_path, &bytes))?;
    let crc = tr.span("harness.trainer", pos, || params_crc32(&model.params));
    tr.span("core.model_save", pos, || {
        save_checkpoint(&model_path, &Checkpoint::new(&model, threshold, MODEL_NAME))
    })?;
    tr.end();

    let report = TrainRunReport {
        epoch_losses,
        val_ap,
        best_epoch,
        threshold: Some(threshold),
        anomalies,
        early_stopped: false,
        completed: true,
        params_crc32: crc,
    };
    Ok(Replayed {
        report,
        stcp: std::fs::read(&stcp_path)?,
        model: std::fs::read(&model_path)?,
        stcp_bytes,
        step_us,
    })
}

fn run_traced(ctx: &Ctx) -> Result<RunOutput, BoxError> {
    let mut tr = Tracer::new(true);
    let (s, _) = crate::repeated_setup(ctx, &mut tr, setup)?;
    let mut setup_agg = BTreeMap::new();
    tr.drain_into(&mut setup_agg);

    let program = run_program(&s, ctx.seed, &ctx.work)?;
    let outputs = summary(&s, &program);
    let expected = check_expected(NAME, ctx.seed, &outputs);
    let mut problems = program.problems.clone();
    if expected == "recorded-mismatch" {
        problems.push("program output differs from expected.txt".into());
    }

    let mut agg: BTreeMap<&'static str, Agg> = BTreeMap::new();
    let (mut attempted, mut failed, mut units) = (0u64, 0u64, 0usize);
    let mut step_us = Vec::new();
    let mut stcp_bytes = 0;
    let t_run = Instant::now();
    while units == 0 || t_run.elapsed().as_secs_f64() < ctx.seconds {
        let r = replay(&mut tr, &s, ctx.seed, &ctx.work, units as u32)?;
        if units == 0 {
            tr.dump(&spans_path(ctx))?;
        }
        tr.drain_into(&mut agg);
        units += 1;
        attempted += EPOCHS as u64;
        step_us.extend(r.step_us);
        stcp_bytes = r.stcp_bytes;
        let mut bad = failed_epochs(&r.report, &program.report);
        if r.report != program.report {
            problems.push("replayed report differs from robust_train's".into());
            bad = EPOCHS as u64;
        }
        if r.stcp != program.stcp || r.model != program.model {
            problems.push("replayed STCP or SCMC bytes differ from the program's".into());
            bad = EPOCHS as u64;
        }
        failed += bad;
    }
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    let mut unit_walls: Vec<f64> = agg
        .get(ROOT)
        .map_or(Vec::new(), |a| a.durations_ns.iter().map(|&ns| ns as f64 / 1e9).collect());
    let traced_wall = median(&mut unit_walls);
    let mut layers = Layers::from_spans(&setup_agg, &mut agg, units);
    layers.set("nn.step.us_p50", percentile(&mut step_us, 0.50) as f64);
    layers.set("nn.step.us_p99", percentile(&mut step_us, 0.99) as f64);
    layers.set("harness.train_ckpt.bytes", stcp_bytes as f64);
    layers.set("trace.overhead", traced_wall / program.secs - 1.0);
    eprintln!(
        "perfbench: traced {units} units ({} steps)\n{}",
        step_us.len(),
        layers.describe(&agg)
    );
    let failed = if problems.is_empty() { failed } else { failed.max(1) };
    Ok(RunOutput {
        correct: failed == 0,
        attempted,
        failed,
        metrics: layers.into_metrics(),
        params: params(),
        outputs,
        expected,
        host: "null".into(),
    })
}
