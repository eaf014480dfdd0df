//! The `accel-model` workload: the accelerator model with no solver
//! numerics.
//!
//! One evaluation partitions the TGV edge-16 mesh at 8 and 32 shards,
//! assigns each plan's memory streams to the banks of the u280 HBM2 and
//! U200 DDR4 systems (round-robin and optimized), runs the banked
//! dataflow emulation of every assignment, optimizes and schedules the
//! proposed HLS design, and quotes Fig 5 and Table II. The model is
//! deterministic: the seed is recorded but changes nothing.

use crate::stats::{median, reference_kernel_cpu_ms, Samples, Stamp};
use crate::trace::Tracer;
use crate::{summarize_ops, Outcome};
use fem_accel::calibration::{PAPER_CPU_LATENCY_REDUCTION, PAPER_FIG5_AVG_SPEEDUP};
use fem_accel::designs::proposed_design;
use fem_accel::experiments::{run_fig5, run_table2};
use fem_accel::optimizer::optimize_bank_assignment;
use fem_accel::{optimize_design, OptimizerConfig, RklWorkload};
use fem_mesh::{HexMesh, PartitionStrategy, ShardPlan};
use fem_solver::engine::{
    emulate_plan_banked, shard_compute_floors, shard_streams, BankedEmulation, ShardCycleReport,
};
use fem_solver::Scenario;
use fpga_platform::memory::modeled_makespan_cycles;
use fpga_platform::{BankAssignment, MemoryStream, MemorySystem};
use hls_dataflow::{ChannelKind, NetworkBuilder};
use hls_kernel::schedule_kernel;

/// Elements per axis of the modeled mesh.
const EDGE: usize = 16;
/// Shard counts each evaluation partitions the mesh into.
const SHARDS: [usize; 2] = [8, 32];
/// Streaming batch (elements) of every plan.
const BATCH: usize = 4096;
/// Mesh nodes of the Table II quote (the paper's 4.2M-node mesh).
const TABLE2_NODES: usize = 4_200_000;
/// Segments per run, each set up from the inputs; `setup_s` is the
/// median of their set-ups.
const SEGMENTS: usize = 10;
/// Set-ups (mesh builds) per segment; the segment evaluates the last.
const SETUPS_PER_SEGMENT: usize = 3;
/// Fewest evaluations a window takes, whatever `--seconds` says.
const MIN_EVALS: usize = 20;

/// Relative errors of the Fig 5 average speed-up and the Table II
/// latency reduction against the paper's 7.9× and 45 %.
pub fn model_quotes() -> Result<(f64, f64), String> {
    let fig5 = run_fig5().map_err(|e| e.to_string())?;
    let table2 = run_table2(TABLE2_NODES, None).map_err(|e| e.to_string())?;
    Ok((
        (fig5.avg_speedup - PAPER_FIG5_AVG_SPEEDUP).abs() / PAPER_FIG5_AVG_SPEEDUP,
        (table2.latency_reduction - PAPER_CPU_LATENCY_REDUCTION).abs()
            / PAPER_CPU_LATENCY_REDUCTION,
    ))
}

/// The pre-banking flat quote of one shard: its Load → Compute → Store
/// element chain (depth-8 FIFOs, the flat model's fill latencies) run
/// through the dataflow simulator on its own. A 1-bank system must
/// reproduce it cycle for cycle.
fn flat_quote(r: &ShardCycleReport) -> Result<u64, String> {
    let mut b = NetworkBuilder::new();
    let lc = b.channel("load_compute", 8, ChannelKind::Fifo);
    let cs = b.channel("compute_store", 8, ChannelKind::Fifo);
    b.task("load_element", r.load_ii, r.load_ii + 16, vec![], vec![lc]);
    b.task(
        "compute_diff_conv",
        r.compute_ii,
        r.compute_ii + 32,
        vec![lc],
        vec![cs],
    );
    b.task(
        "store_contrib",
        r.store_ii,
        r.store_ii + 8,
        vec![cs],
        vec![],
    );
    let net = b.build(r.elements as u64).map_err(|e| e.to_string())?;
    let report = hls_dataflow::simulate(&net).map_err(|e| e.to_string())?;
    if report
        .task_stats
        .iter()
        .any(|t| t.invocations != r.elements as u64)
    {
        return Err(format!("shard {}: flat chain dropped tokens", r.shard));
    }
    Ok(report.makespan)
}

/// Whether every banked task of `e` issued all of its tokens: each
/// bank's token count must equal the tokens of the streams assigned to it.
fn all_tokens_processed(e: &BankedEmulation, streams: &[MemoryStream], a: &BankAssignment) -> bool {
    let mut expected = vec![0u64; a.banks];
    for (s, &b) in streams.iter().zip(&a.bank_of) {
        expected[b] += s.tokens;
    }
    e.bank_stats.iter().all(|b| b.tokens == expected[b.bank])
        && expected.iter().sum::<u64>() == e.bank_stats.iter().map(|b| b.tokens).sum::<u64>()
}

/// Parts of an evaluation longer than this (CPU ms) are followed by a
/// fresh reference-kernel reading.
const REF_AFTER_MS: f64 = 20.0;

/// Reference-kernel normalization inside one evaluation: an evaluation
/// lasts about a second, longer than the shared machine keeps one speed,
/// so the reference is re-read after every long part and each part is
/// charged against the readings around it.
struct Norm {
    last_ref: f64,
    parts_cpu: f64,
    parts_cost: f64,
    /// (wall ms, CPU ms) spent in the reference kernel itself.
    refs: (f64, f64),
}

impl Norm {
    fn new() -> Norm {
        let mut norm = Norm {
            last_ref: 0.0,
            parts_cpu: 0.0,
            parts_cost: 0.0,
            refs: (0.0, 0.0),
        };
        norm.last_ref = norm.reference();
        norm
    }

    fn reference(&mut self) -> f64 {
        let t = Stamp::now();
        let r = reference_kernel_cpu_ms();
        let (wall, cpu) = t.elapsed_ms();
        self.refs.0 += wall;
        self.refs.1 += cpu;
        r
    }

    /// Charges a part that took `cpu_ms`.
    fn charge(&mut self, cpu_ms: f64) {
        if cpu_ms >= REF_AFTER_MS {
            let r = self.reference();
            self.parts_cost += cpu_ms / (0.5 * (self.last_ref + r));
            self.last_ref = r;
        } else {
            self.parts_cost += cpu_ms / self.last_ref;
        }
        self.parts_cpu += cpu_ms;
    }

    /// The reference CPU ms the evaluation's parts were charged against.
    fn reference_ms(&self) -> f64 {
        self.parts_cpu / self.parts_cost
    }
}

/// What one evaluation measured and modeled.
#[derive(Default)]
struct Eval {
    /// Σ DES makespan over the optimized assignments.
    optimized_cycles: u64,
    /// Σ closed-form bound over the optimized assignments.
    bound_cycles: u64,
    /// (round-robin, optimized) HBM2 DES cycles per shard count.
    hbm_gain: Vec<(u64, u64)>,
    banks_used: usize,
    tokens: u64,
    reserved: u64,
    stalls: u64,
    plan_s: f64,
    bank_s: f64,
    emulate_s: f64,
    optimize_s: f64,
    schedule_s: f64,
    rkl_ii: u32,
    fig5_err: f64,
    table2_err: f64,
    halo_fraction: f64,
    load_imbalance: f64,
    /// Check failures, described.
    failures: Vec<String>,
    norm: Option<Norm>,
}

/// Runs `f` inside a span, adds its CPU seconds to `acc` and charges
/// them to `norm`.
fn timed<R>(
    tr: &mut Tracer,
    norm: &mut Norm,
    layer: &'static str,
    name: &'static str,
    acc: &mut f64,
    f: impl FnOnce() -> R,
) -> R {
    let s = tr.begin(layer, name);
    let t = Stamp::now();
    let r = f();
    let cpu_ms = t.elapsed_ms().1;
    *acc += cpu_ms * 1e-3;
    tr.end(s);
    norm.charge(cpu_ms);
    r
}

fn evaluate(mesh: &HexMesh, tr: &mut Tracer) -> Result<Eval, String> {
    let mut ev = Eval::default();
    let mut norm = Norm::new();
    let npe = mesh.nodes_per_element() as u64;
    let systems = [MemorySystem::u280_hbm2(), MemorySystem::u200_ddr()];
    let flat = MemorySystem::u200_flat();
    for shards in SHARDS {
        let plan = timed(
            tr,
            &mut norm,
            "fem_mesh",
            "shard_plan",
            &mut ev.plan_s,
            || ShardPlan::with_strategy(mesh, shards, BATCH, PartitionStrategy::Partitioned),
        )
        .map_err(|e| e.to_string())?;
        ev.halo_fraction = plan.halo_fraction();
        ev.load_imbalance = plan.load_imbalance();
        let streams = shard_streams(&plan, npe);
        let floors = shard_compute_floors(&plan, npe);

        for system in &systems {
            let rr = BankAssignment::round_robin(&streams, system);
            let opt = timed(
                tr,
                &mut norm,
                "fem_accel",
                "optimize_bank",
                &mut ev.bank_s,
                || optimize_bank_assignment(&streams, system, &floors),
            );
            let bound_rr = modeled_makespan_cycles(&streams, &rr, &floors);
            let bound_opt = modeled_makespan_cycles(&streams, &opt, &floors);
            if bound_opt > bound_rr {
                ev.failures.push(format!(
                    "x{shards} {}: optimized bound {bound_opt} > round-robin {bound_rr}",
                    system.name()
                ));
            }
            let mut des = |a: &BankAssignment| {
                timed(
                    tr,
                    &mut norm,
                    "hls_dataflow",
                    "emulate",
                    &mut ev.emulate_s,
                    || emulate_plan_banked(&plan, npe, system, a),
                )
                .map_err(|e| e.to_string())
            };
            let e_rr = des(&rr)?;
            let e_opt = des(&opt)?;
            for (e, a, policy) in [(&e_rr, &rr, "round-robin"), (&e_opt, &opt, "optimized")] {
                if !all_tokens_processed(e, &streams, a) {
                    ev.failures.push(format!(
                        "x{shards} {} {policy}: a DES task did not process all its tokens",
                        system.name()
                    ));
                }
                ev.tokens += e.bank_stats.iter().map(|b| b.tokens).sum::<u64>();
            }
            ev.optimized_cycles += e_opt.makespan_cycles;
            ev.bound_cycles += bound_opt;
            ev.banks_used += opt.banks_used();
            ev.reserved += e_opt
                .bank_stats
                .iter()
                .map(|b| b.reserved_cycles)
                .sum::<u64>();
            ev.stalls += e_opt.bank_stats.iter().map(|b| b.stall_cycles).sum::<u64>();
            if system.name() == "u280-hbm2" {
                ev.hbm_gain
                    .push((e_rr.makespan_cycles, e_opt.makespan_cycles));
            }
        }

        // The 1-bank system reproduces the flat quote exactly.
        let one = BankAssignment::round_robin(&streams, &flat);
        let e_flat = timed(
            tr,
            &mut norm,
            "hls_dataflow",
            "emulate",
            &mut ev.emulate_s,
            || emulate_plan_banked(&plan, npe, &flat, &one),
        )
        .map_err(|e| e.to_string())?;
        let mut quote = 0;
        for r in &e_flat.shard_reports {
            let q = flat_quote(r)?;
            if q != r.makespan_cycles {
                ev.failures.push(format!(
                    "x{shards} shard {}: 1-bank {} != flat quote {q}",
                    r.shard, r.makespan_cycles
                ));
            }
            quote = quote.max(q);
        }
        if e_flat.shard_reports.len() != plan.num_shards() || e_flat.makespan_cycles != quote {
            ev.failures.push(format!(
                "x{shards}: 1-bank makespan {} != flat quote {quote}",
                e_flat.makespan_cycles
            ));
        }
    }

    let mut design = proposed_design(&RklWorkload::from_mesh(mesh));
    timed(
        tr,
        &mut norm,
        "fem_accel",
        "optimize_design",
        &mut ev.optimize_s,
        || optimize_design(&mut design, &OptimizerConfig::for_u200_slr()),
    )
    .map_err(|e| e.to_string())?;
    for task in design.rkl_tasks.iter().chain(std::iter::once(&design.rku)) {
        let schedule = timed(
            tr,
            &mut norm,
            "hls_kernel",
            "schedule",
            &mut ev.schedule_s,
            || schedule_kernel(task),
        )
        .map_err(|e| e.to_string())?;
        if !std::ptr::eq(task, &design.rku) {
            let ii = schedule
                .loops
                .iter()
                .filter_map(|l| l.ii)
                .max()
                .unwrap_or(0);
            ev.rkl_ii = ev.rkl_ii.max(ii);
        }
    }
    let mut quotes_s = 0.0; // charged to the normalization only
    (ev.fig5_err, ev.table2_err) = timed(
        tr,
        &mut norm,
        "fem_accel",
        "paper_quotes",
        &mut quotes_s,
        model_quotes,
    )?;
    ev.norm = Some(norm);
    Ok(ev)
}

/// Runs the `accel-model` workload.
pub fn run(seconds: f64, traced: bool, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let root = tr.begin("perfbench", "run");
    // The window is split into segments that each build the mesh from
    // the inputs, so the set-ups sample the whole run.
    let mut setup_s = Vec::new();
    let mut evals_ms = Samples::default();
    let mut costs = Vec::new();
    let mut evals = Vec::new();
    let mut mesh_info = (0, 0, 0);
    for _ in 0..SEGMENTS {
        let mut built = None;
        for _ in 0..SETUPS_PER_SEGMENT {
            drop(built.take());
            let s = tr.begin("fem_mesh", "mesh_build");
            let t = Stamp::now();
            let mesh = Scenario::taylor_green()
                .mesh(EDGE)
                .map_err(|e| e.to_string())?;
            setup_s.push(t.elapsed_ms().1 * 1e-3);
            tr.end(s);
            built = Some(mesh);
        }
        let mesh = built.expect("at least one set-up");
        mesh_info = (mesh.num_elements(), mesh.num_nodes(), mesh.memory_bytes());

        let window = tr.begin("perfbench", "window");
        let t0 = Stamp::now();
        let mut n = 0;
        while t0.elapsed_ms().0 < seconds * 1e3 / SEGMENTS as f64
            || n < MIN_EVALS.div_ceil(SEGMENTS)
        {
            let s = tr.begin("perfbench", "evaluation");
            let t = Stamp::now();
            let r = evaluate(&mesh, tr);
            let (wall, cpu) = t.elapsed_ms();
            tr.end(s);
            n += 1;
            out.attempted += 1;
            match r {
                Ok(ev) => {
                    // The evaluation's own time, reference readings excluded.
                    let norm = ev.norm.as_ref().expect("evaluate sets the normalization");
                    let op_cpu = cpu - norm.refs.1;
                    evals_ms.push((wall - norm.refs.0, op_cpu));
                    costs.push(op_cpu / norm.reference_ms());
                    if !ev.failures.is_empty() {
                        out.failed += 1;
                        for f in &ev.failures {
                            out.context.push(format!("check FAIL: {f}"));
                        }
                    }
                    evals.push(ev);
                }
                Err(e) => {
                    out.failed += 1;
                    out.context
                        .push(format!("check FAIL: evaluation error: {e}"));
                }
            }
        }
        tr.end(window);
    }
    tr.end(root);
    out.set("setup_s", median(&setup_s));
    out.context.push(format!(
        "workload accel-model: TGV edge {EDGE} mesh ({} elements, {} nodes), shards {SHARDS:?}, batch {BATCH}, systems u280-hbm2 + u200-ddr4, 1 thread; {SEGMENTS} segments, each set up {SETUPS_PER_SEGMENT} times from the inputs; deterministic, seed unused",
        mesh_info.0, mesh_info.1
    ));
    out.context.push(format!(
        "working set (computed from array sizes): mesh {:.2} MiB",
        mesh_info.2 as f64 / 1048576.0
    ));
    let ev = evals.last().ok_or("no evaluation completed")?;

    out.op_label = "model evaluations";
    let busy_wall_s = evals_ms.wall.iter().sum::<f64>() * 1e-3;
    let busy_cpu_s = evals_ms.cpu.iter().sum::<f64>() * 1e-3;
    summarize_ops(
        &mut out,
        &evals_ms,
        &costs,
        MIN_EVALS,
        busy_wall_s,
        busy_cpu_s,
    );
    out.set("modeled_makespan_cycles", ev.optimized_cycles as f64);
    out.set("model_err.fig5_speedup", ev.fig5_err);
    out.set("model_err.table2_latency", ev.table2_err);
    out.context.push(format!(
        "checks: {} evaluations, 1-bank = flat quote, optimized bound <= round-robin, all DES tokens processed: {}",
        evals_ms.len(),
        if out.failed == 0 { "ok" } else { "FAIL" }
    ));

    if traced {
        // Host times: medians over the evaluations. Counts and cycles
        // repeat exactly, so the last evaluation's stand for all.
        let med = |f: fn(&Eval) -> f64| median(&evals.iter().map(f).collect::<Vec<_>>());
        let emulate_s = med(|e| e.emulate_s);
        out.set("mesh_build_s", median(&setup_s));
        out.set("shard_plan_s", med(|e| e.plan_s));
        out.set("optimize_bank_ms", 1e3 * med(|e| e.bank_s));
        out.set("optimize_design_ms", 1e3 * med(|e| e.optimize_s));
        out.set("schedule_ms", 1e3 * med(|e| e.schedule_s));
        out.set("emulate_ms", 1e3 * emulate_s);
        out.set("tokens_per_s", ev.tokens as f64 / emulate_s);
        out.set("rkl_ii", f64::from(ev.rkl_ii));
        out.set("tokens", ev.tokens as f64);
        out.set("bank_reserved_cycles", ev.reserved as f64);
        out.set("bank_stall_cycles", ev.stalls as f64);
        out.set("bound_cycles", ev.bound_cycles as f64);
        out.set("banks_used", ev.banks_used as f64);
        out.set("halo_fraction", ev.halo_fraction);
        out.set("load_imbalance", ev.load_imbalance);
        for (&shards, &(rr, opt)) in SHARDS.iter().zip(&ev.hbm_gain) {
            let name = if shards == 8 {
                "bank_opt_gain.x8"
            } else {
                "bank_opt_gain.x32"
            };
            out.set(name, rr as f64 / opt as f64);
        }
    }
    Ok(out)
}
