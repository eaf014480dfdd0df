//! The solver workloads: `tgv-p1-serial` and `cavity-p3-md2`.
//!
//! One caller steps one simulation in a closed loop: each RK4 step is
//! timed and the next starts when it returns. `diagnostics()` runs every
//! [`DIAGNOSTICS_EVERY`] steps inside the window, as a user's run would.
//! The traced run additionally calls each layer's public functions on
//! the live state between steps and times those calls (see `README.md`).

use crate::accel::model_quotes;
use crate::stats::{median, reference_costs, RefReading, Samples, Stamp};
use crate::trace::Tracer;
use crate::{summarize_ops, Outcome};
use fem_accel::designs::proposed_design;
use fem_accel::perf::{estimate_performance, PerfOptions};
use fem_accel::{optimize_design, OptimizerConfig, RklWorkload};
use fem_mesh::{PartitionStrategy, SharedMeshContext};
use fem_numerics::rk::StateOps;
use fem_solver::engine::{build_backend, AssemblyContext, ExecutionBackend, ReferenceBackend};
use fem_solver::kernels::{
    convective_flux, fused_flux, weak_divergence, ElementWorkspace, KernelOpCounts,
};
use fem_solver::{AssemblyStrategy, BackendSelect, Conserved, Primitives, Scenario, Simulation};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Steps between two `diagnostics()` calls.
const DIAGNOSTICS_EVERY: usize = 10;
/// Untimed steps between a segment's set-up and its measured window.
const WARMUP_STEPS: usize = 2;
/// Segments per run, each set up from the inputs; `setup_s` is the
/// median of their set-ups.
const SEGMENTS: usize = 10;
/// Set-ups per segment; the segment steps the last one. Single set-ups
/// of `tgv-p1-serial` take 11 to 26 ms of CPU time in one run, so the
/// median needs more of them than there are segments.
const SETUPS_PER_SEGMENT: usize = 3;
/// Fewest steps the untraced segments of a run take together, whatever
/// `--seconds` says. It fixes the tail percentile at p90, the highest
/// with at least ten steps beyond it; a 30-s run takes about 300 steps
/// of `tgv-p1-serial` and 900 of `cavity-p3-md2`, so 30 and 90 lie
/// beyond.
const MIN_STEPS: usize = 100;
/// Fewest steps the traced window takes.
const MIN_TRACED_STEPS: usize = 30;
/// Profiled steps the Fig 2 buckets are read from (traced run only).
const PROFILED_STEPS: usize = 20;
/// Bytes of element workspaces one kernel-stage batch fills: about an
/// L1d, so the split stages see the cache the fused loop sees.
const KERNEL_BATCH_BYTES: usize = 32 * 1024;
/// Approximate bytes of one `ElementWorkspace` per element node: eight
/// gathered fields, fourteen gradient and flux vectors, five residuals.
const WORKSPACE_BYTES_PER_NODE: usize = 8 * 8 + 14 * 24 + 5 * 8;
/// Largest relative difference allowed between the workload backend and
/// a fresh serial reference backend.
const AGREEMENT_TOL: f64 = 1e-12;

/// One solver workload.
pub struct SolverSpec {
    scenario: Scenario,
    edge: usize,
    order: usize,
    select: BackendSelect,
    /// Threads the element assembly runs on.
    assembly_threads: usize,
}

impl SolverSpec {
    /// How the reference readings around each step are taken: on the
    /// calling thread when the step runs on one thread, on each CPU when
    /// it spreads over more.
    fn ref_reading(&self) -> RefReading {
        if self.assembly_threads > 1 {
            RefReading::EachCpu
        } else {
            RefReading::Caller
        }
    }
}

/// The solver workload called `name`, if there is one.
pub fn spec(name: &str) -> Option<SolverSpec> {
    match name {
        "tgv-p1-serial" => Some(SolverSpec {
            scenario: Scenario::taylor_green(),
            edge: 24,
            order: 1,
            select: BackendSelect::Reference(AssemblyStrategy::Serial),
            assembly_threads: 1,
        }),
        // MultiDevice is the distributed path this workload pins.
        "cavity-p3-md2" => Some(SolverSpec {
            scenario: Scenario::lid_cavity(),
            edge: 8,
            order: 3,
            select: BackendSelect::MultiDevice {
                devices: 2,
                strategy: PartitionStrategy::Partitioned,
            },
            assembly_threads: 2,
        }),
        _ => None,
    }
}

/// Set-up phase durations of one set-up.
#[derive(Default, Clone, Copy)]
struct SetupTimes {
    mesh: f64,
    context: f64,
    plan: f64,
    backend: f64,
}

/// Builds the ready-to-step simulation: mesh, initial state, shared mesh
/// context (basis, geometry cache, lumped mass), shard plan, then the
/// simulation with its backend through the builder.
fn setup(
    spec: &SolverSpec,
    scenario: &Scenario,
    tr: &mut Tracer,
) -> Result<(Arc<SharedMeshContext>, Simulation, SetupTimes), String> {
    let err = |e: fem_solver::SolverError| e.to_string();
    let mut t = SetupTimes::default();
    let s = tr.begin("fem_mesh", "mesh_build");
    let mesh = scenario
        .mesh_with_order(spec.edge, spec.order)
        .map_err(err)?;
    t.mesh = tr.end(s).as_secs_f64();
    let s = tr.begin("fem_solver.scenarios", "initial_state");
    let initial = scenario.initial_state(&mesh);
    let bc = scenario.boundary(&mesh);
    tr.end(s);
    let s = tr.begin("fem_mesh", "context_build");
    let ctx = SharedMeshContext::build(mesh).map_err(|e| e.to_string())?;
    t.context = tr.end(s).as_secs_f64();
    if let BackendSelect::MultiDevice { devices, strategy } = spec.select {
        // Memoized in the context, so the builder below reuses it.
        let s = tr.begin("fem_mesh", "shard_plan");
        ctx.shard_plan(devices, strategy)
            .map_err(|e| e.to_string())?;
        t.plan = tr.end(s).as_secs_f64();
    }
    let s = tr.begin("fem_solver.engine", "backend_build");
    let mut builder =
        Simulation::builder_shared(Arc::clone(&ctx), scenario.gas(), initial).backend(spec.select);
    if let Some(bc) = bc {
        builder = builder.bc(bc);
    }
    let sim = builder.build().map_err(err)?;
    t.backend = tr.end(s).as_secs_f64();
    Ok((ctx, sim, t))
}

/// `max |a − b| / max |b|` over all five fields.
fn relative_difference(a: &Conserved, b: &Conserved) -> f64 {
    let (mut fa, mut fb) = (Vec::new(), Vec::new());
    a.for_each_field(|f| fa.extend_from_slice(f));
    b.for_each_field(|f| fb.extend_from_slice(f));
    let scale = fb.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let diff = fa
        .iter()
        .zip(&fb)
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
    if scale > 0.0 {
        diff / scale
    } else {
        diff
    }
}

/// Per-stage kernel time of one serial sweep over the public kernel
/// functions, timed per batch of elements.
#[derive(Default, Clone, Copy)]
struct KernelSplit {
    gather: Duration,
    flux: Duration,
    contraction: Duration,
    scatter: Duration,
}

/// Assembles the RKL residual into `out` with a serial loop over the
/// public kernel functions, stage by stage over batches of
/// `wss.len()` elements (timing single elements would cost more than the
/// p = 1 element work itself).
fn kernel_sweep(
    actx: &AssemblyContext<'_>,
    state: &Conserved,
    prims: &Primitives,
    wss: &mut [ElementWorkspace],
    out: &mut Conserved,
) -> KernelSplit {
    let mesh = actx.mesh;
    let viscous = actx.gas.mu > 0.0;
    let ne = mesh.num_elements();
    let mut split = KernelSplit::default();
    let t = Instant::now();
    out.set_zero();
    split.scatter += t.elapsed();
    let mut start = 0;
    while start < ne {
        let len = wss.len().min(ne - start);
        let batch = &mut wss[..len];
        let t0 = Instant::now();
        for (k, ws) in batch.iter_mut().enumerate() {
            ws.gather(mesh.element_nodes(start + k), state, prims);
            ws.zero_residuals();
        }
        let t1 = Instant::now();
        for (k, ws) in batch.iter_mut().enumerate() {
            let geom = actx.geometry.element(start + k);
            if viscous {
                fused_flux(ws, actx.gas, actx.basis, geom);
            } else {
                convective_flux(ws);
            }
        }
        let t2 = Instant::now();
        for (k, ws) in batch.iter_mut().enumerate() {
            weak_divergence(ws, actx.basis, actx.geometry.element(start + k), 1.0);
        }
        let t3 = Instant::now();
        for (k, ws) in batch.iter().enumerate() {
            ws.scatter_add(mesh.element_nodes(start + k), out);
        }
        let t4 = Instant::now();
        split.gather += t1 - t0;
        split.flux += t2 - t1;
        split.contraction += t3 - t2;
        split.scatter += t4 - t3;
        start += batch.len();
    }
    split
}

/// The vector combinations one RK4 step performs around its four RHS
/// evaluations (stage-state copies and axpys, the final update, the
/// physicality check), replayed on scratch copies of the state.
struct RkScratch {
    y: Conserved,
    stage: Conserved,
    k: Vec<Conserved>,
}

impl RkScratch {
    fn new(state: &Conserved) -> RkScratch {
        RkScratch {
            y: state.clone(),
            stage: state.clone(),
            k: vec![state.clone(); 4],
        }
    }

    /// One replay. The scratch stage derivatives are copies of the
    /// state, so each replay only adds `dt · state` to `y`, which keeps it
    /// physical however often it runs.
    fn combine(&mut self, dt: f64) -> bool {
        const A: [f64; 4] = [0.0, 0.5, 0.5, 1.0];
        const B: [f64; 4] = [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0];
        for (i, &a) in A.iter().enumerate() {
            self.stage.copy_from(&self.y);
            if i > 0 {
                self.stage.axpy(dt * a, &self.k[i - 1]);
            }
        }
        for (k, &b) in self.k.iter().zip(&B) {
            self.y.axpy(dt * b, k);
        }
        self.y.is_physical()
    }
}

/// Per-iteration samples of the traced window.
#[derive(Default)]
struct Probes {
    step: Samples,
    diagnostics: Samples,
    eval_rhs: Samples,
    rku: Samples,
    assemble: Samples,
    serial_assemble: Samples,
    sweep: Samples,
    gather: Vec<f64>,
    flux: Vec<f64>,
    contraction: Vec<f64>,
    scatter: Vec<f64>,
    rk_update: Samples,
}

/// Calls `f` inside a span, adds its wall and CPU time to `into`, and
/// attaches the CPU time to the span as a counter.
fn probe<R>(
    tr: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    into: &mut Samples,
    f: impl FnOnce() -> R,
) -> R {
    let span = tr.begin(layer, name);
    let t = Stamp::now();
    let r = f();
    let (wall, cpu) = t.elapsed_ms();
    tr.end(span);
    tr.count(span, "cpu_ns", cpu * 1e6);
    into.push((wall, cpu));
    r
}

/// What a closed-loop window measured.
struct Window {
    steps: Samples,
    /// Step costs in reference-kernel units.
    costs: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    failed: bool,
}

/// How long a closed-loop window runs: `seconds`, and at least
/// `min_steps` steps.
#[derive(Clone, Copy)]
struct Budget {
    seconds: f64,
    min_steps: usize,
}

/// The closed loop: one caller steps the simulation within `budget`,
/// timing each step, with diagnostics every [`DIAGNOSTICS_EVERY`] steps
/// and a reference reading taken as `reading` says around every step.
/// With tracing on, steps and diagnostics get spans and each iteration
/// also runs `probes`.
fn closed_loop(
    sim: &mut Simulation,
    dt: f64,
    budget: Budget,
    reading: RefReading,
    tr: &mut Tracer,
    p: &mut Probes,
    mut probes: impl FnMut(&mut Simulation, &mut Tracer, &mut Probes),
) -> Window {
    let start = Stamp::now();
    // Busy time of the steps and diagnostics alone (probes excluded).
    let mut busy_cpu = 0.0;
    let mut busy_wall = 0.0;
    let mut failed = false;
    let mut refs = Vec::new();
    loop {
        refs.push(reading.read());
        let r = probe(tr, "fem_solver.driver", "step", &mut p.step, || {
            sim.step(dt)
        });
        busy_wall += p.step.wall.last().copied().unwrap_or(0.0);
        busy_cpu += p.step.cpu.last().copied().unwrap_or(0.0);
        if r.is_err() {
            failed = true;
            break;
        }
        if p.step.len().is_multiple_of(DIAGNOSTICS_EVERY) {
            probe(
                tr,
                "fem_solver.diagnostics",
                "diagnostics",
                &mut p.diagnostics,
                || std::hint::black_box(sim.diagnostics()),
            );
            busy_wall += p.diagnostics.wall.last().copied().unwrap_or(0.0);
            busy_cpu += p.diagnostics.cpu.last().copied().unwrap_or(0.0);
        }
        probes(sim, tr, p);
        let (wall, _) = start.elapsed_ms();
        if wall >= budget.seconds * 1e3 && p.step.len() >= budget.min_steps {
            break;
        }
    }
    refs.push(reading.read());
    Window {
        costs: reference_costs(&p.step.cpu, &refs),
        steps: std::mem::take(&mut p.step),
        wall_s: busy_wall * 1e-3,
        cpu_s: busy_cpu * 1e-3,
        failed,
    }
}

/// Checks the scenario invariants between `first` and the current state
/// (one attempted operation); returns the kinetic-energy ratio.
fn check_invariants(
    scenario: &Scenario,
    first: &fem_solver::FlowDiagnostics,
    sim: &mut Simulation,
    out: &mut Outcome,
) -> f64 {
    let last = sim.diagnostics();
    let report = scenario.check_invariants(first, &last, sim);
    out.attempted += 1;
    if !report.all_passed() {
        out.failed += 1;
        out.context
            .push(format!("check FAIL: invariants\n{report}"));
    }
    last.kinetic_energy / first.kinetic_energy
}

/// Runs one solver workload and returns its outcome.
pub fn run(
    name: &str,
    spec: &SolverSpec,
    amplitude: f64,
    seconds: f64,
    traced: bool,
    tr: &mut Tracer,
) -> Result<Outcome, String> {
    let scenario = spec
        .scenario
        .with_overrides(None, Some(amplitude))
        .map_err(|e| e.to_string())?;
    let mut out = Outcome::default();
    let root = tr.begin("perfbench", "run");

    // ---- segments: set-up, warm-up, closed loop, invariants ----
    // The window is split into segments that each build the simulation
    // from its inputs, so the set-ups sample the whole run rather than
    // one moment of a shared machine.
    let mut off = Tracer::new(false, 0);
    let mut steps = Samples::default();
    let mut costs = Vec::new();
    let (mut busy_wall_s, mut busy_cpu_s) = (0.0, 0.0);
    let mut setup_cpu = Vec::new();
    let mut setup_parts = Vec::new();
    let untraced_s = if traced { seconds / 3.0 } else { seconds };
    let mut last_segment = None;
    for k in 0..SEGMENTS {
        drop(last_segment.take());
        let mut built = None;
        for _ in 0..SETUPS_PER_SEGMENT {
            drop(built.take());
            let s = tr.begin("perfbench", "setup");
            let t = Stamp::now();
            let (ctx, sim, parts) = setup(spec, &scenario, tr)?;
            setup_cpu.push(t.elapsed_ms().1 * 1e-3);
            tr.end(s);
            setup_parts.push(parts);
            built = Some((ctx, sim));
        }
        let (ctx, mut sim) = built.expect("at least one set-up");

        let dt = sim.suggest_dt(scenario.default_cfl());
        let s = tr.begin("fem_solver.driver", "warmup");
        for _ in 0..WARMUP_STEPS {
            sim.step(dt)
                .map_err(|e| format!("warm-up step failed: {e}"))?;
        }
        tr.end(s);
        let first = sim.diagnostics();
        let mut p = Probes::default();
        let budget = Budget {
            seconds: untraced_s / SEGMENTS as f64,
            min_steps: MIN_STEPS.div_ceil(SEGMENTS),
        };
        let w = closed_loop(
            &mut sim,
            dt,
            budget,
            spec.ref_reading(),
            &mut off,
            &mut p,
            |_, _, _| {},
        );
        out.attempted += w.steps.len() as u64;
        if w.failed {
            out.failed += 1;
            out.context
                .push("check FAIL: a step produced an unphysical state".into());
        }
        busy_wall_s += w.wall_s;
        busy_cpu_s += w.cpu_s;
        steps.wall.extend(&w.steps.wall);
        steps.cpu.extend(&w.steps.cpu);
        costs.extend(&w.costs);
        if k + 1 < SEGMENTS {
            check_invariants(&scenario, &first, &mut sim, &mut out);
        }
        last_segment = Some((ctx, sim, dt, first));
    }
    let (ctx, mut sim, dt, first) = last_segment.expect("at least one segment");
    out.set("setup_s", median(&setup_cpu));
    out.op_label = "RK4 steps";
    summarize_ops(&mut out, &steps, &costs, MIN_STEPS, busy_wall_s, busy_cpu_s);

    let mesh = ctx.mesh();
    let nodes = mesh.num_nodes();
    let ne = mesh.num_elements();
    let npe = mesh.nodes_per_element();
    let geometry_bytes = ctx.geometry().memory_bytes();
    // y, the RK stage state and four stage derivatives (5 fields each),
    // the primitives (6 fields), the lumped mass, and the connectivity.
    let state_bytes = nodes * 8 * (6 * 5 + 6 + 1) + ne * npe * 4;
    out.context.push(format!(
        "workload {name}: {} order {} edge {} ({ne} elements x {npe} nodes, {nodes} nodes), backend {}, assembly threads {}, diagnostics threads {}; {SEGMENTS} segments, each set up {SETUPS_PER_SEGMENT} times from the inputs",
        scenario.name(),
        spec.order,
        spec.edge,
        sim.backend().name(),
        spec.assembly_threads,
        fem_solver::parallel::available_threads(),
    ));
    out.context.push(format!(
        "working set (computed from array sizes): geometry cache {:.2} MiB + state/connectivity {:.2} MiB = {:.2} MiB",
        geometry_bytes as f64 / 1048576.0,
        state_bytes as f64 / 1048576.0,
        (geometry_bytes + state_bytes) as f64 / 1048576.0
    ));

    // The workload backend, rebuilt for the probes and the checks (the
    // simulation's own is not reachable mutably), and a fresh serial
    // reference.
    let gas = scenario.gas();
    let mut own = build_backend(spec.select, mesh, ctx.geometry()).map_err(|e| e.to_string())?;
    let mut reference = ReferenceBackend::new(AssemblyStrategy::Serial, mesh);
    let actx = AssemblyContext {
        mesh,
        basis: ctx.basis(),
        gas: &gas,
        geometry: ctx.geometry(),
        kernel: sim.kernel_path(),
    };
    let mut prims = Primitives::zeros(nodes);
    let mut rhs_own = Conserved::zeros(nodes);
    let mut rhs_ref = Conserved::zeros(nodes);

    if traced && out.failed == 0 {
        let batch = (KERNEL_BATCH_BYTES / (npe * WORKSPACE_BYTES_PER_NODE)).max(1);
        let mut wss = vec![ElementWorkspace::new(npe); batch];
        let mut rhs_split = Conserved::zeros(nodes);
        let mut rk = RkScratch::new(sim.conserved());
        let phases_before = own.measured_device_phases();
        let parallel = spec.assembly_threads > 1;
        let mut p = Probes::default();
        let window_span = tr.begin("perfbench", "traced_window");
        let tw = closed_loop(
            &mut sim,
            dt,
            Budget {
                seconds: seconds * 2.0 / 3.0,
                min_steps: MIN_TRACED_STEPS,
            },
            spec.ref_reading(),
            tr,
            &mut p,
            |sim, tr, p| {
                let span = tr.begin("perfbench", "probes");
                probe(tr, "fem_solver.driver", "eval_rhs", &mut p.eval_rhs, || {
                    std::hint::black_box(sim.eval_rhs())
                });
                let state = sim.conserved();
                probe(tr, "fem_solver.state", "rku", &mut p.rku, || {
                    prims.update_from(state, &gas)
                });
                probe(
                    tr,
                    "fem_solver.engine",
                    "assemble_rhs",
                    &mut p.assemble,
                    || own.assemble_rhs(&actx, state, &prims, &mut rhs_own, None),
                );
                if parallel {
                    probe(
                        tr,
                        "fem_solver.engine",
                        "assemble_rhs_serial",
                        &mut p.serial_assemble,
                        || reference.assemble_rhs(&actx, state, &prims, &mut rhs_ref, None),
                    );
                }
                let k = probe(
                    tr,
                    "fem_solver.kernels",
                    "kernel_sweep",
                    &mut p.sweep,
                    || kernel_sweep(&actx, state, &prims, &mut wss, &mut rhs_split),
                );
                // Stage CPU time: the sweep's CPU time split in proportion to
                // the stages' wall-clock shares (a CPU clock read per batch
                // would cost more than p = 1 batches of work).
                let stages = [k.gather, k.flux, k.contraction, k.scatter].map(|d| d.as_secs_f64());
                let scale = p.sweep.cpu.last().copied().unwrap_or(0.0) / stages.iter().sum::<f64>();
                for (v, s) in [
                    &mut p.gather,
                    &mut p.flux,
                    &mut p.contraction,
                    &mut p.scatter,
                ]
                .into_iter()
                .zip(stages)
                {
                    v.push(s * scale);
                }
                probe(
                    tr,
                    "fem_solver.driver",
                    "rk_update",
                    &mut p.rk_update,
                    || std::hint::black_box(rk.combine(dt)),
                );
                tr.end(span);
            },
        );
        tr.end(window_span);
        out.attempted += tw.steps.len() as u64;
        if tw.failed {
            out.failed += 1;
            out.context
                .push("check FAIL: a step produced an unphysical state".into());
        }
        let probes = p.eval_rhs.len();

        // The split sweep must reproduce the serial reference.
        prims.update_from(sim.conserved(), &gas);
        reference.assemble_rhs(&actx, sim.conserved(), &prims, &mut rhs_ref, None);
        kernel_sweep(&actx, sim.conserved(), &prims, &mut wss, &mut rhs_split);
        let split_err = relative_difference(&rhs_split, &rhs_ref);
        out.attempted += 1;
        if split_err > AGREEMENT_TOL {
            out.failed += 1;
            out.context.push(format!(
                "check FAIL: kernel split vs serial reference rel diff {split_err:e}"
            ));
        }

        let step_ms = median(&tw.steps.cpu);
        let eval_ms = median(&p.eval_rhs.cpu);
        let rku_ms = median(&p.rku.cpu);
        let assemble_ms = median(&p.assemble.cpu);
        let rk_update_ms = median(&p.rk_update.cpu);
        let mass_bc_ms = eval_ms - rku_ms - assemble_ms;
        let stage_ms = [&p.gather, &p.flux, &p.contraction, &p.scatter].map(|v| median(v));

        // Closure: each step against its layers, measured in separate
        // calls one level down right after it (pairing cancels the slow
        // drift of a shared machine); the median over the steps. The
        // serial workload sums its kernel stages in place of the
        // assembly; the parallel one keeps the assembly (its serial
        // kernel sweep does different work).
        let closures: Vec<f64> = (0..probes)
            .map(|i| {
                let assembly = if parallel {
                    p.assemble.cpu[i]
                } else {
                    p.gather[i] + p.flux[i] + p.contraction[i] + p.scatter[i]
                };
                let mass_bc = p.eval_rhs.cpu[i] - p.rku.cpu[i] - p.assemble.cpu[i];
                let layers = 4.0 * (p.rku.cpu[i] + assembly + mass_bc) + p.rk_update.cpu[i];
                (layers - tw.steps.cpu[i]) / tw.steps.cpu[i]
            })
            .collect();
        out.set("closure_err", median(&closures).abs());
        out.set("step_ms_traced", step_ms);
        out.set("trace_overhead", median(&costs) / median(&tw.costs));
        out.set("rku_ms", rku_ms);
        out.set("gather_ms", stage_ms[0]);
        out.set("flux_ms", stage_ms[1]);
        out.set("contraction_ms", stage_ms[2]);
        out.set("scatter_ms", stage_ms[3]);
        out.set("assemble_ms", assemble_ms);
        out.set("eval_rhs_ms", eval_ms);
        out.set("mass_bc_ms", mass_bc_ms);
        out.set("rk_update_ms", rk_update_ms);
        out.set("diagnostics_ms", median(&p.diagnostics.cpu));
        out.set(
            "parallel_speedup",
            if parallel {
                median(&p.serial_assemble.wall) / median(&p.assemble.wall)
            } else {
                1.0
            },
        );

        // Device phases of the workload backend over the probes: mean
        // per device and stage, wall clock as the backend measures it.
        let phases = own.measured_device_phases();
        let deltas: Vec<[f64; 4]> = phases
            .iter()
            .zip(&phases_before)
            .map(|(a, b)| {
                [
                    a.frontier_s - b.frontier_s,
                    a.interior_s - b.interior_s,
                    a.wait_s - b.wait_s,
                    a.apply_s - b.apply_s,
                ]
            })
            .collect();
        if !deltas.is_empty() && probes > 0 {
            let mean = |i: usize| {
                1e3 * deltas.iter().map(|d| d[i]).sum::<f64>() / (deltas.len() * probes) as f64
            };
            out.set("halo_post_ms", mean(0));
            out.set("interior_ms", mean(1));
            out.set("halo_wait_ms", mean(2));
            out.set("halo_apply_ms", mean(3));
            let efficiency = deltas
                .iter()
                .map(|d| d[1] / (d[1] + d[2]).max(f64::MIN_POSITIVE))
                .sum::<f64>()
                / deltas.len() as f64;
            out.set("overlap_efficiency", efficiency);
        }
        let reports = sim.exchange_reports();
        if !reports.is_empty() {
            let sum = |f: fn(&fem_solver::DeviceExchangeReport) -> f64| reports.iter().map(f).sum();
            out.set(
                "halo_records_per_stage",
                sum(|r| r.halo_records_sent as f64),
            );
            out.set("halo_bytes_per_stage", sum(|r| r.halo_bytes_sent as f64));
        }

        // Computed work per stage.
        let counts = KernelOpCounts::for_basis(ctx.basis());
        let flops = (counts.rkl_flops_per_element() * ne) as f64;
        let bytes = RklWorkload::from_mesh(mesh).rkl_bytes_per_stage() as f64;
        out.set("flops_per_stage", flops);
        out.set("bytes_per_stage", bytes);
        out.set("flops_per_byte", flops / bytes);
        out.set("gflops_achieved", flops / (assemble_ms * 1e-3) / 1e9);

        // Set-up phases (medians over the repeats).
        let med =
            |f: fn(&SetupTimes) -> f64| median(&setup_parts.iter().map(f).collect::<Vec<_>>());
        out.set("mesh_build_s", med(|t| t.mesh));
        out.set("context_build_s", med(|t| t.context));
        out.set("shard_plan_s", med(|t| t.plan));
        out.set("backend_build_s", med(|t| t.backend));
        out.set("geometry_cache_bytes", geometry_bytes as f64);
        if let Some(plan) = own.shard_plan() {
            out.set("halo_fraction", plan.halo_fraction());
            out.set("load_imbalance", plan.load_imbalance());
        }

        // Fig 2 buckets from a second, profiled simulation on the same
        // context (profiling reads timers around every element).
        let s = tr.begin("fem_solver.profile", "profiled_steps");
        let mut builder =
            Simulation::builder_shared(Arc::clone(&ctx), gas, sim.conserved().clone())
                .backend(spec.select)
                .profiling(true);
        if let Some(bc) = scenario.boundary(mesh) {
            builder = builder.bc(bc);
        }
        let mut profiled = builder.build().map_err(|e| e.to_string())?;
        for i in 1..=PROFILED_STEPS {
            profiled
                .step(dt)
                .map_err(|e| format!("profiled step failed: {e}"))?;
            if i.is_multiple_of(DIAGNOSTICS_EVERY) {
                profiled.diagnostics();
            }
        }
        tr.end(s);
        // Phase::ALL order: diffusion, convection, RK other, non-RK.
        let pct = profiled.profiler().breakdown_percent();
        out.set("diffusion_pct", pct[0]);
        out.set("convection_pct", pct[1]);
        out.set("rk_other_pct", pct[2]);
        out.set("non_rk_pct", pct[3]);
        let paper = fem_accel::calibration::PAPER_FIG2_BREAKDOWN;
        out.context.push(format!(
            "Fig 2 buckets (diffusion/convection/rk-other/non-rk): measured {:.1}/{:.1}/{:.1}/{:.1} %, paper {:.1}/{:.1}/{:.1}/{:.1} %",
            pct[0], pct[1], pct[2], pct[3], paper[0], paper[1], paper[2], paper[3]
        ));
    }

    // ---- checks on the final state ----
    let ke_ratio = check_invariants(&scenario, &first, &mut sim, &mut out);
    let state = sim.conserved();
    prims.update_from(state, &gas);
    own.assemble_rhs(&actx, state, &prims, &mut rhs_own, None);
    reference.assemble_rhs(&actx, state, &prims, &mut rhs_ref, None);
    let agreement = relative_difference(&rhs_own, &rhs_ref);
    out.attempted += 1;
    if agreement > AGREEMENT_TOL {
        out.failed += 1;
        out.context.push(format!(
            "check FAIL: {} vs fresh reference(serial) rel diff {agreement:e}",
            own.name()
        ));
    }
    out.context.push(format!(
        "checks: invariants in each of {SEGMENTS} segments ({}), last segment {} steps with KE ratio {ke_ratio:.6}; {} vs fresh reference(serial) rel diff {agreement:e}",
        if out.failed == 0 { "ok" } else { "FAIL" },
        sim.steps_taken(),
        own.name()
    ));

    // ---- the accelerator model of this mesh, and the global quotes ----
    let s = tr.begin("fem_accel", "modeled_stage");
    let mut design = proposed_design(&RklWorkload::from_mesh(mesh));
    optimize_design(&mut design, &OptimizerConfig::for_u200_slr()).map_err(|e| e.to_string())?;
    let perf = estimate_performance(&design, &PerfOptions::default()).map_err(|e| e.to_string())?;
    tr.end(s);
    out.set("modeled_makespan_cycles", perf.rkl_cycles_per_stage as f64);
    if traced {
        let modeled_ms = perf.stage_seconds * 1e3;
        out.set("modeled_stage_ms", modeled_ms);
        out.set("measured_over_modeled", out.get("eval_rhs_ms") / modeled_ms);
    }
    let s = tr.begin("fem_accel", "paper_quotes");
    let (fig5_err, table2_err) = model_quotes()?;
    tr.end(s);
    out.set("model_err.fig5_speedup", fig5_err);
    out.set("model_err.table2_latency", table2_err);
    tr.end(root);
    Ok(out)
}
