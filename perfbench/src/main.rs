//! End-to-end and per-layer benchmark of the FEM-CFD solver and its
//! accelerator model.
//!
//! ```text
//! perfbench --workload <tgv-p1-serial|cavity-p3-md2|accel-model>
//!           --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]
//! ```
//!
//! Human-readable context and per-metric lines go first; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `README.md` for the workloads,
//! the metric definitions and the predictions they encode.

mod accel;
mod solver;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics, the ones `BENCHMARK.json` gates: (name, unit,
/// meaning). Operation costs are CPU time in units of the reference
/// kernel run next to each operation; see `README.md` for why.
const END_TO_END: [(&str, &str, &str); 7] = [
    ("op_cost_p50", "ref", "median operation cost"),
    ("op_cost_tail", "ref", "tail operation cost"),
    (
        "setup_s",
        "s",
        "host CPU s from inputs to ready, median of the set-ups",
    ),
    ("peak_rss_mb", "MB", "peak resident set (VmHWM)"),
    (
        "modeled_makespan_cycles",
        "cycles",
        "simulated accelerator cycles",
    ),
    (
        "model_err.fig5_speedup",
        "ratio",
        "|modeled - 7.9| / 7.9, Fig 5 speed-up",
    ),
    (
        "model_err.table2_latency",
        "ratio",
        "|modeled - 0.45| / 0.45, Table II latency cut",
    ),
];

/// Further end-to-end figures printed with every untraced run but not
/// gated: raw host times move with other tenants' load.
const REPORTED: [(&str, &str, &str); 4] = [
    ("ops_per_cpu_s", "1/s", "operations per host CPU second"),
    ("op_cpu_ms_p50", "ms", "median host CPU ms per operation"),
    ("op_cpu_ms_tail", "ms", "tail host CPU ms per operation"),
    (
        "ref_cpu_ms_p50",
        "ms",
        "median host CPU ms of the reference kernel",
    ),
];

/// Sets the operation figures from per-operation samples, their costs in
/// reference-kernel units, and the busy time of the closed loop. Tails
/// are read at the percentile fixed by `min_ops`, the fewest operations
/// the workload's runs take (see [`stats::tail_percentile`]).
pub fn summarize_ops(
    out: &mut Outcome,
    ops: &stats::Samples,
    costs: &[f64],
    min_ops: usize,
    wall_s: f64,
    cpu_s: f64,
) {
    let n = ops.len() as f64;
    let p = stats::tail_percentile(min_ops);
    out.set("op_cost_p50", stats::median(costs));
    let (v, beyond) = stats::tail(costs, p);
    out.set("op_cost_tail", v);
    out.tail = (p, beyond);
    out.set("op_cpu_ms_p50", stats::median(&ops.cpu));
    out.set("op_cpu_ms_tail", stats::tail(&ops.cpu, p).0);
    let refs: Vec<f64> = ops.cpu.iter().zip(costs).map(|(op, c)| op / c).collect();
    out.set("ref_cpu_ms_p50", stats::median(&refs));
    out.set("ops_per_cpu_s", n / cpu_s);
    out.wall = (
        n / wall_s,
        stats::median(&ops.wall),
        stats::tail(&ops.wall, p).0,
    );
    let ladder: Vec<String> = [75.0, 90.0, 95.0, 99.0]
        .iter()
        .map(|&q| format!("p{q} {:.4}", stats::tail(costs, q).0))
        .collect();
    out.context.push(format!(
        "op_cost by percentile, for context: {} (the gated tail is p{p}, fixed by the workload's minimum of {min_ops} operations)",
        ladder.join(", ")
    ));
}

/// Per-layer metrics: (name, unit). Times are per RK stage unless named
/// otherwise; a layer a workload bypasses reports 0.
const PER_LAYER: [(&str, &str); 51] = [
    // fem_mesh
    ("mesh_build_s", "s"),
    ("context_build_s", "s"),
    ("shard_plan_s", "s"),
    ("geometry_cache_bytes", "bytes"),
    ("halo_fraction", "ratio"),
    ("load_imbalance", "ratio"),
    // fem_solver.engine, set-up
    ("backend_build_s", "s"),
    // fem_solver.state
    ("rku_ms", "ms"),
    // fem_solver.kernels
    ("gather_ms", "ms"),
    ("flux_ms", "ms"),
    ("contraction_ms", "ms"),
    ("scatter_ms", "ms"),
    ("flops_per_stage", "flop"),
    ("bytes_per_stage", "bytes"),
    ("flops_per_byte", "flop/byte"),
    ("gflops_achieved", "Gflop/s"),
    // fem_solver.engine, per stage
    ("assemble_ms", "ms"),
    ("parallel_speedup", "ratio"),
    ("halo_post_ms", "ms"),
    ("halo_wait_ms", "ms"),
    ("halo_apply_ms", "ms"),
    ("interior_ms", "ms"),
    ("overlap_efficiency", "ratio"),
    ("halo_records_per_stage", "count"),
    ("halo_bytes_per_stage", "bytes"),
    // fem_solver.driver
    ("eval_rhs_ms", "ms"),
    ("mass_bc_ms", "ms"),
    ("rk_update_ms", "ms"),
    ("step_ms_traced", "ms"),
    ("closure_err", "ratio"),
    ("trace_overhead", "ratio"),
    // fem_solver.diagnostics
    ("diagnostics_ms", "ms"),
    // fem_solver.profile
    ("convection_pct", "%"),
    ("diffusion_pct", "%"),
    ("rk_other_pct", "%"),
    ("non_rk_pct", "%"),
    // fem_accel
    ("modeled_stage_ms", "ms"),
    ("measured_over_modeled", "ratio"),
    ("optimize_design_ms", "ms"),
    ("optimize_bank_ms", "ms"),
    ("bank_opt_gain.x8", "ratio"),
    ("bank_opt_gain.x32", "ratio"),
    // hls_kernel
    ("schedule_ms", "ms"),
    ("rkl_ii", "count"),
    // hls_dataflow
    ("emulate_ms", "ms"),
    ("tokens", "count"),
    ("tokens_per_s", "1/s"),
    ("bank_reserved_cycles", "cycles"),
    ("bank_stall_cycles", "cycles"),
    // fpga_platform
    ("bound_cycles", "cycles"),
    ("banks_used", "count"),
];

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// Metric values by name.
    metrics: BTreeMap<&'static str, f64>,
    /// Context and check lines printed before the result.
    pub context: Vec<String>,
    /// What one operation is on this workload.
    pub op_label: &'static str,
    /// (percentile, samples beyond) of the tails.
    pub tail: (f64, usize),
    /// Wall-clock counterparts (ops per s, p50 ms, tail ms), printed for
    /// context only.
    pub wall: (f64, f64, f64),
}

impl Outcome {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Metric `name`, 0 if unset.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_dir: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans_dir) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--spans-dir" => spans_dir = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans_dir,
    })
}

/// Formats a metric value as JSON (non-finite values become 0 and are
/// reported on standard error).
fn json_number(name: &str, v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        eprintln!("perfbench: metric {name} is not finite ({v}); reported as 0");
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <tgv-p1-serial|cavity-p3-md2|accel-model> --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]"
            );
            return ExitCode::from(2);
        }
    };
    let amplitude = stats::amplitude_from_seed(args.seed);
    let mut tracer = trace::Tracer::new(args.trace, args.seed);
    let result = if args.workload == "accel-model" {
        accel::run(args.seconds, args.trace, &mut tracer)
    } else if let Some(spec) = solver::spec(&args.workload) {
        solver::run(
            &args.workload,
            &spec,
            amplitude,
            args.seconds,
            args.trace,
            &mut tracer,
        )
    } else {
        Err(format!("unknown workload {}", args.workload))
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    out.set("peak_rss_mb", stats::peak_rss_mb());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "machine: nproc {nproc}, L2 {} per core, L3 {} shared (sysfs)",
        stats::cache_size(2),
        stats::cache_size(3)
    );
    println!(
        "run: workload {}, seed {} (amplitude scale {amplitude:.6}), {} s window, trace {}, closed loop with one caller",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &out.context {
        println!("{line}");
    }
    println!("bytes are computed from array sizes; no CPU bandwidth-roofline ratio is reported because every working set fits in L3");
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    let metrics: Vec<(&str, &str)> = if args.trace {
        for (name, unit) in PER_LAYER {
            println!("layer {name} = {} {unit}", out.get(name));
        }
        if let Some(dir) = &args.spans_dir {
            let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
            match std::fs::create_dir_all(dir).and_then(|_| tracer.write_jsonl(&path)) {
                Ok(()) => println!(
                    "spans: {} written to {}",
                    tracer.span_count(),
                    path.display()
                ),
                Err(e) => eprintln!("perfbench: writing spans to {}: {e}", path.display()),
            }
        }
        PER_LAYER.to_vec()
    } else {
        for (name, unit, meaning) in END_TO_END.iter().chain(&REPORTED) {
            let extra = if name.ends_with("_tail") {
                format!(", p{} with {} samples beyond", out.tail.0, out.tail.1)
            } else {
                String::new()
            };
            let gated = if REPORTED.iter().any(|r| r.0 == *name) {
                "; not gated"
            } else {
                ""
            };
            println!(
                "metric {name} = {} {unit} ({meaning}; one operation = one of the {}{extra}; attempted {}{gated})",
                out.get(name),
                out.op_label,
                out.attempted,
            );
        }
        println!(
            "metric error_rate = {error_rate} (failed {} / attempted {}; not gated, carried by the result's failed and attempted)",
            out.failed, out.attempted
        );
        println!(
            "wall clock, for context only (includes time other tenants take from this machine): {} {} per s, p50 {} ms, tail {} ms",
            out.wall.0, out.op_label, out.wall.1, out.wall.2
        );
        END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(name, out.get(name))
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
