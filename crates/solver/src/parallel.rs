//! Parallel residual assembly on the host CPU.
//!
//! The paper's software baseline is single-threaded; this module is the
//! multi-core extension a production deployment would use. The scatter
//! hazard on shared nodes (the same obstacle the accelerator solves with
//! conflict-free residual banking) is resolved two ways, selectable via
//! [`AssemblyStrategy`]:
//!
//! * **Chunked** — elements are split into fixed contiguous chunks, each
//!   chunk assembles a *private* full-size partial RHS in parallel, and
//!   the partials are reduced in chunk order. O(chunks × num_nodes)
//!   memory; deterministic for a fixed chunk count, matches the serial
//!   loop to floating-point rounding (contribution *grouping* changes
//!   across chunk boundaries).
//! * **Colored** — elements are grouped into node-disjoint color classes
//!   ([`ElementColoring`]); within a class, threads scatter **directly
//!   into the shared RHS** with no private partials and no reduction.
//!   O(num_nodes) memory. Because every node receives at most one
//!   contribution per color and colors run in a fixed order, the result
//!   is **bitwise identical across thread and chunk counts** (the
//!   accumulation grouping per node is fixed by the coloring, not by the
//!   parallel schedule). It matches the serial loop to rounding.
//!
//! Every strategy consumes the precomputed [`GeometryCache`] (no
//! per-stage Jacobian rebuild) and runs the **fused** `F_c − F_v`
//! single-contraction kernel on viscous elements. Fig 2 attribution of
//! the fused path: the fused flux assembly (gradients, τ, net flux) is
//! charged to `RK(Diffusion)`; the single weak-divergence contraction —
//! which serves the convective and viscous halves equally — is charged
//! half to `RK(Convection)` and half to `RK(Diffusion)`; gather/scatter
//! stay in `RK(Other)`, which no longer contains any geometry time.
//! [`assemble_rhs_split_into`] keeps the seed split-contraction kernels
//! (on cached geometry) as the validation and benchmarking reference.

use crate::gas::GasModel;
use crate::kernels::{
    convective_flux, fused_flux, viscous_flux, weak_divergence, ElementWorkspace, KernelOps,
    KernelPath, NUM_VARS,
};
use crate::profile::{Phase, PhaseProfiler};
use crate::state::{Conserved, Primitives};
use fem_mesh::coloring::ElementColoring;
use fem_mesh::geometry::GeometryCache;
use fem_mesh::HexMesh;
use fem_numerics::rk::StateOps;
use fem_numerics::tensor::HexBasis;
use rayon::prelude::*;
use std::num::NonZeroUsize;
use std::sync::Mutex;
use std::time::Instant;

/// How the RKL residual is assembled over the mesh (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssemblyStrategy {
    /// One thread, ascending element order — the paper's software
    /// baseline, and the only mode with per-stage Fig 2 attribution at
    /// zero synchronization cost.
    Serial,
    /// Parallel chunks with private partial RHS vectors reduced in chunk
    /// order (deterministic for a fixed `chunks`).
    Chunked {
        /// Number of contiguous element chunks (= private partials).
        chunks: usize,
    },
    /// Color-parallel in-place scatter: no partials, bitwise
    /// deterministic regardless of thread/chunk count.
    Colored,
}

impl AssemblyStrategy {
    /// Chunked with one chunk per available core.
    pub fn chunked_auto() -> AssemblyStrategy {
        AssemblyStrategy::Chunked {
            chunks: available_threads(),
        }
    }
}

impl std::fmt::Display for AssemblyStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssemblyStrategy::Serial => write!(f, "serial"),
            AssemblyStrategy::Chunked { chunks } => write!(f, "chunked({chunks})"),
            AssemblyStrategy::Colored => write!(f, "colored"),
        }
    }
}

/// Worker threads the parallel strategies (and their consumers) size
/// their chunking against.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Evaluates element `e`'s residual into `ws.res` with the fused hot
/// path (gather → fused flux → single contraction), optionally charging
/// per-stage time to `prof` à la Fig 2 (see the module docs for the
/// fused attribution convention). `geom` carries the element's cached
/// geometric factors — callers index the whole-mesh [`GeometryCache`]
/// with `e`, or a shard-local slice with the shard-relative index (the
/// [`crate::engine`] backends stream contiguous per-shard geometry).
/// The contraction dispatches on `kernel` — the [`KernelPath`] resolved
/// once per sweep (see the `kernels` module docs).
#[allow(clippy::too_many_arguments)]
pub(crate) fn eval_element(
    mesh: &HexMesh,
    basis: &HexBasis,
    gas: &GasModel,
    viscous: bool,
    conserved: &Conserved,
    prim: &Primitives,
    e: usize,
    ws: &mut ElementWorkspace,
    geom: fem_mesh::hex::GeomRef<'_>,
    kernel: &KernelOps,
    prof: Option<&mut PhaseProfiler>,
) {
    match prof {
        None => {
            ws.gather(mesh.element_nodes(e), conserved, prim);
            ws.zero_residuals();
            if viscous {
                fused_flux(ws, gas, basis, geom);
            } else {
                convective_flux(ws);
            }
            kernel.weak_divergence(ws, basis, geom, 1.0);
        }
        Some(p) => {
            let t0 = Instant::now();
            ws.gather(mesh.element_nodes(e), conserved, prim);
            ws.zero_residuals();
            p.add(Phase::RkOther, t0.elapsed());
            if viscous {
                let t0 = Instant::now();
                fused_flux(ws, gas, basis, geom);
                p.add(Phase::RkDiffusion, t0.elapsed());
                let t0 = Instant::now();
                kernel.weak_divergence(ws, basis, geom, 1.0);
                let half = t0.elapsed() / 2;
                p.add(Phase::RkConvection, half);
                p.add(Phase::RkDiffusion, half);
            } else {
                let t0 = Instant::now();
                convective_flux(ws);
                kernel.weak_divergence(ws, basis, geom, 1.0);
                p.add(Phase::RkConvection, t0.elapsed());
            }
        }
    }
}

/// Evaluates element `e`'s residual with the seed **split** kernels
/// (convective and viscous contractions separately) on cached geometry —
/// the reference the fused path is validated and benchmarked against.
#[allow(clippy::too_many_arguments)]
fn eval_element_split(
    mesh: &HexMesh,
    basis: &HexBasis,
    gas: &GasModel,
    viscous: bool,
    conserved: &Conserved,
    prim: &Primitives,
    e: usize,
    ws: &mut ElementWorkspace,
    geometry: &GeometryCache,
) {
    let geom = geometry.element(e);
    ws.gather(mesh.element_nodes(e), conserved, prim);
    ws.zero_residuals();
    convective_flux(ws);
    weak_divergence(ws, basis, geom, 1.0);
    if viscous {
        viscous_flux(ws, gas, basis, geom);
        weak_divergence(ws, basis, geom, -1.0);
    }
}

/// Assembles the RKL residual into `out` over `chunks` parallel element
/// ranges with private partials reduced in chunk order.
///
/// When `profiler` is given, per-thread stage timings are merged into it
/// (summed thread time — see [`PhaseProfiler::merge`]).
///
/// # Panics
///
/// Panics if state sizes disagree with the mesh, the geometry cache does
/// not cover the mesh, or `chunks == 0`.
#[allow(clippy::too_many_arguments)]
pub fn assemble_rhs_chunked_into(
    mesh: &HexMesh,
    basis: &HexBasis,
    gas: &GasModel,
    geometry: &GeometryCache,
    conserved: &Conserved,
    prim: &Primitives,
    chunks: usize,
    kernel: KernelPath,
    out: &mut Conserved,
    mut profiler: Option<&mut PhaseProfiler>,
) {
    assert!(chunks > 0, "chunk count");
    assert_eq!(conserved.len(), mesh.num_nodes(), "state size");
    assert_eq!(out.len(), mesh.num_nodes(), "output size");
    assert_eq!(
        geometry.num_elements(),
        mesh.num_elements(),
        "geometry cache does not cover the mesh"
    );
    let ne = mesh.num_elements();
    let npe = mesh.nodes_per_element();
    let viscous = gas.mu > 0.0;
    let profile = profiler.is_some();
    // Resolve once per sweep: the full-matrix path materializes its dense
    // operators here, outside the element loop.
    let kernel = KernelOps::resolve(kernel, basis);
    if chunks == 1 {
        // Serial fast path: scatter straight into `out` — bitwise
        // identical to the one-partial reduction (a single chunk's
        // accumulation grouping is unchanged), without the private
        // partial allocation and the final axpy pass.
        let mut ws = ElementWorkspace::new(npe);
        let mut local = PhaseProfiler::new();
        out.set_zero();
        for e in 0..ne {
            eval_element(
                mesh,
                basis,
                gas,
                viscous,
                conserved,
                prim,
                e,
                &mut ws,
                geometry.element(e),
                &kernel,
                if profile { Some(&mut local) } else { None },
            );
            if profile {
                let t0 = Instant::now();
                ws.scatter_add(mesh.element_nodes(e), out);
                local.add(Phase::RkOther, t0.elapsed());
            } else {
                ws.scatter_add(mesh.element_nodes(e), out);
            }
        }
        if let Some(agg) = profiler {
            agg.merge(&local);
        }
        return;
    }
    let chunk_size = ne.div_ceil(chunks);
    let ranges: Vec<(usize, usize)> = (0..chunks)
        .map(|c| {
            let start = c * chunk_size;
            (start.min(ne), ((c + 1) * chunk_size).min(ne))
        })
        .collect();
    let partials: Vec<(Conserved, PhaseProfiler)> = ranges
        .par_iter()
        .map(|&(start, end)| {
            let mut ws = ElementWorkspace::new(npe);
            let mut partial = Conserved::zeros(mesh.num_nodes());
            let mut local = PhaseProfiler::new();
            for e in start..end {
                eval_element(
                    mesh,
                    basis,
                    gas,
                    viscous,
                    conserved,
                    prim,
                    e,
                    &mut ws,
                    geometry.element(e),
                    &kernel,
                    if profile { Some(&mut local) } else { None },
                );
                if profile {
                    let t0 = Instant::now();
                    ws.scatter_add(mesh.element_nodes(e), &mut partial);
                    local.add(Phase::RkOther, t0.elapsed());
                } else {
                    ws.scatter_add(mesh.element_nodes(e), &mut partial);
                }
            }
            (partial, local)
        })
        .collect();
    // Deterministic reduction in chunk order.
    out.set_zero();
    for (p, local) in &partials {
        out.axpy(1.0, p);
        if let Some(agg) = profiler.as_deref_mut() {
            agg.merge(local);
        }
    }
}

/// Raw pointers to the five RHS field arrays, shared across the threads
/// of one parallel scatter sweep.
///
/// Soundness: the only writes through these pointers are scatter calls
/// over **node-disjoint** index sets — elements of a single color class
/// ([`ElementColoring::is_valid`] is checked in debug builds), or the
/// owned/halo node sets of a `ShardPlan` (disjoint by construction of
/// first-toucher ownership). No two threads ever write the same index
/// concurrently.
pub(crate) struct SharedRhs {
    rho: *mut f64,
    mom: [*mut f64; 3],
    energy: *mut f64,
}

unsafe impl Send for SharedRhs {}
unsafe impl Sync for SharedRhs {}

impl SharedRhs {
    pub(crate) fn new(out: &mut Conserved) -> SharedRhs {
        SharedRhs {
            rho: out.rho.as_mut_ptr(),
            mom: [
                out.mom[0].as_mut_ptr(),
                out.mom[1].as_mut_ptr(),
                out.mom[2].as_mut_ptr(),
            ],
            energy: out.energy.as_mut_ptr(),
        }
    }

    /// Scatter-adds element residuals at `nodes` directly into the
    /// shared RHS.
    ///
    /// # Safety
    ///
    /// Every `nodes` index must be in bounds, and concurrent callers must
    /// scatter to disjoint node sets (guaranteed within one color class).
    unsafe fn scatter_add(&self, nodes: &[u32], res: &[Vec<f64>; NUM_VARS]) {
        for (q, &n) in nodes.iter().enumerate() {
            self.add_node(n as usize, res, q);
        }
    }

    /// Adds workspace residual slot `q` to node `n` of the shared RHS.
    ///
    /// # Safety
    ///
    /// `n` must be in bounds and concurrent callers must target disjoint
    /// node sets (one color class, or one shard's owned nodes).
    pub(crate) unsafe fn add_node(&self, n: usize, res: &[Vec<f64>; NUM_VARS], q: usize) {
        *self.rho.add(n) += res[0][q];
        *self.mom[0].add(n) += res[1][q];
        *self.mom[1].add(n) += res[2][q];
        *self.mom[2].add(n) += res[3][q];
        *self.energy.add(n) += res[4][q];
    }

    /// Adds one packed five-variable contribution to node `n`.
    ///
    /// # Safety
    ///
    /// Same contract as [`SharedRhs::add_node`].
    pub(crate) unsafe fn add_vals(&self, n: usize, vals: &[f64; NUM_VARS]) {
        *self.rho.add(n) += vals[0];
        *self.mom[0].add(n) += vals[1];
        *self.mom[1].add(n) += vals[2];
        *self.mom[2].add(n) += vals[3];
        *self.energy.add(n) += vals[4];
    }
}

/// Color-parallel in-place assembly with an explicit per-thread work
/// granularity of `chunk_elems` elements.
///
/// Exposed so tests can verify the bitwise-determinism guarantee across
/// chunk sizes; [`assemble_rhs_colored_into`] picks the granularity
/// automatically.
///
/// # Panics
///
/// Panics if state sizes disagree with the mesh, the coloring does not
/// cover the mesh, or `chunk_elems == 0`.
#[allow(clippy::too_many_arguments)]
pub fn assemble_rhs_colored_with_chunk(
    mesh: &HexMesh,
    basis: &HexBasis,
    gas: &GasModel,
    geometry: &GeometryCache,
    conserved: &Conserved,
    prim: &Primitives,
    coloring: &ElementColoring,
    chunk_elems: usize,
    kernel: KernelPath,
    out: &mut Conserved,
    profiler: Option<&mut PhaseProfiler>,
) {
    assert!(chunk_elems > 0, "chunk size");
    assert_eq!(conserved.len(), mesh.num_nodes(), "state size");
    assert_eq!(out.len(), mesh.num_nodes(), "output size");
    assert_eq!(
        coloring.num_elements(),
        mesh.num_elements(),
        "coloring does not cover the mesh"
    );
    assert_eq!(
        geometry.num_elements(),
        mesh.num_elements(),
        "geometry cache does not cover the mesh"
    );
    // The raw-pointer scatter below is only race-free if the classes are
    // node-disjoint *on this mesh* — an element-count match does not prove
    // the coloring was built from it, so re-check in debug builds.
    debug_assert!(
        coloring.is_valid(mesh),
        "coloring is not node-disjoint on this mesh"
    );
    let npe = mesh.nodes_per_element();
    let viscous = gas.mu > 0.0;
    let profile = profiler.is_some();
    let kernel = KernelOps::resolve(kernel, basis);
    out.set_zero();
    let shared = SharedRhs::new(out);
    let agg = Mutex::new(PhaseProfiler::new());
    for class in coloring.classes() {
        class.par_chunks(chunk_elems).for_each(|elems| {
            let mut ws = ElementWorkspace::new(npe);
            let mut local = PhaseProfiler::new();
            for &e in elems {
                let e = e as usize;
                eval_element(
                    mesh,
                    basis,
                    gas,
                    viscous,
                    conserved,
                    prim,
                    e,
                    &mut ws,
                    geometry.element(e),
                    &kernel,
                    if profile { Some(&mut local) } else { None },
                );
                // SAFETY: indices come from the mesh connectivity (in
                // bounds) and `elems` is a subset of one node-disjoint
                // color class, so concurrent scatters never alias.
                if profile {
                    let t0 = Instant::now();
                    unsafe { shared.scatter_add(mesh.element_nodes(e), &ws.res) };
                    local.add(Phase::RkOther, t0.elapsed());
                } else {
                    unsafe { shared.scatter_add(mesh.element_nodes(e), &ws.res) };
                }
            }
            if profile {
                agg.lock().unwrap().merge(&local);
            }
        });
    }
    if let Some(p) = profiler {
        p.merge(&agg.into_inner().unwrap());
    }
}

/// Color-parallel in-place assembly: within each color class, threads
/// scatter directly into the shared `out` with no private partials.
///
/// Memory stays O(num_nodes) and the result is bitwise identical across
/// thread/chunk counts (see module docs). When `profiler` is given,
/// per-thread stage timings are merged into it.
///
/// # Panics
///
/// Panics if state sizes disagree with the mesh or the coloring does not
/// cover the mesh.
#[allow(clippy::too_many_arguments)]
pub fn assemble_rhs_colored_into(
    mesh: &HexMesh,
    basis: &HexBasis,
    gas: &GasModel,
    geometry: &GeometryCache,
    conserved: &Conserved,
    prim: &Primitives,
    coloring: &ElementColoring,
    kernel: KernelPath,
    out: &mut Conserved,
    profiler: Option<&mut PhaseProfiler>,
) {
    // One chunk per core within the largest class amortizes workspace
    // allocation while keeping every core busy.
    let max_class = coloring.max_class_size().max(1);
    let chunk = max_class.div_ceil(available_threads()).max(1);
    assemble_rhs_colored_with_chunk(
        mesh, basis, gas, geometry, conserved, prim, coloring, chunk, kernel, out, profiler,
    );
}

/// Assembles the residual into `out` with the given strategy
/// (`coloring` is required for [`AssemblyStrategy::Colored`]).
///
/// [`AssemblyStrategy::Serial`] is evaluated as a single chunk.
///
/// # Panics
///
/// Panics on size mismatches, or if `strategy` is `Colored` and
/// `coloring` is `None`.
#[allow(clippy::too_many_arguments)]
pub fn assemble_rhs_into(
    mesh: &HexMesh,
    basis: &HexBasis,
    gas: &GasModel,
    geometry: &GeometryCache,
    conserved: &Conserved,
    prim: &Primitives,
    strategy: AssemblyStrategy,
    coloring: Option<&ElementColoring>,
    kernel: KernelPath,
    out: &mut Conserved,
    profiler: Option<&mut PhaseProfiler>,
) {
    match strategy {
        AssemblyStrategy::Serial => {
            assemble_rhs_chunked_into(
                mesh, basis, gas, geometry, conserved, prim, 1, kernel, out, profiler,
            );
        }
        AssemblyStrategy::Chunked { chunks } => {
            assemble_rhs_chunked_into(
                mesh, basis, gas, geometry, conserved, prim, chunks, kernel, out, profiler,
            );
        }
        AssemblyStrategy::Colored => {
            let coloring = coloring.expect("Colored strategy requires an ElementColoring");
            assemble_rhs_colored_into(
                mesh, basis, gas, geometry, conserved, prim, coloring, kernel, out, profiler,
            );
        }
    }
}

/// Assembles the residual with the seed **split** kernels (two
/// weak-divergence contractions per viscous element) on cached geometry,
/// under any [`AssemblyStrategy`] — the reference path the fused kernel
/// is property-tested and benchmarked against. Not profiled.
///
/// # Panics
///
/// Panics on size mismatches, or if `strategy` is `Colored` and
/// `coloring` is `None`.
#[allow(clippy::too_many_arguments)]
pub fn assemble_rhs_split_into(
    mesh: &HexMesh,
    basis: &HexBasis,
    gas: &GasModel,
    geometry: &GeometryCache,
    conserved: &Conserved,
    prim: &Primitives,
    strategy: AssemblyStrategy,
    coloring: Option<&ElementColoring>,
    out: &mut Conserved,
) {
    assert_eq!(conserved.len(), mesh.num_nodes(), "state size");
    assert_eq!(out.len(), mesh.num_nodes(), "output size");
    assert_eq!(
        geometry.num_elements(),
        mesh.num_elements(),
        "geometry cache does not cover the mesh"
    );
    let ne = mesh.num_elements();
    let npe = mesh.nodes_per_element();
    let viscous = gas.mu > 0.0;
    match strategy {
        AssemblyStrategy::Serial | AssemblyStrategy::Chunked { .. } => {
            let chunks = match strategy {
                AssemblyStrategy::Chunked { chunks } => {
                    assert!(chunks > 0, "chunk count");
                    chunks
                }
                _ => 1,
            };
            if chunks == 1 {
                // Same serial fast path as the fused assembly: direct
                // scatter, no private partial.
                let mut ws = ElementWorkspace::new(npe);
                out.set_zero();
                for e in 0..ne {
                    eval_element_split(
                        mesh, basis, gas, viscous, conserved, prim, e, &mut ws, geometry,
                    );
                    ws.scatter_add(mesh.element_nodes(e), out);
                }
                return;
            }
            let chunk_size = ne.div_ceil(chunks);
            let ranges: Vec<(usize, usize)> = (0..chunks)
                .map(|c| {
                    let start = c * chunk_size;
                    (start.min(ne), ((c + 1) * chunk_size).min(ne))
                })
                .collect();
            let partials: Vec<Conserved> = ranges
                .par_iter()
                .map(|&(start, end)| {
                    let mut ws = ElementWorkspace::new(npe);
                    let mut partial = Conserved::zeros(mesh.num_nodes());
                    for e in start..end {
                        eval_element_split(
                            mesh, basis, gas, viscous, conserved, prim, e, &mut ws, geometry,
                        );
                        ws.scatter_add(mesh.element_nodes(e), &mut partial);
                    }
                    partial
                })
                .collect();
            out.set_zero();
            for p in &partials {
                out.axpy(1.0, p);
            }
        }
        AssemblyStrategy::Colored => {
            let coloring = coloring.expect("Colored strategy requires an ElementColoring");
            assert_eq!(
                coloring.num_elements(),
                mesh.num_elements(),
                "coloring does not cover the mesh"
            );
            debug_assert!(coloring.is_valid(mesh), "coloring not node-disjoint");
            let max_class = coloring.max_class_size().max(1);
            let chunk = max_class.div_ceil(available_threads()).max(1);
            out.set_zero();
            let shared = SharedRhs::new(out);
            for class in coloring.classes() {
                class.par_chunks(chunk).for_each(|elems| {
                    let mut ws = ElementWorkspace::new(npe);
                    for &e in elems {
                        let e = e as usize;
                        eval_element_split(
                            mesh, basis, gas, viscous, conserved, prim, e, &mut ws, geometry,
                        );
                        // SAFETY: same argument as the fused colored path —
                        // indices are in bounds and `elems` is a subset of
                        // one node-disjoint color class.
                        unsafe { shared.scatter_add(mesh.element_nodes(e), &ws.res) };
                    }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tgv::TgvConfig;
    use fem_mesh::generator::BoxMeshBuilder;
    use proptest::prelude::*;

    fn assemble_chunked(
        mesh: &HexMesh,
        basis: &HexBasis,
        gas: &GasModel,
        geometry: &GeometryCache,
        conserved: &Conserved,
        prim: &Primitives,
        chunks: usize,
    ) -> Conserved {
        let mut out = Conserved::zeros(mesh.num_nodes());
        assemble_rhs_chunked_into(
            mesh,
            basis,
            gas,
            geometry,
            conserved,
            prim,
            chunks,
            KernelPath::SumFactored,
            &mut out,
            None,
        );
        out
    }

    fn serial_reference(
        mesh: &HexMesh,
        basis: &HexBasis,
        gas: &GasModel,
        geometry: &GeometryCache,
        conserved: &Conserved,
        prim: &Primitives,
    ) -> Conserved {
        assemble_chunked(mesh, basis, gas, geometry, conserved, prim, 1)
    }

    fn bits(c: &Conserved) -> Vec<u64> {
        let mut out = Vec::new();
        c.for_each_field(|f| out.extend(f.iter().map(|x| x.to_bits())));
        out
    }

    fn flat(c: &Conserved) -> Vec<f64> {
        let mut out = Vec::new();
        c.for_each_field(|f| out.extend_from_slice(f));
        out
    }

    fn tgv_setup(
        edge: usize,
    ) -> (
        HexMesh,
        HexBasis,
        GasModel,
        GeometryCache,
        Conserved,
        Primitives,
    ) {
        let mesh = BoxMeshBuilder::tgv_box(edge).build().unwrap();
        let basis = HexBasis::new(1).unwrap();
        let cfg = TgvConfig::standard();
        let gas = cfg.gas();
        let state = cfg.initial_state(&mesh);
        let mut prim = Primitives::zeros(mesh.num_nodes());
        prim.update_from(&state, &gas);
        let geometry = GeometryCache::build(&mesh, &basis).unwrap();
        (mesh, basis, gas, geometry, state, prim)
    }

    #[test]
    fn parallel_assembly_matches_serial_to_rounding_and_is_deterministic() {
        let (mesh, basis, gas, geometry, state, prim) = tgv_setup(6);
        let reference = serial_reference(&mesh, &basis, &gas, &geometry, &state, &prim);
        let ref_flat = flat(&reference);
        let scale = ref_flat.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        for chunks in [2usize, 3, 7, 16, 64] {
            let parallel = assemble_chunked(&mesh, &basis, &gas, &geometry, &state, &prim, chunks);
            // Agrees with serial to rounding (grouping differs across
            // chunk boundaries).
            let par_flat = flat(&parallel);
            for (a, b) in ref_flat.iter().zip(&par_flat) {
                assert!(
                    (a - b).abs() <= 1e-12 * scale,
                    "chunks={chunks}: {a} vs {b}"
                );
            }
            // Deterministic: rerunning with the same chunking is
            // bit-identical regardless of thread scheduling.
            let again = assemble_chunked(&mesh, &basis, &gas, &geometry, &state, &prim, chunks);
            assert_eq!(
                bits(&parallel),
                bits(&again),
                "chunks={chunks} nondeterministic"
            );
        }
    }

    #[test]
    fn colored_assembly_matches_serial_and_is_bitwise_stable() {
        let (mesh, basis, gas, geometry, state, prim) = tgv_setup(6);
        let coloring = ElementColoring::greedy(&mesh);
        let reference = serial_reference(&mesh, &basis, &gas, &geometry, &state, &prim);
        let ref_flat = flat(&reference);
        let scale = ref_flat.iter().fold(0.0f64, |m, &v| m.max(v.abs()));

        let mut colored = Conserved::zeros(mesh.num_nodes());
        assemble_rhs_colored_into(
            &mesh,
            &basis,
            &gas,
            &geometry,
            &state,
            &prim,
            &coloring,
            KernelPath::SumFactored,
            &mut colored,
            None,
        );
        for (a, b) in ref_flat.iter().zip(&flat(&colored)) {
            assert!((a - b).abs() <= 1e-12 * scale, "{a} vs {b}");
        }

        // Bitwise identical for ANY chunk granularity: the per-node
        // grouping is fixed by the color order, not the schedule.
        let auto_bits = bits(&colored);
        for chunk in [1usize, 2, 5, 16, 1024] {
            let mut again = Conserved::zeros(mesh.num_nodes());
            assemble_rhs_colored_with_chunk(
                &mesh,
                &basis,
                &gas,
                &geometry,
                &state,
                &prim,
                &coloring,
                chunk,
                KernelPath::SumFactored,
                &mut again,
                None,
            );
            assert_eq!(auto_bits, bits(&again), "chunk={chunk} changed bits");
        }
    }

    #[test]
    fn strategy_dispatch_covers_all_paths() {
        let (mesh, basis, gas, geometry, state, prim) = tgv_setup(4);
        let coloring = ElementColoring::greedy(&mesh);
        let reference = serial_reference(&mesh, &basis, &gas, &geometry, &state, &prim);
        let ref_flat = flat(&reference);
        // Floor the scale: on the coarse 4³ box symmetric contributions
        // cancel to ~0, so a pure-relative bound would compare rounding
        // noise against rounding noise (same pattern as the conservation
        // test in `driver`).
        let scale = ref_flat.iter().fold(1.0f64, |m, &v| m.max(v.abs()));
        for strategy in [
            AssemblyStrategy::Serial,
            AssemblyStrategy::chunked_auto(),
            AssemblyStrategy::Chunked { chunks: 5 },
            AssemblyStrategy::Colored,
        ] {
            let mut out = Conserved::zeros(mesh.num_nodes());
            assemble_rhs_into(
                &mesh,
                &basis,
                &gas,
                &geometry,
                &state,
                &prim,
                strategy,
                Some(&coloring),
                KernelPath::SumFactored,
                &mut out,
                None,
            );
            for (a, b) in ref_flat.iter().zip(&flat(&out)) {
                assert!((a - b).abs() <= 1e-12 * scale, "{strategy}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn parallel_profiling_merges_thread_time() {
        let (mesh, basis, gas, geometry, state, prim) = tgv_setup(4);
        let coloring = ElementColoring::greedy(&mesh);
        for strategy in [
            AssemblyStrategy::Chunked { chunks: 4 },
            AssemblyStrategy::Colored,
        ] {
            let mut out = Conserved::zeros(mesh.num_nodes());
            let mut prof = PhaseProfiler::new();
            assemble_rhs_into(
                &mesh,
                &basis,
                &gas,
                &geometry,
                &state,
                &prim,
                strategy,
                Some(&coloring),
                KernelPath::SumFactored,
                &mut out,
                Some(&mut prof),
            );
            assert!(
                prof.total(Phase::RkConvection) > std::time::Duration::ZERO,
                "{strategy}: no convection time"
            );
            assert!(
                prof.total(Phase::RkDiffusion) > std::time::Duration::ZERO,
                "{strategy}: no diffusion time"
            );
            assert!(
                prof.total(Phase::RkOther) > std::time::Duration::ZERO,
                "{strategy}: no other time"
            );
        }
    }

    #[test]
    fn parallel_matches_the_driver_rhs_up_to_mass_scaling() {
        // The driver divides by the lumped mass; undo that and compare.
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let basis = HexBasis::new(1).unwrap();
        let cfg = TgvConfig::new(0.1, 500.0);
        let gas = cfg.gas();
        let state = cfg.initial_state(&mesh);
        let mut prim = Primitives::zeros(mesh.num_nodes());
        prim.update_from(&state, &gas);
        let geometry = GeometryCache::build(&mesh, &basis).unwrap();
        let ours = assemble_chunked(&mesh, &basis, &gas, &geometry, &state, &prim, 4);
        let staged = crate::kernels::NUM_VARS; // silence unused in docs
        assert_eq!(staged, 5);
        // Conservation: Σ residual = 0 per variable.
        let mut max_abs: f64 = 0.0;
        ours.for_each_field(|f| {
            for &v in f {
                max_abs = max_abs.max(v.abs());
            }
        });
        ours.for_each_field(|f| {
            let s: f64 = f.iter().sum();
            assert!(s.abs() <= 1e-10 * max_abs.max(1.0), "sum {s}");
        });
    }

    #[test]
    #[should_panic(expected = "chunk count")]
    fn zero_chunks_panics() {
        let mesh = BoxMeshBuilder::tgv_box(3).build().unwrap();
        let basis = HexBasis::new(1).unwrap();
        let cfg = TgvConfig::standard();
        let gas = cfg.gas();
        let state = cfg.initial_state(&mesh);
        let mut prim = Primitives::zeros(mesh.num_nodes());
        prim.update_from(&state, &gas);
        let geometry = GeometryCache::build(&mesh, &basis).unwrap();
        assemble_chunked(&mesh, &basis, &gas, &geometry, &state, &prim, 0);
    }

    proptest! {
        #[test]
        fn prop_colored_and_chunked_agree_with_serial(
            nx in 3usize..6,
            ny in 3usize..6,
            nz in 3usize..6,
            periodic in proptest::bool::ANY,
            chunks in 2usize..9,
        ) {
            let mut b = BoxMeshBuilder::new();
            b.elements(nx, ny, nz).periodic(periodic, periodic, periodic);
            let mesh = b.build().unwrap();
            let basis = HexBasis::new(1).unwrap();
            let cfg = TgvConfig::standard();
            let gas = cfg.gas();
            let state = cfg.initial_state(&mesh);
            let mut prim = Primitives::zeros(mesh.num_nodes());
            prim.update_from(&state, &gas);
            let coloring = ElementColoring::greedy(&mesh);
            prop_assert!(coloring.is_valid(&mesh));
            let geometry = GeometryCache::build(&mesh, &basis).unwrap();

            let reference = serial_reference(&mesh, &basis, &gas, &geometry, &state, &prim);
            let ref_flat = flat(&reference);
            // Floored scale: degenerate random boxes (e.g. 4 elements per
            // period) cancel symmetric contributions to ~0.
            let scale = ref_flat.iter().fold(1.0f64, |m, &v| m.max(v.abs()));

            let chunked = assemble_chunked(&mesh, &basis, &gas, &geometry, &state, &prim, chunks);
            for (a, b) in ref_flat.iter().zip(&flat(&chunked)) {
                prop_assert!((a - b).abs() <= 1e-12 * scale, "chunked: {} vs {}", a, b);
            }

            let mut colored = Conserved::zeros(mesh.num_nodes());
            assemble_rhs_colored_into(
                &mesh, &basis, &gas, &geometry, &state, &prim, &coloring,
                KernelPath::SumFactored, &mut colored, None,
            );
            for (a, b) in ref_flat.iter().zip(&flat(&colored)) {
                prop_assert!((a - b).abs() <= 1e-12 * scale, "colored: {} vs {}", a, b);
            }

            // Colored grouping is schedule-independent: two different
            // chunk granularities give bitwise-equal results.
            let mut again = Conserved::zeros(mesh.num_nodes());
            assemble_rhs_colored_with_chunk(
                &mesh, &basis, &gas, &geometry, &state, &prim, &coloring, chunks,
                KernelPath::SumFactored, &mut again, None,
            );
            prop_assert_eq!(bits(&colored), bits(&again));
        }

        /// The fused single-contraction kernel matches the split
        /// convective+viscous reference at ≤1e-12 relative error on
        /// randomized meshes, polynomial orders, and gas models, under
        /// all three assembly strategies.
        #[test]
        fn prop_fused_matches_split_across_strategies(
            nx in 3usize..5,
            ny in 3usize..5,
            nz in 3usize..5,
            order in 1usize..3,
            periodic in proptest::bool::ANY,
            chunks in 2usize..7,
            mach in 0.05f64..0.4,
            reynolds in 50.0f64..5000.0,
        ) {
            let mut b = BoxMeshBuilder::new();
            b.elements(nx, ny, nz)
                .order(order)
                .periodic(periodic, periodic, periodic);
            let mesh = b.build().unwrap();
            let basis = HexBasis::new(order).unwrap();
            let cfg = TgvConfig::new(mach, reynolds);
            let gas = cfg.gas();
            prop_assert!(gas.mu > 0.0, "viscous run required to exercise fusion");
            let state = cfg.initial_state(&mesh);
            let mut prim = Primitives::zeros(mesh.num_nodes());
            prim.update_from(&state, &gas);
            let coloring = ElementColoring::greedy(&mesh);
            let geometry = GeometryCache::build(&mesh, &basis).unwrap();

            for strategy in [
                AssemblyStrategy::Serial,
                AssemblyStrategy::Chunked { chunks },
                AssemblyStrategy::Colored,
            ] {
                let mut fused = Conserved::zeros(mesh.num_nodes());
                assemble_rhs_into(
                    &mesh, &basis, &gas, &geometry, &state, &prim, strategy,
                    Some(&coloring), KernelPath::SumFactored, &mut fused, None,
                );
                let mut split = Conserved::zeros(mesh.num_nodes());
                assemble_rhs_split_into(
                    &mesh, &basis, &gas, &geometry, &state, &prim, strategy,
                    Some(&coloring), &mut split,
                );
                let split_flat = flat(&split);
                let scale = split_flat.iter().fold(1.0f64, |m, &v| m.max(v.abs()));
                for (a, b) in flat(&fused).iter().zip(&split_flat) {
                    prop_assert!(
                        (a - b).abs() <= 1e-12 * scale,
                        "{}: fused {} vs split {}", strategy, a, b
                    );
                }
            }
        }

        /// The sum-factored hot path matches the full-matrix validation
        /// reference at ≤1e-12 relative error on randomized meshes,
        /// polynomial orders 1..4, viscous *and* inviscid gas models,
        /// under all three assembly strategies — the tentpole's factored ≡
        /// full guarantee at the assembly level.
        #[test]
        fn prop_sum_factored_matches_full_matrix_across_strategies(
            nx in 3usize..5,
            ny in 3usize..5,
            nz in 3usize..5,
            order in 1usize..5,
            periodic in proptest::bool::ANY,
            chunks in 2usize..7,
            mach in 0.05f64..0.4,
            reynolds in 50.0f64..5000.0,
            viscous in proptest::bool::ANY,
        ) {
            let mut b = BoxMeshBuilder::new();
            b.elements(nx, ny, nz)
                .order(order)
                .periodic(periodic, periodic, periodic);
            let mesh = b.build().unwrap();
            let basis = HexBasis::new(order).unwrap();
            let cfg = TgvConfig::new(mach, reynolds);
            let gas = if viscous { cfg.gas() } else { GasModel::air(0.0) };
            let state = cfg.initial_state(&mesh);
            let mut prim = Primitives::zeros(mesh.num_nodes());
            prim.update_from(&state, &gas);
            let coloring = ElementColoring::greedy(&mesh);
            let geometry = GeometryCache::build(&mesh, &basis).unwrap();

            for strategy in [
                AssemblyStrategy::Serial,
                AssemblyStrategy::Chunked { chunks },
                AssemblyStrategy::Colored,
            ] {
                let mut factored = Conserved::zeros(mesh.num_nodes());
                assemble_rhs_into(
                    &mesh, &basis, &gas, &geometry, &state, &prim, strategy,
                    Some(&coloring), KernelPath::SumFactored, &mut factored, None,
                );
                let mut full = Conserved::zeros(mesh.num_nodes());
                assemble_rhs_into(
                    &mesh, &basis, &gas, &geometry, &state, &prim, strategy,
                    Some(&coloring), KernelPath::FullMatrix, &mut full, None,
                );
                let full_flat = flat(&full);
                let scale = full_flat.iter().fold(1.0f64, |m, &v| m.max(v.abs()));
                for (a, b) in flat(&factored).iter().zip(&full_flat) {
                    prop_assert!(
                        (a - b).abs() <= 1e-12 * scale,
                        "{} order {}: factored {} vs full {}", strategy, order, a, b
                    );
                }
            }
        }
    }
}
