//! Arena-backed numeric execution of a [`SolvePlan`](crate::plan::SolvePlan).
//!
//! The symbolic phase knows every structural shape of every elimination
//! step, so it can also lay the *numeric* phase out in memory ahead of
//! time: each step owns one contiguous row-major **panel** of
//! `rows × (cols + 1)` doubles (`[frontal | separators | rhs]`, the paper's
//! `Ā`) at a fixed offset inside a single flat arena. Each panel row is
//! padded to [`panel::stride`]`(cols + 1)` doubles, a whole number of AVX
//! vectors, so the Householder apply runs without scalar tail columns; the
//! RHS stays at column `cols` and the padding stays zero. A
//! [`WorkspaceLayout`] records those offsets plus precomputed gather
//! copy-lists (which factor block or producer-panel column range lands at
//! which destination column), and a [`Workspace`] is the reusable
//! allocation: the arena, a Householder scratch vector, the Δ vector, and
//! the per-step shape records.
//!
//! Steady-state execution ([`SolvePlan::solve_in`]) then performs **zero
//! heap allocations**: gather is `copy_from_slice` into the panel,
//! triangularization runs in place ([`orianna_math::panel::triangularize`],
//! which skips the never-used orthogonal factor), the separator factor is
//! compacted upward inside the same panel, and back-substitution reads the
//! conditional blocks straight out of the arena. The workspace survives
//! GN/LM iterations and `PlanCache` hits. The per-step record is a
//! [`StepShape`]: sizes only, since the density the reference
//! [`EliminationStep`](crate::elimination::EliminationStep) carries has no
//! production reader.
//!
//! Numeric results are **bitwise identical** to the reference
//! [`eliminate`](crate::elimination::eliminate): the panels stack the same
//! rows in the same order, the in-place triangularization replicates
//! `householder_qr`'s reflection schedule (including its sub-diagonal
//! cleanup), and back-substitution mirrors `BayesNet::back_substitute`
//! term for term.
//!
//! One rare case cannot be served from the arena: when a producing step
//! sheds *every* separator row numerically, the reference re-derives a
//! smaller separator layout for the consumer. The executor detects this
//! ([`ArenaError::Fallback`]) and `solve_in` runs the reference sweep
//! itself, preserving bitwise identity at the cost of allocations for that
//! solve only.

use crate::elimination::{Conditional, SolveError, StepShape};
use orianna_graph::{EliminationSchedule, LinearFactor, LinearSystem, Values, VarId};
use orianna_math::{macs, panel, Vec64};

/// One separator column group of a panel: where its block lives in the
/// panel and where its Δ segment lives in the stacked delta vector.
#[derive(Debug, Clone)]
pub(crate) struct SepCol {
    /// Offset of the variable's segment in Δ.
    pub delta_off: usize,
    /// Tangent dimension of the variable.
    pub width: usize,
    /// First panel column of the block.
    pub col: usize,
}

/// Where one gathered operand of a panel comes from.
#[derive(Debug, Clone)]
pub(crate) enum GatherSrc {
    /// A base factor of the linear system: copy each Jacobian block to its
    /// destination column and the factor RHS to the last panel column.
    Base {
        /// Index into `sys.factors`.
        factor: usize,
        /// Row count of the factor.
        rows: usize,
        /// `(block index, destination column, width)` per factor key.
        copies: Vec<(usize, usize, usize)>,
    },
    /// The separator factor produced by an earlier step: copy its kept
    /// rows (compacted at row `dv` of the producer panel) column-group by
    /// column-group.
    Step {
        /// Index of the producing step.
        step: usize,
        /// `(source column, destination column, width)` segments, RHS
        /// included as the final width-1 segment.
        segs: Vec<(usize, usize, usize)>,
    },
}

/// Precomputed layout of one elimination step's panel.
#[derive(Debug, Clone)]
pub(crate) struct PanelLayout {
    /// Frontal variable.
    pub var: VarId,
    /// Arena offset of the panel.
    pub offset: usize,
    /// Structural row bound (actual stacked rows can be fewer).
    pub rows: usize,
    /// Panel width: frontal + separator columns + 1 RHS column.
    pub width: usize,
    /// Row stride of the panel: `width` padded to whole AVX vectors.
    pub stride: usize,
    /// Frontal dimension.
    pub dv: usize,
    /// Gather copy-lists in plan gather order.
    pub srcs: Vec<GatherSrc>,
    /// Offset of the frontal variable's segment in Δ.
    pub var_offset: usize,
    /// Separator column groups in layout (sorted-id) order.
    pub sep_cols: Vec<SepCol>,
}

/// The full arena layout of a plan's schedule.
#[derive(Debug, Clone)]
pub(crate) struct WorkspaceLayout {
    pub panels: Vec<PanelLayout>,
    /// Total arena length in doubles.
    pub arena_len: usize,
    /// Largest panel row count (sizes the Householder scratch vector).
    pub max_rows: usize,
    /// Largest frontal dimension (sizes the back-substitution RHS buffer).
    pub max_dv: usize,
    /// Length of the stacked Δ vector.
    pub delta_len: usize,
}

/// Why the arena executor could not complete a run.
pub(crate) enum ArenaError {
    /// A planned separator factor shed every row; the separator layout of
    /// a downstream step no longer matches the symbolic one. Run the
    /// reference sweep instead.
    Fallback,
    /// A genuine solve failure (same as the reference path would report).
    Solve(SolveError),
}

impl WorkspaceLayout {
    /// Computes panel offsets and gather copy-lists from a schedule's
    /// symbolic steps.
    pub(crate) fn build(schedule: &EliminationSchedule) -> Self {
        let var_dims = schedule.var_dims();
        let steps = schedule.steps();
        let mut var_offsets = Vec::with_capacity(var_dims.len());
        let mut delta_len = 0;
        for &d in var_dims {
            var_offsets.push(delta_len);
            delta_len += d;
        }
        let mut panels = Vec::with_capacity(steps.len());
        let mut offset = 0;
        let mut max_rows = 0;
        let mut max_dv = 0;
        for step in steps {
            let (var, seps, rows, cols) = (step.var, &step.seps, step.rows, step.cols);
            let dv = var_dims[var.0];
            let width = cols + 1;
            let stride = panel::stride(width);
            // Destination column of a variable in this panel's layout.
            let col_of = |k: VarId| -> usize {
                if k == var {
                    return 0;
                }
                let mut off = dv;
                for s in seps {
                    if *s == k {
                        break;
                    }
                    off += var_dims[s.0];
                }
                off
            };
            let srcs = step
                .gather
                .iter()
                .map(|&slot| match schedule.producer(slot) {
                    None => {
                        let copies = schedule
                            .slot_keys(slot)
                            .iter()
                            .enumerate()
                            .map(|(bi, k)| (bi, col_of(*k), var_dims[k.0]))
                            .collect();
                        GatherSrc::Base {
                            factor: slot,
                            rows: schedule.slot_rows(slot),
                            copies,
                        }
                    }
                    Some(p) => {
                        let producer = &steps[p];
                        let mut segs = Vec::with_capacity(producer.seps.len() + 1);
                        let mut src_col = var_dims[producer.var.0];
                        for s in &producer.seps {
                            let w = var_dims[s.0];
                            segs.push((src_col, col_of(*s), w));
                            src_col += w;
                        }
                        // Producer RHS column → this panel's RHS column.
                        segs.push((producer.cols, cols, 1));
                        GatherSrc::Step { step: p, segs }
                    }
                })
                .collect();
            let sep_cols = seps
                .iter()
                .map(|s| SepCol {
                    delta_off: var_offsets[s.0],
                    width: var_dims[s.0],
                    col: col_of(*s),
                })
                .collect();
            panels.push(PanelLayout {
                var,
                offset,
                rows,
                width,
                stride,
                dv,
                srcs,
                var_offset: var_offsets[var.0],
                sep_cols,
            });
            offset += rows * stride;
            max_rows = max_rows.max(rows);
            max_dv = max_dv.max(dv);
        }
        Self {
            panels,
            arena_len: offset,
            max_rows,
            max_dv,
            delta_len,
        }
    }

    /// Allocates a workspace sized for this layout.
    pub(crate) fn workspace(&self, fingerprint: u64) -> Workspace {
        Workspace {
            id: next_workspace_id(),
            fingerprint,
            arena: vec![0.0; self.arena_len],
            vbuf: vec![0.0; self.max_rows],
            rhs_buf: vec![0.0; self.max_dv],
            live_rows: vec![0; self.panels.len()],
            delta: Vec64::zeros(self.delta_len),
            stats: Vec::with_capacity(self.panels.len()),
            warm: Box::default(),
        }
    }

    /// Runs the full elimination sweep inside `ws`'s arena. Allocation-free.
    ///
    /// After `Ok(())`, each panel holds its conditional in rows `0..dv`
    /// (upper-triangular `R`, separator blocks, RHS in the last column) and
    /// its kept separator-factor rows compacted at rows `dv..dv + kept`;
    /// `ws.live_rows[i]` records `kept` and `ws.stats` the per-step shape
    /// records.
    pub(crate) fn eliminate_in(
        &self,
        sys: &LinearSystem,
        ws: &mut Workspace,
    ) -> Result<(), ArenaError> {
        ws.reset_stats(self.panels.len());
        for i in 0..self.panels.len() {
            self.eliminate_panel(sys, ws, i)?;
        }
        Ok(())
    }

    /// Executes elimination step `i` inside the arena: gathers the panel,
    /// records its stat, triangularizes in place, and compacts the kept
    /// separator rows. Every producer panel (smaller index, so lower
    /// arena offset) must already be complete.
    fn eliminate_panel(
        &self,
        sys: &LinearSystem,
        ws: &mut Workspace,
        i: usize,
    ) -> Result<(), ArenaError> {
        let pl = &self.panels[i];
        // Producers sit below this panel's offset, so splitting there
        // gives a shared view of every producer beside the panel itself.
        let (producers, rest) = ws.arena.split_at_mut(pl.offset);
        let (width, stride) = (pl.width, pl.stride);
        let panel_buf = &mut rest[..pl.rows * stride];
        panel_buf.fill(0.0);

        // Gather: stack sources in plan order, bitwise the rows the
        // reference stacks via `Mat::set_block`.
        let mut row = 0usize;
        let mut gathered = 0usize;
        for src in &pl.srcs {
            match src {
                GatherSrc::Base {
                    factor,
                    rows,
                    copies,
                } => {
                    let f = &sys.factors[*factor];
                    for &(bi, dst_col, w) in copies {
                        let blk = &f.blocks[bi];
                        for r in 0..*rows {
                            panel_buf[(row + r) * stride + dst_col..][..w]
                                .copy_from_slice(blk.row(r));
                        }
                    }
                    for r in 0..*rows {
                        panel_buf[(row + r) * stride + width - 1] = f.rhs[r];
                    }
                    row += rows;
                    gathered += 1;
                }
                GatherSrc::Step { step, segs } => {
                    let live = ws.live_rows[*step];
                    if live == 0 {
                        // The producer shed every row: the reference
                        // would re-derive a smaller separator layout
                        // here. Bail to the reference sweep.
                        return Err(ArenaError::Fallback);
                    }
                    let pp = &self.panels[*step];
                    let src_panel = &producers[pp.offset..pp.offset + pp.rows * pp.stride];
                    for r in 0..live {
                        let srow = (pp.dv + r) * pp.stride;
                        let drow = (row + r) * stride;
                        for &(sc, dc, w) in segs {
                            panel_buf[drow + dc..drow + dc + w]
                                .copy_from_slice(&src_panel[srow + sc..srow + sc + w]);
                        }
                    }
                    row += live;
                    gathered += 1;
                }
            }
        }

        ws.stats[i] = StepShape {
            var: pl.var,
            rows: row,
            cols: width - 1,
            gathered,
        };

        if row < pl.dv {
            return Err(ArenaError::Solve(SolveError::SingularVariable(pl.var)));
        }

        // In-place R-only triangularization: bitwise identical to
        // `householder_qr(&abar).r` on the same stacked rows.
        panel::triangularize(
            &mut panel_buf[..row * stride],
            row,
            width,
            stride,
            &mut ws.vbuf[..row.max(1)],
        );

        for d in 0..pl.dv {
            if panel_buf[d * stride + d].abs() < 1e-12 {
                return Err(ArenaError::Solve(SolveError::SingularVariable(pl.var)));
            }
        }

        // Separator factor: keep the numerically non-trivial rows of
        // `dv..min(row, cols + 1)` and compact them to start at `dv`.
        let mut kept = 0usize;
        if !pl.sep_cols.is_empty() {
            let last = row.min(width);
            for r in pl.dv..last {
                let base = r * stride;
                let nonzero = panel_buf[base + pl.dv..base + width]
                    .iter()
                    .any(|x| x.abs() > 1e-12);
                if nonzero {
                    let dst = (pl.dv + kept) * stride;
                    if dst != base {
                        panel_buf.copy_within(base..base + width, dst);
                    }
                    kept += 1;
                }
            }
        }
        ws.live_rows[i] = kept;
        Ok(())
    }

    /// Back-substitution straight out of the arena, mirroring
    /// `BayesNet::back_substitute` (same accumulation order, same MAC
    /// accounting, same singularity threshold). Allocation-free; fills
    /// `ws.delta`.
    pub(crate) fn back_substitute_in(&self, ws: &mut Workspace) -> Result<(), SolveError> {
        let delta = ws.delta.as_mut_slice();
        delta.fill(0.0);
        for i in (0..self.panels.len()).rev() {
            // Parents (later panels) already wrote their Δ segments.
            self.solve_panel(&ws.arena, delta, i, &mut ws.rhs_buf)?;
        }
        Ok(())
    }

    /// Solves panel `i`'s Δ segment out of the arena: `rb` accumulates
    /// `rhs − Σ Sⱼ Δ_parent`, the dv×dv triangular block solves in place,
    /// and the result is copied into `delta[var_offset..var_offset + dv]`
    /// last.
    fn solve_panel(
        &self,
        arena: &[f64],
        delta: &mut [f64],
        i: usize,
        rhs_buf: &mut [f64],
    ) -> Result<(), SolveError> {
        let pl = &self.panels[i];
        let panel_buf = &arena[pl.offset..pl.offset + pl.rows * pl.stride];
        let rb = &mut rhs_buf[..pl.dv];
        for (d, r) in rb.iter_mut().enumerate() {
            *r = panel_buf[d * pl.stride + pl.width - 1];
        }
        // rhs − Σ Sⱼ Δ_parent, one parent at a time like the reference.
        for sc in &pl.sep_cols {
            let dp = &delta[sc.delta_off..sc.delta_off + sc.width];
            for (d, r) in rb.iter_mut().enumerate() {
                let srow = d * pl.stride + sc.col;
                let mut acc = 0.0;
                for (c, dv_c) in dp.iter().enumerate() {
                    acc += panel_buf[srow + c] * dv_c;
                }
                *r -= acc;
            }
            // `mul_vec` records dv·w MACs and the subtraction dv more.
            macs::record(pl.dv * sc.width + pl.dv);
        }
        // Triangular solve of the dv×dv diagonal block, mirroring
        // `triangular::back_substitute` (rb doubles as x: entry j > i
        // already holds Δⱼ when row i reads it).
        for i in (0..pl.dv).rev() {
            let mut acc = rb[i];
            let prow = i * pl.stride;
            for j in i + 1..pl.dv {
                acc -= panel_buf[prow + j] * rb[j];
            }
            macs::record(pl.dv - i);
            let d = panel_buf[prow + i];
            if d.abs() < 1e-13 {
                return Err(SolveError::SingularVariable(pl.var));
            }
            rb[i] = acc / d;
        }
        delta[pl.var_offset..pl.var_offset + pl.dv].copy_from_slice(rb);
        Ok(())
    }
}

/// Hands out process-unique workspace ids. Pool-accounting code (the
/// server's sharded cache, the concurrency stress tests) uses the id to
/// prove a parked arena is never checked out twice concurrently — two
/// distinct allocations can never share an id.
fn next_workspace_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The reusable numeric state of arena-backed execution: one flat arena
/// holding every panel, plus the scratch vectors and outputs. Created by
/// [`SolvePlan::workspace`](crate::plan::SolvePlan::workspace); valid only
/// for the plan (fingerprint) that created it.
#[derive(Debug)]
pub struct Workspace {
    /// Process-unique identity of this allocation (fresh on clone).
    pub(crate) id: u64,
    pub(crate) fingerprint: u64,
    pub(crate) arena: Vec<f64>,
    /// Householder scratch (`max_rows` long).
    pub(crate) vbuf: Vec<f64>,
    /// Back-substitution RHS scratch (`max_dv` long).
    pub(crate) rhs_buf: Vec<f64>,
    /// Kept separator-factor rows per step, refreshed every run.
    pub(crate) live_rows: Vec<usize>,
    /// The solved Δ of the latest run.
    pub(crate) delta: Vec64,
    /// Per-step shape records of the latest run.
    pub(crate) stats: Vec<StepShape>,
    /// The GN/LM construction buffers (boxed: they travel with the
    /// workspace through every park and checkout, and stay warm).
    pub(crate) warm: Box<WarmBuffers>,
}

/// The Gauss-Newton / Levenberg-Marquardt buffers around the arena solve,
/// warm across iterations and across solves that check their workspace
/// out again. Their shapes follow the first solve; a system of another
/// structure is simply rebuilt.
#[derive(Debug, Clone, Default)]
pub(crate) struct WarmBuffers {
    /// The linearized system, refilled in place by
    /// `FactorGraph::linearize_into`.
    pub(crate) sys: LinearSystem,
    /// LM's damping rows, parked while the graph rows are refilled.
    pub(crate) damping: Vec<LinearFactor>,
    /// The scaled line-search step.
    pub(crate) step: Vec64,
    /// The candidate estimates being scored (`Values::retract_all_into`).
    pub(crate) trial: Values,
    /// The best-scoring GN line-search candidate so far.
    pub(crate) best: Values,
}

impl Clone for Workspace {
    /// Clones the numeric state under a **fresh id**: identity tracks the
    /// allocation, not the contents, so a clone parked in a pool is never
    /// mistaken for its original.
    fn clone(&self) -> Self {
        Self {
            id: next_workspace_id(),
            fingerprint: self.fingerprint,
            arena: self.arena.clone(),
            vbuf: self.vbuf.clone(),
            rhs_buf: self.rhs_buf.clone(),
            live_rows: self.live_rows.clone(),
            delta: self.delta.clone(),
            stats: self.stats.clone(),
            warm: self.warm.clone(),
        }
    }
}

impl Workspace {
    /// Process-unique identity of this allocation. Stable for the
    /// lifetime of the workspace; never reused by another allocation
    /// (clones get fresh ids). Pool implementations key their
    /// double-checkout/lost-workspace accounting on it.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Fingerprint of the plan this workspace was sized for.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The Δ vector computed by the latest [`SolvePlan::solve_in`]
    /// (crate::plan::SolvePlan::solve_in) run.
    pub fn delta(&self) -> &Vec64 {
        &self.delta
    }

    /// Per-step shape records of the latest run (elimination order):
    /// equal to [`EliminationStats::shapes`](crate::EliminationStats::shapes)
    /// of the reference sweep on the same system.
    pub fn stats(&self) -> &[StepShape] {
        &self.stats
    }

    /// Arena footprint in doubles (panel storage only, padding included).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Resets `stats` to `n` placeholder records written by step index
    /// during a sweep. `resize` reuses capacity after the first call, so
    /// steady-state sweeps stay allocation-free.
    pub(crate) fn reset_stats(&mut self, n: usize) {
        self.stats.clear();
        self.stats.resize(
            n,
            StepShape {
                var: VarId(0),
                rows: 0,
                cols: 0,
                gathered: 0,
            },
        );
    }
}

/// Recycles clique-slab buffers across Bayes-tree surgery. When an
/// affected clique is detached its slab buffer returns here; the cliques
/// re-eliminated in its place draw from the pool, so steady-state
/// streaming updates allocate no new slab storage. Unlike the monolithic
/// [`Workspace`] arena — invalidated wholesale by any topology change —
/// the pool only ever touches the buffers of *affected* cliques.
#[derive(Debug, Clone, Default)]
pub struct SlabPool {
    free: Vec<Vec<f64>>,
    takes: usize,
    reuses: usize,
}

/// Retained free buffers beyond this are dropped (bounds pool growth when
/// a rebuild releases a whole tree at once).
const SLAB_POOL_CAP: usize = 256;

impl SlabPool {
    /// Hands out a zero-filled buffer of exactly `len` doubles, reusing a
    /// returned buffer's allocation when one is available.
    fn take(&mut self, len: usize) -> Vec<f64> {
        self.takes += 1;
        match self.free.pop() {
            Some(mut buf) => {
                self.reuses += 1;
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Returns a slab buffer to the pool.
    fn put(&mut self, buf: Vec<f64>) {
        if self.free.len() < SLAB_POOL_CAP {
            self.free.push(buf);
        }
    }

    /// Buffers handed out in total.
    pub fn takes(&self) -> usize {
        self.takes
    }

    /// Buffers served from a recycled allocation.
    pub fn reuses(&self) -> usize {
        self.reuses
    }
}

/// Packed layout of one conditional inside a [`CliqueSlab`] buffer:
/// `R` (dv×dv row-major), the parent blocks (dv×width row-major each) and
/// the RHS, all at fixed offsets.
#[derive(Debug, Clone)]
struct SlabCond {
    var: VarId,
    dv: usize,
    r_off: usize,
    rhs_off: usize,
    /// `(parent var, buffer offset, width)` in separator-layout order.
    parents: Vec<(VarId, usize, usize)>,
}

/// The packed conditional payload of one Bayes-tree clique: every frontal
/// conditional's `[R | S… | d]` rows in a single pooled buffer. The slab
/// lives as long as the clique — re-eliminating a disjoint part of the
/// tree never touches it — and back-substitution solves straight out of
/// the packed storage.
#[derive(Debug, Clone, Default)]
pub struct CliqueSlab {
    buf: Vec<f64>,
    conds: Vec<SlabCond>,
}

impl CliqueSlab {
    /// Packs the conditionals of one clique (frontals in elimination
    /// order) into a pooled buffer.
    pub(crate) fn pack(conds: &[Conditional], pool: &mut SlabPool) -> Self {
        let len: usize = conds
            .iter()
            .map(|c| {
                let dv = c.r.rows();
                dv * dv + dv + c.parents.iter().map(|(_, s)| dv * s.cols()).sum::<usize>()
            })
            .sum();
        let mut buf = pool.take(len);
        let mut metas = Vec::with_capacity(conds.len());
        let mut off = 0;
        for c in conds {
            let dv = c.r.rows();
            let r_off = off;
            for d in 0..dv {
                buf[off..off + dv].copy_from_slice(c.r.row(d));
                off += dv;
            }
            let mut parents = Vec::with_capacity(c.parents.len());
            for (p, s) in &c.parents {
                let w = s.cols();
                parents.push((*p, off, w));
                for d in 0..dv {
                    buf[off..off + w].copy_from_slice(s.row(d));
                    off += w;
                }
            }
            let rhs_off = off;
            for d in 0..dv {
                buf[off + d] = c.rhs[d];
            }
            off += dv;
            metas.push(SlabCond {
                var: c.var,
                dv,
                r_off,
                rhs_off,
                parents,
            });
        }
        debug_assert_eq!(off, len);
        Self { buf, conds: metas }
    }

    /// Returns the slab's buffer to the pool.
    pub(crate) fn release(self, pool: &mut SlabPool) {
        pool.put(self.buf);
    }

    /// Number of packed conditionals (= clique frontals).
    pub(crate) fn cond_count(&self) -> usize {
        self.conds.len()
    }

    /// Frontal variable of conditional `i`.
    pub(crate) fn cond_var(&self, i: usize) -> VarId {
        self.conds[i].var
    }

    /// Solves conditional `i` for its frontal segment given the current
    /// stacked Δ (parents must already hold their solved values):
    /// `out = R⁻¹ (d − Σ Sⱼ Δ_parent(j))`. Mirrors
    /// [`BayesNet::back_substitute`](crate::elimination::BayesNet::back_substitute)
    /// term for term on the packed storage. Returns `None` on a
    /// numerically singular diagonal.
    pub(crate) fn solve_cond(
        &self,
        i: usize,
        delta: &Vec64,
        offsets: &[usize],
        out: &mut Vec<f64>,
    ) -> Option<()> {
        let c = &self.conds[i];
        out.clear();
        out.extend_from_slice(&self.buf[c.rhs_off..c.rhs_off + c.dv]);
        for &(p, off, w) in &c.parents {
            let po = offsets[p.0];
            let dp = &delta.as_slice()[po..po + w];
            for (d, o) in out.iter_mut().enumerate() {
                let row = &self.buf[off + d * w..off + d * w + w];
                let mut acc = 0.0;
                for (&s, &x) in row.iter().zip(dp) {
                    acc += s * x;
                }
                *o -= acc;
            }
            macs::record(c.dv * w);
        }
        // In-place back-substitution on the packed upper-triangular R.
        for d in (0..c.dv).rev() {
            let row = &self.buf[c.r_off + d * c.dv..c.r_off + (d + 1) * c.dv];
            let mut acc = out[d];
            for j in d + 1..c.dv {
                acc -= row[j] * out[j];
            }
            let diag = row[d];
            if diag.abs() < 1e-13 {
                return None;
            }
            out[d] = acc / diag;
            macs::record(c.dv - d);
        }
        Some(())
    }
}

#[cfg(test)]
mod slab_tests {
    use super::*;
    use orianna_graph::VarId;
    use orianna_math::Mat;

    fn cond(var: usize, parents: &[(usize, usize)], dv: usize) -> Conditional {
        let mut r = Mat::zeros(dv, dv);
        for i in 0..dv {
            for j in i..dv {
                r[(i, j)] = 1.0 + (var + i + 2 * j) as f64 * 0.25;
            }
        }
        let mut rhs = Vec64::zeros(dv);
        for i in 0..dv {
            rhs[i] = (var + i) as f64 * 0.5 - 1.0;
        }
        let parents = parents
            .iter()
            .map(|&(p, w)| {
                let mut s = Mat::zeros(dv, w);
                for i in 0..dv {
                    for j in 0..w {
                        s[(i, j)] = (p + i) as f64 * 0.1 - j as f64 * 0.3;
                    }
                }
                (VarId(p), s)
            })
            .collect();
        Conditional {
            var: VarId(var),
            r,
            parents,
            rhs,
        }
    }

    /// Slab solves match the reference conditional arithmetic exactly
    /// (same term order ⇒ bitwise).
    #[test]
    fn slab_solve_matches_reference() {
        let conds = vec![cond(0, &[(1, 3), (2, 2)], 3), cond(1, &[(2, 2)], 3)];
        let var_dims = [3usize, 3, 2];
        let offsets = [0usize, 3, 6];
        let mut delta = Vec64::zeros(8);
        for i in 0..8 {
            delta[i] = (i as f64 * 0.37).sin();
        }
        let mut pool = SlabPool::default();
        let slab = CliqueSlab::pack(&conds, &mut pool);
        let mut out = Vec::new();
        for (i, c) in conds.iter().enumerate() {
            slab.solve_cond(i, &delta, &offsets, &mut out).unwrap();
            // Reference: rhs − Σ S Δp, then triangular back-substitution.
            let mut rhs = c.rhs.clone();
            for (p, s) in &c.parents {
                let dp = delta.segment(offsets[p.0], var_dims[p.0]);
                rhs = &rhs - &s.mul_vec(&dp);
            }
            let dv = orianna_math::triangular::back_substitute(&c.r, &rhs).unwrap();
            for d in 0..c.r.rows() {
                assert_eq!(out[d], dv[d], "cond {i} row {d}");
            }
        }
    }

    /// Released buffers are reused by later packs.
    #[test]
    fn pool_recycles_buffers() {
        let mut pool = SlabPool::default();
        let slab = CliqueSlab::pack(&[cond(0, &[(1, 2)], 2)], &mut pool);
        assert_eq!((pool.takes(), pool.reuses()), (1, 0));
        slab.release(&mut pool);
        let slab2 = CliqueSlab::pack(&[cond(3, &[], 3)], &mut pool);
        assert_eq!((pool.takes(), pool.reuses()), (2, 1));
        let mut out = Vec::new();
        assert!(slab2
            .solve_cond(0, &Vec64::zeros(12), &[0, 2, 4, 6], &mut out)
            .is_some());
    }

    /// A singular packed diagonal reports `None` instead of dividing.
    #[test]
    fn singular_diagonal_is_detected() {
        let mut c = cond(0, &[], 2);
        c.r[(1, 1)] = 0.0;
        let mut pool = SlabPool::default();
        let slab = CliqueSlab::pack(&[c], &mut pool);
        let mut out = Vec::new();
        assert!(slab
            .solve_cond(0, &Vec64::zeros(2), &[0], &mut out)
            .is_none());
    }
}
