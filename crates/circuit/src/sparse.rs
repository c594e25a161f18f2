//! Sparse-structure support for the transient solver.
//!
//! The backward-Euler system matrix `G + C/Δt` of an extracted memory
//! array is sparse and, after node reordering, nearly banded: wordlines,
//! bitlines and RC ladders are chains, and drivers/switches attach at
//! chain ends. This module supplies the pieces the solver needs to
//! exploit that:
//!
//! * [`rcm_order`] — a reverse Cuthill–McKee ordering of the circuit's
//!   connectivity graph, which compresses chain-structured systems to
//!   half-bandwidth 1 regardless of node insertion order;
//! * [`Banded`] — a banded matrix with an in-place LU factorization
//!   (no pivoting; the stamped systems are symmetric and diagonally
//!   dominant, for which elimination without pivoting is stable) and an
//!   in-place step ([`Banded::step`]) that scales each row as forward
//!   substitution reaches it, then back-substitutes;
//! * [`TridiagonalPanel`] — several tridiagonal systems, one per panel
//!   column, each with its own row count, factored from both ends
//!   ([`TridiagonalPanel::set_column`]) and stepped together
//!   [`PANEL_LANES`] columns (one lane group) at a time with every
//!   chain's running value held in a register.
//!
//! Factoring a half-bandwidth-`k` system costs `O(n·k²)` and each solve
//! `O(n·k)`, versus `O(n³)` / `O(n²)` for a dense LU — a ~100×
//! reduction for the tridiagonal-ish ladders the golden flow simulates.
//! The factorizations keep the reciprocal of each pivot so the
//! per-step back-substitution multiplies instead of divides; at `k = 1`
//! the division was the single most expensive operation per node-step.
//! What remains at `k = 1` is a serial recurrence (each row needs the
//! row before it), so a tridiagonal solve is bound by latency, not by
//! arithmetic. The panel shortens and overlaps those recurrences: each
//! column is eliminated from its first row downward and from its last
//! row upward to a middle row ([`middle_row`]), so a step is two
//! independent chains of about `n/2` rows per column, and one sweep
//! advances the 2·[`PANEL_LANES`] chains of a lane group together. Each
//! row of a chain is one fused multiply-add on its predecessor's value,
//! so a recurrence step waits on one rounding, not two or three; the
//! step runs the copy compiled for FMA3 where the CPU has it and the
//! baseline copy, with the same bits, elsewhere. The sweep folds the
//! transient's `C/Δt` history multiply into its forward pass (one fewer
//! pass over the panel per step) and goes only as far as its caller
//! asks.

/// Undirected adjacency lists over `n` nodes built from an edge
/// iterator. Self-loops are ignored; duplicate edges are deduplicated.
pub fn adjacency(n: usize, edges: impl Iterator<Item = (usize, usize)>) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); n];
    // Collect with duplicates, then sort+dedup each list once. Probing
    // with `contains` on insert is O(deg²) per node, which a high-fanout
    // driver (a wordline touching every bitcell) turns quadratic.
    for (a, b) in edges {
        if a == b || a >= n || b >= n {
            continue;
        }
        adj[a].push(b);
        adj[b].push(a);
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

/// Reverse Cuthill–McKee ordering: returns `order` with
/// `order[position] = original node index`. Disconnected components are
/// each seeded from their minimum-degree node.
pub fn rcm_order(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    // Seed candidates sorted by (degree, index) once, consumed by a
    // rolling cursor. Rescanning all n nodes per component makes a
    // netlist with many isolated nodes (tie-offs after extraction)
    // O(n²); the cursor keeps total seeding cost at O(n log n). The
    // cursor's next unvisited entry is exactly the minimum-degree
    // unvisited node, so orderings are unchanged.
    let mut seeds: Vec<usize> = (0..n).collect();
    seeds.sort_unstable_by_key(|&i| (adj[i].len(), i));
    let mut cursor = 0;
    while cursor < n {
        let seed = seeds[cursor];
        cursor += 1;
        if visited[seed] {
            continue;
        }
        visited[seed] = true;
        queue.push_back(seed);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            let mut next: Vec<usize> = adj[u].iter().copied().filter(|&v| !visited[v]).collect();
            next.sort_unstable_by_key(|&v| (adj[v].len(), v));
            for v in next {
                visited[v] = true;
                queue.push_back(v);
            }
        }
    }
    order.reverse();
    order
}

/// Inverts an ordering: `pos[node] = position of node in order`.
pub fn positions(order: &[usize]) -> Vec<usize> {
    let mut pos = vec![0usize; order.len()];
    for (p, &node) in order.iter().enumerate() {
        pos[node] = p;
    }
    pos
}

/// Half-bandwidth of the permuted matrix: `max |pos[a] − pos[b]|` over
/// all edges (0 for a diagonal system).
pub fn half_bandwidth(adj: &[Vec<usize>], pos: &[usize]) -> usize {
    let mut k = 0usize;
    for (a, neighbours) in adj.iter().enumerate() {
        for &b in neighbours {
            k = k.max(pos[a].abs_diff(pos[b]));
        }
    }
    k
}

/// A pivot rejected by [`Banded::factor`] or
/// [`TridiagonalPanel::set_column`]: the permuted row whose pivot
/// magnitude fell below the row-relative threshold, with the offending
/// magnitude itself (so callers can report *how* singular the system
/// was, not just where).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PivotError {
    /// Permuted row (= column) of the failing pivot.
    pub row: usize,
    /// Magnitude of the rejected pivot.
    pub magnitude: f64,
}

/// Pivot acceptance threshold, relative to the largest magnitude in the
/// pivot's row of the assembled matrix. An absolute threshold is
/// scale-dependent: a femtofarad-scaled system (entries ~1e-15) would
/// false-trip it, while a badly scaled one could pass a garbage pivot.
const REL_PIVOT_TOL: f64 = 1e-12;

/// The reciprocal of `pivot`, the eliminated diagonal of `row`, whose
/// assembled row's largest magnitude is `scale`; or the error naming
/// the row when the pivot is below `REL_PIVOT_TOL` of that scale (a
/// singular system, e.g. a floating node).
fn checked_inverse(row: usize, pivot: f64, scale: f64) -> Result<f64, PivotError> {
    if pivot.abs() < REL_PIVOT_TOL * scale || scale == 0.0 {
        return Err(PivotError {
            row,
            magnitude: pivot.abs(),
        });
    }
    Ok(1.0 / pivot)
}

/// A square banded matrix of half-bandwidth `k`, stored row-major with
/// `2k+1` slots per row. Doubles as its own LU container after
/// [`Banded::factor`].
#[derive(Debug, Clone)]
pub struct Banded {
    n: usize,
    k: usize,
    data: Vec<f64>,
    /// Reciprocals of the U diagonal, filled by [`Banded::factor`] so
    /// solves multiply instead of divide.
    inv_diag: Vec<f64>,
}

impl Banded {
    /// An `n×n` zero matrix of half-bandwidth `k`.
    pub fn zeros(n: usize, k: usize) -> Banded {
        Banded {
            n,
            k,
            data: vec![0.0; n * (2 * k + 1)],
            inv_diag: Vec::new(),
        }
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i.abs_diff(j) <= self.k, "({i},{j}) outside band k={}", self.k);
        i * (2 * self.k + 1) + (j + self.k - i)
    }

    /// Entry `(i, j)`; must lie within the band.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[self.idx(i, j)]
    }

    /// Adds `v` to entry `(i, j)`; must lie within the band.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        let idx = self.idx(i, j);
        self.data[idx] += v;
    }

    /// Largest magnitude stored in row `i`: the scale the relative
    /// pivot test compares against, read before elimination rewrites
    /// the row.
    fn row_scale(&self, i: usize) -> f64 {
        let width = 2 * self.k + 1;
        self.data[i * width..(i + 1) * width]
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// In-place LU factorization without pivoting. Also records the
    /// reciprocal of each pivot for the solves.
    ///
    /// # Errors
    ///
    /// Returns a [`PivotError`] naming the offending row when a pivot
    /// magnitude falls below `REL_PIVOT_TOL` (1e-12) of its row's largest
    /// assembled magnitude (a singular system, e.g. a floating node).
    pub fn factor(&mut self) -> Result<(), PivotError> {
        let (n, k) = (self.n, self.k);
        // Row scales from the assembled matrix, before elimination
        // rewrites it: the relative pivot test compares against what
        // the row originally looked like.
        let row_scale: Vec<f64> = (0..n).map(|i| self.row_scale(i)).collect();
        self.inv_diag.clear();
        self.inv_diag.reserve(n);
        for (col, &scale) in row_scale.iter().enumerate() {
            let pivot = self.get(col, col);
            self.inv_diag.push(checked_inverse(col, pivot, scale)?);
            let row_end = (col + k).min(n.saturating_sub(1));
            for row in col + 1..=row_end {
                let factor = self.get(row, col) / pivot;
                let idx = self.idx(row, col);
                self.data[idx] = factor;
                if factor != 0.0 {
                    for j in col + 1..=row_end {
                        let u = self.get(col, j);
                        if u != 0.0 {
                            let idx = self.idx(row, j);
                            self.data[idx] -= factor * u;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Solves `A y = diag(scale) · x` in place given a prior
    /// [`Banded::factor`]. Each row is scaled as forward substitution
    /// reaches it, so a transient step's `C/Δt` history product needs no
    /// pass of its own; a unit scale leaves its row's bits as they are.
    pub fn step(&self, x: &mut [f64], scale: &[f64]) {
        let (n, k) = (self.n, self.k);
        debug_assert!(x.len() == n && scale.len() == n);
        // Forward-substitute through L (unit diagonal).
        for i in 0..n {
            x[i] *= scale[i];
            for j in i.saturating_sub(k)..i {
                x[i] -= self.get(i, j) * x[j];
            }
        }
        // Back-substitute through U, scaling by the stored reciprocal
        // pivots instead of dividing.
        for i in (0..n).rev() {
            for j in i + 1..=(i + k).min(n - 1) {
                x[i] -= self.get(i, j) * x[j];
            }
            x[i] *= self.inv_diag[i];
        }
    }
}

/// Whether the CPU runs fused multiply-adds in hardware; cached by the
/// standard library after the first call.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
fn fma_detected() -> bool {
    std::arch::is_x86_feature_detected!("fma")
}

/// The copy of [`TridiagonalPanel::step`] this host runs: `"fma"` for
/// the one compiled with the x86 `fma` target feature, on a CPU that
/// reports it, and `"portable"` for the baseline copy everywhere else.
/// Both compute the same bits. On a target whose baseline has a fused
/// multiply-add instruction (aarch64) the baseline copy uses it; on an
/// x86-64 CPU without FMA3 each of its fused steps is a call to libm's
/// `fma`, and the step is about 11x slower.
pub fn panel_kernel() -> &'static str {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if fma_detected() {
        return "fma";
    }
    "portable"
}

/// Columns one lane group of a [`TridiagonalPanel`] steps together.
///
/// Four, not eight: each lane carries two chains (the top and bottom
/// halves of its column), so a group already advances eight
/// recurrences at once — two 4-wide AVX registers per carried row in
/// the FMA copy of [`TridiagonalPanel::step`] — and the golden flow
/// cuts its sims into panels of this many columns that fan out across
/// worker threads.
/// Eight lanes (one panel per four-configuration batch) measured slower
/// when each lane carried one chain.
pub const PANEL_LANES: usize = 4;

/// One panel row of a lane group: a value per chain, the top chains of
/// the group's lanes first, then their bottom chains.
type Chains = [f64; 2 * PANEL_LANES];

/// The middle row of an `n`-row tridiagonal column, where the two
/// chains of its elimination meet: rows `0..n/2` form the top chain and
/// rows `n/2 + 1..n` the bottom one, so the top chain is never the
/// shorter and neither has more than `n/2` rows.
pub fn middle_row(n: usize) -> usize {
    n / 2
}

/// A lane's column height and the coefficients of its middle row `m`,
/// which joins the last row of each chain.
#[derive(Debug, Clone, Copy)]
struct Middle {
    /// Rows of the lane's column (0 on a lane past the last column).
    height: usize,
    /// `A(m, m−1)` over the top chain's last pivot (0 without a top
    /// chain).
    from_top: f64,
    /// `A(m, m+1)` over the bottom chain's last pivot (0 without a
    /// bottom chain).
    from_bottom: f64,
    /// The middle pivot's reciprocal (1 on an inert lane).
    inv: f64,
    /// `A(m−1, m)`: the top chain's coupling to the middle row.
    to_top: f64,
    /// `A(m+1, m)`: the bottom chain's coupling to the middle row.
    to_bottom: f64,
}

impl Middle {
    const INERT: Middle = Middle {
        height: 0,
        from_top: 0.0,
        from_bottom: 0.0,
        inv: 1.0,
        to_top: 0.0,
        to_bottom: 0.0,
    };

    /// Rows of the top and bottom chains.
    fn chains(&self) -> (usize, usize) {
        let top = middle_row(self.height);
        (top, self.height.saturating_sub(top + 1))
    }
}

/// Tridiagonal systems factored from both ends, one per panel column,
/// laid out like the values they step.
///
/// Column `c` of `n` rows is eliminated downward from row 0 to the row
/// above its middle row `m` ([`middle_row`]) — its top chain — and
/// upward from row `n−1` to the row below `m` — its bottom chain — and
/// `m` is eliminated last against both neighbours. Its bottom half is
/// stored reversed, so both chains start on panel row 0 whatever the
/// column's height: in lane group `g` (columns `g·PANEL_LANES ..`),
/// panel row `j` holds each lane's top-chain row `j` and then each
/// lane's bottom-chain row `j` (system row `n−1−j`), and the group's
/// [`PANEL_LANES`] middle rows follow its last panel row.
/// [`TridiagonalPanel::slot`] maps a column's row to its flat index.
///
/// A chain may be shorter than the panel. The rows past its end are
/// inert — no couplings and a unit pivot — and so is every row of a
/// lane past the last column. An inert row whose value and scale are
/// `+0` stays `+0` and leaves the column's real rows bit-identical to a
/// one-column panel of the column's own height.
#[derive(Debug, Clone)]
pub struct TridiagonalPanel {
    /// Panel rows per lane group: the tallest column's top chain.
    rows: usize,
    /// Per panel row and chain: the eliminator of the chain's previous
    /// row (0 on a chain's first row and on inert rows).
    l: Vec<Chains>,
    /// Per panel row and chain: the coupling to the chain's next row
    /// toward the middle times the row's reciprocal pivot (0 on a
    /// chain's last row, whose coupling to the middle row is its lane's
    /// [`Middle`], and on inert rows).
    u: Vec<Chains>,
    /// Per panel row and chain: the pivot's reciprocal (1 on inert
    /// rows).
    inv: Vec<Chains>,
    /// Per lane.
    middle: Vec<Middle>,
}

impl TridiagonalPanel {
    /// An inert panel whose column `c` has `heights[c]` rows.
    pub fn new(heights: &[usize]) -> TridiagonalPanel {
        let rows = heights.iter().map(|&n| middle_row(n)).max().unwrap_or(0);
        let groups = heights.len().div_ceil(PANEL_LANES);
        let mut middle = vec![Middle::INERT; groups * PANEL_LANES];
        for (m, &height) in middle.iter_mut().zip(heights) {
            m.height = height;
        }
        let len = groups * rows;
        TridiagonalPanel {
            rows,
            l: vec![[0.0; 2 * PANEL_LANES]; len],
            u: vec![[0.0; 2 * PANEL_LANES]; len],
            inv: vec![[1.0; 2 * PANEL_LANES]; len],
            middle,
        }
    }

    /// Values per lane group in the flat arrays: its panel rows, then
    /// its middle rows.
    fn stride(&self) -> usize {
        (2 * self.rows + 1) * PANEL_LANES
    }

    /// Length of the flat value and scale arrays that
    /// [`TridiagonalPanel::step`] takes.
    pub fn slots(&self) -> usize {
        self.middle.len() / PANEL_LANES * self.stride()
    }

    /// Flat index of column `col`'s row `row` in the arrays that
    /// [`TridiagonalPanel::step`] takes.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range; `row` must be below the
    /// column's height.
    pub fn slot(&self, col: usize, row: usize) -> usize {
        let m = self.middle[col];
        debug_assert!(row < m.height, "row {row} of a {}-row column", m.height);
        let (base, lane) = (col / PANEL_LANES * self.stride(), col % PANEL_LANES);
        let (top, bottom) = m.chains();
        let chain = 2 * PANEL_LANES;
        match row.cmp(&top) {
            std::cmp::Ordering::Less => base + row * chain + lane,
            std::cmp::Ordering::Equal => base + self.rows * chain + lane,
            std::cmp::Ordering::Greater => base + (top + bottom - row) * chain + PANEL_LANES + lane,
        }
    }

    /// Factors `a`, the assembled (not yet factored) tridiagonal system
    /// of column `col`, from both ends and installs its factors.
    ///
    /// The top chain is eliminated downward from row 0 and the bottom
    /// chain upward from the last row, each as [`Banded::factor`]
    /// eliminates (so the top chain's eliminators and pivots are its
    /// LU's); the middle row then subtracts both neighbours'
    /// eliminators. Every pivot passes the relative test of
    /// [`Banded::factor`] against its own assembled row. Each chain
    /// row's coupling toward the middle is stored pre-scaled, as
    /// `u′ = u·(1/pivot)`, so the backward pass of
    /// [`TridiagonalPanel::step`] is one fused multiply-add per row,
    /// `fma(−u′, carry, x·inv)`, where `(x − u·carry)·inv` took a
    /// multiply, a subtract and a multiply in series.
    ///
    /// # Errors
    ///
    /// Returns a [`PivotError`] naming the first rejected row in
    /// elimination order — the top chain downward, the bottom chain
    /// upward, then the middle row. The column's factors are then
    /// partly rewritten and must be set again before it is stepped.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not stored tridiagonally, `col` is out of range,
    /// or `a`'s row count is not the column's height.
    pub fn set_column(&mut self, col: usize, a: &Banded) -> Result<(), PivotError> {
        let n = a.n;
        assert!(a.k == 1 && n == self.middle[col].height, "column shape");
        if n == 0 {
            return Ok(());
        }
        let (base, lane) = (col / PANEL_LANES * self.rows, col % PANEL_LANES);
        let m = middle_row(n);
        let (top, bottom) = self.middle[col].chains();
        let check = |row: usize, pivot: f64| checked_inverse(row, pivot, a.row_scale(row));
        // Top chain: row i eliminates row i−1.
        let mut pivot = 0.0;
        for i in 0..top {
            let (mut l, mut d) = (0.0, a.get(i, i));
            if i > 0 {
                l = a.get(i, i - 1) / pivot;
                d -= l * a.get(i - 1, i);
            }
            let inv = check(i, d)?;
            self.l[base + i][lane] = l;
            self.u[base + i][lane] = if i + 1 < top { a.get(i, i + 1) * inv } else { 0.0 };
            self.inv[base + i][lane] = inv;
            pivot = d;
        }
        let top_pivot = pivot;
        // Bottom chain, reversed: system row i = n−1−j eliminates row
        // i+1.
        for j in 0..bottom {
            let i = n - 1 - j;
            let (mut l, mut d) = (0.0, a.get(i, i));
            if j > 0 {
                l = a.get(i, i + 1) / pivot;
                d -= l * a.get(i + 1, i);
            }
            let inv = check(i, d)?;
            let chain = PANEL_LANES + lane;
            self.l[base + j][chain] = l;
            self.u[base + j][chain] = if j + 1 < bottom { a.get(i, i - 1) * inv } else { 0.0 };
            self.inv[base + j][chain] = inv;
            pivot = d;
        }
        let bottom_pivot = pivot;
        // The middle row, against the last row of each chain.
        let mid = &mut self.middle[col];
        let mut d = a.get(m, m);
        if top > 0 {
            mid.to_top = a.get(m - 1, m);
            mid.from_top = a.get(m, m - 1) / top_pivot;
            d -= mid.from_top * mid.to_top;
        }
        if bottom > 0 {
            mid.to_bottom = a.get(m + 1, m);
            mid.from_bottom = a.get(m, m + 1) / bottom_pivot;
            d -= mid.from_bottom * mid.to_bottom;
        }
        mid.inv = check(m, d)?;
        Ok(())
    }

    /// Steps every column in place: `x` and `scale` are flat panel
    /// arrays ([`TridiagonalPanel::slot`]), and each column's values
    /// become the solution of its system for right-hand side
    /// `scale · x`.
    ///
    /// `live[g]` is the height of lane group `g`'s tallest running
    /// column, and the group sweeps only the panel rows that column's
    /// chains reach: the panel rows past them, and the middle row of
    /// any (retired) column whose chains reach further, are left
    /// untouched. A group whose `live` is 0 is skipped.
    ///
    /// One step per lane group: a forward pass from both ends of every
    /// column toward its middle, then each lane's middle row, solved
    /// from the last row of both its chains and folded back into them,
    /// then a backward pass from the middle out to both ends. Each row
    /// of a pass is one fused multiply-add on the chain's carried
    /// value, rounded once: `fma(−l, carry, x·scale)` on the way in
    /// (the row's scaled right-hand side less its eliminator times the
    /// chain's previous row) and `fma(−u′, carry, x·inv)` on the way
    /// out, with the pre-scaled coupling `u′` that
    /// [`TridiagonalPanel::set_column`] stores. Each pass reads whole
    /// panel rows and carries its chains' running values in a
    /// fixed-size array, so the next row reads its predecessor from a
    /// register and the group's 2·[`PANEL_LANES`] serial recurrences
    /// overlap.
    ///
    /// Padding changes no bit. On the way in a column's real rows come
    /// before its inert ones: a chain's first row computes
    /// `fma(−0, +0, x·scale) = x·scale` exactly, and an inert row
    /// `fma(−0, c, (+0)·(+0)) = +0` for any finite incoming carry `c`.
    /// On the way out the carry reaching a chain's last row is that
    /// `+0` and meets a zero coupling (the middle's term was already
    /// folded in), so the row computes `fma(−0, +0, x·inv) = x·inv`
    /// exactly, signed zeros included. Each column is thus
    /// bit-identical to a one-column panel of its own height.
    ///
    /// The step's body is compiled twice: once with the x86 `fma`
    /// target feature, which this method runs when the CPU reports
    /// that feature at run time (one cached atomic load per call), and
    /// once for the target's baseline, which runs everywhere else. Both
    /// copies compute each fused step with [`f64::mul_add`], which is
    /// correctly rounded whether it is one instruction or libm's `fma`,
    /// so every host computes the same bits; on an x86-64 CPU without
    /// FMA3 the baseline copy is about 11x slower. [`panel_kernel`]
    /// names the copy this host runs.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `scale` is not the panel's shape, or `live` has
    /// more entries than the panel has lane groups or an entry taller
    /// than the panel's tallest column.
    pub fn step(&self, x: &mut [f64], scale: &[f64], live: &[usize]) {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if fma_detected() {
            // SAFETY: the CPU reported the `fma` feature at run time.
            return unsafe { self.step_fma(x, scale, live) };
        }
        self.sweep(x, scale, live);
    }

    /// [`TridiagonalPanel::sweep`] compiled for CPUs with FMA3.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "fma")]
    fn step_fma(&self, x: &mut [f64], scale: &[f64], live: &[usize]) {
        self.sweep(x, scale, live);
    }

    /// The baseline copy of the step, whatever the CPU reports.
    #[cfg(test)]
    fn step_portable(&self, x: &mut [f64], scale: &[f64], live: &[usize]) {
        self.sweep(x, scale, live);
    }

    /// The body of [`TridiagonalPanel::step`], inlined into each copy
    /// so it is compiled for that copy's target features.
    #[inline(always)]
    fn sweep(&self, x: &mut [f64], scale: &[f64], live: &[usize]) {
        let stride = self.stride();
        assert!(
            x.len() == self.slots() && scale.len() == x.len(),
            "panel shape"
        );
        assert!(live.len() <= self.middle.len() / PANEL_LANES, "live groups");
        let body = self.rows * 2 * PANEL_LANES;
        for (g, &tall) in live.iter().enumerate() {
            if tall == 0 {
                continue;
            }
            let rows = middle_row(tall);
            assert!(rows <= self.rows, "live rows");
            let (x, mid) = x[g * stride..(g + 1) * stride].split_at_mut(body);
            let (scale, mid_scale) = scale[g * stride..(g + 1) * stride].split_at(body);
            let (x, _) = x.as_chunks_mut::<{ 2 * PANEL_LANES }>();
            let (scale, _) = scale.as_chunks::<{ 2 * PANEL_LANES }>();
            let x = &mut x[..rows];
            let coeffs = g * self.rows..g * self.rows + rows;
            // Forward: x_j = fma(−l_j, x_{j−1}, scale_j·x_j) along every
            // chain.
            let mut carry = [0.0; 2 * PANEL_LANES];
            for ((x, m), l) in x.iter_mut().zip(scale).zip(&self.l[coeffs.clone()]) {
                for k in 0..2 * PANEL_LANES {
                    carry[k] = (-l[k]).mul_add(carry[k], x[k] * m[k]);
                }
                *x = carry;
            }
            // Middle rows: solved from both chains' last rows, then
            // folded into them so the backward pass starts there.
            let lanes = &self.middle[g * PANEL_LANES..(g + 1) * PANEL_LANES];
            for (k, m) in lanes.iter().enumerate() {
                let (top, bottom) = m.chains();
                if top > rows || bottom > rows {
                    continue;
                }
                let mut v = mid[k] * mid_scale[k];
                if top > 0 {
                    v -= m.from_top * x[top - 1][k];
                }
                if bottom > 0 {
                    v -= m.from_bottom * x[bottom - 1][PANEL_LANES + k];
                }
                v *= m.inv;
                mid[k] = v;
                if top > 0 {
                    x[top - 1][k] -= m.to_top * v;
                }
                if bottom > 0 {
                    x[bottom - 1][PANEL_LANES + k] -= m.to_bottom * v;
                }
            }
            // Backward: x_j = fma(−u′_j, x_{j+1}, x_j·inv_j) from the
            // middle out.
            let mut carry = [0.0; 2 * PANEL_LANES];
            let coeffs = self.u[coeffs.clone()].iter().zip(&self.inv[coeffs]);
            for (x, (u, inv)) in x.iter_mut().zip(coeffs).rev() {
                for k in 0..2 * PANEL_LANES {
                    carry[k] = (-u[k]).mul_add(carry[k], x[k] * inv[k]);
                }
                *x = carry;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lim_testkit::prop;

    #[test]
    fn rcm_compresses_a_chain_with_appended_driver() {
        // Chain 0-1-2-3 plus a node 4 attached to node 0 but numbered
        // last (a ladder's source node added after its taps), so the
        // natural order has bandwidth n−1.
        let adj = adjacency(5, [(0, 1), (1, 2), (2, 3), (4, 0)].into_iter());
        let order = rcm_order(&adj);
        let pos = positions(&order);
        assert_eq!(half_bandwidth(&adj, &pos), 1);
    }

    #[test]
    fn rcm_handles_disconnected_components() {
        let adj = adjacency(6, [(0, 1), (2, 3), (3, 4)].into_iter());
        let order = rcm_order(&adj);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
        assert!(half_bandwidth(&adj, &positions(&order)) <= 1);
    }

    #[test]
    fn adjacency_dedups_and_handles_high_fanout_star_quickly() {
        // Regression: `adjacency` used to probe with `Vec::contains` on
        // every insert, making a 1k-fanout star (a wordline driver
        // touching every bitcell) O(deg²). With each edge duplicated the
        // old code walks ~1k-entry lists two million times; the sort+dedup
        // build finishes in well under the suite's patience.
        let n = 1001;
        let star = (1..n).map(|i| (0usize, i)).chain((1..n).map(|i| (0usize, i)));
        let start = std::time::Instant::now();
        let adj = adjacency(n, star);
        assert!(
            start.elapsed() < std::time::Duration::from_millis(250),
            "high-fanout adjacency took {:?}",
            start.elapsed()
        );
        assert_eq!(adj[0].len(), n - 1, "duplicates must collapse");
        assert_eq!(adj[0], (1..n).collect::<Vec<_>>(), "lists stay sorted");
        for list in &adj[1..] {
            assert_eq!(list, &vec![0usize]);
        }
    }

    #[test]
    fn rcm_many_isolated_components_in_bounded_time() {
        // Regression: seeding each component used to rescan all n nodes,
        // so a netlist of isolated tie-off nodes was O(n²) — 25k isolated
        // nodes cost ~625M probes. The degree-sorted seed cursor keeps it
        // near-linear.
        let n = 25_000;
        let adj = adjacency(n, std::iter::empty());
        let start = std::time::Instant::now();
        let order = rcm_order(&adj);
        assert!(
            start.elapsed() < std::time::Duration::from_millis(250),
            "many-component RCM took {:?}",
            start.elapsed()
        );
        let mut sorted = order;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn rcm_seed_choice_matches_min_degree_scan() {
        // Mixed components with distinct degrees: the cursor must seed
        // exactly where the old min-scan did, keeping orderings stable.
        let adj = adjacency(
            9,
            [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 7)].into_iter(),
        );
        let order = rcm_order(&adj);
        let pos = positions(&order);
        // Node 8 is isolated (degree 0) and must be seeded first; after
        // reversal it therefore lands last.
        assert_eq!(order[8], 8);
        assert!(half_bandwidth(&adj, &pos) <= 2);
    }

    #[test]
    fn banded_factor_solve_matches_hand_solution() {
        // Tridiagonal [[2,-1,0],[-1,2,-1],[0,-1,2]], b = [1,0,1]:
        // x = [1, 1, 1].
        let mut a = Banded::zeros(3, 1);
        for i in 0..3 {
            a.add(i, i, 2.0);
        }
        for i in 0..2 {
            a.add(i, i + 1, -1.0);
            a.add(i + 1, i, -1.0);
        }
        a.factor().unwrap();
        let mut b = vec![1.0, 0.0, 1.0];
        a.step(&mut b, &[1.0; 3]);
        for x in b {
            assert!((x - 1.0).abs() < 1e-12, "{x}");
        }
    }

    #[test]
    fn singular_banded_system_reports_row_and_magnitude() {
        let mut a = Banded::zeros(2, 0);
        a.add(0, 0, 1.0);
        assert_eq!(
            a.factor(),
            Err(PivotError {
                row: 1,
                magnitude: 0.0
            })
        );
    }

    #[test]
    fn pivot_threshold_is_scale_relative() {
        // Femtofarad-scaled diagonal (~1e-15): far below the old 1e-18
        // guard's comfort zone once entries mix with ~1e-15 off-diagonals,
        // but perfectly well-conditioned relative to its own rows.
        let mut a = Banded::zeros(3, 1);
        for i in 0..3 {
            a.add(i, i, 2e-15);
        }
        for i in 0..2 {
            a.add(i, i + 1, -1e-15);
            a.add(i + 1, i, -1e-15);
        }
        a.factor().expect("tiny but well-scaled system must factor");
        let mut b = vec![1e-15, 0.0, 1e-15];
        a.step(&mut b, &[1.0; 3]);
        for x in &b {
            assert!((x - 1.0).abs() < 1e-9, "{x}");
        }

        // A pivot ~1e-14 of its own row's scale is numerically garbage
        // even though it clears any absolute threshold the old code
        // would have used.
        let mut bad = Banded::zeros(2, 1);
        bad.add(0, 0, 1.0);
        bad.add(1, 0, 1e6);
        bad.add(1, 1, 1e-8);
        let err = bad.factor().unwrap_err();
        assert_eq!(err.row, 1);
        assert!(err.magnitude > 0.0);
    }

    #[test]
    fn zero_bandwidth_diagonal_system() {
        let mut a = Banded::zeros(3, 0);
        for i in 0..3 {
            a.add(i, i, (i + 1) as f64);
        }
        a.factor().unwrap();
        let mut b = vec![1.0, 2.0, 3.0];
        a.step(&mut b, &[1.0; 3]);
        assert_eq!(b, vec![1.0, 1.0, 1.0]);
    }

    /// A random diagonally dominant tridiagonal system of `n` rows,
    /// some of whose couplings are exactly zero, as in a diagonal one.
    fn random_tridiagonal(rng: &mut lim_testkit::rng::TestRng, n: usize) -> Banded {
        let mut a = Banded::zeros(n, 1);
        let off: Vec<f64> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.2) {
                    0.0
                } else {
                    rng.unit_f64() * 2.0 - 1.0
                }
            })
            .collect();
        for i in 0..n {
            let mut diag = 0.5 + 3.0 * rng.unit_f64();
            if i + 1 < n {
                a.add(i, i + 1, off[i]);
                a.add(i + 1, i, off[i]);
                diag += off[i].abs();
            }
            if i > 0 {
                diag += off[i - 1].abs();
            }
            a.add(i, i, diag);
        }
        a
    }

    /// A random panel to step: columns of unequal heights (1–3 rows
    /// often, both parities) at widths 1–9, so most chains are padded
    /// with inert rows and most panels with inert lanes, each with a
    /// random diagonally dominant system, right-hand side (some entries
    /// ±0) and row scales (some exactly 0 or 1). Some columns are
    /// retired: their scale is 0, as the engine leaves it, and each
    /// lane group sweeps only as far as its tallest running column.
    struct PanelCase {
        heights: Vec<usize>,
        retired: Vec<bool>,
        /// Per lane group: the height of its tallest running column.
        live: Vec<usize>,
        /// Per column: its system, right-hand side and row scales.
        columns: Vec<(Banded, Vec<f64>, Vec<f64>)>,
    }

    impl PanelCase {
        fn random(rng: &mut lim_testkit::rng::TestRng) -> PanelCase {
            let width = 1 + rng.bounded(9) as usize;
            let heights: Vec<usize> = (0..width)
                .map(|_| {
                    let tallest = if rng.gen_bool(0.3) { 3 } else { 40 };
                    1 + rng.bounded(tallest) as usize
                })
                .collect();
            let retired: Vec<bool> = (0..width).map(|_| rng.gen_bool(0.3)).collect();
            let mut live = vec![0; width.div_ceil(PANEL_LANES)];
            for c in (0..width).filter(|&c| !retired[c]) {
                live[c / PANEL_LANES] = live[c / PANEL_LANES].max(heights[c]);
            }
            let columns = heights
                .iter()
                .zip(&retired)
                .map(|(&n, &retired)| {
                    let a = random_tridiagonal(rng, n);
                    let b: Vec<f64> = (0..n)
                        .map(|_| match rng.bounded(8) {
                            0 => 0.0,
                            1 => -0.0,
                            _ => rng.unit_f64() * 2.0 - 1.0,
                        })
                        .collect();
                    let m: Vec<f64> = (0..n)
                        .map(|_| match rng.bounded(8) {
                            _ if retired => 0.0,
                            0 => 0.0,
                            1 => 1.0,
                            _ => 0.1 + 5.0 * rng.unit_f64(),
                        })
                        .collect();
                    (a, b, m)
                })
                .collect();
            PanelCase {
                heights,
                retired,
                live,
                columns,
            }
        }

        /// The factored panel and its flat value and scale arrays.
        fn load(&self) -> (TridiagonalPanel, Vec<f64>, Vec<f64>) {
            let mut panel = TridiagonalPanel::new(&self.heights);
            let mut x = vec![0.0; panel.slots()];
            let mut scale = vec![0.0; x.len()];
            for (c, (a, b, m)) in self.columns.iter().enumerate() {
                panel
                    .set_column(c, a)
                    .expect("diagonally dominant systems factor");
                for i in 0..a.n {
                    (x[panel.slot(c, i)], scale[panel.slot(c, i)]) = (b[i], m[i]);
                }
            }
            (panel, x, scale)
        }
    }

    #[test]
    fn panel_sweep_is_bit_identical_to_lone_solves() {
        // Oracle over random panels (`PanelCase`): every running column
        // must match a one-column panel of its own height to the bit,
        // signed zeros included, and its LU solve to rounding; inert
        // slots must stay +0; a retired column's swept rows end at ±0,
        // and no row past a group's cut-off changes.
        prop::check("tridiagonal_panel_oracle", |rng| {
            let case = PanelCase::random(rng);
            let (heights, retired, live) = (&case.heights, &case.retired, &case.live);
            let (panel, mut x, scale) = case.load();
            let mut lone = Vec::new();
            for (a, b, m) in &case.columns {
                let n = a.n;
                let mut alone = TridiagonalPanel::new(&[n]);
                alone
                    .set_column(0, a)
                    .expect("the same system factors alone");
                let (mut ax, mut am) = (vec![0.0; alone.slots()], vec![0.0; alone.slots()]);
                for i in 0..n {
                    (ax[alone.slot(0, i)], am[alone.slot(0, i)]) = (b[i], m[i]);
                }
                alone.step(&mut ax, &am, &[n]);
                let want: Vec<f64> = (0..n).map(|i| ax[alone.slot(0, i)]).collect();
                let mut lu = a.clone();
                lu.factor().expect("and by LU");
                let mut by_lu = b.clone();
                lu.step(&mut by_lu, m);
                let norm = by_lu.iter().fold(0.0f64, |s, v| s.max(v.abs()));
                for (i, (v, u)) in want.iter().zip(&by_lu).enumerate() {
                    assert!(
                        (v - u).abs() <= 1e-12 * norm,
                        "row {i} of {n}: {v} vs LU {u}"
                    );
                }
                lone.push(want);
            }
            let before = x.clone();
            panel.step(&mut x, &scale, live);
            let mut owned = vec![false; x.len()];
            for (c, want) in lone.iter().enumerate() {
                let (n, cut) = (heights[c], middle_row(live[c / PANEL_LANES]));
                for (i, v) in want.iter().enumerate() {
                    let at = panel.slot(c, i);
                    owned[at] = true;
                    let m = middle_row(n);
                    let swept = live[c / PANEL_LANES] > 0
                        && match i.cmp(&m) {
                            std::cmp::Ordering::Less => i < cut,
                            std::cmp::Ordering::Equal => m <= cut,
                            std::cmp::Ordering::Greater => n - 1 - i < cut,
                        };
                    if !swept {
                        assert_eq!(x[at].to_bits(), before[at].to_bits(), "cut row {i} col {c}");
                    } else if retired[c] {
                        assert_eq!(x[at], 0.0, "retired row {i} col {c}");
                    } else {
                        assert_eq!(x[at].to_bits(), v.to_bits(), "row {i} col {c}");
                    }
                }
            }
            for (at, v) in x.iter().enumerate().filter(|&(at, _)| !owned[at]) {
                assert_eq!(v.to_bits(), 0, "inert slot {at}");
            }
        });
    }

    #[test]
    fn dispatched_and_portable_steps_agree_to_the_bit() {
        // On a CPU with FMA3 the dispatched step runs the copy compiled
        // for it and the portable copy calls libm's `fma`; both round
        // each fused step once, so every slot of a random panel
        // (`PanelCase`) must come out the same, signed zeros included.
        prop::check("panel_kernels_agree", |rng| {
            let case = PanelCase::random(rng);
            let (panel, x, scale) = case.load();
            let (mut dispatched, mut portable) = (x.clone(), x);
            panel.step(&mut dispatched, &scale, &case.live);
            panel.step_portable(&mut portable, &scale, &case.live);
            for (at, (d, p)) in dispatched.iter().zip(&portable).enumerate() {
                assert_eq!(d.to_bits(), p.to_bits(), "slot {at} ({} kernel)", panel_kernel());
            }
        });
    }

    #[test]
    fn panel_rejects_a_singular_row_wherever_the_elimination_reaches_it() {
        // A 7-row chain whose row `bad` is zeroed: its pivot is rejected
        // whether it lies in the top chain, in the bottom chain or is the
        // middle row, and the error names it.
        for bad in 0..7 {
            let mut a = Banded::zeros(7, 1);
            for i in 0..7 {
                if i != bad {
                    a.add(i, i, 2.0);
                    if i + 1 < 7 && i + 1 != bad {
                        a.add(i, i + 1, -0.5);
                        a.add(i + 1, i, -0.5);
                    }
                }
            }
            let mut panel = TridiagonalPanel::new(&[7]);
            assert_eq!(
                panel.set_column(0, &a),
                Err(PivotError {
                    row: bad,
                    magnitude: 0.0
                }),
                "row {bad}"
            );
        }
    }
}
