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
//! * [`TridiagonalPanel`] — the factors of several tridiagonal systems,
//!   one per panel column, each with its own row count, stepped
//!   together [`PANEL_LANES`] columns (one lane group) at a time with
//!   every column's running value held in a register.
//!
//! Factoring a half-bandwidth-`k` system costs `O(n·k²)` and each solve
//! `O(n·k)`, versus `O(n³)` / `O(n²)` for a dense LU — a ~100×
//! reduction for the tridiagonal-ish ladders the golden flow simulates.
//! The factorization keeps the reciprocal of each pivot so the
//! per-step back-substitution multiplies instead of divides; at `k = 1`
//! the division was the single most expensive operation per node-step.
//! What remains at `k = 1` is a serial recurrence per column (each row
//! needs the row before it), so a lone tridiagonal solve is bound by
//! latency; the panel step overlaps [`PANEL_LANES`] such recurrences,
//! folds the transient's `C/Δt` history multiply into its forward pass
//! (one fewer pass over the panel per step), and sweeps each lane group
//! only as far as its caller asks.

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

/// A pivot rejected by [`Banded::factor`]: the permuted row whose pivot
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
        let width = 2 * k + 1;
        let row_scale: Vec<f64> = self
            .data
            .chunks_exact(width)
            .map(|row| row.iter().fold(0.0f64, |m, v| m.max(v.abs())))
            .collect();
        self.inv_diag.clear();
        self.inv_diag.reserve(n);
        for (col, &scale) in row_scale.iter().enumerate() {
            let pivot = self.get(col, col);
            if pivot.abs() < REL_PIVOT_TOL * scale || scale == 0.0 {
                return Err(PivotError {
                    row: col,
                    magnitude: pivot.abs(),
                });
            }
            self.inv_diag.push(1.0 / pivot);
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

/// Columns one lane group of a [`TridiagonalPanel`] steps together.
///
/// Four, not eight: two 2-wide SSE2 registers per carried row on the
/// baseline x86-64 target, and the golden flow cuts its sims into panels
/// of this many columns that fan out across worker threads. Eight lanes
/// (one panel per four-configuration batch) measured slower.
pub const PANEL_LANES: usize = 4;

/// One row of a lane group: one value per lane.
type Lanes = [f64; PANEL_LANES];

/// The LU factors of tridiagonal systems, one per panel column, laid
/// out like the values they step: lane group `g` (columns
/// `g·PANEL_LANES ..`) holds `rows` contiguous rows of [`PANEL_LANES`]
/// values, so column `c`'s row `i` sits at flat index
/// `(c / PANEL_LANES · rows + i) · PANEL_LANES + c % PANEL_LANES`.
///
/// A column's system may have fewer rows than the panel. The rows past
/// its end are inert — no couplings and a unit pivot — and so are the
/// lanes past the last column. An inert row whose value and scale are
/// `+0` stays `+0` and leaves the column's real rows bit-identical to a
/// lone [`Banded::step`].
#[derive(Debug, Clone)]
pub struct TridiagonalPanel {
    rows: usize,
    /// `L(i, i−1)` per row and lane (0 on row 0 and inert rows).
    l: Vec<Lanes>,
    /// `U(i, i+1)` per row and lane (0 on a column's last row).
    u: Vec<Lanes>,
    /// `U(i, i)⁻¹` per row and lane (1 on inert rows).
    inv: Vec<Lanes>,
}

impl TridiagonalPanel {
    /// An inert panel of `rows` rows and at least `columns` columns.
    pub fn new(rows: usize, columns: usize) -> TridiagonalPanel {
        let len = rows * columns.div_ceil(PANEL_LANES);
        TridiagonalPanel {
            rows,
            l: vec![[0.0; PANEL_LANES]; len],
            u: vec![[0.0; PANEL_LANES]; len],
            inv: vec![[1.0; PANEL_LANES]; len],
        }
    }

    /// Installs the factorization `lu` (from [`Banded::factor`] of a
    /// half-bandwidth-1 matrix) as column `col`'s system.
    ///
    /// # Panics
    ///
    /// Panics if `lu` is not stored tridiagonally, is taller than the
    /// panel, or `col` is out of range.
    pub fn set_column(&mut self, col: usize, lu: &Banded) {
        assert!(lu.k == 1 && lu.n <= self.rows);
        let (base, lane) = (col / PANEL_LANES * self.rows, col % PANEL_LANES);
        for i in 0..lu.n {
            self.l[base + i][lane] = if i > 0 { lu.get(i, i - 1) } else { 0.0 };
            self.u[base + i][lane] = if i + 1 < lu.n { lu.get(i, i + 1) } else { 0.0 };
            self.inv[base + i][lane] = lu.inv_diag[i];
        }
    }

    /// Steps every column in place: `x` and `scale` are flat panel
    /// arrays, and each column's values become the solution of its
    /// system for right-hand side `scale · x`, as [`Banded::step`].
    /// Lane group `g` sweeps only its first `live[g]` rows; its rows at
    /// and past `live[g]` are left untouched.
    ///
    /// One step per lane group: a forward pass that scales each row and
    /// eliminates through L, then a backward pass through U. Each pass
    /// reads whole [`PANEL_LANES`]-wide rows and carries the lanes'
    /// running values in a fixed-size array, so the next row reads its
    /// predecessor from a register and the lanes' serial recurrences
    /// overlap. Every column no taller than `live` gets the arithmetic
    /// of [`Banded::step`] on its own factorization, in the same order;
    /// the extra terms at its first and last row subtract `0 · (+0)`,
    /// which changes no bit, so each is bit-identical to its lone step.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `scale` is not the panel's shape, or an entry of
    /// `live` exceeds the panel's row count.
    pub fn step(&self, x: &mut [f64], scale: &[f64], live: &[usize]) {
        let (x, []) = x.as_chunks_mut::<PANEL_LANES>() else {
            panic!("panel shape")
        };
        let (scale, []) = scale.as_chunks::<PANEL_LANES>() else {
            panic!("panel shape")
        };
        assert!(x.len() == self.l.len() && scale.len() == self.l.len(), "panel shape");
        for (g, &rows) in live.iter().enumerate() {
            assert!(rows <= self.rows, "live rows");
            let group = g * self.rows..g * self.rows + rows;
            let x = &mut x[group.clone()];
            // Forward: x_i = scale_i·x_i − L(i, i−1)·x_{i−1}.
            let mut carry = [0.0; PANEL_LANES];
            for ((x, m), l) in x.iter_mut().zip(&scale[group.clone()]).zip(&self.l[group.clone()]) {
                for k in 0..PANEL_LANES {
                    carry[k] = x[k] * m[k] - l[k] * carry[k];
                }
                *x = carry;
            }
            // Backward: x_i = (x_i − U(i, i+1)·x_{i+1})·U(i, i)⁻¹.
            let mut carry = [0.0; PANEL_LANES];
            let coeffs = self.u[group.clone()].iter().zip(&self.inv[group]);
            for (x, (u, inv)) in x.iter_mut().zip(coeffs).rev() {
                for k in 0..PANEL_LANES {
                    carry[k] = (x[k] - u[k] * carry[k]) * inv[k];
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

    #[test]
    fn panel_sweep_is_bit_identical_to_lone_solves() {
        // Oracle: random diagonally dominant tridiagonal systems of
        // unequal heights and random row scales (some exactly 0 or 1),
        // one per column at panel widths 1–9, so most columns are padded
        // with inert rows and most panels with inert lanes. Some columns
        // are retired: their scale is 0, as the engine leaves it, and
        // each lane group sweeps only up to its tallest running column.
        // Every running column must match its lone `Banded::step` to the
        // bit, signed zeros included, and its inert rows must stay +0;
        // a retired column's swept rows end at ±0, and no row past a
        // group's cut-off changes.
        prop::check("tridiagonal_panel_oracle", |rng| {
            let width = 1 + rng.bounded(9) as usize;
            let heights: Vec<usize> = (0..width).map(|_| 1 + rng.bounded(40) as usize).collect();
            let retired: Vec<bool> = (0..width).map(|_| rng.gen_bool(0.3)).collect();
            let rows = *heights.iter().max().expect("width >= 1");
            let groups = width.div_ceil(PANEL_LANES);
            let at = |c: usize, i: usize| (c / PANEL_LANES * rows + i) * PANEL_LANES + c % PANEL_LANES;
            let mut live = vec![0; groups];
            for c in (0..width).filter(|&c| !retired[c]) {
                live[c / PANEL_LANES] = live[c / PANEL_LANES].max(heights[c]);
            }
            let mut panel = TridiagonalPanel::new(rows, width);
            let mut x = vec![0.0; groups * rows * PANEL_LANES];
            let mut scale = vec![0.0; x.len()];
            let mut lone = Vec::new();
            for (c, &n) in heights.iter().enumerate() {
                let mut a = Banded::zeros(n, 1);
                // Some couplings are exactly zero, as in a diagonal system.
                let off: Vec<f64> = (0..n)
                    .map(|_| if rng.gen_bool(0.2) { 0.0 } else { rng.unit_f64() * 2.0 - 1.0 })
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
                a.factor().expect("diagonally dominant systems factor");
                panel.set_column(c, &a);
                let b: Vec<f64> = (0..n)
                    .map(|_| match rng.bounded(8) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.unit_f64() * 2.0 - 1.0,
                    })
                    .collect();
                let m: Vec<f64> = (0..n)
                    .map(|_| match rng.bounded(8) {
                        _ if retired[c] => 0.0,
                        0 => 0.0,
                        1 => 1.0,
                        _ => 0.1 + 5.0 * rng.unit_f64(),
                    })
                    .collect();
                for i in 0..n {
                    (x[at(c, i)], scale[at(c, i)]) = (b[i], m[i]);
                }
                let mut want = b;
                a.step(&mut want, &m);
                lone.push(want);
            }
            let before = x.clone();
            panel.step(&mut x, &scale, &live);
            for (c, want) in lone.iter().enumerate() {
                let cut = live[c / PANEL_LANES];
                for i in cut..rows {
                    assert_eq!(x[at(c, i)].to_bits(), before[at(c, i)].to_bits(), "cut row {i} col {c}");
                }
                if retired[c] {
                    for i in 0..cut {
                        assert_eq!(x[at(c, i)], 0.0, "retired row {i} col {c}");
                    }
                    continue;
                }
                for (i, v) in want.iter().enumerate() {
                    assert_eq!(x[at(c, i)].to_bits(), v.to_bits(), "row {i} col {c}");
                }
                for i in want.len()..cut {
                    assert_eq!(x[at(c, i)].to_bits(), 0, "inert row {i} col {c}");
                }
            }
        });
    }
}
