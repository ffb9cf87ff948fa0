//! `s`-sparse recovery over a signed-update universe.
//!
//! The classic turnstile-stream primitive (Ganguly; Cormode–Firmani;
//! the invertible-Bloom-lookup-table line): maintain `O(s)` counter
//! cells under arbitrary `(id, ±1)` updates so that, whenever the net
//! frequency vector has at most `s` nonzero coordinates, the *exact*
//! multiset can be recovered by peeling. This is the entire storage of
//! the dynamic colorer — the sketch size depends on `s` and the id
//! width, never on the stream length, which is what makes the dynamic
//! colorer's space `o(n²)` bits on churn streams where store-all grows
//! with every insertion.
//!
//! Layout: `ROWS` hash rows of `2s` cells each. Every update lands in
//! one cell per row (seeded [`prf2`](sc_hash::prf::prf2) bucketing),
//! maintaining per cell
//!
//! * `count` — the signed number of live ids hashed here,
//! * `id_sum` — the count-weighted sum of ids,
//! * `fp_sum` — a count-weighted fingerprint sum (mod `2^64`).
//!
//! A cell holding exactly one live id is **pure**: `id_sum / count`
//! names it and the fingerprint re-check rejects accidental collisions.
//! Peeling extracts a pure cell's id everywhere and repeats; with
//! `≥ 2s` columns per row the standard argument gives failure
//! probability `2^{-Ω(ROWS)}` per decode at support `≤ s`. Decoding
//! *fails loudly* — an [`Err`] naming the sparsity budget — when
//! peeling strands residue, so an over-budget support is never silently
//! mis-reported.
//!
//! Decoding is a worklist peel (Goodrich–Mitzenmacher) costing
//! `O(ROWS · (2s + support))`: each cell is tested when first queued and
//! again after every peel that changes it, so every cell is rechecked
//! after its last change and no pure cell survives the peel.

use sc_hash::prf::{prf2_derive, prf2_finish};
use sc_hash::splitmix64;
use sc_hash::SplitMix64;

/// Hash rows per sketch. Each row is an independent chance to find a
/// pure cell, so peeling fails with probability `2^{-Ω(ROWS)}`.
const ROWS: usize = 6;

/// One counter cell (see module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cell {
    count: i64,
    id_sum: i128,
    fp_sum: u64,
}

impl Cell {
    fn is_zero(&self) -> bool {
        self.count == 0 && self.id_sum == 0 && self.fp_sum == 0
    }

    /// Adds `delta` copies of `id` (fingerprint `fp`).
    fn add(&mut self, id: u64, fp: u64, delta: i64) {
        self.count += delta;
        self.id_sum += delta as i128 * id as i128;
        // Mod-2^64 arithmetic: two's-complement wrapping makes the
        // signed weight exact.
        self.fp_sum = self.fp_sum.wrapping_add(fp.wrapping_mul(delta as u64));
    }
}

/// An `s`-sparse recovery sketch over ids in `[0, universe)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseRecovery {
    universe: u64,
    sparsity: usize,
    cols: usize,
    /// Per-row bucketing keys, derived deterministically from the seed
    /// and stored [`prf2_derive`]d, so one mix of an id serves every
    /// row (see [`SparseRecovery::locate`]).
    row_keys: [u64; ROWS],
    /// Fingerprint key (shared by all rows), stored the same way.
    fp_key: u64,
    /// `ROWS × cols`, row-major.
    cells: Vec<Cell>,
}

impl SparseRecovery {
    /// A sketch for supports of at most `sparsity` ids drawn from
    /// `[0, universe)`, with all hashing derived from `seed`.
    ///
    /// # Panics
    /// If the cell array cannot be allocated (see [`Self::try_new`]).
    pub fn new(universe: u64, sparsity: usize, seed: u64) -> Self {
        Self::try_new(universe, sparsity, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::new`], with the `ROWS · 2s` cell array allocated
    /// fallibly: a budget whose cells do not fit in memory is an error
    /// naming `sparsity`, never an allocation abort.
    ///
    /// # Errors
    /// When the cell count overflows or the allocation fails.
    pub fn try_new(universe: u64, sparsity: usize, seed: u64) -> Result<Self, String> {
        let sparsity = sparsity.max(1);
        let cols = 2 * sparsity;
        let too_big = |why: String| format!("sparsity = {sparsity}: the sketch cells {why}");
        let len = sparsity
            .checked_mul(2 * ROWS)
            .ok_or_else(|| too_big("overflow the address space".to_string()))?;
        let mut cells = Vec::new();
        cells
            .try_reserve_exact(len)
            .map_err(|e| too_big(format!("({len}) cannot be allocated: {e}")))?;
        cells.resize(len, Cell::default());
        let mut rng = SplitMix64::new(seed);
        let row_keys: [u64; ROWS] = std::array::from_fn(|_| prf2_derive(rng.next_u64()));
        let fp_key = prf2_derive(rng.next_u64());
        Ok(Self { universe, sparsity, cols, row_keys, fp_key, cells })
    }

    /// The sparsity budget `s`.
    pub fn sparsity(&self) -> usize {
        self.sparsity
    }

    /// The id universe size.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Model-bits footprint of the cell array: the quantity a dynamic
    /// colorer charges its meter at construction. Keys are charged by
    /// the caller alongside (a handful of 64-bit words).
    pub fn cell_bits(&self) -> u64 {
        // count (64) + id_sum (128) + fp_sum (64) per cell.
        (self.cells.len() as u64) * 256
    }

    fn fingerprint(&self, id: u64) -> u64 {
        prf2_finish(self.fp_key, id)
    }

    /// `id`'s cell index in each row, and its fingerprint. All `ROWS + 1`
    /// are [`prf2`](sc_hash::prf::prf2)`(key, id)` evaluations, and
    /// `prf2` finishes a derived key with one mix of `id`, so they share
    /// that mix.
    fn locate(&self, id: u64) -> ([usize; ROWS], u64) {
        let mixed = splitmix64(id);
        let finish = |derived: u64| splitmix64(derived.wrapping_add(mixed));
        let cols = self.cols as u64;
        let cells = std::array::from_fn(|row| {
            row * self.cols + (finish(self.row_keys[row]) % cols) as usize
        });
        (cells, finish(self.fp_key))
    }

    /// Applies one signed update to `id`.
    ///
    /// # Panics
    /// If `id` is outside the universe.
    pub fn update(&mut self, id: u64, delta: i64) {
        assert!(id < self.universe, "id {id} outside universe {}", self.universe);
        let (cells, fp) = self.locate(id);
        for idx in cells {
            self.cells[idx].add(id, fp, delta);
        }
    }

    /// Whether every cell is zero (the empty frequency vector).
    pub fn is_empty(&self) -> bool {
        self.cells.iter().all(Cell::is_zero)
    }

    /// Recovers the exact `(id, net_count)` support, ascending by id.
    ///
    /// A worklist peel (Goodrich–Mitzenmacher): every nonzero cell is
    /// queued once; a popped cell that passes the purity test is peeled,
    /// and the `ROWS` cells that peel changed are queued again. A cell
    /// that fails the test can only become pure when some later peel
    /// changes it, and that peel re-queues it — so every cell is
    /// rechecked after its last change and no pure cell survives. That
    /// is exactly where the rescan peel stops too, and because the set
    /// of peelable ids does not depend on peel order, both return the
    /// same support (or the same error). Cost `O(ROWS · (2s + support))`
    /// plus a sort of the output.
    ///
    /// # Errors
    /// Fails loudly — naming the sparsity budget — when peeling cannot
    /// finish. That is the guaranteed outcome when the support exceeds
    /// `s` beyond the sketch's slack, and a `2^{-Ω(ROWS)}` fluke
    /// otherwise; it never silently returns a wrong multiset (every
    /// extraction is fingerprint-checked).
    pub fn decode(&self) -> Result<Vec<(u64, i64)>, String> {
        let mut cells = self.cells.clone();
        let mut queue: Vec<usize> = (0..cells.len()).filter(|&i| !cells[i].is_zero()).collect();
        let mut out: Vec<(u64, i64)> = Vec::new();
        while let Some(i) = queue.pop() {
            let Some((id, count)) = self.pure_id(&cells[i]) else { continue };
            // Remove the id everywhere (cell `i` included, which zeroes
            // it). A zero cell is never pure, so only nonzero ones need
            // another look.
            let (locations, fp) = self.locate(id);
            for idx in locations {
                cells[idx].add(id, fp, -count);
                if !cells[idx].is_zero() {
                    queue.push(idx);
                }
            }
            out.push((id, count));
        }
        if cells.iter().all(Cell::is_zero) {
            out.sort_unstable();
            debug_assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "each id peels once");
            Ok(out)
        } else {
            Err(format!(
                "sparse-recovery decode failed: support exceeds the sparsity budget s={} \
                 (or a {ROWS}-row peeling fluke); refusing to answer rather than guess",
                self.sparsity
            ))
        }
    }

    /// The purity test: `Some((id, count))` when the cell's contents are
    /// consistent with exactly one live id (division + range +
    /// fingerprint checks).
    fn pure_id(&self, cell: &Cell) -> Option<(u64, i64)> {
        if cell.count == 0 || cell.id_sum % cell.count as i128 != 0 {
            return None;
        }
        let id = cell.id_sum / cell.count as i128;
        if id < 0 || id >= self.universe as i128 {
            return None;
        }
        let id = id as u64;
        (cell.fp_sum == self.fingerprint(id).wrapping_mul(cell.count as u64))
            .then_some((id, cell.count))
    }

    /// Canonical cell-array encoding: ascending `idx:count:id_sum:fp_sum`
    /// entries for the non-zero cells, space-joined (empty string for an
    /// empty sketch). Free of `;` and `=`, so it embeds in state blobs.
    pub fn encode_cells(&self) -> String {
        let parts: Vec<String> = self
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_zero())
            .map(|(i, c)| format!("{}:{}:{}:{}", i, c.count, c.id_sum, c.fp_sum))
            .collect();
        parts.join(" ")
    }

    /// Replays an [`SparseRecovery::encode_cells`] string into this
    /// freshly built sketch (same constructor parameters — keys are
    /// re-derived from the seed, never serialized).
    ///
    /// # Errors
    /// Names the malformed entry; entries must be strictly ascending by
    /// index (the canonical order).
    pub fn decode_cells(&mut self, text: &str) -> Result<(), String> {
        let mut cells = vec![Cell::default(); ROWS * self.cols];
        if !text.is_empty() {
            let mut last: Option<usize> = None;
            for part in text.split(' ') {
                let fields: Vec<&str> = part.split(':').collect();
                let [idx, count, id_sum, fp_sum] = fields[..] else {
                    return Err(format!("sketch cell {part:?} is not idx:count:id_sum:fp_sum"));
                };
                let idx: usize =
                    idx.parse().map_err(|e| format!("sketch cell {part:?}: idx: {e}"))?;
                if idx >= cells.len() {
                    return Err(format!("sketch cell {part:?}: idx out of range"));
                }
                if last.is_some_and(|l| l >= idx) {
                    return Err(format!("sketch cell {part:?}: indices must ascend"));
                }
                last = Some(idx);
                let cell = Cell {
                    count: count
                        .parse()
                        .map_err(|e| format!("sketch cell {part:?}: count: {e}"))?,
                    id_sum: id_sum
                        .parse()
                        .map_err(|e| format!("sketch cell {part:?}: id_sum: {e}"))?,
                    fp_sum: fp_sum
                        .parse()
                        .map_err(|e| format!("sketch cell {part:?}: fp_sum: {e}"))?,
                };
                if cell.is_zero() {
                    return Err(format!("sketch cell {part:?} is all-zero (not canonical)"));
                }
                cells[idx] = cell;
            }
        }
        self.cells = cells;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The rescan peel `decode` replaced, kept as its oracle: after each
    /// peel it scans every cell for the first pure one. Same purity test,
    /// same residue check, same error text — but `support × cells` time.
    fn rescan_decode(sk: &SparseRecovery) -> Result<Vec<(u64, i64)>, String> {
        let find_pure = |cells: &[Cell]| -> Option<(u64, i64)> {
            for cell in cells {
                if cell.count == 0 || cell.id_sum % cell.count as i128 != 0 {
                    continue;
                }
                let id = cell.id_sum / cell.count as i128;
                if id < 0 || id >= sk.universe as i128 {
                    continue;
                }
                let id = id as u64;
                if cell.fp_sum == sk.fingerprint(id).wrapping_mul(cell.count as u64) {
                    return Some((id, cell.count));
                }
            }
            None
        };
        let mut cells = sk.cells.clone();
        let mut out = Vec::new();
        while let Some((id, count)) = find_pure(&cells) {
            let fp = sk.fingerprint(id);
            for row in 0..ROWS {
                let col = (prf2_finish(sk.row_keys[row], id) % sk.cols as u64) as usize;
                let cell = &mut cells[row * sk.cols + col];
                cell.count -= count;
                cell.id_sum -= count as i128 * id as i128;
                cell.fp_sum = cell.fp_sum.wrapping_sub(fp.wrapping_mul(count as u64));
            }
            out.push((id, count));
        }
        if cells.iter().all(Cell::is_zero) {
            out.sort_unstable();
            Ok(out)
        } else {
            Err(format!(
                "sparse-recovery decode failed: support exceeds the sparsity budget s={} \
                 (or a {ROWS}-row peeling fluke); refusing to answer rather than guess",
                sk.sparsity
            ))
        }
    }

    /// A sketch fed `updates`, with every id folded into a pool of
    /// `support` distinct ids (so the net support is at most `support`;
    /// cancellations, negative counts and multiplicities survive the
    /// fold).
    fn pooled(
        universe: u64,
        sparsity: usize,
        seed: u64,
        support: usize,
        raw: &[(u64, i64)],
    ) -> SparseRecovery {
        let pool: Vec<u64> = (0..support.max(1) as u64)
            .map(|i| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i * 0x1_0001) % universe)
            .collect();
        let mut sk = SparseRecovery::new(universe, sparsity, seed);
        for &(id, delta) in raw {
            sk.update(pool[(id % pool.len() as u64) as usize], delta);
        }
        sk
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Supports within budget, at the budget's slack edge, and far
        /// over it (residue): the worklist peel returns exactly what the
        /// rescan peel returns, `Ok` and `Err` alike.
        #[test]
        fn worklist_decode_matches_the_rescan_oracle(
            seed in any::<u64>(),
            universe in 8u64..200_000,
            sparsity in 1usize..24,
            over in 0usize..4,
            raw in prop::collection::vec((any::<u64>(), -3i64..4), 0..160),
        ) {
            // over = 0: support ≤ s; 1..=3: up to 4s ids (residue likely).
            let support = sparsity * (1 + over);
            let sk = pooled(universe, sparsity, seed, support, &raw);
            prop_assert_eq!(sk.decode(), rescan_decode(&sk));
        }

        /// Every update undone, newest first: both peels see
        /// the empty vector.
        #[test]
        fn full_cancellation_decodes_empty_like_the_oracle(
            seed in any::<u64>(),
            sparsity in 1usize..16,
            raw in prop::collection::vec((any::<u64>(), -3i64..4), 1..120),
        ) {
            let undo: Vec<(u64, i64)> = raw.iter().rev().map(|&(id, d)| (id, -d)).collect();
            let sk = pooled(50_000, sparsity, seed, 4 * sparsity, &[raw, undo].concat());
            prop_assert!(sk.is_empty());
            prop_assert_eq!(sk.decode(), Ok(Vec::new()));
            prop_assert_eq!(rescan_decode(&sk), Ok(Vec::new()));
        }
    }

    #[test]
    fn oracle_comparison_covers_both_outcomes() {
        // The property above is only meaningful if its inputs reach both
        // the Ok and the Err branch; pin one of each here.
        let ok = pooled(100_000, 8, 3, 8, &[(0, 1), (1, -2), (2, 3), (3, 1), (5, 1)]);
        assert!(ok.decode().is_ok_and(|v| v.iter().any(|&(_, c)| c < 0)));
        assert_eq!(ok.decode(), rescan_decode(&ok));
        let raw: Vec<(u64, i64)> = (0..64).map(|i| (i, 1)).collect();
        let over = pooled(100_000, 2, 3, 64, &raw);
        assert!(over.decode().is_err_and(|e| e.contains("s=2")));
        assert_eq!(over.decode(), rescan_decode(&over));
    }

    #[test]
    fn shared_mix_hashing_is_prf2_under_the_seeded_keys() {
        // The cell layout is part of every state blob: `locate` must be
        // `prf2(key, id) % cols` under the keys drawn from the seed.
        use sc_hash::prf::prf2;
        let sk = SparseRecovery::new(1 << 40, 37, 1234);
        let mut rng = SplitMix64::new(1234);
        let keys: Vec<u64> = (0..=ROWS).map(|_| rng.next_u64()).collect();
        for id in [0u64, 1, 99, 123_456_789, (1 << 40) - 1] {
            let (cells, fp) = sk.locate(id);
            for (row, &idx) in cells.iter().enumerate() {
                assert_eq!(idx, row * sk.cols + (prf2(keys[row], id) % sk.cols as u64) as usize);
            }
            assert_eq!(fp, prf2(keys[ROWS], id));
            assert_eq!(sk.fingerprint(id), fp);
        }
    }

    #[test]
    fn oversized_budgets_are_errors_not_aborts() {
        let err = SparseRecovery::try_new(1 << 40, usize::MAX / 4, 1).unwrap_err();
        assert!(err.contains("sparsity = "), "{err}");
        let err = SparseRecovery::try_new(1 << 40, 1 << 58, 1).unwrap_err();
        assert!(err.contains("sparsity = 288230376151711744"), "{err}");
    }

    #[test]
    fn recovers_small_supports_exactly() {
        let mut sk = SparseRecovery::new(10_000, 8, 42);
        let support = [(3u64, 2i64), (17, 1), (999, 5), (9_999, 1)];
        for &(id, c) in &support {
            for _ in 0..c {
                sk.update(id, 1);
            }
        }
        assert_eq!(sk.decode().unwrap(), support.to_vec());
    }

    #[test]
    fn deletions_cancel_to_empty() {
        let mut sk = SparseRecovery::new(1000, 4, 7);
        for id in [5u64, 6, 7, 5] {
            sk.update(id, 1);
        }
        for id in [5u64, 5, 6, 7] {
            sk.update(id, -1);
        }
        assert!(sk.is_empty());
        assert_eq!(sk.decode().unwrap(), Vec::new());
    }

    #[test]
    fn churn_far_beyond_s_decodes_once_support_shrinks() {
        // Stream length >> s, live support ≤ s at the end: the whole
        // point of the turnstile model.
        let mut sk = SparseRecovery::new(100_000, 6, 11);
        let mut rng = SplitMix64::new(3);
        for _ in 0..5_000 {
            let id = rng.below(100_000);
            sk.update(id, 1);
            sk.update(id, -1);
        }
        for id in [10u64, 20, 30] {
            sk.update(id, 1);
        }
        assert_eq!(sk.decode().unwrap(), vec![(10, 1), (20, 1), (30, 1)]);
    }

    #[test]
    fn oversubscribed_support_fails_loudly() {
        let mut sk = SparseRecovery::new(1_000_000, 2, 5);
        for id in 0..200u64 {
            sk.update(id * 31 + 7, 1);
        }
        let err = sk.decode().unwrap_err();
        assert!(err.contains("s=2") && err.contains("refusing"), "{err}");
    }

    #[test]
    fn cells_round_trip_canonically() {
        let mut sk = SparseRecovery::new(5_000, 5, 99);
        for id in [1u64, 2, 3, 4999] {
            sk.update(id, 1);
        }
        sk.update(2, -1);
        let text = sk.encode_cells();
        let mut fresh = SparseRecovery::new(5_000, 5, 99);
        fresh.decode_cells(&text).unwrap();
        assert_eq!(fresh, sk);
        assert_eq!(fresh.encode_cells(), text, "re-encoding must be stable");
        // Empty sketch encodes to the empty string.
        assert_eq!(SparseRecovery::new(10, 1, 0).encode_cells(), "");
    }

    #[test]
    fn decode_cells_rejects_malformed_entries() {
        let mut sk = SparseRecovery::new(100, 2, 1);
        for bad in
            ["x:1:1:1", "0:1:1", "999999:1:1:1", "0:0:0:0", "1:1:2:3 1:1:2:3", "2:1:2:3 1:1:2:3"]
        {
            assert!(sk.decode_cells(bad).is_err(), "{bad:?} must not decode");
        }
    }

    #[test]
    fn different_seeds_hash_differently_but_both_decode() {
        for seed in [1u64, 2, 3, 4, 5] {
            let mut sk = SparseRecovery::new(50_000, 10, seed);
            let ids: Vec<u64> = (0..10).map(|i| i * 4999 + 13).collect();
            for &id in &ids {
                sk.update(id, 1);
            }
            let got: Vec<u64> = sk.decode().unwrap().into_iter().map(|(id, _)| id).collect();
            assert_eq!(got, ids, "seed {seed}");
        }
    }
}
