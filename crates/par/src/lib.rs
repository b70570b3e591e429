//! # otr-par — deterministic scoped parallelism for the repair pipeline
//!
//! Every hot loop in the workspace (archival repair, plan design,
//! Monte-Carlo replication) is an embarrassingly parallel map over an
//! index range whose output must be **bit-identical for any thread
//! count**: reproducibility of the paper's tables is non-negotiable, so
//! parallelism may change wall-clock time and nothing else.
//!
//! The executor is therefore deliberately *work-stealing-free*: an index
//! range `0..n` is split into at most `threads` contiguous chunks of
//! near-equal size, one scoped thread per chunk, and chunk results are
//! reassembled **in chunk order** on the calling thread. Determinism
//! falls out of the structure — no locks, no atomics, no arrival-order
//! merges — and the only building block is [`std::thread::scope`], so
//! the workspace's offline `vendor/` policy is untouched.
//!
//! Randomized maps get determinism from [`splitmix_seed`]: derive an
//! independent RNG stream per item from a base seed, so item `i` draws
//! the same randomness whether it runs on thread 0 of 1 or thread 6
//! of 7.
//!
//! Thread count resolution (everywhere in the workspace): an explicit
//! request wins; `0` means "auto" — the `OTR_THREADS` environment
//! variable if set and positive, else [`std::thread::available_parallelism`].
//!
//! In-kernel parallelism (the Sinkhorn scaling updates and the
//! barycentre matvecs in `otr-ot`) additionally respects a **size
//! threshold**: a kernel engages its chunked path only when it touches
//! at least [`kernel_cells`] matrix cells, so the many tiny solves of a
//! 1-D plan design stay free of spawn overhead while the `nQ⁴`-cell
//! joint kernels scale with cores.
//!
//! ```
//! // out[i] = 2 * i, computed on up to 3 scoped threads — the result is
//! // identical for every thread count because chunks are disjoint.
//! let mut out = vec![0usize; 10];
//! otr_par::par_chunks_mut(&mut out, 3, |start, chunk| {
//!     for (off, slot) in chunk.iter_mut().enumerate() {
//!         *slot = 2 * (start + off);
//!     }
//! });
//! assert_eq!(out, (0..10).map(|i| 2 * i).collect::<Vec<_>>());
//! ```

use std::ops::Range;

/// Environment variable overriding the auto thread count.
pub const THREADS_ENV: &str = "OTR_THREADS";

/// Environment variable overriding the in-kernel parallelism threshold
/// (minimum matrix cells before an OT kernel chunks its hot loops).
pub const KERNEL_CELLS_ENV: &str = "OTR_KERNEL_CELLS";

/// Default in-kernel parallelism threshold, in matrix cells. Sized so a
/// 1-D `nQ ≤ 180` solve (≤ 32 400 cells) stays sequential — its scaling
/// loops finish faster than threads spawn — while a joint `nQ ≥ 14`
/// product-support kernel (`nQ⁴ ≥ 38 416` cells) goes parallel.
pub const KERNEL_CELLS_DEFAULT: usize = 32_768;

/// Resolve a requested thread count: `requested > 0` is taken verbatim;
/// `0` means auto (`OTR_THREADS` env if set and positive, else
/// [`std::thread::available_parallelism`], else 4).
pub fn thread_count(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Resolve the in-kernel parallelism threshold: an explicit
/// `Some(cells)` wins (the per-solve config knob); `None` means auto —
/// the `OTR_KERNEL_CELLS` environment variable if set and positive,
/// else [`KERNEL_CELLS_DEFAULT`]. A kernel touching fewer cells than
/// the threshold runs sequentially regardless of the thread setting.
pub fn kernel_cells(requested: Option<usize>) -> usize {
    if let Some(cells) = requested {
        return cells.max(1);
    }
    if let Ok(v) = std::env::var(KERNEL_CELLS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    KERNEL_CELLS_DEFAULT
}

/// Environment variable overriding the columnar repair kernels' row
/// batch size (rows processed per per-batch scratch refill).
pub const BATCH_ROWS_ENV: &str = "OTR_BATCH_ROWS";

/// Default row batch of the columnar repair kernels. Sized so one
/// batch's working set — a handful of `f64` column slices, one 32-byte
/// RNG state per row, and the quantization lanes — stays around the
/// L2 cache (~0.5 MiB at `d = 2`) while the per-batch setup (group
/// partitioning, RNG seeding) amortizes over thousands of rows.
pub const BATCH_ROWS_DEFAULT: usize = 8_192;

/// Resolve the columnar row-batch size: an explicit `Some(rows)` wins
/// (the per-plan config knob, clamped to ≥ 1); `None` means auto — the
/// `OTR_BATCH_ROWS` environment variable if set and positive, else
/// [`BATCH_ROWS_DEFAULT`]. Batch size is pure blocking policy: it may
/// change wall-clock time and nothing else (see `docs/determinism.md`).
pub fn batch_rows(requested: Option<usize>) -> usize {
    if let Some(rows) = requested {
        return rows.max(1);
    }
    if let Ok(v) = std::env::var(BATCH_ROWS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    BATCH_ROWS_DEFAULT
}

/// The `stream`-th output of a SplitMix64 sequence seeded at `base` —
/// the canonical way to derive independent per-item RNG seeds from one
/// base seed. Adjacent streams are decorrelated by the full 64-bit
/// finalizer, unlike naive `base + i` seeding.
pub fn splitmix_seed(base: u64, stream: u64) -> u64 {
    let mut z = base.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Split `0..n` into at most `chunks` contiguous, near-equal, non-empty
/// ranges covering the whole index space in order.
fn chunk_bounds(n: usize, chunks: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let chunks = chunks.max(1).min(n);
    let base = n / chunks;
    let rem = n % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Run `worker` over the chunked index range on scoped threads and
/// return the per-chunk results **in chunk order**. The single-chunk
/// case runs inline on the caller (no spawn overhead for tiny inputs or
/// `threads = 1`). Worker panics propagate to the caller.
fn run_chunked<R: Send>(
    n: usize,
    threads: usize,
    worker: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    let bounds = chunk_bounds(n, thread_count(threads));
    if bounds.len() <= 1 {
        return bounds.into_iter().map(worker).collect();
    }
    let worker = &worker;
    std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .into_iter()
            .map(|range| scope.spawn(move || worker(range)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Parallel indexed map: `out[i] = f(i)` for `i in 0..n`, computed on up
/// to `threads` scoped threads (`0` = auto). Output order and content
/// are identical for every thread count.
pub fn par_map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut chunks = run_chunked(n, threads, |range| range.map(&f).collect::<Vec<T>>());
    if chunks.len() == 1 {
        return chunks.pop().unwrap(); // skip the reassembly copy
    }
    let mut out = Vec::with_capacity(n);
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

/// Fallible parallel indexed map. On success returns `out[i] = f(i)` in
/// index order; on failure returns the error of the **lowest failing
/// index** (each chunk stops at its first error, and chunks cover the
/// index space in order), matching what a sequential loop would report.
pub fn try_par_map_indexed<T, E, F>(n: usize, threads: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let mut chunks = run_chunked(n, threads, |range| {
        let mut out = Vec::with_capacity(range.len());
        for i in range {
            match f(i) {
                Ok(v) => out.push(v),
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    });
    if chunks.len() == 1 {
        return chunks.pop().unwrap(); // skip the reassembly copy
    }
    let mut out = Vec::with_capacity(n);
    for chunk in chunks {
        out.extend(chunk?);
    }
    Ok(out)
}

/// Parallel chunked fold: split `items` into at most `threads` contiguous
/// chunks and apply `f(chunk_start, chunk)` to each, returning the
/// per-chunk results in chunk order. This is the primitive for maps that
/// want thread-local accumulation (e.g. Monte-Carlo statistics merged
/// exactly once per chunk) rather than per-item output.
pub fn par_chunks<I, R, F>(items: &[I], threads: usize, f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(usize, &[I]) -> R + Sync,
{
    run_chunked(items.len(), threads, |range| f(range.start, &items[range]))
}

/// Parallel in-place map over disjoint contiguous chunks of `out`:
/// split `out` into at most `threads` near-equal chunks and apply
/// `f(chunk_start, chunk)` to each on its own scoped thread. This is
/// the primitive behind the in-kernel (Sinkhorn / barycentre-matvec)
/// parallelism: each output element is written by exactly one thread
/// and computed by a loop whose iteration order is independent of the
/// chunking, so the result is bit-identical for every thread count.
/// The single-chunk case runs inline on the caller.
pub fn par_chunks_mut<T, F>(out: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let bounds = chunk_bounds(out.len(), thread_count(threads));
    if bounds.len() <= 1 {
        if let Some(range) = bounds.into_iter().next() {
            f(range.start, &mut out[range]);
        }
        return;
    }
    let f = &f;
    std::thread::scope(|scope| {
        let mut rest = out;
        let mut handles = Vec::with_capacity(bounds.len());
        for range in bounds {
            let (chunk, tail) = rest.split_at_mut(range.len());
            rest = tail;
            handles.push(scope.spawn(move || f(range.start, chunk)));
        }
        for h in handles {
            h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        }
    });
}

/// Parallel in-place map over a **set of equal-length columns**, split
/// at the same row boundaries: each of the `cols` columns (owned
/// vectors or borrowed slices of a larger buffer) is cut into at most
/// `threads` near-equal contiguous row chunks, and
/// `f(row_start, column_chunks)` runs once per chunk on its own scoped
/// thread, receiving the aligned mutable chunk of *every* column.
/// Per-chunk results come back **in chunk order** (so fold-style
/// accumulators merge deterministically on the caller).
///
/// This is the row-chunk primitive of the columnar (SoA) repair path:
/// a worker owns a contiguous row range across all feature columns at
/// once, chunk borders never split a row, and each output element is
/// written by exactly one thread — bit-identical output for every
/// thread count, exactly as with [`par_rows_mut`] on a row-major
/// matrix. The single-chunk case runs inline on the caller.
///
/// # Panics
/// All columns must have the same length.
pub fn par_cols_mut<T, C, R, F>(cols: &mut [C], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    C: AsMut<[T]>,
    R: Send,
    F: Fn(usize, &mut [&mut [T]]) -> R + Sync,
{
    let mut rests: Vec<&mut [T]> = cols.iter_mut().map(AsMut::as_mut).collect();
    let rows = rests.first().map_or(0, |c| c.len());
    for (k, col) in rests.iter().enumerate() {
        assert_eq!(col.len(), rows, "par_cols_mut: column {k} length");
    }
    let bounds = chunk_bounds(rows, thread_count(threads));
    if bounds.len() <= 1 {
        // Zero rows (no chunk) or one chunk spanning every row.
        return bounds.iter().map(|_| f(0, &mut rests)).collect();
    }
    // Pre-split every column at the shared chunk boundaries, so each
    // scoped thread owns one disjoint row range across all columns.
    let mut jobs: Vec<(usize, Vec<&mut [T]>)> = Vec::with_capacity(bounds.len());
    for range in bounds {
        let mut chunk_cols = Vec::with_capacity(rests.len());
        let mut tails = Vec::with_capacity(rests.len());
        for rest in rests {
            let (head, tail) = rest.split_at_mut(range.len());
            chunk_cols.push(head);
            tails.push(tail);
        }
        rests = tails;
        jobs.push((range.start, chunk_cols));
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|(start, mut chunk_cols)| scope.spawn(move || f(start, &mut chunk_cols)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Tile edge of the blocked [`par_transpose`] loops: 64 × 64 `f64` tiles
/// keep one tile's worth of source cache lines (~4 KiB) resident in L1
/// while its destination rows stream out contiguously.
const TRANSPOSE_TILE: usize = 64;

/// Transpose a row-major `rows × cols` matrix `src` into the row-major
/// `cols × rows` buffer `dst`, chunking destination rows across at most
/// `threads` scoped threads (`0` = auto) with an L1-sized blocked inner
/// loop. Each destination element is written by exactly one thread and
/// the operation is a pure permutation, so `dst` is bit-identical for
/// every thread count.
///
/// This is the cache primitive behind the OT kernels' **column phase**:
/// a column update over a row-major kernel reads with stride `cols`,
/// thrashing cache once kernels reach ~1M cells; reading rows of the
/// transposed copy instead is contiguous, and the accumulation order
/// over the original rows is unchanged — so the transposed phase is
/// bitwise-equal to the strided one.
///
/// # Panics
/// `src.len()` and `dst.len()` must both equal `rows * cols`.
pub fn par_transpose<T>(src: &[T], rows: usize, cols: usize, dst: &mut [T], threads: usize)
where
    T: Copy + Send + Sync,
{
    assert_eq!(src.len(), rows * cols, "par_transpose: src shape");
    assert_eq!(dst.len(), rows * cols, "par_transpose: dst shape");
    if rows == 0 || cols == 0 {
        return;
    }
    // Chunk whole destination rows (length `rows` each) across threads;
    // inside a chunk, walk source rows in TILE-sized blocks so the
    // strided source reads of one tile stay cache-resident while the
    // destination writes stream contiguously.
    let bounds = chunk_bounds(cols, thread_count(threads));
    let transpose_chunk = |range: Range<usize>, chunk: &mut [T]| {
        let j0 = range.start;
        for i0 in (0..rows).step_by(TRANSPOSE_TILE) {
            let i1 = (i0 + TRANSPOSE_TILE).min(rows);
            for j in range.clone() {
                let out = &mut chunk[(j - j0) * rows..][i0..i1];
                for (off, slot) in out.iter_mut().enumerate() {
                    *slot = src[(i0 + off) * cols + j];
                }
            }
        }
    };
    if bounds.len() <= 1 {
        if let Some(range) = bounds.into_iter().next() {
            transpose_chunk(range, dst);
        }
        return;
    }
    let transpose_chunk = &transpose_chunk;
    std::thread::scope(|scope| {
        let mut rest = dst;
        let mut handles = Vec::with_capacity(bounds.len());
        for range in bounds {
            let (chunk, tail) = rest.split_at_mut(range.len() * rows);
            rest = tail;
            handles.push(scope.spawn(move || transpose_chunk(range, chunk)));
        }
        for h in handles {
            h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        }
    });
}

/// Parallel in-place map over the **rows** of a row-major `rows × cols`
/// matrix stored flat in `matrix`: apply `f(row_index, row)` to every
/// row, chunking whole rows across at most `threads` scoped threads
/// (chunk borders never split a row). Rows are disjoint and each is
/// processed by exactly one thread in a fixed order, so the result is
/// bit-identical for every thread count.
///
/// # Panics
/// `matrix.len()` must be a multiple of `cols` (for `cols > 0`).
pub fn par_rows_mut<T, F>(matrix: &mut [T], cols: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if cols == 0 || matrix.is_empty() {
        return;
    }
    assert_eq!(matrix.len() % cols, 0, "flat matrix length vs cols");
    let rows = matrix.len() / cols;
    let bounds = chunk_bounds(rows, thread_count(threads));
    if bounds.len() <= 1 {
        for (i, row) in matrix.chunks_mut(cols).enumerate() {
            f(i, row);
        }
        return;
    }
    let f = &f;
    std::thread::scope(|scope| {
        let mut rest = matrix;
        let mut handles = Vec::with_capacity(bounds.len());
        for range in bounds {
            let (chunk, tail) = rest.split_at_mut(range.len() * cols);
            rest = tail;
            handles.push(scope.spawn(move || {
                for (off, row) in chunk.chunks_mut(cols).enumerate() {
                    f(range.start + off, row);
                }
            }));
        }
        for h in handles {
            h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bounds_cover_range_in_order() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for chunks in [1usize, 2, 3, 7, 64] {
                let bounds = chunk_bounds(n, chunks);
                let mut expect = 0;
                for b in &bounds {
                    assert_eq!(b.start, expect);
                    assert!(!b.is_empty());
                    expect = b.end;
                }
                assert_eq!(expect, n);
                if n > 0 {
                    assert!(bounds.len() <= chunks);
                    let lens: Vec<usize> = bounds.iter().map(|b| b.len()).collect();
                    let (mn, mx) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                    assert!(mx - mn <= 1, "unbalanced chunks: {lens:?}");
                }
            }
        }
    }

    #[test]
    fn par_map_identical_across_thread_counts() {
        let reference: Vec<u64> = (0..257).map(|i| splitmix_seed(42, i as u64)).collect();
        for threads in [1usize, 2, 3, 7, 16] {
            let got = par_map_indexed(257, threads, |i| splitmix_seed(42, i as u64));
            assert_eq!(got, reference, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        assert_eq!(par_map_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, 8, |i| i * 10), vec![0]);
        assert_eq!(par_map_indexed(3, 64, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn try_par_map_reports_lowest_failing_index() {
        for threads in [1usize, 2, 7] {
            let r: Result<Vec<usize>, usize> = try_par_map_indexed(100, threads, |i| {
                if i == 13 || i == 77 {
                    Err(i)
                } else {
                    Ok(i)
                }
            });
            assert_eq!(r.unwrap_err(), 13, "threads = {threads}");
        }
        let ok: Result<Vec<usize>, ()> = try_par_map_indexed(10, 3, Ok);
        assert_eq!(ok.unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_sees_every_item_once_in_order() {
        let items: Vec<usize> = (0..101).collect();
        for threads in [1usize, 2, 5, 13] {
            let chunks = par_chunks(&items, threads, |start, chunk| (start, chunk.to_vec()));
            let mut rebuilt = Vec::new();
            let mut expect_start = 0;
            for (start, chunk) in chunks {
                assert_eq!(start, expect_start);
                expect_start = start + chunk.len();
                rebuilt.extend(chunk);
            }
            assert_eq!(rebuilt, items, "threads = {threads}");
        }
    }

    #[test]
    fn splitmix_streams_differ_and_are_stable() {
        let a = splitmix_seed(7, 0);
        assert_eq!(a, splitmix_seed(7, 0));
        assert_ne!(a, splitmix_seed(7, 1));
        assert_ne!(a, splitmix_seed(8, 0));
        // Adjacent streams should differ in roughly half their bits.
        let diff = (splitmix_seed(7, 1) ^ splitmix_seed(7, 2)).count_ones();
        assert!((16..=48).contains(&diff), "weak mixing: {diff} bits");
    }

    #[test]
    fn par_chunks_mut_writes_every_slot_once() {
        for n in [0usize, 1, 5, 257] {
            for threads in [1usize, 2, 7, 64] {
                let mut out = vec![0usize; n];
                par_chunks_mut(&mut out, threads, |start, chunk| {
                    for (off, slot) in chunk.iter_mut().enumerate() {
                        *slot = 3 * (start + off) + 1;
                    }
                });
                let want: Vec<usize> = (0..n).map(|i| 3 * i + 1).collect();
                assert_eq!(out, want, "n = {n}, threads = {threads}");
            }
        }
    }

    #[test]
    fn par_rows_mut_never_splits_a_row() {
        let (rows, cols) = (37usize, 5usize);
        for threads in [1usize, 2, 7, 64] {
            let mut m = vec![0usize; rows * cols];
            par_rows_mut(&mut m, cols, threads, |i, row| {
                assert_eq!(row.len(), cols);
                for (j, slot) in row.iter_mut().enumerate() {
                    *slot = i * cols + j;
                }
            });
            let want: Vec<usize> = (0..rows * cols).collect();
            assert_eq!(m, want, "threads = {threads}");
        }
        // Degenerate shapes are no-ops, not panics.
        par_rows_mut(&mut [] as &mut [usize], 4, 2, |_, _| unreachable!());
        par_rows_mut(&mut [1usize, 2], 0, 2, |_, _| unreachable!());
    }

    #[test]
    fn par_transpose_matches_naive_for_every_thread_count() {
        // Shapes straddling the tile edge, including degenerate ones.
        for (rows, cols) in [(1usize, 1usize), (3, 7), (64, 64), (65, 130), (200, 3)] {
            let src: Vec<u64> = (0..rows * cols)
                .map(|i| splitmix_seed(9, i as u64))
                .collect();
            let mut naive = vec![0u64; rows * cols];
            for i in 0..rows {
                for j in 0..cols {
                    naive[j * rows + i] = src[i * cols + j];
                }
            }
            for threads in [1usize, 2, 7, 64] {
                let mut dst = vec![0u64; rows * cols];
                par_transpose(&src, rows, cols, &mut dst, threads);
                assert_eq!(dst, naive, "rows={rows}, cols={cols}, threads={threads}");
            }
        }
        // Empty shapes are no-ops, not panics.
        par_transpose(&[] as &[u64], 0, 5, &mut [], 4);
    }

    #[test]
    fn par_transpose_round_trips() {
        let (rows, cols) = (37usize, 91usize);
        let src: Vec<u64> = (0..rows * cols)
            .map(|i| splitmix_seed(3, i as u64))
            .collect();
        let mut once = vec![0u64; rows * cols];
        par_transpose(&src, rows, cols, &mut once, 3);
        let mut twice = vec![0u64; rows * cols];
        par_transpose(&once, cols, rows, &mut twice, 5);
        assert_eq!(twice, src);
    }

    #[test]
    fn par_cols_mut_writes_every_cell_once_in_order() {
        for rows in [0usize, 1, 5, 257] {
            for threads in [1usize, 2, 7, 64] {
                let mut cols = vec![vec![0usize; rows]; 3];
                let starts = par_cols_mut(&mut cols, threads, |start, chunks| {
                    assert_eq!(chunks.len(), 3);
                    let len = chunks[0].len();
                    for (k, col) in chunks.iter_mut().enumerate() {
                        assert_eq!(col.len(), len, "misaligned chunk for column {k}");
                        for (off, slot) in col.iter_mut().enumerate() {
                            *slot = 10 * (start + off) + k;
                        }
                    }
                    start
                });
                // Chunk results come back in chunk order.
                let mut sorted = starts.clone();
                sorted.sort_unstable();
                assert_eq!(starts, sorted, "rows = {rows}, threads = {threads}");
                for (k, col) in cols.iter().enumerate() {
                    let want: Vec<usize> = (0..rows).map(|i| 10 * i + k).collect();
                    assert_eq!(col, &want, "rows = {rows}, threads = {threads}");
                }
            }
        }
        // No columns at all is a no-op, not a panic.
        assert!(par_cols_mut::<u8, Vec<u8>, (), _>(&mut [], 4, |_, _| ()).is_empty());
    }

    #[test]
    #[should_panic(expected = "column 1 length")]
    fn par_cols_mut_rejects_misaligned_columns() {
        let mut cols = vec![vec![0u8; 4], vec![0u8; 5]];
        par_cols_mut(&mut cols, 2, |_, _| ());
    }

    #[test]
    fn batch_rows_resolution() {
        assert_eq!(batch_rows(Some(7)), 7);
        assert_eq!(batch_rows(Some(0)), 1); // explicit 0 clamps, not auto
        assert!(batch_rows(None) >= 1);
    }

    #[test]
    fn kernel_cells_resolution() {
        assert_eq!(kernel_cells(Some(7)), 7);
        assert_eq!(kernel_cells(Some(0)), 1); // explicit 0 clamps, not auto
        assert!(kernel_cells(None) >= 1);
    }

    #[test]
    fn thread_count_resolution() {
        assert_eq!(thread_count(3), 3);
        // Auto must be positive whatever the environment says.
        assert!(thread_count(0) >= 1);
    }

    #[test]
    fn env_var_overrides_auto() {
        // Serial within this one test; other tests only use explicit
        // thread counts, so no cross-test env races.
        std::env::set_var(THREADS_ENV, "5");
        assert_eq!(thread_count(0), 5);
        assert_eq!(thread_count(2), 2); // explicit still wins
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(thread_count(0) >= 1);
        std::env::remove_var(THREADS_ENV);
    }
}
