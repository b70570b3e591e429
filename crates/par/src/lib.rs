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
//! threshold** ([`kernel_threads`]): a kernel engages its chunked path
//! only when it touches at least [`KERNEL_CELLS_DEFAULT`] matrix cells,
//! so the many tiny solves of a 1-D plan design stay free of spawn
//! overhead while the `nQ⁴`-cell joint kernels scale with cores.
//! `OTR_THREADS` is the only execution setting read from the
//! environment; everything else is a constant here or a field of the
//! caller's config.
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

use std::convert::Infallible;
use std::ops::Range;

/// Environment variable overriding the auto thread count.
pub const THREADS_ENV: &str = "OTR_THREADS";

/// In-kernel parallelism threshold, in matrix cells. Sized so a 1-D
/// `nQ ≤ 180` solve (≤ 32 400 cells) stays sequential — its scaling
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

/// Worker threads for an OT kernel that touches `cells` matrix cells:
/// `threads` (`0` = auto, resolved by the executor) once `cells`
/// reaches the threshold — `min_cells` when the solve's config sets
/// one, else [`KERNEL_CELLS_DEFAULT`] — and 1 below it, so small solves
/// never pay for a spawn. The Sinkhorn solver and the barycentre both
/// decide their in-kernel threads here.
pub fn kernel_threads(threads: usize, cells: usize, min_cells: Option<usize>) -> usize {
    if cells >= min_cells.unwrap_or(KERNEL_CELLS_DEFAULT) {
        threads
    } else {
        1
    }
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

/// Run `work` on every job, each on its own scoped thread, and return
/// the results **in job order**: the one split-and-join every executor
/// here shares, each of them only building its jobs. A single job runs
/// inline on the caller (no spawn overhead for tiny inputs or
/// `threads = 1`). Worker panics propagate to the caller.
fn run_jobs<J: Send, R: Send>(
    jobs: impl IntoIterator<Item = J, IntoIter: ExactSizeIterator>,
    work: impl Fn(J) -> R + Sync,
) -> Vec<R> {
    let jobs = jobs.into_iter();
    if jobs.len() <= 1 {
        return jobs.map(work).collect();
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs.map(|job| scope.spawn(move || work(job))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Cut `data` into consecutive pieces of `width · range.len()` elements,
/// one per range of `bounds`, each paired with its range.
fn split_at_bounds<T>(
    data: &mut [T],
    bounds: Vec<Range<usize>>,
    width: usize,
) -> impl ExactSizeIterator<Item = (Range<usize>, &mut [T])> {
    let mut rest = data;
    bounds.into_iter().map(move |range| {
        let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(range.len() * width);
        rest = tail;
        (range, chunk)
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
    let Ok(out) = try_par_map_indexed(n, threads, |i| Ok::<T, Infallible>(f(i)));
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
    let mut chunks = run_jobs(chunk_bounds(n, thread_count(threads)), |range| {
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
    let bounds = chunk_bounds(items.len(), thread_count(threads));
    run_jobs(bounds, |range| f(range.start, &items[range]))
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
    run_jobs(split_at_bounds(out, bounds, 1), |(range, chunk)| {
        f(range.start, chunk)
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
    let jobs = split_cols(cols, thread_count(threads));
    run_jobs(jobs, |(rows, mut chunk)| f(rows.start, &mut chunk))
}

/// Cut each of the equal-length `cols` at the same row boundaries into
/// at most `chunks` contiguous, near-equal, non-empty row ranges covering
/// every row in order: one job per range, holding the range and its
/// slice of every column (no job at all for zero rows). [`par_cols_mut`]
/// runs on this layout; a caller that wants more jobs than threads (the
/// repair daemon's shards) splits here and runs the jobs itself.
///
/// # Panics
/// All columns must have the same length.
pub fn split_cols<T, C: AsMut<[T]>>(
    cols: &mut [C],
    chunks: usize,
) -> Vec<(Range<usize>, Vec<&mut [T]>)> {
    let mut rests: Vec<&mut [T]> = cols.iter_mut().map(AsMut::as_mut).collect();
    let rows = rests.first().map_or(0, |c| c.len());
    for (k, col) in rests.iter().enumerate() {
        assert_eq!(col.len(), rows, "split_cols: column {k} length");
    }
    chunk_bounds(rows, chunks)
        .into_iter()
        .map(|range| {
            let (heads, tails) = std::mem::take(&mut rests)
                .into_iter()
                .map(|col| col.split_at_mut(range.len()))
                .unzip();
            rests = tails;
            (range, heads)
        })
        .collect()
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
    run_jobs(split_at_bounds(matrix, bounds, cols), |(range, chunk)| {
        for (off, row) in chunk.chunks_mut(cols).enumerate() {
            f(range.start + off, row);
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
    fn kernel_threads_engage_at_the_threshold() {
        let below = KERNEL_CELLS_DEFAULT - 1;
        assert_eq!(kernel_threads(4, below, None), 1);
        assert_eq!(kernel_threads(4, KERNEL_CELLS_DEFAULT, None), 4);
        assert_eq!(kernel_threads(0, KERNEL_CELLS_DEFAULT, None), 0); // auto stays auto
        assert_eq!(kernel_threads(4, 7, Some(7)), 4); // a config threshold wins
        assert_eq!(kernel_threads(4, 6, Some(7)), 1);
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
