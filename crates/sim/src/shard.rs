//! Qubit-sharded sampling support for the frame-batch strip runner.
//!
//! At Osprey/Condor widths (433/1121 qubits) a single strip's
//! sampling pass — per-lane noise codes plus the per-op mask
//! hashing — dominates wall clock, and with few strips in
//! flight (low shot counts) strip-level fan-out alone cannot fill the
//! worker pool. The seed schedule makes a second axis available for
//! free: every draw is a pure counter-based hash of
//! `(seed, shot, site)` where the site is keyed by the op's *owner*
//! qubit (flushes, gates, measures) or an edge id reachable only from
//! its flush's owner. Sampling therefore partitions exactly by owner:
//! worker threads own contiguous qubit shards of the lattice, each
//! hashes only its own ops' masks (and its own qubits' per-lane
//! noise codes) into a private buffer, and the buffers are merged
//! **deterministically in shard order** back into the exact linear
//! layout the serial sampling pass would have produced. Propagation
//! then replays the merged buffer unchanged, so sharded output is
//! bit-identical to unsharded output — and hence to the serial
//! engine — for every shard and worker count.
//!
//! Both layouts are the *pruned* one: a run samples only the noise
//! sites in its output cone (see `frame_batch::Liveness`), so a
//! shard pushes words only for its live sites and derives per-lane
//! noise codes only for its qubits with a live bank flush (their
//! rows are contiguous, so a shard allocates its own rows only). The merge
//! schedule therefore copies each op's *live* word count, and a
//! shard's initial-Z block holds its live qubits only. On a sparse
//! layer most shards own idle lattice and finish almost at once.

/// Devices narrower than this never shard: below a few hundred qubits
/// the per-shard walk overhead (each shard still scans the full op
/// program to find its own) cancels the hashing win.
pub(crate) const SHARD_MIN_QUBITS: usize = 192;

/// Cap on shards per strip: beyond this the merge copy and redundant
/// program walks dominate the shrinking per-shard hash work.
pub(crate) const MAX_SHARDS: usize = 8;

/// How many qubit shards one strip's sampling pass should fan out to,
/// given the device width `n`, the number of strips the run has in
/// flight, and the resolved worker pool. Returns 1 (no sharding)
/// whenever strip-level parallelism already fills the pool or the
/// device is too narrow to profit.
///
/// The choice only affects wall clock, never output: sharded and
/// unsharded sampling produce identical buffers by construction.
pub(crate) fn shard_count(n: usize, strips: usize, pool: usize) -> usize {
    if n < SHARD_MIN_QUBITS {
        return 1;
    }
    (pool / strips.max(1)).clamp(1, MAX_SHARDS)
}

/// Splits `0..n` into `shards` contiguous, near-equal qubit ranges
/// (first `n % shards` ranges one longer). Contiguity matters: the
/// heavy-hex numbering is row-major, so contiguous index ranges are
/// spatially coherent shards of the lattice, and the initial-Z block
/// of the merged buffer (qubit-major) is a plain concatenation of the
/// shard blocks in shard order.
pub(crate) fn qubit_ranges(n: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.clamp(1, n.max(1));
    let base = n / shards;
    let extra = n % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        out.push((start, start + len));
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

/// Merges per-shard sampling buffers back into the serial buffer
/// layout: first every shard's initial-Z block in shard order (shard
/// ranges are contiguous and ascending, so this *is* the qubit-major
/// order), then one copy per program op in global op order, pulled
/// from the owning shard's cursor. `init_lens` are the shards'
/// initial-Z block lengths (live qubits only); `sched` lists, for
/// each op that pushed any words, the owning shard and its live word
/// count; `total_words` is the serial buffer's exact length.
pub(crate) fn merge_op_order(
    bufs: &[Vec<u64>],
    init_lens: &[usize],
    sched: &[(u32, u32)],
    total_words: usize,
) -> Vec<u64> {
    debug_assert_eq!(bufs.len(), init_lens.len());
    let mut noise = Vec::with_capacity(total_words);
    for (buf, &init) in bufs.iter().zip(init_lens) {
        noise.extend_from_slice(&buf[..init]);
    }
    let mut cursors: Vec<usize> = init_lens.to_vec();
    for &(s, words) in sched {
        let s = s as usize;
        let c = cursors[s];
        noise.extend_from_slice(&bufs[s][c..c + words as usize]);
        cursors[s] = c + words as usize;
    }
    debug_assert!(cursors.iter().zip(bufs).all(|(&c, buf)| c == buf.len()));
    debug_assert_eq!(noise.len(), total_words);
    noise
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_and_are_contiguous() {
        for n in [1, 7, 127, 433, 1121] {
            for shards in [1, 2, 3, 8, 16] {
                let ranges = qubit_ranges(n, shards);
                assert_eq!(ranges[0].0, 0);
                assert_eq!(ranges.last().unwrap().1, n);
                for pair in ranges.windows(2) {
                    assert_eq!(pair[0].1, pair[1].0);
                    assert!(pair[0].1 > pair[0].0);
                }
            }
        }
    }

    #[test]
    fn shard_count_policy() {
        // Narrow devices never shard.
        assert_eq!(shard_count(127, 1, 16), 1);
        // Wide device, saturated strips: no sharding needed.
        assert_eq!(shard_count(1121, 32, 8), 1);
        // Wide device, single strip: split the pool.
        assert_eq!(shard_count(1121, 1, 8), 8);
        assert_eq!(shard_count(433, 2, 8), 4);
        // Capped.
        assert_eq!(shard_count(1121, 1, 64), MAX_SHARDS);
    }

    #[test]
    fn merge_restores_op_order() {
        // Two shards; shard 0 owns qubits {0}, shard 1 owns {1, 2}.
        // Init blocks: [10], [11, 12]. Ops: op A (shard 1, 2 words),
        // op B (shard 0, 1 word), op C (shard 1, 1 word).
        let bufs = vec![vec![10, 100], vec![11, 12, 200, 201, 202]];
        let merged = merge_op_order(&bufs, &[1, 2], &[(1, 2), (0, 1), (1, 1)], 7);
        assert_eq!(merged, vec![10, 11, 12, 200, 201, 100, 202]);
    }
}
