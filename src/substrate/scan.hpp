// Exclusive prefix sums.
//
// Three implementations with identical results:
//  * scan_sequential    — reference,
//  * scan_parallel      — two-pass blocked scan on the fork/join executor,
//  * scan_device_model  — the CUB-style ExclusiveSum used by the fz encoder's
//    phase 2 (§3.4): a reduce-then-scan over fixed-size tiles whose device
//    cost (tile reduction kernel + serial tile-prefix + downsweep kernel) is
//    reported in a CostSheet.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "cudasim/cost_sheet.hpp"

namespace fz {

void scan_exclusive_sequential(std::span<const u32> in, std::span<u32> out);
void scan_exclusive_parallel(std::span<const u32> in, std::span<u32> out);

/// Number of chunks the blocked parallel scan splits `n` elements into
/// (bounded by the thread count).  Scratch-taking scan overloads need
/// 2 * scan_chunk_count(n) u32 of scratch.
size_t scan_chunk_count(size_t n);

/// Allocation-free variant: `scratch` holds the per-chunk totals and
/// offsets (>= 2 * scan_chunk_count(in.size()) elements).  Used by the
/// stage graph with pooled buffers.
void scan_exclusive_parallel(std::span<const u32> in, std::span<u32> out,
                             std::span<u32> scratch);

/// CUB-style ExclusiveSum: computes `out` and returns the modeled device
/// cost of the two-kernel scan over `tile_size`-element tiles.
cudasim::CostSheet scan_exclusive_device_model(std::span<const u32> in,
                                               std::span<u32> out,
                                               size_t tile_size = 2048);

/// Allocation-free variant (see scan_exclusive_parallel above).
cudasim::CostSheet scan_exclusive_device_model(std::span<const u32> in,
                                               std::span<u32> out,
                                               std::span<u32> scratch,
                                               size_t tile_size);

}  // namespace fz
