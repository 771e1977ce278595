#include "core/costs.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "core/bitshuffle.hpp"

namespace fz {

namespace {

using cudasim::CostSheet;

// Per-element resource counts, derived from the kernel structure:
//
// pred-quant v2 (§3.2): one fused kernel; each thread loads its f32, rounds,
// computes the Lorenzo stencil from neighbours (re-loaded through cache /
// shared tiles — charged as ops, not extra DRAM), sign-magnitude packs and
// stores a u16.  No branches.
constexpr double kPredQuantV2Ops = 14.0;
// pred-quant v1 adds the radius range check (warp-divergent on real data),
// the +radius shift, and the atomic outlier compaction; cuSZ also emits
// 4-byte quantization codes instead of u16.
constexpr double kPredQuantV1Ops = 24.0;
constexpr double kAtomicOutlierNs = 0.05;  // amortized atomicAdd slot grab

// bitshuffle (§3.3): per 32-word unit a warp does one coalesced load, 32
// ballot rounds (each: mask test + ballot + one shared write), and one
// coalesced store.  The stage stays memory-bound on both devices — the
// paper's FZ throughput tracks DRAM bandwidth across A100/A4000.
constexpr double kBitshuffleOpsPerWord = 45.0;
constexpr double kBitshuffleSmemTxPerWord = 1.35;

// mark (encode phase 1): iterate each 16-byte block, OR the words, ballot
// the byte flags into bit flags.
constexpr double kMarkOpsPerBlock = 10.0;

// encode phase 2: CUB ExclusiveSum over the byte flags (two sub-kernels)
// plus the compaction kernel.
constexpr double kScanOpsPerBlock = 6.0;
constexpr double kCompactOpsPerBlock = 8.0;

// fused decode into the caller's buffer (fused_decode_parallel), per
// element beyond the scatter-decode: the running x-sum add, the three
// strip-local Lorenzo neighbour adds (3-D), the strip carry add, and the
// dequantize multiply.
constexpr double kDecodeIntoOpsPerElem = 6.0;

// Gap-array Huffman decode: with the K-bit lookup table one shared-memory
// access resolves a whole code (two for codes past the primary width), so
// a symbol costs ~8 ops — peek, table hit, length extract, bit-cursor
// advance — versus the ~40 of the bit-at-a-time canonical walk the old
// chunk-serial estimate charged.
constexpr double kHuffGapDecodeOpsPerSym = 8.0;
constexpr double kHuffGapDecodeSmemTxPerSym = 2.0;
// Per-segment setup: map the segment to its chunk, load its gap offset,
// and align the bit cursor before the first symbol.
constexpr double kHuffGapSegmentSetupOps = 24.0;

/// The mark kernel's output: one byte flag and one bit flag per block.
u64 flag_bytes(const FzStats& st) {
  return static_cast<u64>(st.total_blocks) + st.total_blocks / 8;
}

}  // namespace

std::vector<CostSheet> fz_compression_costs(const FzStats& st,
                                            const FzParams& params) {
  const double n = static_cast<double>(st.count);
  const size_t words = round_up(st.count, kTileBytes / sizeof(u16)) / 2;
  const double w = static_cast<double>(words);
  const double blocks = static_cast<double>(st.total_blocks);
  const double nz = static_cast<double>(st.nonzero_blocks);

  std::vector<CostSheet> costs;

  // ---- stage 1: pred-quant ------------------------------------------------
  CostSheet pq;
  pq.kernel_launches = 1;
  pq.global_bytes_read = static_cast<u64>(n) * 4;
  if (params.quant == QuantVersion::V2Optimized) {
    pq.name = "pred-quant-v2";
    pq.global_bytes_written = static_cast<u64>(n) * 2;
    pq.thread_ops = static_cast<u64>(n * kPredQuantV2Ops);
  } else {
    pq.name = "pred-quant-v1";
    // cuSZ's original kernel writes the u16 codes AND a dense full-length
    // outlier value array (compacted later) — the "amount of memory
    // transaction [that] hinders the performance" (§3.1); this is the bulk
    // of v2's up-to-1.7x advantage.
    pq.global_bytes_written =
        static_cast<u64>(n) * (2 + 4) + static_cast<u64>(st.outliers) * 12;
    pq.thread_ops = static_cast<u64>(n * kPredQuantV1Ops);
    // Warps containing at least one out-of-radius residual replay both
    // branch sides; bound by the warp count.
    pq.divergent_branches = std::min<u64>(static_cast<u64>(st.outliers),
                                          static_cast<u64>(n) / 32);
    pq.serial_ns = kAtomicOutlierNs * static_cast<double>(st.outliers);
  }
  costs.push_back(pq);

  // ---- stage 2: bitshuffle + mark (fused, §3.4) ---------------------------
  CostSheet bs;
  bs.name = "bitshuffle-mark-fused";
  bs.kernel_launches = 1;
  bs.global_bytes_read = words * sizeof(u32);
  bs.global_bytes_written = words * sizeof(u32) + flag_bytes(st);
  bs.thread_ops =
      static_cast<u64>(w * kBitshuffleOpsPerWord + blocks * kMarkOpsPerBlock);
  bs.shared_transactions = static_cast<u64>(w * kBitshuffleSmemTxPerWord);
  costs.push_back(bs);

  // ---- stage 3: prefix-sum + encode ---------------------------------------
  CostSheet enc;
  enc.name = "prefix-sum-encode";
  enc.kernel_launches = 3;  // scan upsweep, scan downsweep, compaction
  // The compact kernel's data loads are predicated on the block flag, so
  // only nonzero blocks move — this is why the v2 quantization (fewer
  // nonzero blocks) speeds the encode up by up to ~1.9x (paper §4.5).
  enc.global_bytes_read = static_cast<u64>(blocks) * 3  // flags (scan x2 + enc)
                          + static_cast<u64>(blocks) * sizeof(u32) * 2  // offsets
                          + static_cast<u64>(nz) * kBlockWords * sizeof(u32);
  enc.global_bytes_written = static_cast<u64>(blocks) * sizeof(u32)  // offsets
                             + static_cast<u64>(nz) * kBlockWords * sizeof(u32);
  enc.thread_ops =
      static_cast<u64>(blocks * (kScanOpsPerBlock + kCompactOpsPerBlock));
  costs.push_back(enc);

  return costs;
}

std::vector<CostSheet> fz_split_bitshuffle_mark_costs(const FzStats& st) {
  const size_t words = round_up(st.count, kTileBytes / sizeof(u16)) / 2;
  const double w = static_cast<double>(words);
  const double blocks = static_cast<double>(st.total_blocks);

  CostSheet bs;
  bs.name = "bitshuffle";
  bs.kernel_launches = 1;
  bs.global_bytes_read = words * sizeof(u32);
  bs.global_bytes_written = words * sizeof(u32);
  bs.thread_ops = static_cast<u64>(w * kBitshuffleOpsPerWord);
  bs.shared_transactions = static_cast<u64>(w * kBitshuffleSmemTxPerWord);
  CostSheet mark;
  mark.name = "mark";
  mark.kernel_launches = 1;
  // The split kernel must re-read the shuffled words from global memory —
  // the traffic the fusion eliminates (§3.4).
  mark.global_bytes_read = words * sizeof(u32);
  mark.global_bytes_written = flag_bytes(st);
  mark.thread_ops = static_cast<u64>(blocks * kMarkOpsPerBlock);
  return {bs, mark};
}

CostSheet fz_fused_tile_cost(const FzStats& st) {
  const double n = static_cast<double>(st.count);
  const size_t words = round_up(st.count, kTileBytes / sizeof(u16)) / 2;
  const double w = static_cast<double>(words);
  const double blocks = static_cast<double>(st.total_blocks);

  CostSheet c;
  c.name = "fused-quant-shuffle-mark";
  c.kernel_launches = 1;
  // Input once; shuffled words + flags out.  The u16 codes live only in
  // the tile working set (shared memory on the device, L1 on the host).
  c.global_bytes_read = static_cast<u64>(n) * 4;
  c.global_bytes_written = static_cast<u64>(words) * sizeof(u32) +
                           static_cast<u64>(blocks) +
                           static_cast<u64>(blocks) / 8;
  c.thread_ops = static_cast<u64>(n * kPredQuantV2Ops +
                                  w * kBitshuffleOpsPerWord +
                                  blocks * kMarkOpsPerBlock);
  c.shared_transactions = static_cast<u64>(w * kBitshuffleSmemTxPerWord);
  return c;
}

u64 fz_halo_recompute_elems(Dims dims, size_t strips) {
  if (strips <= 1) return 0;
  const size_t reach = dims.rank() == 1   ? 1
                       : dims.rank() == 2 ? dims.x + 1
                                          : dims.x * dims.y + dims.x + 1;
  return static_cast<u64>(strips - 1) * reach;
}

CostSheet fz_fused_parallel_cost(const FzStats& st, Dims dims, size_t strips) {
  CostSheet c = fz_fused_tile_cost(st);
  c.name = "fused-quant-shuffle-mark-strips";
  const u64 halo = fz_halo_recompute_elems(dims, strips);
  // One extra f32 read plus the pointwise quantization (2 ops) per halo
  // element; the Lorenzo stencil itself is not recomputed.
  c.global_bytes_read += halo * sizeof(f32);
  c.thread_ops += halo * 2;
  return c;
}

CostSheet fz_fused_encode_cost(const FzStats& st, Dims dims, size_t strips) {
  const double n = static_cast<double>(st.count);
  const size_t words = round_up(st.count, kTileBytes / sizeof(u16)) / 2;
  const double w = static_cast<double>(words);
  const double blocks = static_cast<double>(st.total_blocks);
  const u64 elem_bytes = st.count == 0 ? 0 : st.input_bytes / st.count;
  const u64 halo = fz_halo_recompute_elems(dims, strips);

  CostSheet c;
  c.name = "fused-quant-encode";
  c.kernel_launches = 1;
  c.global_bytes_read = st.input_bytes + halo * elem_bytes;
  c.global_bytes_written = static_cast<u64>(st.total_blocks) / 8 +
                           static_cast<u64>(st.nonzero_blocks) * kBlockWords *
                               sizeof(u32);
  // The expanded pass's arithmetic plus the per-block append at the tile
  // flush; the halo adds its pointwise quantization.
  c.thread_ops = static_cast<u64>(
      n * kPredQuantV2Ops + w * kBitshuffleOpsPerWord +
      blocks * (kMarkOpsPerBlock + kCompactOpsPerBlock)) + halo * 2;
  c.shared_transactions = static_cast<u64>(w * kBitshuffleSmemTxPerWord);
  return c;
}

CostSheet fz_fused_decode_cost(const FzStats& st) {
  const double n = static_cast<double>(st.count);
  const size_t words = round_up(st.count, kTileBytes / sizeof(u16)) / 2;
  const double w = static_cast<double>(words);
  const double blocks = static_cast<double>(st.total_blocks);
  const double nz = static_cast<double>(st.nonzero_blocks);

  CostSheet c;
  c.name = "fused-decode";
  c.kernel_launches = 1;
  // Flags + offsets + compacted payload in; i64 residuals out.  The
  // scattered words and u16 codes live only in the tile working set, the
  // decode-side mirror of fz_fused_tile_cost's saved traffic.
  c.global_bytes_read = static_cast<u64>(blocks) + static_cast<u64>(blocks) / 8 +
                        static_cast<u64>(blocks) * sizeof(u32) +
                        static_cast<u64>(nz) * kBlockWords * sizeof(u32);
  c.global_bytes_written = static_cast<u64>(n) * sizeof(i64);
  // Offset scan + scatter, the inverse shuffle's ballot rounds, and the
  // two-op sign-magnitude decode per element.
  c.thread_ops = static_cast<u64>(
      blocks * (kScanOpsPerBlock + kCompactOpsPerBlock) +
      w * kBitshuffleOpsPerWord + n * 2);
  c.shared_transactions = static_cast<u64>(w * kBitshuffleSmemTxPerWord);
  return c;
}

CostSheet fz_fused_decode_inplace_cost(const FzStats& st) {
  const double n = static_cast<double>(st.count);
  const size_t words = round_up(st.count, kTileBytes / sizeof(u16)) / 2;
  const double w = static_cast<double>(words);
  const u64 tiles = words / kTileWords;
  const double blocks = static_cast<double>(st.total_blocks);

  CostSheet c;
  c.name = "fused-decode-inplace";
  c.kernel_launches = 1;
  // The bit flags, the (tiles + 1) tile offsets and the payload are read
  // once, straight from the stream; the strip-local i64 values are
  // written once.  No expanded flags, block offsets or payload copy.
  c.global_bytes_read = static_cast<u64>(st.total_blocks) / 8 +
                        (tiles + 1) * sizeof(u32) +
                        static_cast<u64>(st.nonzero_blocks) * kBlockWords *
                            sizeof(u32);
  c.global_bytes_written = st.count * sizeof(i64);
  // One popcount per 8 flag bytes, the per-block scatter, the inverse
  // shuffle's ballot rounds, the two-op sign-magnitude decode per element.
  c.thread_ops = static_cast<u64>(blocks / 64 + blocks * kCompactOpsPerBlock +
                                  w * kBitshuffleOpsPerWord + n * 2);
  c.shared_transactions = static_cast<u64>(w * kBitshuffleSmemTxPerWord);
  return c;
}

CostSheet fz_fused_decode_into_cost(const FzStats& st) {
  const u64 n = st.count;
  CostSheet c = fz_fused_decode_inplace_cost(st);
  c.name = "fused-decode-into";
  // The i64 staging is written once (pass 1) and read once (the carry +
  // dequantize write-out); the field is written once, in its own dtype.
  c.global_bytes_read += n * sizeof(i64);
  c.global_bytes_written += st.input_bytes;
  c.thread_ops += static_cast<u64>(static_cast<double>(n) *
                                   kDecodeIntoOpsPerElem);
  return c;
}

u64 fz_fusion_traffic_saved(const FzStats& st) {
  // pred-quant's code-array write (2 bytes/value) plus bitshuffle's
  // re-read of the same array (padded to a tile boundary).
  const size_t words = round_up(st.count, kTileBytes / sizeof(u16)) / 2;
  return static_cast<u64>(st.count) * 2 +
         static_cast<u64>(words) * sizeof(u32);
}

CostSheet huffman_gap_decode_cost(size_t count, size_t encoded_bytes,
                                  size_t gap_bytes) {
  CostSheet c;
  c.name = "huffman-decode-gap";
  c.kernel_launches = 1;
  // The whole stream is read once (the gap array is part of it — that is
  // the storage the format spends); decoded symbols are written once.
  c.global_bytes_read = encoded_bytes;
  c.global_bytes_written = static_cast<u64>(count) * sizeof(u16);
  // One thread per segment: the segment count is recoverable from the gap
  // metadata (one u32 per segment after each chunk's first).
  const u64 segments = gap_bytes / sizeof(u32) + 1;
  c.thread_ops = static_cast<u64>(static_cast<double>(count) *
                                      kHuffGapDecodeOpsPerSym +
                                  static_cast<double>(segments) *
                                      kHuffGapSegmentSetupOps);
  c.shared_transactions = static_cast<u64>(static_cast<double>(count) *
                                           kHuffGapDecodeSmemTxPerSym);
  return c;
}

CostSheet fz_fully_fused_cost(const FzStats& st) {
  const double n = static_cast<double>(st.count);
  const size_t words = round_up(st.count, kTileBytes / sizeof(u16)) / 2;
  const double w = static_cast<double>(words);
  const double blocks = static_cast<double>(st.total_blocks);
  const double nz = static_cast<double>(st.nonzero_blocks);

  CostSheet c;
  c.name = "fz-fused-all";
  c.kernel_launches = 1;
  // Input once; output = flags + compacted blocks only.  The intermediate
  // code and shuffled-word arrays never touch DRAM.
  c.global_bytes_read = static_cast<u64>(n) * 4;
  c.global_bytes_written = static_cast<u64>(blocks) + static_cast<u64>(blocks) / 8 +
                           static_cast<u64>(nz) * kBlockWords * sizeof(u32);
  // All three stages' arithmetic still runs, plus the decoupled-lookback
  // scan bookkeeping per tile.
  c.thread_ops = static_cast<u64>(n * kPredQuantV2Ops + w * kBitshuffleOpsPerWord +
                                  blocks * (kMarkOpsPerBlock + kScanOpsPerBlock +
                                            kCompactOpsPerBlock));
  c.shared_transactions = static_cast<u64>(w * kBitshuffleSmemTxPerWord * 1.5);
  // Lookback chains serialize on tile-prefix availability.
  c.serial_ns = blocks / kBlocksPerTile * 1.0;
  return c;
}

std::vector<CostSheet> fz_decompression_costs(const FzStats& st,
                                              const FzParams& params) {
  // The decompression pipeline mirrors compression (paper §4.4: "highly
  // symmetrical ... throughput nearly identical"): scatter blocks, inverse
  // bitshuffle, inverse Lorenzo + dequantization.
  std::vector<CostSheet> costs = fz_compression_costs(st, params);
  std::reverse(costs.begin(), costs.end());
  for (auto& c : costs) {
    std::swap(c.global_bytes_read, c.global_bytes_written);
    c.name = "inv-" + c.name;
  }
  return costs;
}

}  // namespace fz
