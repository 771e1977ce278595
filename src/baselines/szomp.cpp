#include "baselines/szomp.hpp"

#include "common/timer.hpp"
#include "core/codec.hpp"
#include "core/lorenzo.hpp"
#include "core/pipeline.hpp"
#include "core/quantizer.hpp"
#include "substrate/huffman.hpp"

namespace fz::bench {

RunResult run_fz_omp(const Field& field, double rel_eb, int iters,
                     size_t workers) {
  RunResult r;
  r.compressor = "FZ-OMP";
  r.input_bytes = field.bytes();

  FzParams params;
  params.eb = ErrorBound::relative(rel_eb);
  params.fused_workers = workers;
  FzCompressed c;
  r.native_compress_seconds = time_best_of(
      iters, [&] { c = fz_compress(field.values(), field.dims, params); });
  r.compressed_bytes = c.bytes.size();
  FzDecompressed d;
  r.native_decompress_seconds =
      time_best_of(iters, [&] { d = Codec(params).decompress(c.bytes); });
  r.reconstructed = std::move(d.data);
  return r;
}

RunResult run_sz_omp(const Field& field, double rel_eb, int iters) {
  RunResult r;
  r.compressor = "SZ-OMP";
  r.input_bytes = field.bytes();
  const double abs_eb = ErrorBound::relative(rel_eb).resolve(field.value_range());

  constexpr u32 kRadius = 512;
  std::vector<u8> huff;
  std::vector<Outlier> outliers;
  r.native_compress_seconds = time_best_of(iters, [&] {
    std::vector<i64> pq(field.count());
    prequantize(field.values(), abs_eb, pq);
    lorenzo_forward(pq, field.dims, pq);
    QuantV1Result q = quant_encode_v1(pq, kRadius);
    outliers = std::move(q.outliers);
    huff = huffman_compress(q.codes, 2 * kRadius);
  });
  r.compressed_bytes = huff.size() + outliers.size() * 16;

  r.native_decompress_seconds = time_best_of(iters, [&] {
    std::vector<u16> codes = huffman_decompress(huff);
    QuantV1Result q;
    q.radius = kRadius;
    q.codes = std::move(codes);
    q.outliers = outliers;
    std::vector<i64> deltas(field.count());
    quant_decode_v1(q, deltas);
    lorenzo_inverse(deltas, field.dims, deltas);
    r.reconstructed.resize(field.count());
    dequantize(deltas, abs_eb, r.reconstructed);
  });
  return r;
}

}  // namespace fz::bench
