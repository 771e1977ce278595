// Performance regression bench (PR3 stages + PR5 tile parallelism):
// wall-clock GB/s of each vectorized pipeline stage at every SIMD dispatch
// level, end-to-end compression throughput of the fused-parallel graph at
// {scalar, best-SIMD} on the tier-1 benchmark suite, a fused-parallel
// thread-scaling sweep (1/2/4/max workers, compress AND decompress), and
// decompression throughput.  Emits a machine-readable JSON report (default
// BENCH_pr5.json) consumed by scripts/bench_smoke.sh; the human table goes
// to stdout.  Byte-identity of the SIMD stream against the scalar one is
// asserted while measuring.
//
// PR8 adds a gap-array Huffman decode sweep: per-dataset quantization codes
// are Huffman-encoded once, then decoded at 1/2/4/max workers (table-driven)
// plus the bit-serial ablation at one worker, with symbol identity asserted
// on every timed run.  Those rows go to a second report (default
// BENCH_pr8.json), gated separately by scripts/bench_smoke.sh.
//
// The decompress rows: end-to-end fused decompression per dataset — plus
// a 512×256×4 thin slab, the Reader chunk shape — plus a 3-D z-carry
// chunked-scan thread sweep on a flat volume (the shape whose y-extent is
// too small for the row-parallel path).  Those rows go to a third report
// (default BENCH_pr10.json), gated by scripts/bench_smoke.sh.
//
// Usage: regress [--scale S] [--iters N] [--out FILE] [--huff-out FILE]
//                [--pr10-out FILE]
#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "core/bitshuffle.hpp"
#include "core/codec.hpp"
#include "core/format.hpp"
#include "core/kernels_simd.hpp"
#include "core/lorenzo.hpp"
#include "core/pipeline.hpp"
#include "core/quantizer.hpp"
#include "datasets/generators.hpp"
#include "harness/tables.hpp"
#include "substrate/histogram.hpp"
#include "substrate/huffman.hpp"

namespace {

using namespace fz;

double min_seconds(int iters, const std::function<void()>& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < iters; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

double gbps(size_t bytes, double secs) {
  return static_cast<double>(bytes) / secs / 1e9;
}

std::vector<SimdLevel> levels_under_test() {
  std::vector<SimdLevel> levels{SimdLevel::Scalar};
  if (simd_supported() >= SimdLevel::SSE2) levels.push_back(SimdLevel::SSE2);
  if (simd_supported() >= SimdLevel::AVX2) levels.push_back(SimdLevel::AVX2);
  return levels;
}

struct JsonWriter {
  std::string buf = "{\n";
  bool first_section = true;

  void section(const std::string& key) {
    if (!first_section) buf += ",\n";
    first_section = false;
    buf += "  \"" + key + "\": ";
  }
  static std::string num(double v) {
    char tmp[64];
    std::snprintf(tmp, sizeof(tmp), "%.6g", v);
    return tmp;
  }
  std::string finish() { return buf + "\n}\n"; }
};

struct StageRow {
  std::string stage, level;
  double value_gbps;
};

struct CompressRow {
  std::string dataset, config;
  double value_gbps;
};

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.12;
  int iters = 3;
  std::string out_path = "BENCH_pr5.json";
  std::string huff_out_path = "BENCH_pr8.json";
  std::string pr10_out_path = "BENCH_pr10.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scale" && i + 1 < argc) scale = std::stod(argv[++i]);
    else if (arg == "--iters" && i + 1 < argc) iters = std::stoi(argv[++i]);
    else if (arg == "--out" && i + 1 < argc) out_path = argv[++i];
    else if (arg == "--huff-out" && i + 1 < argc) huff_out_path = argv[++i];
    else if (arg == "--pr10-out" && i + 1 < argc) pr10_out_path = argv[++i];
    else {
      std::cerr << "usage: regress [--scale S] [--iters N] [--out FILE] "
                   "[--huff-out FILE] [--pr10-out FILE]\n";
      return 2;
    }
  }

  const auto levels = levels_under_test();
  const SimdLevel best = resolve_simd(SimdDispatch::Auto);
  const size_t hw_threads = max_threads();
  std::cout << "PR5 regression bench: scale=" << scale << " iters=" << iters
            << " best SIMD level: " << simd_level_name(best)
            << " hw threads: " << hw_threads << "\n\n";

  // ---- per-stage throughput at every dispatch level ------------------------
  const Field stage_field = generate_field(
      Dataset::Hurricane, scaled_dims(Dataset::Hurricane, std::max(scale, 0.1)), 42);
  const size_t n = stage_field.count();
  const double abs_eb = 1e-3 * stage_field.value_range();
  const size_t padded = round_up(n, kCodesPerTile);
  const size_t words = padded / 2;

  std::vector<i64> pq(padded, 0);
  std::vector<u16> codes(padded, 0);
  std::vector<u32> shuffled(words), unshuffled(words);
  std::vector<u8> byte_flags(words / kBlockWords),
      bit_flags(words / kBlockWords / 8);

  std::vector<StageRow> stage_rows;
  bench::Table stage_table({"stage", "level", "GB/s"});
  for (const SimdLevel level : levels) {
    const auto add = [&](const std::string& stage, size_t bytes,
                         const std::function<void()>& fn) {
      const double t = min_seconds(iters, fn);
      stage_rows.push_back({stage, simd_level_name(level), gbps(bytes, t)});
      stage_table.add_row({stage, simd_level_name(level),
                           JsonWriter::num(gbps(bytes, t))});
    };
    add("prequant-f32", n * 4, [&] {
      prequantize_simd(stage_field.values(), abs_eb, std::span<i64>(pq).first(n),
                       level);
    });
    add("prequant-f32fast", n * 4, [&] {
      prequantize_f32fast(stage_field.values(), abs_eb,
                          std::span<i64>(pq).first(n), level);
    });
    lorenzo_forward(std::span<const i64>(pq).first(n), stage_field.dims,
                    std::span<i64>(pq).first(n));
    pq[0] = 0;
    add("encode-v2", n * 8, [&] {
      quant_encode_v2_simd(std::span<const i64>(pq).first(n),
                           std::span<u16>(codes).first(n), level);
    });
    const std::span<const u32> code_words{
        reinterpret_cast<const u32*>(codes.data()), words};
    add("bitshuffle", words * 4,
        [&] { bitshuffle_tiles_simd(code_words, shuffled, level); });
    add("mark", words * 4,
        [&] { mark_blocks_simd(shuffled, byte_flags, bit_flags, level); });
    add("bitunshuffle", words * 4,
        [&] { bitunshuffle_tiles_simd(shuffled, unshuffled, level); });
    const FusedParallelPlan plan =
        fused_parallel_plan(stage_field.dims, /*workers=*/0);
    std::vector<i64> strip_scratch(plan.scratch_elems);
    add("fused-parallel-pipeline", n * 4, [&] {
      fused_quant_shuffle_mark_parallel(
          stage_field.values(), stage_field.dims, abs_eb, /*f32_fast=*/false,
          shuffled, byte_flags, bit_flags, strip_scratch, plan, level);
    });
  }
  std::cout << "Stage throughput (" << stage_field.dataset << " "
            << stage_field.dims.to_string() << ", abs eb "
            << JsonWriter::num(abs_eb) << "):\n";
  stage_table.print(std::cout);

  // ---- end-to-end compression: fused-parallel x {scalar, best} ------------
  struct Config {
    const char* name;
    SimdDispatch simd;
  };
  const Config configs[] = {
      {"fused-parallel-scalar", SimdDispatch::Scalar},
      {"fused-parallel-simd", SimdDispatch::Auto},
  };

  std::vector<CompressRow> compress_rows;
  std::vector<CompressRow> decompress_rows;
  struct ScalingRow {
    std::string dataset;
    size_t workers;
    double compress_gbps, decompress_gbps;
  };
  std::vector<ScalingRow> scaling_rows;

  bench::Table compress_table(
      {"dataset", "fused-parallel-scalar", "fused-parallel-simd"});
  bool identical = true;
  for (const Field& f : benchmark_suite(scale, 42)) {
    FzParams params;
    params.eb = ErrorBound::relative(1e-3);
    std::vector<u8> reference;
    std::vector<double> results;
    for (const Config& c : configs) {
      params.fused_workers = 0;  // one strip per hardware thread
      params.simd = c.simd;
      FzCompressed comp;
      const double t = min_seconds(
          iters, [&] { comp = fz_compress(f.values(), f.dims, params); });
      if (reference.empty()) reference = comp.bytes;
      else if (comp.bytes != reference) identical = false;
      results.push_back(gbps(f.bytes(), t));
      compress_rows.push_back({f.dataset, c.name, results.back()});
    }
    compress_table.add_row({f.dataset, JsonWriter::num(results[0]),
                        JsonWriter::num(results[1])});

    // Thread-scaling sweep (compress + decompress) at 1/2/4/max workers.
    // The stream is identical at every worker count (asserted above and in
    // tests); only the wall clock may change.
    for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{0}}) {
      FzParams p;
      p.eb = ErrorBound::relative(1e-3);
      p.fused_workers = workers;
      Codec codec(p);
      FzCompressed comp;
      const double tc = min_seconds(
          iters, [&] { comp = codec.compress(f.values(), f.dims); });
      std::vector<f32> out(f.count());
      const double td = min_seconds(
          iters, [&] { codec.decompress_into(comp.bytes, out); });
      const size_t eff = workers == 0 ? hw_threads : workers;
      scaling_rows.push_back(
          {f.dataset, eff, gbps(f.bytes(), tc), gbps(f.bytes(), td)});
      if (workers == 0)
        decompress_rows.push_back({f.dataset, "fused-parallel-simd",
                                   gbps(f.bytes(), td)});
    }
  }
  std::cout << "\nCompression throughput (GB/s), rel eb 1e-3:\n";
  compress_table.print(std::cout);
  std::cout << "\nstreams byte-identical across configs: "
            << (identical ? "yes" : "NO — BUG") << "\n";

  bench::Table scale_table(
      {"dataset", "workers", "compress GB/s", "decompress GB/s"});
  for (const ScalingRow& r : scaling_rows)
    scale_table.add_row({r.dataset, std::to_string(r.workers),
                         JsonWriter::num(r.compress_gbps),
                         JsonWriter::num(r.decompress_gbps)});
  std::cout << "\nFused-parallel thread scaling:\n";
  scale_table.print(std::cout);

  // ---- PR8: gap-array Huffman decode thread scaling ------------------------
  // Real per-dataset code distributions: v1 quantization codes (the cuSZ
  // baseline's Huffman input), encoded once per dataset with the default
  // gap layout.  Symbol identity is asserted on every timed decode.
  struct HuffRow {
    std::string dataset;
    size_t workers;
    double value_gbps;
  };
  std::vector<HuffRow> huff_rows;
  std::vector<std::pair<std::string, double>> huff_table_speedup;
  std::vector<std::pair<std::string, double>> huff_par_vs_serial;
  bool huff_identical = true;

  bench::Table huff_table({"dataset", "w=1", "w=2", "w=4", "w=max",
                           "bit-serial", "table/bits", "par/serial"});
  for (const Field& f : benchmark_suite(scale, 42)) {
    const double eb = f.resolve_eb(ErrorBound::relative(1e-3));
    std::vector<i64> hpq(f.count());
    prequantize(f.values(), eb, hpq);
    lorenzo_forward(hpq, f.dims, hpq);
    hpq[0] = 0;
    const QuantV1Result q = quant_encode_v1(hpq, 512);
    const std::vector<u16>& hsyms = q.codes;
    const auto hist = histogram<u16>(hsyms, 1024);
    const HuffmanCodebook book = HuffmanCodebook::build(hist);
    const std::vector<u8> enc = huffman_encode(hsyms, book);
    const std::vector<u8> legacy =
        huffman_encode(hsyms, book, HuffmanEncodeOptions{kHuffDefaultChunk, 0});
    const size_t bytes = hsyms.size() * sizeof(u16);

    std::vector<double> per_worker;
    for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{0}}) {
      std::vector<u16> dec;
      const double t = min_seconds(iters, [&] {
        dec = huffman_decode(enc, book, {.workers = workers});
      });
      if (dec != hsyms) huff_identical = false;
      per_worker.push_back(gbps(bytes, t));
      huff_rows.push_back(
          {f.dataset, workers == 0 ? hw_threads : workers, per_worker.back()});
    }
    std::vector<u16> dec_bits;
    const double t_bits = min_seconds(iters, [&] {
      dec_bits = huffman_decode(enc, book, {.workers = 1, .table_fast = false});
    });
    if (dec_bits != hsyms) huff_identical = false;
    if (huffman_decode(legacy, book) != hsyms) huff_identical = false;
    const double bits_gbps = gbps(bytes, t_bits);
    huff_table_speedup.emplace_back(f.dataset, per_worker[0] / bits_gbps);
    huff_par_vs_serial.emplace_back(f.dataset, per_worker[3] / per_worker[0]);
    huff_table.add_row(
        {f.dataset, JsonWriter::num(per_worker[0]),
         JsonWriter::num(per_worker[1]), JsonWriter::num(per_worker[2]),
         JsonWriter::num(per_worker[3]), JsonWriter::num(bits_gbps),
         JsonWriter::num(huff_table_speedup.back().second) + "x",
         JsonWriter::num(huff_par_vs_serial.back().second) + "x"});
  }
  std::cout << "\nGap-array Huffman decode throughput (GB/s of decoded "
               "symbols); table/bits = table-driven over bit-serial at one "
               "worker, par/serial = max workers over one worker:\n";
  huff_table.print(std::cout);
  std::cout << "decoded symbols identical across every path: "
            << (huff_identical ? "yes" : "NO — BUG") << "\n";

  // ---- fused decompress + 3-D z-carry scan scaling ------------------------
  struct FusedDecompRow {
    std::string dataset;
    double fused_gbps;
  };
  std::vector<FusedDecompRow> fused_decode_rows;

  bench::Table fd_table({"dataset", "fused GB/s"});
  // Plus one thin slab at full size whatever the scale: a Reader chunk of
  // the 512×256×256 Hurricane field cut in 64 (fewer planes than 4 per
  // strip, so the decode splits it into row strips).
  std::vector<Field> decode_fields = benchmark_suite(scale, 42);
  decode_fields.push_back(
      generate_field(Dataset::Hurricane, Dims{512, 256, 4}, 42));
  decode_fields.back().dataset += "-slab";
  for (const Field& f : decode_fields) {
    FzParams cp;
    cp.eb = ErrorBound::relative(1e-3);
    cp.fused_workers = 0;
    Codec codec(cp);
    const FzCompressed comp = codec.compress(f.values(), f.dims);
    std::vector<f32> a(f.count());
    const double t =
        min_seconds(iters, [&] { codec.decompress_into(comp.bytes, a); });
    fused_decode_rows.push_back({f.dataset, gbps(f.bytes(), t)});
    fd_table.add_row(
        {f.dataset, JsonWriter::num(fused_decode_rows.back().fused_gbps)});
  }
  std::cout << "\nFused decompression (GB/s of restored f32):\n";
  fd_table.print(std::cout);

  // Chunked z-carry sweep: a flat volume (y < workers) so scan_z takes the
  // plane-granular chunked path at workers > 1 and the serial column scan
  // at workers == 1.  Bytes asserted identical at every worker count.
  struct ZScanRow {
    size_t workers;
    double value_gbps;
  };
  std::vector<ZScanRow> zscan_rows;
  bool zscan_identical = true;
  {
    // Fixed-size volume (16 MB of i64), independent of --scale: the scan is
    // a pure memory sweep, and sub-millisecond timings on small volumes are
    // too noisy to gate on.
    const Dims zdims{1024, 1, 2048};
    const int ziters = std::max(iters, 5);
    std::vector<i64> deltas(zdims.count());
    {
      u64 state = 0x9e3779b97f4a7c15ull;
      for (auto& v : deltas) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        v = static_cast<i64>(state >> 40) - (1 << 23);
      }
    }
    std::vector<i64> reference(deltas.size());
    lorenzo_inverse(deltas, zdims, reference, /*workers=*/1);
    const size_t zbytes = deltas.size() * sizeof(i64);
    bench::Table z_table({"workers", "GB/s"});
    for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{0}}) {
      std::vector<i64> out(deltas.size());
      const double t = min_seconds(
          ziters, [&] { lorenzo_inverse(deltas, zdims, out, workers); });
      if (out != reference) zscan_identical = false;
      zscan_rows.push_back(
          {workers == 0 ? hw_threads : workers, gbps(zbytes, t)});
      z_table.add_row({std::to_string(zscan_rows.back().workers),
                       JsonWriter::num(zscan_rows.back().value_gbps)});
    }
    std::cout << "\n3-D z-carry inverse scan thread scaling ("
              << zdims.to_string() << " flat volume):\n";
    z_table.print(std::cout);
    std::cout << "scan bytes identical across worker counts: "
              << (zscan_identical ? "yes" : "NO — BUG") << "\n";
  }

  // ---- JSON report ---------------------------------------------------------
  JsonWriter w;
  w.section("bench");
  w.buf += "\"pr5-regress\"";
  w.section("scale");
  w.buf += JsonWriter::num(scale);
  w.section("iters");
  w.buf += JsonWriter::num(iters);
  w.section("best_level");
  w.buf += std::string("\"") + simd_level_name(best) + "\"";
  w.section("max_threads");
  w.buf += JsonWriter::num(static_cast<double>(hw_threads));
  w.section("streams_identical");
  w.buf += identical ? "true" : "false";
  w.section("stages");
  w.buf += "[\n";
  for (size_t i = 0; i < stage_rows.size(); ++i) {
    w.buf += "    {\"stage\": \"" + stage_rows[i].stage + "\", \"level\": \"" +
             stage_rows[i].level +
             "\", \"gbps\": " + JsonWriter::num(stage_rows[i].value_gbps) + "}" +
             (i + 1 < stage_rows.size() ? "," : "") + "\n";
  }
  w.buf += "  ]";
  w.section("compress");
  w.buf += "[\n";
  for (size_t i = 0; i < compress_rows.size(); ++i) {
    w.buf += "    {\"dataset\": \"" + compress_rows[i].dataset +
             "\", \"config\": \"" + compress_rows[i].config +
             "\", \"gbps\": " + JsonWriter::num(compress_rows[i].value_gbps) +
             "}" + (i + 1 < compress_rows.size() ? "," : "") + "\n";
  }
  w.buf += "  ]";
  w.section("decompress");
  w.buf += "[\n";
  for (size_t i = 0; i < decompress_rows.size(); ++i) {
    w.buf += "    {\"dataset\": \"" + decompress_rows[i].dataset +
             "\", \"config\": \"" + decompress_rows[i].config +
             "\", \"gbps\": " + JsonWriter::num(decompress_rows[i].value_gbps) +
             "}" + (i + 1 < decompress_rows.size() ? "," : "") + "\n";
  }
  w.buf += "  ]";
  w.section("thread_scaling");
  w.buf += "[\n";
  for (size_t i = 0; i < scaling_rows.size(); ++i) {
    w.buf += "    {\"dataset\": \"" + scaling_rows[i].dataset +
             "\", \"workers\": " +
             JsonWriter::num(static_cast<double>(scaling_rows[i].workers)) +
             ", \"compress_gbps\": " +
             JsonWriter::num(scaling_rows[i].compress_gbps) +
             ", \"decompress_gbps\": " +
             JsonWriter::num(scaling_rows[i].decompress_gbps) + "}" +
             (i + 1 < scaling_rows.size() ? "," : "") + "\n";
  }
  w.buf += "  ]";
  std::ofstream out(out_path);
  out << w.finish();
  std::cout << "wrote " << out_path << "\n";

  // ---- PR8 JSON report -----------------------------------------------------
  JsonWriter hw;
  hw.section("bench");
  hw.buf += "\"pr8-huffman\"";
  hw.section("scale");
  hw.buf += JsonWriter::num(scale);
  hw.section("iters");
  hw.buf += JsonWriter::num(iters);
  hw.section("max_threads");
  hw.buf += JsonWriter::num(static_cast<double>(hw_threads));
  hw.section("huffman_identical");
  hw.buf += huff_identical ? "true" : "false";
  hw.section("huffman_decode");
  hw.buf += "[\n";
  for (size_t i = 0; i < huff_rows.size(); ++i) {
    hw.buf += "    {\"dataset\": \"" + huff_rows[i].dataset +
              "\", \"workers\": " +
              JsonWriter::num(static_cast<double>(huff_rows[i].workers)) +
              ", \"gbps\": " + JsonWriter::num(huff_rows[i].value_gbps) + "}" +
              (i + 1 < huff_rows.size() ? "," : "") + "\n";
  }
  hw.buf += "  ]";
  hw.section("huffman_table_speedup");
  hw.buf += "{\n";
  for (size_t i = 0; i < huff_table_speedup.size(); ++i) {
    hw.buf += "    \"" + huff_table_speedup[i].first +
              "\": " + JsonWriter::num(huff_table_speedup[i].second) +
              (i + 1 < huff_table_speedup.size() ? "," : "") + "\n";
  }
  hw.buf += "  }";
  hw.section("huffman_parallel_vs_serial");
  hw.buf += "{\n";
  for (size_t i = 0; i < huff_par_vs_serial.size(); ++i) {
    hw.buf += "    \"" + huff_par_vs_serial[i].first +
              "\": " + JsonWriter::num(huff_par_vs_serial[i].second) +
              (i + 1 < huff_par_vs_serial.size() ? "," : "") + "\n";
  }
  hw.buf += "  }";

  std::ofstream huff_out(huff_out_path);
  huff_out << hw.finish();
  std::cout << "wrote " << huff_out_path << "\n";

  // ---- PR10 JSON report ----------------------------------------------------
  JsonWriter pw;
  pw.section("bench");
  pw.buf += "\"pr10-fused-decompress\"";
  pw.section("scale");
  pw.buf += JsonWriter::num(scale);
  pw.section("iters");
  pw.buf += JsonWriter::num(iters);
  pw.section("max_threads");
  pw.buf += JsonWriter::num(static_cast<double>(hw_threads));
  pw.section("zscan_identical");
  pw.buf += zscan_identical ? "true" : "false";
  pw.section("fused_decode");
  pw.buf += "[\n";
  for (size_t i = 0; i < fused_decode_rows.size(); ++i) {
    pw.buf += "    {\"dataset\": \"" + fused_decode_rows[i].dataset +
              "\", \"fused_gbps\": " +
              JsonWriter::num(fused_decode_rows[i].fused_gbps) + "}" +
              (i + 1 < fused_decode_rows.size() ? "," : "") + "\n";
  }
  pw.buf += "  ]";
  pw.section("zscan_scaling");
  pw.buf += "[\n";
  for (size_t i = 0; i < zscan_rows.size(); ++i) {
    pw.buf += "    {\"workers\": " +
              JsonWriter::num(static_cast<double>(zscan_rows[i].workers)) +
              ", \"gbps\": " + JsonWriter::num(zscan_rows[i].value_gbps) +
              "}" + (i + 1 < zscan_rows.size() ? "," : "") + "\n";
  }
  pw.buf += "  ]";

  std::ofstream pr10_out(pr10_out_path);
  pr10_out << pw.finish();
  std::cout << "wrote " << pr10_out_path << "\n";
  return identical && huff_identical && zscan_identical ? 0 : 1;
}
