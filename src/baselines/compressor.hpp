// Common interface for all evaluated GPU compressors (paper §4.1).
//
// Each implementation compresses to a real self-describing byte stream and
// decompresses it back, returning (a) the reconstruction, (b) the modeled
// device cost sheets for compression and decompression, and (c) algorithm
// statistics.  Error-bounded compressors take a range-relative error bound;
// cuZFP (fixed-rate mode only, like the real one) takes a bitrate instead —
// the harness PSNR-matches it against FZ-GPU exactly as the paper does.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "cudasim/cost_sheet.hpp"
#include "datasets/field.hpp"

namespace fz::bench {

struct RunResult {
  std::string compressor;
  size_t input_bytes = 0;
  size_t compressed_bytes = 0;
  std::vector<f32> reconstructed;
  std::vector<cudasim::CostSheet> compression_costs;
  std::vector<cudasim::CostSheet> decompression_costs;
  /// Native wall-clock seconds (CPU implementations only; 0 for modeled).
  double native_compress_seconds = 0;
  double native_decompress_seconds = 0;

  double ratio() const {
    return compressed_bytes == 0
               ? 0
               : static_cast<double>(input_bytes) / compressed_bytes;
  }
  double bitrate() const { return ratio() == 0 ? 0 : 32.0 / ratio(); }
};

class GpuCompressor {
 public:
  enum class Mode { ErrorBounded, FixedRate };

  virtual ~GpuCompressor() = default;
  virtual std::string name() const = 0;
  virtual Mode mode() const { return Mode::ErrorBounded; }

  /// `param` is a range-relative error bound for error-bounded compressors
  /// and a bitrate (bits/value) for fixed-rate ones.
  virtual RunResult run(const Field& field, double param) const = 0;

  /// Some baselines cannot handle every input (the paper: MGARD-GPU fails
  /// on 1-D data; cuSZ needs QMCPACK flattened to 1-D).
  virtual bool supports(const Field& field) const {
    (void)field;
    return true;
  }
};

/// All five evaluated compressors, in the paper's order:
/// FZ-GPU, cuSZ, cuSZ-ncb, cuZFP, cuSZx, MGARD-GPU.
std::vector<std::unique_ptr<GpuCompressor>> make_all_compressors();

std::unique_ptr<GpuCompressor> make_fzgpu();
std::unique_ptr<GpuCompressor> make_cusz(bool include_codebook_build = true);
std::unique_ptr<GpuCompressor> make_cuszx();
std::unique_ptr<GpuCompressor> make_cuzfp();
std::unique_ptr<GpuCompressor> make_mgard();

}  // namespace fz::bench
