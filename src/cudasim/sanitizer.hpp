// fzcheck: a compute-sanitizer-style hazard analyzer for the CUDA
// execution-model simulator.
//
// When enabled (LaunchConfig::sanitize, a caller-supplied report, or a
// ScopedSanitizer on the calling thread), every shared/global transaction
// that already flows through the BlockRunner's accounting hooks is also fed
// to a `Sanitizer`, which reports:
//
//   * shared-memory data races — write/write and read/write to the same
//     BYTE by different threads with no ordering barrier between them.
//     Ordering is tracked with barrier epochs: a block-wide epoch bumped at
//     every __syncthreads release, refined by a per-warp epoch bumped at
//     every completed warp collective (ballot/any/shfl synchronize a warp
//     like __syncwarp).  Two accesses by different threads conflict iff
//     they fall in the same block epoch and are not ordered by a warp
//     epoch of a common warp.
//   * out-of-bounds shared/global accesses — checked against the logical
//     array view (SharedMem<T> extent or the container passed to
//     gload/gstore), so an off-by-one inside an oversized arena is caught.
//   * uninitialized shared reads — bytes read before any thread of the
//     block wrote them.  The simulator zero-fills shared arenas; real
//     hardware does not, so such reads are silent corruption on a GPU.
//   * divergent __syncthreads / warp collectives — mismatched arrival
//     masks: a collective that completes without every launched lane of
//     the warp, lanes arriving from different source locations or with
//     different per-lane collective counts, and blocks that deadlock with
//     threads parked at a barrier while warp ops wait (compute-sanitizer's
//     "barrier error").
//   * bank-conflict lint — any lockstep shared-memory access slot whose
//     conflict degree (transactions for one warp access) reaches
//     `bank_conflict_limit`, so an unpadded 32x32 tile is flagged at test
//     time even though it is functionally correct.
//
// Reports carry the kernel name, block/thread coordinates, the array key,
// and the two conflicting accesses with their source locations.  Disabled
// mode costs one null-pointer test per event.  See docs/SANITIZER.md.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "cudasim/dim3.hpp"

namespace fz::cudasim {

enum class Hazard : u8 {
  SharedRace = 0,
  SharedOutOfBounds,
  GlobalOutOfBounds,
  UninitRead,
  DivergentBarrier,
  DivergentCollective,
  BankConflict,
};
constexpr size_t kHazardKinds = 7;
const char* hazard_name(Hazard kind);

constexpr u32 kNoThread = 0xffffffffu;
constexpr u32 kDefaultBankConflictLimit = 8;

/// Lightweight source position (std::source_location distilled to the two
/// fields worth reporting; file_name() points at static storage).
struct SrcLoc {
  const char* file = nullptr;
  u32 line = 0;
  std::string to_string() const;
};

/// One side of a hazard: which thread touched which array element, how.
struct AccessSite {
  u32 tid = kNoThread;  ///< linear thread id within the block
  Dim3 thread;          ///< thread coordinates within the block
  bool write = false;
  std::string array;  ///< shared arena key, or "global"
  size_t index = 0;   ///< byte offset (shared) / element index (global)
  SrcLoc loc;
  std::string to_string() const;
};

struct Finding {
  Hazard kind = Hazard::SharedRace;
  std::string kernel;
  Dim3 block;
  AccessSite first;
  AccessSite second;   ///< conflicting access, when the hazard is a pair
  std::string detail;  ///< one-line human-readable description
  std::string to_string() const;
};

/// Structured output of a sanitized launch.  Counts every hazard; stores
/// the first kMaxStoredPerKind findings of each kind in full detail.
class SanitizerReport {
 public:
  static constexpr size_t kMaxStoredPerKind = 16;

  void add(Finding finding);
  void clear();

  u64 total() const;
  u64 count(Hazard kind) const {
    return counts_[static_cast<size_t>(kind)];
  }
  bool clean() const { return total() == 0; }
  const std::vector<Finding>& findings() const { return findings_; }
  std::string to_string() const;

 private:
  std::vector<Finding> findings_;
  std::array<u64, kHazardKinds> counts_{};
};

struct SanitizerOptions {
  /// Lint threshold: a warp access slot whose conflict degree (shared
  /// transactions) is >= this limit is reported as Hazard::BankConflict.
  u32 bank_conflict_limit = kDefaultBankConflictLimit;
};

/// RAII switch: while alive, every cudasim::launch on this thread runs
/// with hazard analysis on, accumulating into report().  This is the
/// "fzcheck mode" used by tests to sweep whole simulated pipelines:
///
///   ScopedSanitizer fzcheck;
///   sim_bitshuffle_mark_fused(...);
///   ASSERT_TRUE(fzcheck.report().clean()) << fzcheck.report().to_string();
class ScopedSanitizer {
 public:
  explicit ScopedSanitizer(SanitizerOptions options = {});
  ~ScopedSanitizer();
  ScopedSanitizer(const ScopedSanitizer&) = delete;
  ScopedSanitizer& operator=(const ScopedSanitizer&) = delete;

  SanitizerReport& report() { return report_; }
  const SanitizerReport& report() const { return report_; }
  const SanitizerOptions& options() const { return options_; }

 private:
  SanitizerReport report_;
  SanitizerOptions options_;
  ScopedSanitizer* prev_ = nullptr;
};

/// Innermost active ScopedSanitizer on this thread, or nullptr.
ScopedSanitizer* scoped_sanitizer();

/// The per-launch hazard checker driven by BlockRunner.  One instance
/// spans all blocks of a launch (findings accumulate in the report);
/// shadow state resets per block, matching shared-memory lifetime.
class Sanitizer {
 public:
  Sanitizer(std::string kernel, Dim3 block_dim, SanitizerOptions options,
            SanitizerReport& out);

  void begin_block(Dim3 block_idx, u32 nthreads);

  /// Race / OOB / uninit analysis of one shared access.  Returns false
  /// when the access is out of bounds (the caller must skip the physical
  /// access); in-bounds accesses always return true.
  bool on_shared_access(const char* key, size_t view_bytes, size_t byte_begin,
                        size_t nbytes, bool write, u32 tid, SrcLoc loc);

  void on_global_oob(bool write, size_t index, size_t size, u32 tid,
                     SrcLoc loc);

  struct BarrierArrival {
    u32 tid = kNoThread;
    u32 seq = 0;  ///< how many __syncthreads this thread has executed
    SrcLoc loc;
  };
  void on_barrier_release(const std::vector<BarrierArrival>& arrivals);

  /// A warp collective completed.  `expected` is the mask of lanes that
  /// existed at block launch; locs/seqs are the per-lane arrival records.
  void on_collective_complete(u32 warp, u32 arrived, u32 expected,
                              const std::array<SrcLoc, kWarpSize>& locs,
                              const std::array<u32, kWarpSize>& seqs);

  void on_collective_kind_mismatch(u32 warp, u32 lane, SrcLoc loc);

  struct ParkedThread {
    u32 tid = kNoThread;
    bool at_barrier = false;  ///< false: parked in a warp collective
    SrcLoc loc;
  };
  void on_deadlock(const std::vector<ParkedThread>& parked);

  /// Bank-conflict lint: one lockstep access slot of one warp produced
  /// `degree` shared transactions.
  void on_bank_slot(u32 warp, u32 degree, SrcLoc loc);

 private:
  struct ByteShadow {
    u32 w_tid = kNoThread;
    u32 w_bepoch = 0;
    u32 w_wepoch = 0;
    SrcLoc w_loc;
    u32 r_tid = kNoThread;
    u32 r_bepoch = 0;
    u32 r_wepoch = 0;
    SrcLoc r_loc;
    u32 r2_tid = kNoThread;  ///< second distinct same-epoch reader
    SrcLoc r2_loc;
    bool written = false;
  };
  struct Arena {
    std::vector<ByteShadow> shadow;
  };

  AccessSite site(u32 tid, bool write, const std::string& array, size_t index,
                  SrcLoc loc) const;
  Finding base_finding(Hazard kind) const;
  bool same_epoch(u32 other_tid, u32 other_bepoch, u32 other_wepoch,
                  u32 tid) const;

  std::string kernel_;
  Dim3 block_dim_;
  SanitizerOptions options_;
  SanitizerReport& out_;

  Dim3 block_idx_;
  u32 nthreads_ = 0;
  u32 block_epoch_ = 0;
  std::vector<u32> warp_epochs_;
  std::map<std::string, Arena> arenas_;
};

}  // namespace fz::cudasim
