// Checked-in byte fixtures under tests/data, for formats the library reads
// but no longer writes.  FZ_TEST_DATA_DIR is defined per target in
// tests/CMakeLists.txt.
#pragma once

#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace fz::test {

inline std::vector<u8> load_test_data(const std::string& name) {
  const std::string path = std::string(FZ_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("missing test fixture " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A v1 (size-table) container of generate_field(Hurricane, {32, 24, 10},
/// seed 21) in 4 chunks at the default FzParams.
inline constexpr const char* kContainerV1Reader =
    "container_v1_hurricane_32x24x10_4chunks.bin";
/// A v1 container of generate_field(Hurricane, {16, 12, 9}, seed 15) in 3
/// chunks at the default FzParams.
inline constexpr const char* kContainerV1Fuzz =
    "container_v1_hurricane_16x12x9_3chunks.bin";

}  // namespace fz::test
