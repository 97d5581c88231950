// The spec corpora shared by the differential tests (gate_oracle_test,
// materialized_stream_test): the committed spec files, and a seeded
// generator of small random LoopSpecs that cover the corners of the loop IR
// the fast paths must agree on.  Users define CASC_SOURCE_DIR.
#pragma once

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "casc/common/rng.hpp"
#include "casc/loopir/loop_spec.hpp"

namespace casc::test {

inline std::string read_text(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Every committed .casc file under tests/specs and examples/specs, as a
/// path relative to the source tree, sorted.
inline std::vector<std::string> committed_spec_files() {
  const std::filesystem::path root(CASC_SOURCE_DIR);
  std::vector<std::string> paths;
  for (const char* dir : {"tests/specs", "examples/specs"}) {
    for (const auto& entry : std::filesystem::directory_iterator(root / dir)) {
      if (entry.path().extension() != ".casc") continue;
      paths.push_back(std::filesystem::relative(entry.path(), root).string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// Test-name generator for suites parameterized by committed_spec_files():
/// "tests/specs/dense_sum.casc" -> "tests_dense_sum".
inline std::string spec_file_test_name(
    const ::testing::TestParamInfo<std::string>& info) {
  const std::filesystem::path path(info.param);
  std::string name = path.begin()->string() + "_" + path.stem().string();
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

// The generated corpus: kBatches x kSpecsPerBatch specs, spec i drawn from
// seed kGeneratorSeed + i.
constexpr std::uint64_t kGeneratorSeed = 20261020;
constexpr std::uint64_t kBatches = 8;
constexpr std::uint64_t kSpecsPerBatch = 64;

/// A small random LoopSpec: ro/rw arrays, `index` arrays with every pattern,
/// affine sites with offsets that sometimes wrap, indirect reads, writes and
/// updates, and deliberately false read-only claims so refusals (and
/// certifier overturns) are exercised alongside proofs.  Sizes stay small
/// (trip <= 6000) so the replay and the cascades run in milliseconds.
inline loopir::LoopSpec generate_spec(std::uint64_t seed) {
  common::Rng rng(seed);
  auto pick = [&rng](std::uint64_t n) { return rng.next() % n; };
  using Spec = loopir::LoopSpec;

  Spec spec;
  spec.name = "gen_" + std::to_string(seed);
  spec.trip = 64 + pick(5937);
  spec.step = pick(6) == 0 ? 2 + pick(2) : 1;
  spec.compute_cycles = static_cast<std::uint32_t>(1 + pick(12));
  spec.layout = pick(2) == 0 ? loopir::LayoutPolicy::kConflicting
                             : loopir::LayoutPolicy::kStaggered;

  // Extents cover every in-range site (stride <= 3); now and then an array
  // is short, and now and then a site's offset is arbitrary, so affine and
  // index positions wrap (index-wrap warnings send those specs down the
  // full path).
  auto extent = [&] {
    return pick(6) == 0 ? spec.trip / 2 + 1 + pick(spec.trip / 2 + 1)
                        : 3 * spec.trip + 8 + pick(spec.trip);
  };
  const std::uint64_t num_data = 1 + pick(4);
  const std::uint64_t num_index = pick(3);
  std::vector<std::string> data;
  std::vector<std::string> ro;
  std::vector<std::string> index;
  for (std::uint64_t a = 0; a < num_data; ++a) {
    Spec::ArrayDecl decl;
    decl.name = "a" + std::to_string(a);
    constexpr std::array<std::uint32_t, 5> kSizes{4, 8, 8, 2, 16};
    decl.elem_size = kSizes[pick(kSizes.size())];
    decl.num_elems = extent();
    decl.read_only = pick(2) == 0;
    if (decl.read_only) ro.push_back(decl.name);
    data.push_back(decl.name);
    spec.arrays.push_back(decl);
  }
  for (std::uint64_t x = 0; x < num_index; ++x) {
    Spec::ArrayDecl decl;
    decl.name = "ix" + std::to_string(x);
    constexpr std::array<loopir::IndexPattern, 5> kPatterns{
        loopir::IndexPattern::kIdentity, loopir::IndexPattern::kStrided,
        loopir::IndexPattern::kRandomPerm, loopir::IndexPattern::kRandom,
        loopir::IndexPattern::kBlockShuffle};
    decl.pattern = kPatterns[pick(kPatterns.size())];
    decl.num_elems = extent();
    decl.seed = 1 + pick(1000);
    decl.param = 1 + pick(64);
    index.push_back(decl.name);
    spec.arrays.push_back(decl);
  }

  auto site = [&](const std::string& array) {
    Spec::AccessDecl acc;
    acc.array = array;
    constexpr std::array<std::int64_t, 7> kStrides{1, 1, 1, 2, 0, -1, 3};
    acc.stride = kStrides[pick(kStrides.size())];
    const auto trip = static_cast<std::int64_t>(spec.trip);
    if (pick(8) == 0) {
      acc.offset = static_cast<std::int64_t>(pick(2 * spec.trip)) - trip;
    } else {
      // In range: a descending site starts at the top of the trip.
      acc.offset = static_cast<std::int64_t>(pick(5)) + (acc.stride < 0 ? trip : 0);
    }
    if (!index.empty() && pick(3) == 0) acc.index_via = index[pick(index.size())];
    return acc;
  };
  const std::uint64_t num_accesses = 1 + pick(6);
  for (std::uint64_t k = 0; k < num_accesses; ++k) {
    // Mostly data arrays; now and then a direct read of an index array.
    const bool index_target = !index.empty() && pick(10) == 0;
    Spec::AccessDecl acc = site(index_target ? index[pick(index.size())]
                                             : data[pick(data.size())]);
    const std::uint64_t kind = index_target ? 0 : pick(10);
    if (kind >= 5 && kind < 8) {
      acc.is_write = true;
    } else if (kind >= 8) {
      constexpr std::array<loopir::ReduceOp, 3> kOps{
          loopir::ReduceOp::kSum, loopir::ReduceOp::kMin, loopir::ReduceOp::kMax};
      acc.update = kOps[pick(kOps.size())];
    }
    spec.accesses.push_back(acc);
  }
  // A deliberately false read-only claim: the body writes a claimed-ro array.
  if (!ro.empty() && pick(4) == 0) {
    Spec::AccessDecl acc = site(ro[pick(ro.size())]);
    acc.is_write = true;
    spec.accesses.push_back(acc);
  }
  // Declared-but-unused arrays only add an unused-array warning; drop them.
  std::erase_if(spec.arrays, [&](const Spec::ArrayDecl& decl) {
    return std::none_of(spec.accesses.begin(), spec.accesses.end(),
                        [&](const Spec::AccessDecl& acc) {
                          return acc.array == decl.name ||
                                 (acc.index_via && *acc.index_via == decl.name);
                        });
  });
  return spec;
}

}  // namespace casc::test
