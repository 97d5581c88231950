// Differential oracle for the materialized reference stream.
//
// exec::MaterializedLoop stores each dynamic reference once: a staged read as
// one entry of the SoA staged stream (13 bytes), every other reference as one
// ResolvedRef (16 bytes), both iteration-major, with every per-iteration
// position a product of the body shape.  Both tables come from
// LoopNest::walk's closed-form lowering (a running position per site).  This
// test recomputes every reference from the AccessSpec formula — element
// (offset + stride·it·step) mod extent, in 128-bit arithmetic, index values
// mod the target extent — and asserts that the two tables, read in body
// order, are exactly that stream, before and after a certificate-driven
// restage, and that they hold exactly the documented bytes.  The corpus: every
// committed spec (pipelines contribute their stages), the PARMVR call-12
// chain, the generated specs of spec_generator.hpp and hand-written corners.
#include <array>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "casc/exec/materialize.hpp"
#include "casc/exec/pipeline.hpp"
#include "casc/loopir/loop_spec.hpp"
#include "casc/loopir/pipeline_spec.hpp"
#include "casc/wave5/parmvr.hpp"
#include "spec_generator.hpp"

namespace {

using namespace casc;

static_assert(sizeof(exec::ResolvedRef) == 16, "16 bytes per non-staged reference");
static_assert(sizeof(std::uint64_t) + sizeof(std::uint32_t) + sizeof(std::uint8_t) == 13,
              "13 bytes per staged reference");

/// Proof keys the restage checks run under.
constexpr std::array<std::uint64_t, 2> kChunkBytes{4 * 1024, 64 * 1024};
constexpr std::array<std::uint64_t, 2> kWorkers{1, 4};

/// AccessSpec's position formula, recomputed without the walker:
/// (offset + stride·i) mod n, negative values wrapping from the end.
std::uint64_t position(std::int64_t offset, std::int64_t stride, std::uint64_t i,
                       std::uint64_t n) {
  __int128 p = static_cast<__int128>(offset) +
               static_cast<__int128>(stride) * static_cast<__int128>(i);
  p %= static_cast<__int128>(n);
  if (p < 0) p += static_cast<__int128>(n);
  return static_cast<std::uint64_t>(p);
}

/// Reference counts of the streams checked so far.
struct Totals {
  std::uint64_t loops = 0;
  std::uint64_t staged = 0;
  std::uint64_t unstaged = 0;
  std::uint64_t table_bytes = 0;
  std::uint64_t restaged = 0;  ///< proofs whose certificate changed the tables
};

/// Asserts that `loop`'s tables are exactly the recomputed stream, with the
/// reads of `certified` operands staged on top of the sanitized claims.
void expect_stream(const exec::MaterializedLoop& loop,
                   const std::vector<std::string>& certified,
                   const std::string& where, Totals& totals) {
  const loopir::LoopNest& nest = loop.nest();
  const std::uint64_t iters = nest.num_iterations();
  ASSERT_EQ(loop.num_iterations(), iters) << where;
  auto staged_read = [&](loopir::ArrayId a, bool index_load) {
    const loopir::ArraySpec& spec = nest.array(a);
    return index_load || spec.read_only ||
           std::find(certified.begin(), certified.end(), spec.name) !=
               certified.end();
  };
  const std::uint64_t staged_total = loop.staged_refs_total();
  const exec::ResolvedRef* table = loop.refs_begin(0);
  const std::uint64_t unstaged_total =
      static_cast<std::uint64_t>(loop.refs_end(iters - 1) - table);
  std::uint64_t p = 0;  // next staged entry
  std::uint64_t q = 0;  // next ResolvedRef
  bool ok = true;
  auto expect_ref = [&](loopir::ArrayId array, std::uint64_t elem, bool is_write,
                        bool index_load, std::uint64_t it) {
    if (!ok) return;
    const std::uint32_t elem_size = nest.array(array).elem_size;
    const std::uint64_t offset = elem * elem_size;
    const auto size = static_cast<std::uint8_t>(elem_size);
    auto at = [&] {
      return where + " iteration " + std::to_string(it) + " array " +
             nest.array(array).name;
    };
    if (!is_write && staged_read(array, index_load)) {
      if (p >= staged_total || loop.staged_offsets()[p] != offset ||
          loop.staged_arrays()[p] != array || loop.staged_sizes()[p] != size) {
        ok = false;
        ADD_FAILURE() << at() << ": staged entry " << p << " of " << staged_total
                      << " differs (want offset " << offset << ")";
      }
      ++p;
    } else {
      const exec::ResolvedRef* ref = table + q;
      if (q >= unstaged_total || ref->offset != offset || ref->array != array ||
          ref->size != size || ref->is_write != is_write) {
        ok = false;
        ADD_FAILURE() << at() << ": ResolvedRef " << q << " of " << unstaged_total
                      << " differs (want offset " << offset << ")";
      }
      ++q;
    }
  };
  for (std::uint64_t it = 0; it < iters && ok; ++it) {
    if (loop.staged_refs_before(it) != p || loop.refs_begin(it) != table + q) {
      ADD_FAILURE() << where << ": iteration " << it << " starts at staged "
                    << loop.staged_refs_before(it) << " / ref "
                    << (loop.refs_begin(it) - table) << ", want " << p << " / " << q;
      return;
    }
    const std::uint64_t i = it * nest.step();
    for (const loopir::AccessSpec& acc : nest.accesses()) {
      const std::uint64_t target_elems = nest.array(acc.array).num_elems;
      if (acc.index_via) {
        const std::uint64_t ip = position(acc.offset, acc.stride, i,
                                          nest.array(*acc.index_via).num_elems);
        expect_ref(*acc.index_via, ip, false, true, it);
        const std::uint64_t value = nest.index_values(*acc.index_via)[ip];
        expect_ref(acc.array, value % target_elems, acc.is_write, false, it);
      } else {
        expect_ref(acc.array, position(acc.offset, acc.stride, i, target_elems),
                   acc.is_write, false, it);
      }
    }
  }
  if (!ok) return;
  EXPECT_EQ(p, staged_total) << where;
  EXPECT_EQ(q, unstaged_total) << where;
  EXPECT_EQ(loop.staged_refs_before(iters), staged_total) << where;
  EXPECT_EQ(loop.max_staged_per_iter() * iters, staged_total) << where;
  // The documented bytes: 16 per non-staged reference, 13 per staged one,
  // nothing per iteration, and no slack capacity.
  EXPECT_EQ(loop.table_bytes(), 16 * q + 13 * p) << where;
  ++totals.loops;
  totals.staged += p;
  totals.unstaged += q;
  totals.table_bytes += loop.table_bytes();
}

/// The stream as materialized, then after every proof key's restage.
void check_loop(exec::MaterializedLoop& loop, const std::string& where,
                Totals& totals) {
  expect_stream(loop, {}, where, totals);
  for (const std::uint64_t chunk_bytes : kChunkBytes) {
    for (const std::uint64_t workers : kWorkers) {
      const std::uint64_t before = loop.staged_refs_total();
      const exec::Proof& proof = loop.proof(chunk_bytes, workers);
      if (loop.staged_refs_total() != before) ++totals.restaged;
      expect_stream(loop, proof.certified,
                    where + " after proof(" + std::to_string(chunk_bytes) + ", " +
                        std::to_string(workers) + ")",
                    totals);
    }
  }
}

class MaterializedStreamCommitted : public ::testing::TestWithParam<std::string> {};

TEST_P(MaterializedStreamCommitted, TablesEqualTheRecomputedStream) {
  const std::string text =
      test::read_text(std::filesystem::path(CASC_SOURCE_DIR) / GetParam());
  Totals totals;
  if (loopir::is_pipeline_text(text)) {
    // Stages as the pipeline builds them: bound to the shared arrays.
    exec::MaterializedPipeline pipe(loopir::PipelineSpec::parse(text));
    for (std::size_t k = 0; k < pipe.num_stages(); ++k) {
      check_loop(pipe.stage(k), GetParam() + " stage " + std::to_string(k), totals);
    }
    EXPECT_EQ(totals.loops, 5 * pipe.num_stages());
  } else {
    exec::MaterializedLoop loop(loopir::LoopSpec::parse(text));
    check_loop(loop, GetParam(), totals);
    EXPECT_EQ(totals.loops, 5u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, MaterializedStreamCommitted, ::testing::ValuesIn(test::committed_spec_files()),
    test::spec_file_test_name);

TEST(MaterializedStream, ParmvrChainStoresEachReferenceOnce) {
  exec::MaterializedPipeline pipe(wave5::make_parmvr_pipeline(/*scale=*/1));
  ASSERT_EQ(pipe.num_stages(), 15u);
  Totals totals;
  for (std::size_t k = 0; k < pipe.num_stages(); ++k) {
    exec::MaterializedLoop& stage = pipe.stage(k);
    expect_stream(stage, {}, pipe.spec().stages[k].name, totals);
    const exec::Proof& proof = stage.proof(64 * 1024, 4);
    expect_stream(stage, proof.certified, pipe.spec().stages[k].name + " proven",
                  totals);
  }
  std::cout << "[materialized-stream] parmvr call-12: " << totals.staged / 2
            << " staged + " << totals.unstaged / 2 << " other references, "
            << totals.table_bytes / 2 / 1e6 << " MB of tables\n";
  EXPECT_EQ(totals.table_bytes, 16 * totals.unstaged + 13 * totals.staged);
}

class MaterializedStreamGenerated : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaterializedStreamGenerated, TablesEqualTheRecomputedStream) {
  Totals totals;
  std::uint64_t unmaterializable = 0;
  const std::uint64_t first =
      test::kGeneratorSeed + GetParam() * test::kSpecsPerBatch;
  for (std::uint64_t seed = first; seed < first + test::kSpecsPerBatch; ++seed) {
    const loopir::LoopSpec spec = test::generate_spec(seed);
    std::unique_ptr<exec::MaterializedLoop> loop;
    try {
      loop = std::make_unique<exec::MaterializedLoop>(spec);
    } catch (const std::exception&) {
      ++unmaterializable;
      continue;
    }
    const std::string where = "seed " + std::to_string(seed);
    // Only a demoted claim gives a certificate something to re-enable, so
    // the (costlier) proofs run where a restage can change the tables.
    if (loop->demoted_claims().empty()) {
      expect_stream(*loop, {}, where, totals);
    } else {
      check_loop(*loop, where, totals);
    }
  }
  std::cout << "[materialized-stream] generated batch " << GetParam() << ": "
            << totals.loops << " streams, " << totals.restaged
            << " certificate restages, " << unmaterializable
            << " unmaterializable specs\n";
  EXPECT_GT(totals.loops, test::kSpecsPerBatch / 2);
  EXPECT_GT(totals.restaged, 0u);  // certificates do change the tables
}

INSTANTIATE_TEST_SUITE_P(Seeded, MaterializedStreamGenerated,
                         ::testing::Range<std::uint64_t>(0, test::kBatches));

/// One hand-written corner of the lowering.
struct HandCase {
  const char* name;
  const char* text;
};

constexpr HandCase kHandCases[] = {
    {"negative_stride_and_offset", R"(
loop negative
trip 3000
compute 4
array a 8 1000 ro
array b 8 700 rw
access a read stride -1 offset -5
access a read stride -3 offset 7
access b write stride -2 offset -1000001
)"},
    {"step_above_one", R"(
loop stepped
trip 10000 7
compute 4
array a 4 999 ro
array b 8 10000 rw
index g 333 random 5
access a read stride 3 offset 11
access a read via g stride 5
access b write stride 1
)"},
    {"stride_zero", R"(
loop invariant
trip 2048
compute 4
array a 8 64 ro
array s 8 4 rw
access a read stride 0 offset 63
access s read stride 0 offset -1
access s write stride 0 offset 2
)"},
    {"index_values_wrap_the_target", R"(
loop wrapping
trip 4096
compute 4
array small 8 97 ro
array out 8 100 rw
index g 5000 random 3
index h 4096 strided 9 7
access small read via g
access small read via h offset 4000
access out write via h
)"},
    {"narrow_and_wide_elements", R"(
loop widths
trip 4096
compute 4
array b1 1 4096 ro
array b2 2 4095 ro
array b4 4 5000 rw
array b16 16 300 ro
access b1 read
access b2 read stride 3
access b16 read offset 17
access b4 read stride 2
access b4 write stride 2
)"},
    {"demoted_false_read_only_claim", R"(
loop demoted
trip 8192
compute 6 4
array t 8 16384 ro
index gidx 8192 random 17
access t read via gidx
access t write offset 8192
)"},
};

TEST(MaterializedStream, HandWrittenCorners) {
  for (const HandCase& hand : kHandCases) {
    SCOPED_TRACE(hand.name);
    exec::MaterializedLoop loop(loopir::LoopSpec::parse(hand.text));
    Totals totals;
    check_loop(loop, hand.name, totals);
    EXPECT_EQ(totals.loops, 5u);
  }
  // The demoted case really restages: the claim on 't' is false, but its
  // staged reads (the lower half) never meet its writes (the upper half),
  // so the certificate re-enables one staged read per iteration.
  exec::MaterializedLoop loop(loopir::LoopSpec::parse(kHandCases[5].text));
  EXPECT_EQ(loop.demoted_claims(), std::vector<std::string>{"t"});
  const std::uint64_t claims_only = loop.staged_refs_total();
  EXPECT_EQ(loop.proof(64 * 1024, 4).certified,
            (std::vector<std::string>{"t", "gidx"}));
  EXPECT_EQ(loop.staged_refs_total(), claims_only + loop.num_iterations());
}

}  // namespace
