// Tests for the schedule-independent race certifier: pair classification
// (anti / stale / flow / disjoint), verdict stability under chunk-plan
// permutations, the bounded certifies_staging() question, and the contract
// that every certificate witness is reproducible by the shadow checker's
// ring replay at the witness's worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "casc/analysis/certifier.hpp"
#include "casc/analysis/shadow.hpp"
#include "casc/common/diagnostic.hpp"
#include "casc/loopir/loop_spec.hpp"
#include "casc/trace/trace.hpp"

namespace {

using casc::analysis::Certificate;
using casc::analysis::CertifyOptions;
using casc::analysis::certify;
using casc::common::DiagnosticList;
using casc::common::Severity;
using casc::loopir::LoopSpec;

// Indirect gather from the lower half of 't' plus affine writes to the upper
// half, 't' claimed read-only (tests/specs/gather_split.casc shrunk so the
// whole file certifies in microseconds): the random index values lie in
// [0, 8192), so staged and written bytes never meet.
constexpr const char* kGatherSplit = R"(
loop gather_split
trip 8192
compute 6 4
layout conflicting
array t 8 16384 ro
index gidx 8192 random 17
access t read via gidx
access t write offset 8192
)";

// hist(bidx(k)) += 1: a privatizable sum-reduction.
constexpr const char* kHistogram = R"(
loop histogram
trip 8192
compute 5 4
layout conflicting
array hist 8 256 rw
index bidx 8192 random 23
access hist update sum via bidx
)";

// The seeded-unsafe recurrence: same-chunk stale pairs (distance-1 flow),
// raced at every worker count.
constexpr const char* kUnsafe = R"(
loop unsafe_recurrence
trip 8192
compute 12 8
layout conflicting
array y 8 8192 ro
array coef 8 8192 ro
access coef read
access y read offset -1
access y write
)";

// Bounded-distance flow: the write at iteration i is staged-read at
// i + 8192.  At 24 bytes/iteration a 24 KiB chunk holds exactly 1024
// iterations, so every flow pair has chunk distance exactly 8: rings of
// up to 8 workers preserve the order, a 9th races.
constexpr const char* kFlow8 = R"(
loop flow8
trip 32768
compute 4 3
layout conflicting
array s 8 32768 ro
array k 8 32768 ro
access k read
access s read offset -8192
access s write
)";
constexpr std::uint64_t kFlow8ChunkBytes = 24 * 1024;

LoopSpec parse(const char* text) {
  DiagnosticList diags;
  LoopSpec spec = LoopSpec::parse(text, diags);
  EXPECT_TRUE(diags.ok()) << diags.render_text();
  return spec;
}

bool has_rule(const DiagnosticList& diags, const std::string& rule,
              Severity severity) {
  return std::any_of(diags.items().begin(), diags.items().end(),
                     [&](const casc::common::Diagnostic& d) {
                       return d.rule == rule && d.severity == severity;
                     });
}

TEST(Certifier, DisjointGatherIsCertifiedAtEveryWorkerCount) {
  const Certificate cert = certify(parse(kGatherSplit));
  EXPECT_EQ(cert.verdict, "certified-disjoint");
  EXPECT_EQ(cert.flow_pairs, 0u);
  EXPECT_EQ(cert.stale_pairs, 0u);
  EXPECT_TRUE(cert.witnesses.empty());
  EXPECT_FALSE(cert.truncated);
  EXPECT_TRUE(cert.certifies_staging(1));
  EXPECT_TRUE(cert.certifies_staging(64));
  // Both the gathered array and the index array are certified candidates.
  const auto ops = cert.certified_operands(8);
  EXPECT_NE(std::find(ops.begin(), ops.end(), "t"), ops.end());
  EXPECT_NE(std::find(ops.begin(), ops.end(), "gidx"), ops.end());
  for (const auto& op : cert.operands) {
    if (op.name == "t") {
      EXPECT_TRUE(op.stage_candidate);
      EXPECT_TRUE(op.certified);
      EXPECT_GT(op.staged_bytes, 0u);
    }
  }
}

TEST(Certifier, ReductionSpecRequiresPrivatization) {
  const Certificate cert = certify(parse(kHistogram));
  EXPECT_EQ(cert.verdict, "requires-privatization");
  ASSERT_FALSE(cert.operands.empty());
  const auto it = std::find_if(
      cert.operands.begin(), cert.operands.end(),
      [](const casc::analysis::OperandCertificate& op) {
        return op.name == "hist";
      });
  ASSERT_NE(it, cert.operands.end());
  EXPECT_EQ(it->klass, "reduction");
  EXPECT_EQ(it->reduce_op, "sum");
  EXPECT_FALSE(it->stage_candidate);  // reductions are never staged
  EXPECT_TRUE(has_rule(cert.diags, "certify-summary", Severity::kNote));
}

TEST(Certifier, StalePairsRaceAtEveryWorkerCountIncludingOne) {
  const Certificate cert = certify(parse(kUnsafe));
  EXPECT_EQ(cert.verdict, "raced");
  EXPECT_GT(cert.stale_pairs, 0u);
  EXPECT_GT(cert.flow_pairs, 0u);
  // The index-wrap read y(-1) -> y(8191) is an anti pair: staged before the
  // late write, so the copy equals the sequential value.
  EXPECT_GT(cert.anti_pairs, 0u);
  // Stale pairs predate the write at EVERY worker count, including one.
  EXPECT_FALSE(cert.certifies_staging(1));
  EXPECT_FALSE(cert.certifies_staging(2));
  ASSERT_FALSE(cert.witnesses.empty());
  // The most damning witness leads: a same-chunk stale pair (workers == 0).
  EXPECT_EQ(cert.witnesses.front().workers, 0u);
  EXPECT_EQ(cert.witnesses.front().array, "y");
  EXPECT_FALSE(cert.witnesses.front().schedule.empty());
  EXPECT_TRUE(has_rule(cert.diags, "certify-stale", Severity::kError));
  // 'coef' is genuinely read-only: individually certified despite the
  // raced verdict for the loop as a whole.
  const auto ops = cert.certified_operands(4);
  EXPECT_NE(std::find(ops.begin(), ops.end(), "coef"), ops.end());
  EXPECT_EQ(std::find(ops.begin(), ops.end(), "y"), ops.end());
}

// Write-then-read of the same element in ONE iteration: sequentially the
// read sees the write, but the helper staged the element before the chunk
// ran.  Ordering reads by iteration alone made this pair look like an anti
// pair and certified the loop; it is stale at every worker count.
TEST(Certifier, SameIterationWriteThenReadIsStale) {
  const Certificate cert = certify(parse(R"(
loop write_then_read
trip 4096
compute 4
layout staggered
array t 8 4096 ro
index g 4096 perm 7
access t write via g
access t read via g
)"));
  EXPECT_EQ(cert.verdict, "raced");
  EXPECT_EQ(cert.stale_pairs, 4096u);
  EXPECT_FALSE(cert.certifies_staging(1));
  const auto ops = cert.certified_operands(1);
  EXPECT_EQ(std::find(ops.begin(), ops.end(), "t"), ops.end());
  ASSERT_FALSE(cert.witnesses.empty());
  EXPECT_EQ(cert.witnesses.front().write_iter, cert.witnesses.front().read_iter);
}

TEST(Certifier, FlowDistanceBoundsTheSafeRing) {
  CertifyOptions opt;
  opt.chunk_bytes = kFlow8ChunkBytes;
  const Certificate cert = certify(parse(kFlow8), opt);
  ASSERT_EQ(cert.chunk_iters, 1024u);
  EXPECT_EQ(cert.verdict, "raced");  // unbounded adversary: any flow pair
  EXPECT_EQ(cert.stale_pairs, 0u);
  EXPECT_GT(cert.flow_pairs, 0u);
  EXPECT_GT(cert.anti_pairs, 0u);  // the wrapped prefix reads
  EXPECT_EQ(cert.max_safe_workers, 8u);
  // P <= D rings preserve every flow pair; P = D+1 races.
  EXPECT_TRUE(cert.certifies_staging(2));
  EXPECT_TRUE(cert.certifies_staging(8));
  EXPECT_FALSE(cert.certifies_staging(9));
  ASSERT_FALSE(cert.witnesses.empty());
  EXPECT_EQ(cert.witnesses.front().workers, 9u);
  EXPECT_EQ(cert.witnesses.front().read_chunk - cert.witnesses.front().write_chunk,
            8u);
  // Per-operand view: 's' is safe up to 8 workers, 'k' at any count.
  const auto at8 = cert.certified_operands(8);
  EXPECT_NE(std::find(at8.begin(), at8.end(), "s"), at8.end());
  EXPECT_NE(std::find(at8.begin(), at8.end(), "k"), at8.end());
  const auto at9 = cert.certified_operands(9);
  EXPECT_EQ(std::find(at9.begin(), at9.end(), "s"), at9.end());
  EXPECT_NE(std::find(at9.begin(), at9.end(), "k"), at9.end());
}

TEST(Certifier, VerdictsAreStableUnderChunkPlanPermutations) {
  // The verdict models an unbounded adversary, so it cannot depend on the
  // chunk geometry: sweep the plan across two orders of magnitude.
  const LoopSpec gather = parse(kGatherSplit);
  const LoopSpec hist = parse(kHistogram);
  const LoopSpec unsafe_spec = parse(kUnsafe);
  for (std::uint64_t kb : {4, 8, 16, 32, 64, 128, 256}) {
    CertifyOptions opt;
    opt.chunk_bytes = kb * 1024;
    EXPECT_EQ(certify(gather, opt).verdict, "certified-disjoint")
        << kb << "K chunks";
    EXPECT_EQ(certify(hist, opt).verdict, "requires-privatization")
        << kb << "K chunks";
    EXPECT_EQ(certify(unsafe_spec, opt).verdict, "raced") << kb << "K chunks";
  }
}

TEST(Certifier, UninstantiableSpecComesBackUnsupported) {
  DiagnosticList diags;
  const LoopSpec broken =
      LoopSpec::parse("loop b\narray A 4 16 ro\naccess A read\n", diags);
  const Certificate cert = certify(broken);
  EXPECT_EQ(cert.verdict, "unsupported");
  EXPECT_FALSE(cert.certifies_staging(1));
  EXPECT_TRUE(has_rule(cert.diags, "certify-unsupported", Severity::kError));
}

// --- Witness reproduction: the certificate's claims must be confirmed by an
// --- independent replay of the concrete ring in the shadow checker.

TEST(CertifierCrossCheck, FlowWitnessReproducesOnItsRingAndNotBelow) {
  const LoopSpec spec = parse(kFlow8);
  CertifyOptions copt;
  copt.chunk_bytes = kFlow8ChunkBytes;
  const Certificate cert = certify(spec, copt);
  ASSERT_EQ(cert.max_safe_workers, 8u);

  const auto nest = casc::analysis::sanitized_instantiate(spec);
  const auto trace = casc::trace::Trace::capture(nest);
  const auto claims = casc::analysis::claims_for(spec, nest);

  // Ring of max_safe_workers: every flow pair is token-ordered.
  casc::analysis::ShadowOptions safe;
  safe.chunk_bytes = kFlow8ChunkBytes;
  safe.ring_workers = cert.max_safe_workers;
  const auto ordered = casc::analysis::shadow_check(trace, claims, safe);
  EXPECT_TRUE(ordered.restructure_safe)
      << ordered.diags.render_text();
  EXPECT_GT(ordered.ordered_pairs, 0u);
  EXPECT_FALSE(
      has_rule(ordered.diags, "shadow-hazard-cross-chunk", Severity::kError));
  EXPECT_TRUE(has_rule(ordered.diags, "shadow-ordered", Severity::kNote));

  // Ring of the witness's worker count: the hazard re-derives.
  casc::analysis::ShadowOptions racy = safe;
  racy.ring_workers = cert.witnesses.front().workers;
  const auto raced = casc::analysis::shadow_check(trace, claims, racy);
  EXPECT_FALSE(raced.restructure_safe);
  EXPECT_TRUE(
      has_rule(raced.diags, "shadow-hazard-cross-chunk", Severity::kError));
}

TEST(CertifierCrossCheck, StaleWitnessReproducesOnEveryRing) {
  const LoopSpec spec = parse(kUnsafe);
  const auto nest = casc::analysis::sanitized_instantiate(spec);
  const auto trace = casc::trace::Trace::capture(nest);
  const auto claims = casc::analysis::claims_for(spec, nest);
  for (std::uint64_t workers : {1, 2, 4}) {
    casc::analysis::ShadowOptions opt;
    opt.ring_workers = workers;
    const auto report = casc::analysis::shadow_check(trace, claims, opt);
    EXPECT_FALSE(report.restructure_safe) << workers << " workers";
    EXPECT_TRUE(has_rule(report.diags, "shadow-write-ro", Severity::kError))
        << workers << " workers";
  }
}

TEST(CertifierCrossCheck, DisjointGatherIsCleanOnEveryRing) {
  const LoopSpec spec = parse(kGatherSplit);
  const auto nest = casc::analysis::sanitized_instantiate(spec);
  const auto trace = casc::trace::Trace::capture(nest);
  const auto claims = casc::analysis::claims_for(spec, nest);
  for (std::uint64_t workers : {1, 3, 8}) {
    casc::analysis::ShadowOptions opt;
    opt.ring_workers = workers;
    const auto report = casc::analysis::shadow_check(trace, claims, opt);
    EXPECT_TRUE(report.restructure_safe) << report.diags.render_text();
  }
}

TEST(Certifier, TruncationRefusesCertification) {
  CertifyOptions opt;
  opt.max_iterations = 1024;  // kGatherSplit trips 8192
  const Certificate cert = certify(parse(kGatherSplit), opt);
  EXPECT_TRUE(cert.truncated);
  EXPECT_EQ(cert.iterations, 1024u);
  // The checked prefix is disjoint, but prefix evidence certifies nothing.
  EXPECT_FALSE(cert.certifies_staging(1));
  EXPECT_TRUE(has_rule(cert.diags, "certify-truncated", Severity::kNote));
}

}  // namespace
