// Differential oracle for the static-first restructure gate.
//
// exec::gate_for settles a spec from the static passes alone when they prove
// it with no warning, and otherwise runs the full replay-backed analysis
// (shadow replay, then the race certifier on staging-only refusals).  The
// shortcut is sound only if a static proof never disagrees with the replay.
// For every spec of the corpus — the committed specs (pipeline files
// contribute their stages), the PARMVR call-12 chain, and a seeded generator
// of small random specs — and every key workers {1, 2, 4} x chunk_bytes
// {4 KB, 64 KB}, this test asserts:
//   (a) a static proof implies a proof by the full analysis with the replay;
//   (b) gate_for equals the full-path decision recomputed here from the
//       public analysis API (verdict, certified operands, refusal rule and
//       rendered diagnostic);
//   (c) every proven key runs restructured at 2 and 4 threads with the
//       sequential reference's digest and rw_checksum — the cascade is
//       observationally the sequential composition of its chunks.
#include <algorithm>
#include <array>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "casc/analysis/verifier.hpp"
#include "casc/common/diagnostic.hpp"
#include "casc/exec/bridge.hpp"
#include "casc/exec/materialize.hpp"
#include "casc/loopir/loop_spec.hpp"
#include "casc/loopir/pipeline_spec.hpp"
#include "casc/rt/executor.hpp"
#include "casc/wave5/parmvr.hpp"
#include "spec_generator.hpp"

namespace {

using namespace casc;
using casc::test::generate_spec;
using casc::test::kBatches;
using casc::test::kGeneratorSeed;
using casc::test::kSpecsPerBatch;

constexpr std::array<std::uint64_t, 3> kWorkers{1, 2, 4};
constexpr std::array<std::uint64_t, 2> kChunkBytes{4 * 1024, 64 * 1024};

/// The full-path decision: the replay-backed analysis, then the certifier
/// when every error is a staging-claim failure — the gate before the static
/// shortcut, rebuilt from the public analysis API.
exec::Proof full_path_proof(const loopir::LoopSpec& spec,
                            const analysis::AnalysisReport& full,
                            std::uint64_t chunk_bytes, std::uint64_t workers) {
  if (full.restructure_eligible) return exec::Proof{};
  auto staging_rule = [](const std::string& rule) {
    return rule == "classify-write-ro" || rule == "hazard-cross-chunk" ||
           rule == "shadow-write-ro" || rule == "shadow-hazard-cross-chunk";
  };
  std::optional<common::Diagnostic> reason;
  bool only_staging = true;
  for (const common::Diagnostic& diag : full.diags.items()) {
    if (diag.severity != common::Severity::kError) continue;
    if (!reason) reason = diag;
    if (!staging_rule(diag.rule)) only_staging = false;
  }
  if (only_staging) {
    analysis::CertifyOptions copt;
    copt.chunk_bytes = chunk_bytes;
    const analysis::Certificate cert = analysis::certify(spec, copt);
    if (cert.certifies_staging(workers)) {
      return exec::Proof{std::nullopt, cert.certified_operands(workers)};
    }
  }
  if (!reason) {
    reason = common::Diagnostic{common::Severity::kError, "preflight-unproven",
                                "the analysis verifier could not prove the "
                                "spec restructure-eligible",
                                "", "", 0};
  }
  return exec::Proof{std::move(reason), {}};
}

struct OracleCounts {
  std::uint64_t specs = 0;
  std::uint64_t unmaterializable = 0;  ///< analysis only; no gate to compare
  std::uint64_t keys = 0;              ///< (spec, chunk_bytes, workers) gates
  std::uint64_t static_proven = 0;     ///< keys the static passes proved
  std::uint64_t static_decided = 0;    ///< ... with no warning: the shortcut
  std::uint64_t refused = 0;
  std::uint64_t certified = 0;  ///< proven only through the certifier
  std::uint64_t cascades = 0;   ///< restructure runs compared in (c)

  void print(const std::string& label) const {
    std::cout << "[gate-oracle] " << label << ": " << specs << " specs ("
              << unmaterializable << " analysis-only), " << keys
              << " keys: " << static_proven << " static-proven, "
              << static_decided << " decided statically, " << refused
              << " refused, " << certified << " certified; " << cascades
              << " restructure cascades matched the reference\n";
  }
};

class GateOracle {
 public:
  GateOracle() : two_(rt::ExecutorConfig{2}), four_(rt::ExecutorConfig{4}) {}

  void check(const loopir::LoopSpec& spec, const std::string& label) {
    ++counts_.specs;
    std::unique_ptr<exec::MaterializedLoop> loop;
    try {
      loop = std::make_unique<exec::MaterializedLoop>(spec);
    } catch (const std::exception&) {
      ++counts_.unmaterializable;
    }
    std::optional<exec::ExecResult> reference;
    for (const std::uint64_t chunk_bytes : kChunkBytes) {
      const std::string at = label + " chunk_bytes=" + std::to_string(chunk_bytes);
      analysis::AnalyzeOptions opt;
      opt.chunk_bytes = chunk_bytes;
      opt.run_shadow = false;
      const analysis::AnalysisReport quick = analysis::analyze(spec, opt);
      opt.run_shadow = true;
      const analysis::AnalysisReport full = analysis::analyze(spec, opt);

      // (a) static-proven implies replay-proven.
      if (quick.restructure_eligible) {
        EXPECT_TRUE(full.restructure_eligible)
            << at << ": static passes prove what the replay refuses\n"
            << full.diags.render_text() << spec.to_text();
      }
      if (!loop) continue;

      for (const std::uint64_t workers : kWorkers) {
        const std::string key = at + " workers=" + std::to_string(workers);
        ++counts_.keys;
        if (quick.restructure_eligible) ++counts_.static_proven;
        if (quick.restructure_eligible && quick.diags.warnings() == 0) {
          ++counts_.static_decided;
        }
        // (b) the gate equals the full-path decision.
        const exec::Proof want = full_path_proof(spec, full, chunk_bytes, workers);
        std::vector<std::string> certified{"not-an-operand"};
        const exec::Proof got =
            exec::gate_for(*loop, chunk_bytes, workers, &certified);
        ASSERT_EQ(got.proven(), want.proven()) << key << "\n" << spec.to_text();
        EXPECT_EQ(got.certified, want.certified) << key;
        EXPECT_EQ(certified, want.certified) << key;
        if (!want.proven()) {
          ++counts_.refused;
          EXPECT_EQ(got.refusal->severity, want.refusal->severity) << key;
          EXPECT_EQ(got.refusal->rule, want.refusal->rule) << key;
          EXPECT_EQ(common::render_text(*got.refusal),
                    common::render_text(*want.refusal))
              << key;
        } else if (!want.certified.empty()) {
          ++counts_.certified;
        }
      }

      // (c) every proven key cascades to the reference's bits.
      for (rt::CascadeExecutor* executor : {&two_, &four_}) {
        if (!loop->proof(chunk_bytes, executor->num_threads()).proven()) continue;
        if (!reference) reference = exec::run_reference(*loop);
        exec::RtOptions ro;
        ro.helper = exec::HelperMode::kRestructure;
        ro.chunk_bytes = chunk_bytes;
        const exec::ExecResult got = exec::run_cascaded(*loop, *executor, ro);
        const std::string key =
            at + " threads=" + std::to_string(executor->num_threads());
        EXPECT_FALSE(got.preflight_refused) << key;
        EXPECT_EQ(got.digest, reference->digest) << key << "\n" << spec.to_text();
        EXPECT_EQ(got.rw_checksum, reference->rw_checksum) << key;
        ++counts_.cascades;
      }
    }
  }

  [[nodiscard]] const OracleCounts& counts() const noexcept { return counts_; }

 private:
  rt::CascadeExecutor two_;
  rt::CascadeExecutor four_;
  OracleCounts counts_;
};

// ---- corpus -----------------------------------------------------------------

class GateOracleCommitted : public ::testing::TestWithParam<std::string> {};

TEST_P(GateOracleCommitted, StaticFirstGateMatchesFullAnalysis) {
  const std::string text =
      test::read_text(std::filesystem::path(CASC_SOURCE_DIR) / GetParam());
  GateOracle oracle;
  if (loopir::is_pipeline_text(text)) {
    for (const loopir::LoopSpec& stage :
         loopir::PipelineSpec::parse(text).stage_specs()) {
      oracle.check(stage, GetParam() + " stage " + stage.name);
    }
  } else {
    oracle.check(loopir::LoopSpec::parse(text), GetParam());
  }
  oracle.counts().print(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Specs, GateOracleCommitted, ::testing::ValuesIn(test::committed_spec_files()),
    test::spec_file_test_name);

TEST(GateOracleParmvr, EveryCall12StageMatchesFullAnalysis) {
  GateOracle oracle;
  for (const loopir::LoopSpec& stage :
       wave5::make_parmvr_pipeline(/*scale=*/1).stage_specs()) {
    oracle.check(stage, stage.name);
  }
  const OracleCounts& c = oracle.counts();
  c.print("parmvr_call12");
  EXPECT_EQ(c.specs, 15u);
  EXPECT_EQ(c.unmaterializable, 0u);
  EXPECT_GT(c.static_decided, 0u);  // the shortcut is live on the chain
}

class GateOracleGenerated : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GateOracleGenerated, StaticFirstGateMatchesFullAnalysis) {
  GateOracle oracle;
  const std::uint64_t first = kGeneratorSeed + GetParam() * kSpecsPerBatch;
  for (std::uint64_t seed = first; seed < first + kSpecsPerBatch; ++seed) {
    const loopir::LoopSpec generated = generate_spec(seed);
    // The corpus is spec TEXT: render and re-parse, so the parser is in the
    // loop exactly as for committed and submitted specs.
    common::DiagnosticList parse_diags;
    const loopir::LoopSpec spec =
        loopir::LoopSpec::parse(generated.to_text(), parse_diags);
    ASSERT_TRUE(parse_diags.ok()) << parse_diags.render_text();
    oracle.check(spec, "seed " + std::to_string(seed));
  }
  const OracleCounts& c = oracle.counts();
  c.print("generated batch " + std::to_string(GetParam()));
  // Every batch exercises both sides of the shortcut, real refusals and
  // certifier overturns.
  EXPECT_GT(c.static_decided, 0u);
  EXPECT_GT(c.keys, c.static_decided);
  EXPECT_GT(c.refused, 0u);
  EXPECT_GT(c.certified, 0u);
  EXPECT_GT(c.cascades, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeded, GateOracleGenerated,
                         ::testing::Range<std::uint64_t>(0, kBatches));

}  // namespace
