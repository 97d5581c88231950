#include "casc/exec/bridge.hpp"

#include <algorithm>
#include <vector>

#include "casc/analysis/verifier.hpp"
#include "casc/common/aligned_alloc.hpp"
#include "casc/common/check.hpp"
#include "casc/common/simd.hpp"
#include "casc/common/stopwatch.hpp"
#include "casc/rt/fault_injection.hpp"
#include "casc/rt/helpers.hpp"

namespace casc::exec {

namespace {

// ---- interpretation kernels ------------------------------------------------
//
// The body is the same slot sequence every iteration
// (MaterializedLoop::body_shape()), so the dispatch happens ONCE per span and
// the inner loops below touch only what their shape needs — the all-staged
// kernel never reads the ResolvedRef table at all.  Every kernel implements
// the same semantics (see materialize.hpp), so digests are bit-identical
// across kernels, helper modes, and SIMD tiers.

/// Fused: every reference is a staged read.  Pure mix-fold over the dense
/// staged span — no ResolvedRef traffic, no branches, the exact loop the
/// hardware stream prefetcher is built for.
std::uint64_t interpret_reads_only(std::uint64_t begin, std::uint64_t end,
                                   std::uint64_t acc,
                                   const std::uint64_t* staged,
                                   std::uint32_t refs_per_iter) {
  const std::uint64_t n = (end - begin) * refs_per_iter;
  for (std::uint64_t k = 0; k < n; ++k) {
    acc = MaterializedLoop::mix(acc, staged[k]);
  }
  return acc;
}

/// Fused: R staged reads then exactly one trailing write per iteration (the
/// dense_sum / gather_split shape).  The write is the iteration's only
/// ResolvedRef.
std::uint64_t interpret_reads_then_write(MaterializedLoop& loop,
                                         std::uint64_t begin, std::uint64_t end,
                                         std::uint64_t acc,
                                         const std::uint64_t* staged,
                                         std::uint32_t reads) {
  const ResolvedRef* w = loop.refs_begin(begin);
  for (std::uint64_t it = begin; it < end; ++it, ++w) {
    for (std::uint32_t r = 0; r < reads; ++r) {
      acc = MaterializedLoop::mix(acc, *staged++);
    }
    const std::uint64_t wv = MaterializedLoop::mix(acc, it);
    loop.store(*w, wv);
    acc = wv;
  }
  return acc;
}

/// Slot-driven: any slot sequence, with two cursors.  Staged slots take the
/// next gathered value (kGathered) or load through the SoA staged stream;
/// plain reads and writes go through the ResolvedRef table.
template <bool kGathered>
std::uint64_t interpret_slots(MaterializedLoop& loop, std::uint64_t begin,
                              std::uint64_t end, std::uint64_t acc,
                              const std::uint64_t* staged) {
  const std::vector<SlotKind>& slots = loop.body_shape().slots;
  const ResolvedRef* ref = loop.refs_begin(begin);
  std::uint64_t p = loop.staged_refs_before(begin);
  for (std::uint64_t it = begin; it < end; ++it) {
    for (const SlotKind kind : slots) {
      switch (kind) {
        case SlotKind::kStagedRead:
          acc = MaterializedLoop::mix(
              acc, kGathered ? *staged++ : loop.load_staged(p++));
          break;
        case SlotKind::kPlainRead:
          acc = MaterializedLoop::mix(acc, loop.load(*ref++));
          break;
        case SlotKind::kWrite: {
          const std::uint64_t w = MaterializedLoop::mix(acc, it);
          loop.store(*ref++, w);
          acc = w;
          break;
        }
      }
    }
  }
  return acc;
}

/// Interprets iterations [begin, end) against real storage, continuing from
/// `acc`.  `staged` non-null: the chunk's staged operand values, gathered by
/// the helper in stream order.  Dispatches once to the best kernel the body
/// shape admits.
std::uint64_t interpret_span(MaterializedLoop& loop, std::uint64_t begin,
                             std::uint64_t end, std::uint64_t acc,
                             const std::uint64_t* staged) {
  const BodyShape& shape = loop.body_shape();
  if (staged != nullptr && shape.plain_reads == 0) {
    if (shape.writes == 0) {
      return interpret_reads_only(begin, end, acc, staged, shape.staged_reads);
    }
    if (shape.writes == 1 && shape.slots.back() == SlotKind::kWrite) {
      return interpret_reads_then_write(loop, begin, end, acc, staged,
                                        shape.staged_reads);
    }
  }
  return staged != nullptr ? interpret_slots<true>(loop, begin, end, acc, staged)
                           : interpret_slots<false>(loop, begin, end, acc, nullptr);
}

}  // namespace

core::ChunkPlan plan_for(const MaterializedLoop& loop, std::uint64_t chunk_bytes) {
  return core::ChunkPlan::for_iters_per_bytes(loop.num_iterations(),
                                              loop.nest().bytes_per_iteration(),
                                              chunk_bytes);
}

std::optional<ReductionOperand> find_reduction_operand(
    const loopir::LoopSpec& spec) {
  common::DiagnosticList diags;
  for (const analysis::OperandClass& c :
       analysis::classify_operands(spec, diags)) {
    if (c.reduction()) return ReductionOperand{c.name, c.reduce_op, c.kind()};
  }
  return std::nullopt;
}

namespace {

/// Sequential interpretation against the arrays' CURRENT contents — the
/// pipeline paths sequence resets and the checksum at chain level, so the
/// per-loop entry point's reset and checksum are split out.
ExecResult reference_no_reset(MaterializedLoop& loop) {
  ExecResult result;
  result.total_iters = loop.num_iterations();
  result.iters_per_chunk = result.total_iters;
  common::Stopwatch watch;
  result.digest = interpret_span(loop, 0, result.total_iters,
                                 MaterializedLoop::kAccSeed, nullptr);
  result.seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace

ExecResult run_reference(MaterializedLoop& loop) {
  loop.reset();
  ExecResult result = reference_no_reset(loop);
  result.rw_checksum = loop.rw_checksum();
  return result;
}

namespace {

/// Staging state of one arena region, carried from the stage that gathered
/// it to the stages the plan lets replay it.  The executor's run() return is
/// the happens-before edge: by the time a later stage consults these, every
/// helper write of the gather stage is visible.
struct RegionState {
  std::vector<char> chunk_staged;  ///< per-chunk commit flags (gather stage)
  std::uint64_t ipc = 0;           ///< the gather stage's chunk geometry
  /// The gather ran clean: staging committed under a proven gate with no
  /// helper faults, reclaimed chunks, or invalidated stagings.  Anything
  /// less and successor stages fall back to full re-staging — reuse is
  /// health-gated on top of the plan's proof.
  bool trustworthy = false;
};

/// Runs one stage of a cascade on `executor` against the arrays' CURRENT
/// contents (resets and checksums are sequenced by the entry points),
/// staging through `region` (flat layout: staged reference p of the loop
/// lives at region + 8p, so chunk geometry never shifts the bytes).  `proof`
/// is the loop's restructure proof when this stage would gather (null
/// otherwise); a refused proof installs no helper phase at all — not even a
/// chaos-armed one — and is recorded in the result.  With `reuse` the stage
/// gathers nothing and executes against the staged stream `rs` describes;
/// otherwise it stages into the region itself and rewrites `rs` for its
/// successors.  A single loop is a one-stage chain with a region of its own.
ExecResult run_stage(MaterializedLoop& loop, rt::CascadeExecutor& executor,
                     const RtOptions& opt, const Proof* proof,
                     std::byte* region, RegionState& rs, bool reuse) {
  const std::uint64_t total = loop.num_iterations();
  std::uint64_t ipc = opt.iters_per_chunk;
  if (ipc == 0 && reuse) ipc = rs.ipc;  // align chunks with the gather's flags
  if (ipc == 0) ipc = plan_for(loop, opt.chunk_bytes).iters_per_chunk();
  CASC_CHECK(ipc > 0, "iters_per_chunk must be positive");
  const std::uint64_t num_chunks = total == 0 ? 0 : (total + ipc - 1) / ipc;

  ExecResult result;
  result.total_iters = total;
  result.iters_per_chunk = ipc;
  result.num_chunks = std::max<std::uint64_t>(1, num_chunks);
  if (total == 0) {
    result.digest = MaterializedLoop::kAccSeed;
    return result;
  }

  if (reuse && (rs.ipc != ipc || rs.chunk_staged.size() != num_chunks)) {
    // Geometry drifted from the gather stage; the commit flags no longer
    // map chunk-for-chunk, and the caller only gated a stage that gathers,
    // so run straight from the arrays.  Unreachable under the pipeline
    // runner (full_reuse implies the same trip/step and a reuse stage
    // adopts the gather's ipc), but cheap to keep honest.
    reuse = false;
    region = nullptr;
  }
  // A refused proof means the helper would stage operand values some chunk
  // writes; the cascade degenerates to token hand-offs over the plain loop
  // body, which is always correct.
  const bool refused = proof != nullptr && !proof->proven();
  const bool staging = opt.helper == HelperMode::kRestructure &&
                       region != nullptr && !reuse && !refused;

  // The loop-carried accumulator crosses chunk boundaries on the token's
  // release/acquire edge — the same edge that makes the arrays' own writes
  // visible to the next execution phase.  So does the count of chunks whose
  // execution phase consumed staged values.
  std::uint64_t acc = MaterializedLoop::kAccSeed;
  std::uint64_t staged_used = 0;
  // Helper and execution phase of chunk c run on the same worker (c mod P),
  // so the commit flags need no synchronization.
  std::vector<char> chunk_staged(num_chunks, 0);
  std::uint64_t* const staged_base = reinterpret_cast<std::uint64_t*>(region);

  auto exec = [&](std::uint64_t begin, std::uint64_t end) {
    const std::uint64_t c = begin / ipc;
    // The fail-soft context gates the staged path: a reclaimed chunk runs on
    // a non-owner thread (the short-circuit keeps it off the owner's commit
    // flag), and a suspect-staging chunk must ignore whatever its faulty
    // helper wrote.  The unstaged call passes a literal null so
    // interpret_span's kernel dispatch folds away on the direct-load
    // (prefetch, none-mode) path.
    const rt::ExecContext& ctx = executor.current_exec_context();
    if (!ctx.reclaimed && !ctx.staging_invalid &&
        (reuse ? rs.chunk_staged[c] : chunk_staged[c]) != 0) {
      acc = interpret_span(loop, begin, end, acc,
                           staged_base + loop.staged_refs_before(begin));
      ++staged_used;
    } else {
      acc = interpret_span(loop, begin, end, acc, nullptr);
    }
  };

  auto prefetch_helper = [&](std::uint64_t begin, std::uint64_t end,
                             const rt::TokenWatch& watch) -> bool {
    for (std::uint64_t it = begin; it < end; ++it) {
      if ((it & 0x3f) == 0 && watch.signalled()) return false;
      for (std::uint64_t p = loop.staged_refs_before(it);
           p < loop.staged_refs_before(it + 1); ++p) {
        rt::force_load(loop.staged_addr(p));
      }
      for (const ResolvedRef* ref = loop.refs_begin(it); ref != loop.refs_end(it);
           ++ref) {
        rt::force_load(loop.addr(*ref));
      }
    }
    return true;
  };

  auto gather_helper = [&](std::uint64_t begin, std::uint64_t end,
                           const rt::TokenWatch& watch) -> bool {
    const std::uint64_t c = begin / ipc;
    // Walk the SoA staged stream for this chunk: runs of same-array
    // full-word references become one SIMD gather call each, with the byte
    // offsets as the index vector.
    const std::uint64_t p1 = loop.staged_refs_before(end);
    std::uint64_t p = loop.staged_refs_before(begin);
    const std::uint64_t* offs = loop.staged_offsets();
    const std::uint32_t* arrs = loop.staged_arrays();
    const std::uint8_t* sizes = loop.staged_sizes();
    constexpr std::uint64_t kPoll = 1024;  // staged refs between token polls
    while (p < p1) {
      // A jump-out abandons the partially gathered chunk; its commit flag
      // stays clear and execution falls back to direct array loads.
      if (watch.signalled()) return false;
      const std::uint64_t block_end = std::min(p1, p + kPoll);
      while (p < block_end) {
        const std::uint32_t a = arrs[p];
        if (sizes[p] == 8) {
          std::uint64_t q = p + 1;
          while (q < block_end && arrs[q] == a && sizes[q] == 8) ++q;
          common::simd::gather_offsets_u64(loop.array_data(a), offs + p, q - p,
                                           staged_base + p);
          p = q;
        } else {
          staged_base[p] = loop.load_staged(p);  // narrow: zero-extended
          ++p;
        }
      }
    }
    chunk_staged[c] = 1;
    return true;
  };

  // No helper phase for a reuse stage (nothing to gather), a refused proof
  // or a none-mode (or stage-nothing) run: it executes straight from the
  // arrays.
  rt::HelperRef helper;
  if (staging) {
    helper = gather_helper;
  } else if (opt.helper == HelperMode::kPrefetch && !reuse) {
    helper = prefetch_helper;
  }

  // Chaos arming wraps the run's helper in the planned fault schedule; with
  // no helper a no-op one is installed so the planned faults still exercise
  // the quarantine/backoff machinery.  `armed` owns the wrapper across run().
  rt::HelperFn armed;
  if (opt.chaos != nullptr && !opt.chaos->empty() && !refused) {
    armed = opt.chaos->arm(helper ? rt::HelperFn(helper) : rt::HelperFn());
    helper = armed;
  }

  if (opt.soft_budget_factor > 0.0 && opt.estimated_seq_seconds > 0.0) {
    const auto demote_ms = std::chrono::milliseconds(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(opt.soft_budget_factor *
                                     opt.estimated_seq_seconds * 1e3)));
    executor.set_soft_budget(demote_ms, 2 * demote_ms);
  }

  common::Stopwatch watch;
  executor.run(total, ipc, exec, helper);
  result.seconds = watch.elapsed_seconds();

  const rt::RunStats& stats = executor.last_run_stats();
  result.transfers = stats.transfers;
  result.helpers_completed = stats.helpers_completed;
  result.helpers_jumped_out = stats.helpers_jumped_out;
  if (refused) {
    result.preflight_refused = true;
    result.preflight_diag = common::render_text(*proof->refusal);
  }
  result.helper_faults = stats.helper_faults;
  result.chunks_reclaimed = stats.chunks_reclaimed;
  result.helper_retries = stats.helper_retries;
  result.stagings_invalidated = stats.stagings_invalidated;
  result.workers_quarantined = stats.workers_quarantined;
  result.demotion_level = stats.demotion_level;
  result.degraded = stats.degraded();
  result.staged_chunks = staged_used;
  result.digest = acc;

  if (!reuse) {
    rs.chunk_staged = std::move(chunk_staged);
    rs.ipc = ipc;
    rs.trustworthy = staging && stats.helper_faults == 0 &&
                     stats.chunks_reclaimed == 0 &&
                     stats.stagings_invalidated == 0;
  }
  return result;
}

/// One loop as a one-stage chain (arrays NOT reset): the body of run_cascaded
/// and the per-stage engine of run_pipeline_independent.  The proof comes
/// before sizing the region: a certificate can re-enable staging the claim
/// demotion turned off, which grows the staged stream.
ExecResult run_single(MaterializedLoop& loop, rt::CascadeExecutor& executor,
                      const RtOptions& opt) {
  RegionState rs;
  if (opt.helper != HelperMode::kRestructure) {
    return run_stage(loop, executor, opt, nullptr, nullptr, rs, false);
  }
  double prove_s = 0.0;
  const Proof& proof =
      loop.proof(opt.chunk_bytes, executor.num_threads(), &prove_s);
  common::AlignedStorage region(
      8 * std::max<std::uint64_t>(1, loop.staged_refs_total()));
  ExecResult result =
      run_stage(loop, executor, opt, &proof, region.data(), rs, false);
  result.prove_seconds = prove_s;
  return result;
}

std::uint64_t fold_chain(std::uint64_t chain, std::uint64_t digest) {
  return MaterializedLoop::mix(chain, digest);
}

}  // namespace

ExecResult run_cascaded(MaterializedLoop& loop, rt::CascadeExecutor& executor,
                        const RtOptions& opt) {
  loop.reset();
  ExecResult result = run_single(loop, executor, opt);
  result.rw_checksum = loop.rw_checksum();
  return result;
}

// ---- pipelines -------------------------------------------------------------

PipelineResult run_pipeline_reference(MaterializedPipeline& pipe) {
  pipe.reset();
  PipelineResult out;
  std::uint64_t chain = MaterializedLoop::kAccSeed;
  common::Stopwatch watch;
  for (std::size_t k = 0; k < pipe.num_stages(); ++k) {
    PipelineStageResult stage;
    stage.name = pipe.spec().stages[k].name;
    stage.result = reference_no_reset(pipe.stage(k));
    chain = fold_chain(chain, stage.result.digest);
    out.stages.push_back(std::move(stage));
  }
  out.seconds = watch.elapsed_seconds();
  out.chain_digest = chain;
  out.rw_checksum = pipe.rw_checksum();
  return out;
}

PipelineResult run_pipeline_cascaded(MaterializedPipeline& pipe,
                                     rt::CascadeExecutor& executor,
                                     const RtOptions& opt) {
  pipe.reset();
  PipelineResult out;
  std::uint64_t chain = MaterializedLoop::kAccSeed;
  RegionState rs;
  common::Stopwatch watch;
  for (std::size_t k = 0; k < pipe.num_stages(); ++k) {
    const analysis::StagePlan& sp = pipe.plan().stages[k];
    if (sp.region_of == k) rs = RegionState{};  // entering a fresh region
    const bool reuse = opt.helper == HelperMode::kRestructure &&
                       pipe.reuses_previous(k) && rs.trustworthy;
    MaterializedLoop& loop = pipe.stage(k);
    // A stage that stages into its own region consumes its cached proof.
    // Stage specs carry derived (hence honest) read-only claims, so no
    // demotion exists for a certificate to overturn: the proof certifies
    // nothing extra and the staged stream keeps the plan's signature, which
    // is what sized the region (pipeline_test pins both on every
    // committed pipeline; the check turns a violation into an error rather
    // than an arena overrun).
    const Proof* proof = nullptr;
    double prove_s = 0.0;
    if (opt.helper == HelperMode::kRestructure && !reuse &&
        pipe.region(k) != nullptr) {
      proof = &loop.proof(opt.chunk_bytes, executor.num_threads(), &prove_s);
      CASC_CHECK(8 * loop.staged_refs_total() <= sp.region_bytes,
                 "stage '" + pipe.spec().stages[k].name +
                     "' stages more than its planned arena region");
    }
    PipelineStageResult stage;
    stage.name = pipe.spec().stages[k].name;
    stage.result =
        run_stage(loop, executor, opt, proof, pipe.region(k), rs, reuse);
    stage.result.prove_seconds = prove_s;
    out.prove_seconds += prove_s;
    stage.reused_staging = reuse;
    if (reuse) ++out.stages_reused;
    chain = fold_chain(chain, stage.result.digest);
    out.stages.push_back(std::move(stage));
  }
  out.seconds = watch.elapsed_seconds();
  out.chain_digest = chain;
  out.rw_checksum = pipe.rw_checksum();
  return out;
}

PipelineResult run_pipeline_independent(MaterializedPipeline& pipe,
                                        unsigned num_threads,
                                        const RtOptions& opt) {
  pipe.reset();
  PipelineResult out;
  std::uint64_t chain = MaterializedLoop::kAccSeed;
  common::Stopwatch watch;
  for (std::size_t k = 0; k < pipe.num_stages(); ++k) {
    // A fresh executor per loop: the token ring is built up and torn down
    // every stage, exactly the per-loop cost the pipeline amortizes away.
    rt::ExecutorConfig cfg;
    cfg.num_threads = num_threads;
    rt::CascadeExecutor executor(cfg);
    PipelineStageResult stage;
    stage.name = pipe.spec().stages[k].name;
    stage.result = run_single(pipe.stage(k), executor, opt);
    out.prove_seconds += stage.result.prove_seconds;
    chain = fold_chain(chain, stage.result.digest);
    out.stages.push_back(std::move(stage));
  }
  out.seconds = watch.elapsed_seconds();
  out.chain_digest = chain;
  out.rw_checksum = pipe.rw_checksum();
  return out;
}

}  // namespace casc::exec
