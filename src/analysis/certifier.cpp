#include "casc/analysis/certifier.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <unordered_map>

#include "casc/analysis/passes.hpp"
#include "casc/analysis/shadow.hpp"
#include "casc/common/check.hpp"
#include "casc/core/chunk.hpp"

namespace casc::analysis {

namespace {

std::string hex(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// One read of a staged byte range: its position in the whole reference
/// stream (so a read later in the SAME iteration as a write orders after
/// it) and its iteration.
struct StagedRead {
  std::uint64_t seq = 0;
  std::uint64_t iter = 0;
};

/// One staged byte range and the reads of it, in stream order.
struct StagedRec {
  std::uint64_t addr = 0;
  std::uint32_t size = 0;
  std::size_t operand = 0;  ///< index into Certificate::operands
  std::vector<StagedRead> reads;
};

std::string stale_schedule(const RaceWitness& w) {
  return "the helper for chunk " + std::to_string(w.read_chunk) + " copies " +
         hex(w.address) + " of '" + w.array +
         "' before the chunk executes; iteration " +
         std::to_string(w.write_iter) +
         " then writes those bytes and iteration " +
         std::to_string(w.read_iter) +
         " reads the stale copy — unsafe at every worker count, including "
         "one";
}

std::string flow_schedule(const RaceWitness& w) {
  const std::uint64_t p = w.workers;
  return "with " + std::to_string(p) + " workers, worker " +
         std::to_string(w.read_chunk % p) + " stages " + hex(w.address) +
         " of '" + w.array + "' for chunk " + std::to_string(w.read_chunk) +
         " as soon as chunk " +
         (w.read_chunk >= p ? std::to_string(w.read_chunk - p)
                            : std::string("(run start)")) +
         " retires — before worker " + std::to_string(w.write_chunk % p) +
         " executes the write at iteration " + std::to_string(w.write_iter) +
         " in chunk " + std::to_string(w.write_chunk) +
         "; the staged read at iteration " + std::to_string(w.read_iter) +
         " then observes the stale copy";
}

/// Keeps the `cap` most damning witnesses: stale pairs first, then flow
/// pairs by ascending worker count (the smallest ring that races).
void consider_witness(std::vector<RaceWitness>& out, RaceWitness w,
                      std::uint64_t cap) {
  auto worse = [](const RaceWitness& a, const RaceWitness& b) {
    if ((a.workers == 0) != (b.workers == 0)) return b.workers == 0;
    if (a.workers != b.workers) return a.workers > b.workers;
    return a.write_iter > b.write_iter;
  };
  if (out.size() < cap) {
    out.push_back(std::move(w));
    return;
  }
  auto it = std::max_element(out.begin(), out.end(), [&](auto& a, auto& b) {
    return worse(b, a);  // max of "worse" ordering = least damning kept
  });
  if (worse(*it, w)) *it = std::move(w);
}

}  // namespace

bool Certificate::certifies_staging(std::uint64_t workers) const {
  if (verdict == "unsupported" || truncated) return false;
  if (stale_pairs > 0) return false;
  if (flow_pairs == 0) return true;
  return workers <= max_safe_workers;
}

std::vector<std::string> Certificate::certified_operands(
    std::uint64_t workers) const {
  std::vector<std::string> names;
  if (verdict == "unsupported" || truncated) return names;
  for (const OperandCertificate& op : operands) {
    if (!op.stage_candidate || op.stale_pairs > 0) continue;
    if (op.flow_pairs > 0 && workers > op.min_flow_chunk_distance) continue;
    names.push_back(op.name);
  }
  return names;
}

Certificate certify(const loopir::LoopSpec& spec, const CertifyOptions& opt) {
  Certificate cert;
  cert.loop = spec.name;
  cert.chunk_bytes = opt.chunk_bytes;
  try {
    const loopir::LoopNest nest = sanitized_instantiate(spec);
    const trace::Trace trace = trace::Trace::capture(nest);
    return certify(spec, trace, claims_for(spec, nest), opt);
  } catch (const common::CheckFailure& e) {
    cert.verdict = "unsupported";
    cert.diags.error("certify-unsupported",
                     std::string("spec cannot be instantiated: ") + e.what());
    return cert;
  }
}

Certificate certify(const loopir::LoopSpec& spec, const trace::Trace& trace,
                    const std::vector<ArrayClaim>& claims,
                    const CertifyOptions& opt) {
  Certificate cert;
  cert.loop = spec.name;
  cert.chunk_bytes = opt.chunk_bytes;

  // Operand table from the classifier; claims from the ORIGINAL spec.
  common::DiagnosticList scratch;
  const std::vector<OperandClass> classes = classify_operands(spec, scratch);
  std::unordered_map<std::string, std::size_t> operand_index;
  bool any_reduction = false;
  for (const OperandClass& c : classes) {
    OperandCertificate op;
    op.name = c.name;
    op.klass = c.kind();
    op.reduce_op = c.reduce_op;
    op.stage_candidate = c.staged();
    if (c.reduction()) any_reduction = true;
    operand_index.emplace(op.name, cert.operands.size());
    cert.operands.push_back(std::move(op));
  }

  const std::uint64_t total = trace.num_iterations();
  const std::uint64_t n = std::min(total, opt.max_iterations);
  cert.iterations = n;
  cert.truncated = n < total;
  if (n == 0) {
    cert.verdict = "unsupported";
    cert.diags.error("certify-unsupported", "trace has no iterations");
    return cert;
  }

  const core::ChunkPlan plan = core::ChunkPlan::for_iters_per_bytes(
      n, std::max<std::uint64_t>(trace.meta().bytes_per_iteration, 1),
      opt.chunk_bytes);
  cert.chunk_iters = plan.iters_per_chunk();
  cert.num_chunks = plan.num_chunks();
  const std::uint64_t chunk_iters = cert.chunk_iters;

  // The trace is captured from the SANITIZED nest (claims demoted so the
  // spec instantiates), but stage candidacy follows the spec's original
  // claims: the certifier exists to judge those claims on the resolved
  // addresses, not to take the demotion's word for it.
  std::vector<ArrayClaim> sorted_claims = claims;
  std::sort(sorted_claims.begin(), sorted_claims.end(),
            [](const ArrayClaim& a, const ArrayClaim& b) {
              return a.base < b.base;
            });
  auto claim_for = [&](std::uint64_t addr) -> const ArrayClaim* {
    auto it = std::upper_bound(sorted_claims.begin(), sorted_claims.end(),
                               addr, [](std::uint64_t a, const ArrayClaim& c) {
                                 return a < c.base;
                               });
    if (it == sorted_claims.begin()) return nullptr;
    --it;
    return addr < it->base + it->bytes ? &*it : nullptr;
  };

  // Pass 1: collect the staged footprint — every read whose address lands in
  // a claimed-read-only extent, with the full list of reads per address in
  // reference-stream order.
  std::unordered_map<std::uint64_t, std::size_t> rec_index;
  std::vector<StagedRec> recs;
  std::vector<loopir::Ref> refs;
  for (std::uint64_t it = 0; it < n; ++it) {
    refs.clear();
    trace.refs_for_iteration(it, refs);
    for (const loopir::Ref& ref : refs) {
      const std::uint64_t seq = cert.refs++;
      if (ref.mem.type == sim::AccessType::kWrite) continue;
      const ArrayClaim* claim = claim_for(ref.mem.addr);
      if (claim == nullptr || !claim->claimed_ro) continue;
      auto [slot, inserted] = rec_index.try_emplace(ref.mem.addr, recs.size());
      if (inserted) {
        StagedRec rec;
        rec.addr = ref.mem.addr;
        rec.size = ref.mem.size;
        if (auto oi = operand_index.find(claim->name);
            oi != operand_index.end()) {
          rec.operand = oi->second;
        }
        recs.push_back(std::move(rec));
      }
      StagedRec& rec = recs[slot->second];
      rec.size = std::max(rec.size, ref.mem.size);
      rec.reads.push_back({seq, it});  // `seq` increases: the list stays sorted
    }
  }
  for (const StagedRec& rec : recs) {
    cert.operands[rec.operand].staged_bytes += rec.size;
  }
  std::sort(recs.begin(), recs.end(),
            [](const StagedRec& a, const StagedRec& b) {
              return a.addr < b.addr;
            });

  // Pass 2: classify every (write, staged address) pair against the
  // happens-before order.  Reads before the write in stream order (earlier
  // iterations, or earlier sites of the write's own iteration) are anti
  // pairs (safe in every schedule); the FIRST read after the write decides
  // the pair class — its chunk is minimal among later reads, so a
  // same-chunk hit (including a later site of the same iteration, which
  // sequentially sees the write but reads the copy staged before the chunk)
  // is stale and otherwise its distance is the binding one.
  std::uint64_t min_flow = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t seq = 0;
  for (std::uint64_t it = 0; it < n && !recs.empty(); ++it) {
    refs.clear();
    trace.refs_for_iteration(it, refs);
    for (const loopir::Ref& ref : refs) {
      const std::uint64_t write_seq = seq++;
      if (ref.mem.type != sim::AccessType::kWrite) continue;
      const std::uint64_t lo = ref.mem.addr;
      const std::uint64_t hi = lo + ref.mem.size;
      auto rec_it = std::upper_bound(
          recs.begin(), recs.end(), lo,
          [](std::uint64_t a, const StagedRec& r) { return a < r.addr; });
      if (rec_it != recs.begin()) --rec_it;
      for (; rec_it != recs.end() && rec_it->addr < hi; ++rec_it) {
        if (rec_it->addr + rec_it->size <= lo) continue;
        OperandCertificate& op = cert.operands[rec_it->operand];
        auto first_later = std::upper_bound(
            rec_it->reads.begin(), rec_it->reads.end(), write_seq,
            [](std::uint64_t s, const StagedRead& r) { return s < r.seq; });
        if (first_later != rec_it->reads.begin()) {
          ++cert.anti_pairs;
          ++op.anti_pairs;
        }
        if (first_later == rec_it->reads.end()) continue;
        const std::uint64_t read_iter = first_later->iter;
        const std::uint64_t wc = it / chunk_iters;
        const std::uint64_t rc = read_iter / chunk_iters;
        RaceWitness w;
        w.array = op.name;
        w.write_iter = it;
        w.read_iter = read_iter;
        w.write_chunk = wc;
        w.read_chunk = rc;
        w.address = rec_it->addr;
        if (rc == wc) {
          ++cert.stale_pairs;
          ++op.stale_pairs;
          w.workers = 0;
          w.schedule = stale_schedule(w);
        } else {
          const std::uint64_t d = rc - wc;
          ++cert.flow_pairs;
          ++op.flow_pairs;
          if (op.flow_pairs == 1 || d < op.min_flow_chunk_distance) {
            op.min_flow_chunk_distance = d;
          }
          min_flow = std::min(min_flow, d);
          w.workers = d + 1;
          w.schedule = flow_schedule(w);
        }
        consider_witness(cert.witnesses, std::move(w), opt.max_witnesses);
      }
    }
  }
  if (cert.flow_pairs > 0) cert.max_safe_workers = min_flow;

  for (OperandCertificate& op : cert.operands) {
    op.certified = op.stage_candidate && op.stale_pairs == 0 &&
                   op.flow_pairs == 0 && !cert.truncated;
  }

  // Verdict (unbounded adversary) and diagnostics.
  const bool raced = cert.stale_pairs > 0 || cert.flow_pairs > 0;
  if (raced) {
    cert.verdict = "raced";
  } else if (any_reduction) {
    cert.verdict = "requires-privatization";
  } else {
    cert.verdict = "certified-disjoint";
  }
  std::sort(cert.witnesses.begin(), cert.witnesses.end(),
            [](const RaceWitness& a, const RaceWitness& b) {
              if ((a.workers == 0) != (b.workers == 0)) return a.workers == 0;
              if (a.workers != b.workers) return a.workers < b.workers;
              return a.write_iter < b.write_iter;
            });
  for (const RaceWitness& w : cert.witnesses) {
    cert.diags.error(w.workers == 0 ? "certify-stale" : "certify-raced",
                     w.schedule, w.array);
  }
  if (cert.stale_pairs > 0) {
    cert.diags.note("certify-summary",
                    std::to_string(cert.stale_pairs) +
                        " same-chunk stale pair(s): staging is unsafe at "
                        "every worker count");
  } else if (cert.flow_pairs > 0) {
    cert.diags.note(
        "certify-summary",
        std::to_string(cert.flow_pairs) +
            " cross-chunk flow pair(s) with minimum chunk distance " +
            std::to_string(cert.max_safe_workers) +
            ": staging is sequential-equivalent on rings of up to " +
            std::to_string(cert.max_safe_workers) +
            " worker(s) and raced beyond");
  } else if (cert.verdict == "requires-privatization") {
    for (const OperandCertificate& op : cert.operands) {
      if (op.klass != "reduction") continue;
      cert.diags.note("certify-summary",
                      "staged bytes are write-free, but operand '" + op.name +
                          "' is a commutative '" + op.reduce_op +
                          "' reduction: cascading it needs per-worker "
                          "partial accumulators merged on token hand-off",
                      op.name);
    }
  } else {
    cert.diags.note("certify-summary",
                    "no write overlaps any staged byte: staging is "
                    "sequential-equivalent at every worker count");
  }
  if (cert.truncated) {
    cert.diags.note("certify-truncated",
                    "certificate covers " + std::to_string(n) + " of " +
                        std::to_string(total) +
                        " iterations (max_iterations cap); it does not "
                        "certify staging for the full trip");
  }
  return cert;
}

}  // namespace casc::analysis
