#include "casc/analysis/shadow.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "casc/core/chunk.hpp"
#include "casc/common/check.hpp"

namespace casc::analysis {

namespace {

std::string hex(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// A coalesced staged interval [lo, hi) with the iteration span of the
/// staged reads that produced it, and the stream position of the last one.
struct StagedInterval {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint64_t min_iter = 0;
  std::uint64_t max_iter = 0;
  std::uint64_t max_seq = 0;
};

/// One staged read: its position in the reference stream and its iteration.
struct StagedRead {
  std::uint64_t seq = 0;
  std::uint64_t iter = 0;
};

/// Per-address staging record.  `reads` (ring mode only) lists every staged
/// read of these bytes in stream order, so the ring replay can find the
/// FIRST read after a write — the one with the minimal (binding) chunk
/// distance, which may be a later site of the write's own iteration.
struct StagedByte {
  std::uint32_t size = 0;
  std::uint64_t min_iter = 0;
  std::uint64_t max_iter = 0;
  std::uint64_t max_seq = 0;
  std::vector<StagedRead> reads;
};

}  // namespace

loopir::LoopNest sanitized_instantiate(const loopir::LoopSpec& spec,
                                       std::vector<std::string>* demoted) {
  loopir::LoopSpec copy = spec;
  for (auto& decl : copy.arrays) {
    const bool claimed_ro = decl.read_only || decl.pattern.has_value();
    if (!claimed_ro) continue;
    bool written = false;
    bool used_as_via = false;
    for (const auto& acc : copy.accesses) {
      if (acc.writes() && acc.array == decl.name) written = true;
      if (acc.index_via && *acc.index_via == decl.name) used_as_via = true;
    }
    if (!written) continue;
    // A written index array that still drives indirect accesses cannot be
    // demoted (its materialized values are what the accesses resolve
    // through); let instantiate() reject that pathology loudly.
    if (decl.pattern && used_as_via) continue;
    decl.read_only = false;
    decl.pattern.reset();  // written "index" array becomes a plain rw array
    if (demoted != nullptr) demoted->push_back(decl.name);
  }
  return copy.instantiate();
}

std::vector<ArrayClaim> claims_for(const loopir::LoopSpec& spec,
                                   const loopir::LoopNest& nest) {
  std::vector<ArrayClaim> claims;
  claims.reserve(spec.arrays.size());
  for (loopir::ArrayId id = 0; id < nest.num_arrays(); ++id) {
    const loopir::ArraySpec& arr = nest.array(id);
    ArrayClaim claim;
    claim.name = arr.name;
    claim.base = nest.array_base(id);
    claim.bytes = arr.size_bytes();
    // The claim under test is the SPEC's declaration, not the (possibly
    // demoted) nest's.
    for (const auto& decl : spec.arrays) {
      if (decl.name == arr.name) {
        claim.claimed_ro = decl.read_only || decl.pattern.has_value();
        break;
      }
    }
    claims.push_back(claim);
  }
  return claims;
}

ShadowReport shadow_check(const trace::Trace& trace,
                          const std::vector<ArrayClaim>& claims,
                          const ShadowOptions& opt) {
  ShadowReport report;
  const std::uint64_t total = trace.num_iterations();
  const std::uint64_t n = std::min(total, opt.max_iterations);
  report.truncated = n < total;
  report.iterations_checked = n;
  if (n == 0) return report;

  const core::ChunkPlan plan = core::ChunkPlan::for_iters_per_bytes(
      n, std::max<std::uint64_t>(trace.meta().bytes_per_iteration, 1),
      opt.chunk_bytes);
  report.chunk_iters = plan.iters_per_chunk();

  std::vector<ArrayClaim> sorted = claims;
  std::sort(sorted.begin(), sorted.end(),
            [](const ArrayClaim& a, const ArrayClaim& b) {
              return a.base < b.base;
            });
  auto claim_for = [&](std::uint64_t addr) -> const ArrayClaim* {
    auto it = std::upper_bound(sorted.begin(), sorted.end(), addr,
                               [](std::uint64_t a, const ArrayClaim& c) {
                                 return a < c.base;
                               });
    if (it == sorted.begin()) return nullptr;
    --it;
    return addr < it->base + it->bytes ? &*it : nullptr;
  };

  report.ring_workers = opt.ring_workers;

  // Pass 1: staged footprint (every read of a claimed-read-only extent is a
  // byte range the restructuring helper would copy early) and per-chunk
  // distinct-bytes peaks.
  std::unordered_map<std::uint64_t, StagedByte> staged;
  std::unordered_set<std::uint64_t> chunk_addrs;
  std::uint64_t chunk_bytes_seen = 0;
  std::uint64_t cur_chunk = 0;
  std::vector<loopir::Ref> refs;
  for (std::uint64_t it = 0; it < n; ++it) {
    const std::uint64_t chunk = it / report.chunk_iters;
    if (chunk != cur_chunk) {
      report.peak_chunk_bytes =
          std::max(report.peak_chunk_bytes, chunk_bytes_seen);
      chunk_addrs.clear();
      chunk_bytes_seen = 0;
      cur_chunk = chunk;
    }
    refs.clear();
    trace.refs_for_iteration(it, refs);
    for (const loopir::Ref& ref : refs) {
      const std::uint64_t seq = report.refs_checked++;
      if (chunk_addrs.insert(ref.mem.addr).second) {
        chunk_bytes_seen += ref.mem.size;
      }
      const ArrayClaim* claim = claim_for(ref.mem.addr);
      if (claim == nullptr) {
        ++report.out_of_extent_refs;
        continue;
      }
      const bool is_write = ref.mem.type == sim::AccessType::kWrite;
      if (!is_write && claim->claimed_ro) {
        auto [slot, inserted] = staged.try_emplace(
            ref.mem.addr, StagedByte{ref.mem.size, it, it, seq, {}});
        if (!inserted) {
          slot->second.size = std::max(slot->second.size, ref.mem.size);
          slot->second.min_iter = std::min(slot->second.min_iter, it);
          slot->second.max_iter = std::max(slot->second.max_iter, it);
          slot->second.max_seq = seq;
        }
        // `seq` increases, so the list stays sorted.
        if (opt.ring_workers > 0) slot->second.reads.push_back({seq, it});
      }
    }
  }
  report.peak_chunk_bytes = std::max(report.peak_chunk_bytes, chunk_bytes_seen);

  // Coalesce the staged bytes into disjoint intervals for the write scan.
  std::vector<StagedInterval> intervals;
  intervals.reserve(staged.size());
  for (const auto& [addr, info] : staged) {
    intervals.push_back(
        {addr, addr + info.size, info.min_iter, info.max_iter, info.max_seq});
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const StagedInterval& a, const StagedInterval& b) {
              return a.lo < b.lo;
            });
  std::vector<StagedInterval> merged;
  for (const StagedInterval& iv : intervals) {
    if (!merged.empty() && iv.lo <= merged.back().hi) {
      merged.back().hi = std::max(merged.back().hi, iv.hi);
      merged.back().min_iter = std::min(merged.back().min_iter, iv.min_iter);
      merged.back().max_iter = std::max(merged.back().max_iter, iv.max_iter);
      merged.back().max_seq = std::max(merged.back().max_seq, iv.max_seq);
    } else {
      merged.push_back(iv);
    }
  }
  for (const StagedInterval& iv : merged) report.staged_bytes += iv.hi - iv.lo;

  // Pass 2: every write against the staged footprint.  A hit is a violation
  // of the read-only claim; it is the cross-chunk flow hazard when a staged
  // read of the same bytes happens in a LATER chunk than the write (the
  // helper copies before the writer chunk has executed).
  // Cross-chunk hazards and plain claim violations are reported under
  // separate caps: the cross-chunk instances are the load-bearing evidence
  // and must not be crowded out by earlier same-chunk hits.
  std::uint64_t reported_cross = 0;
  std::uint64_t reported_plain = 0;
  bool ring_race = false;  // ring mode: any stale pair or flow pair with d < P
  std::uint64_t seq = 0;
  for (std::uint64_t it = 0; it < n && !merged.empty(); ++it) {
    refs.clear();
    trace.refs_for_iteration(it, refs);
    for (const loopir::Ref& ref : refs) {
      const std::uint64_t write_seq = seq++;
      if (ref.mem.type != sim::AccessType::kWrite) continue;
      const std::uint64_t lo = ref.mem.addr;
      const std::uint64_t hi = lo + ref.mem.size;
      auto iv = std::upper_bound(merged.begin(), merged.end(), lo,
                                 [](std::uint64_t a, const StagedInterval& s) {
                                   return a < s.lo;
                                 });
      if (iv != merged.begin()) --iv;
      for (; iv != merged.end() && iv->lo < hi; ++iv) {
        if (iv->hi <= lo) continue;
        ++report.violating_writes;
        const ArrayClaim* claim = claim_for(lo);
        const std::string object = claim != nullptr ? claim->name : "";
        const std::uint64_t writer_chunk = it / report.chunk_iters;
        // Prefer the exact per-address staging record over the coalesced
        // interval: the interval's iteration span is the union over many
        // bytes, which would overstate when THESE bytes are re-read.
        std::uint64_t last_read = iv->max_iter;
        const StagedByte* exact = nullptr;
        if (auto found = staged.find(lo); found != staged.end()) {
          exact = &found->second;
          last_read = exact->max_iter;
        }
        const std::uint64_t last_read_chunk = last_read / report.chunk_iters;
        if (opt.ring_workers > 0) {
          // Ring replay: classify against the FIRST staged read after the
          // write in stream order; its chunk distance is minimal among later
          // reads, so it alone decides whether THIS ring races on these
          // bytes.  A later site of the write's own iteration counts: it
          // sees the write sequentially but reads a copy staged before the
          // chunk began.
          std::uint64_t first_later = last_read;
          bool has_later = (exact != nullptr ? exact->max_seq : iv->max_seq) >
                           write_seq;
          if (exact != nullptr && !exact->reads.empty()) {
            auto r = std::upper_bound(
                exact->reads.begin(), exact->reads.end(), write_seq,
                [](std::uint64_t s, const StagedRead& read) {
                  return s < read.seq;
                });
            has_later = r != exact->reads.end();
            if (has_later) first_later = r->iter;
          }
          if (!has_later) {
            if (reported_plain < opt.max_reported) {
              ++reported_plain;
              report.diags.warning(
                  "shadow-write-ro",
                  "iteration " + std::to_string(it) + " writes " + hex(lo) +
                      " inside claimed-read-only '" + object +
                      "'; every staged read of those bytes precedes the "
                      "write, so the early copies match sequential values "
                      "on this ring, but the read-only claim is false",
                  object);
            }
            break;
          }
          const std::uint64_t rc = first_later / report.chunk_iters;
          if (rc == writer_chunk) {
            ring_race = true;
            if (reported_plain < opt.max_reported) {
              ++reported_plain;
              report.diags.error(
                  "shadow-write-ro",
                  "trace records a write at iteration " + std::to_string(it) +
                      " to " + hex(lo) + " inside claimed-read-only '" +
                      object + "'; a staged read at iteration " +
                      std::to_string(first_later) +
                      " follows it in the same chunk, and the staged copy "
                      "(taken before the chunk began) is stale at every "
                      "worker count",
                  object);
            }
          } else if (rc - writer_chunk < opt.ring_workers) {
            ring_race = true;
            ++report.cross_chunk_hazards;
            if (reported_cross < opt.max_reported) {
              ++reported_cross;
              report.diags.error(
                  "shadow-hazard-cross-chunk",
                  "on a ring of " + std::to_string(opt.ring_workers) +
                      " workers, the helper for chunk " + std::to_string(rc) +
                      " copies " + hex(lo) + " of '" + object +
                      "' as soon as chunk " +
                      (rc >= opt.ring_workers
                           ? std::to_string(rc - opt.ring_workers)
                           : std::string("(run start)")) +
                      " retires — before chunk " +
                      std::to_string(writer_chunk) +
                      " executes the write at iteration " +
                      std::to_string(it) + "; the staged read at iteration " +
                      std::to_string(first_later) + " observes a stale copy",
                  object);
            }
          } else {
            ++report.ordered_pairs;
          }
          break;  // one diagnostic per write ref is enough
        }
        const bool crosses = last_read > it && last_read_chunk > writer_chunk;
        if (crosses) ++report.cross_chunk_hazards;
        std::uint64_t& reported = crosses ? reported_cross : reported_plain;
        if (reported < opt.max_reported) {
          ++reported;
          if (crosses) {
            report.diags.error(
                "shadow-hazard-cross-chunk",
                "trace confirms the hazard: iteration " + std::to_string(it) +
                    " (chunk " + std::to_string(writer_chunk) + ") writes " +
                    hex(lo) + " inside the staged footprint of '" + object +
                    "', and a staged read of those bytes at iteration " +
                    std::to_string(last_read) + " (chunk " +
                    std::to_string(last_read_chunk) +
                    ") was copied before the writer chunk executed; the "
                    "staged value is stale",
                object);
          } else if (last_read > it) {
            report.diags.error(
                "shadow-write-ro",
                "trace records a write at iteration " + std::to_string(it) +
                    " to " + hex(lo) + " inside claimed-read-only '" + object +
                    "'; a staged read at iteration " + std::to_string(last_read) +
                    " follows it in the same chunk, and the staged copy "
                    "(taken before the chunk began) is stale",
                object);
          } else {
            report.diags.error(
                "shadow-write-ro",
                "trace records a write at iteration " + std::to_string(it) +
                    " to " + hex(lo) + " inside claimed-read-only '" + object +
                    "'; every staged read of those bytes precedes the write, "
                    "so the early copy matches sequential values, but the "
                    "read-only claim is false",
                object);
          }
        }
        break;  // one diagnostic per write ref is enough
      }
    }
  }
  if (report.violating_writes >
      reported_cross + reported_plain + report.ordered_pairs) {
    report.diags.note(
        "shadow-write-ro",
        std::to_string(report.violating_writes - reported_cross -
                       reported_plain - report.ordered_pairs) +
            " further violating writes suppressed");
  }
  if (opt.ring_workers > 0) {
    if (report.ordered_pairs > 0) {
      report.diags.note(
          "shadow-ordered",
          std::to_string(report.ordered_pairs) +
              " cross-chunk flow pair(s) have chunk distance >= " +
              std::to_string(opt.ring_workers) +
              "; token order preserves them on this ring");
    }
    report.restructure_safe = !ring_race;
  } else {
    report.restructure_safe = report.violating_writes == 0;
  }

  if (report.out_of_extent_refs > 0) {
    report.diags.error(
        "shadow-footprint",
        std::to_string(report.out_of_extent_refs) +
            " references land outside every declared array extent; the "
            "static footprint model does not cover this trace");
  }
  if (opt.static_chunk_bound > 0 &&
      report.peak_chunk_bytes > opt.static_chunk_bound) {
    report.footprint_exceeded = true;
    report.diags.error(
        "shadow-footprint",
        "a chunk touches " + std::to_string(report.peak_chunk_bytes) +
            " distinct bytes, exceeding the static per-chunk bound of " +
            std::to_string(opt.static_chunk_bound) +
            "; chunk sizing and buffer capacity reasoning are unsound for "
            "this loop");
  }
  if (report.truncated) {
    report.diags.note("shadow-truncated",
                      "shadow check covered " + std::to_string(n) + " of " +
                          std::to_string(total) +
                          " iterations (max_iterations cap); the verdict is "
                          "sound for the checked prefix only");
  }
  return report;
}

}  // namespace casc::analysis
