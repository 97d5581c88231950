// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <parmvr_chain|spmv_prefetch|svc_jobs> --seed <n>
//             --seconds <s> --trace <0|1> [--corrupt-reference] [--short]
//
// Prints a human-readable report ("metric <name> <value> <unit>" lines) and,
// as the last stdout line, one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1.  Exits 0 when every checked output matched the sequential
// reference, 1 on any mismatch, 2 on a usage error.  --short (one set-up,
// few samples) and --corrupt-reference (one reference digest flipped, which
// must count as a failure) serve the self-test in run.py.
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "casc/common/simd.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <parmvr_chain|spmv_prefetch|svc_jobs> "
               "--seed <n> --seconds <s> --trace <0|1> [--corrupt-reference] [--short]\n";
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
      s.size() > 19) {
    return false;
  }
  out = std::stoull(s);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt-reference") {
      o.corrupt_reference = true;
      continue;
    }
    if (arg == "--short") {
      o.short_mode = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, n)) return usage("bad --seed " + value);
      o.seed = n;
    } else if (arg == "--seconds") {
      if (!parse_u64(value, n) || n == 0 || n > 3600) {
        return usage("bad --seconds " + value);
      }
      o.seconds = static_cast<double>(n);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace " + value);
      o.trace = value == "1";
    } else {
      return usage("unknown argument " + arg);
    }
  }

  perfbench::Outcome out;
  try {
    std::filesystem::create_directories(o.out_dir);
    if (o.workload == "parmvr_chain") {
      out = perfbench::run_parmvr_chain(o);
    } else if (o.workload == "spmv_prefetch") {
      out = perfbench::run_spmv_prefetch(o);
    } else if (o.workload == "svc_jobs") {
      out = perfbench::run_svc_jobs(o);
    } else {
      return usage("unknown --workload '" + o.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << " failed: " << e.what() << "\n";
    return 3;
  }

  const double fail_ratio = out.attempted > 0 ? static_cast<double>(out.failed) /
                                                    static_cast<double>(out.attempted)
                                              : 1.0;
  out.sheet.add("fail_ratio", fail_ratio, "ratio", perfbench::Kind::kInfo,
                std::to_string(out.failed) + " of " + std::to_string(out.attempted) +
                    " checked operations");
  if (!o.trace) {
    out.sheet.add("peak_rss_mb", perfbench::peak_rss_mb(), "MB",
                  perfbench::Kind::kEndToEnd, "getrusage ru_maxrss");
  }

  std::cout << "perfbench workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << (o.trace ? 1 : 0)
            << " threads=" << out.threads << " connections=" << out.connections
            << " nproc=" << std::thread::hardware_concurrency() << " simd="
            << casc::common::simd::tier_name(casc::common::simd::active_tier())
            << " build=" << PERFBENCH_BUILD_TYPE << "\n";
  out.sheet.print_report();
  out.sheet.print_result(o.trace ? perfbench::Kind::kLayer : perfbench::Kind::kEndToEnd,
                         out.attempted, out.failed);
  return out.failed == 0 && out.attempted > 0 ? 0 : 1;
}
