// apspark — command-line driver for the library.
//
// Explicit subcommands, each with its own flag set and --help:
//
//   apspark solve   solve APSP (or k-source) on real data; optionally
//                   persist the result as a disk-backed block store
//   apspark plan    recommend a solver/block-size configuration
//   apspark model   paper-scale phantom run, projected time + metrics
//   apspark serve   answer distance/path queries from a persisted store
//
// Flags that do not apply to the chosen subcommand are rejected with a
// pointer to that subcommand's --help. Errors from the library surface
// uniformly as "apspark: <STATUS>: <message>".
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apsp/api.h"
#include "apsp/persist.h"
#include "apsp/tuner.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/time_utils.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "linalg/kernel_registry.h"
#include "obs/exporters.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "store/distance_service.h"

namespace {

using namespace apspark;

// ------------------------------------------------------------ subcommands

enum Cmd : unsigned {
  kSolve = 1u << 0,
  kPlan = 1u << 1,
  kModel = 1u << 2,
  kServe = 1u << 3,
};

struct CmdSpec {
  const char* name;
  Cmd bit;
};

constexpr CmdSpec kCommands[] = {
    {"solve", kSolve}, {"plan", kPlan}, {"model", kModel}, {"serve", kServe}};

/// Which subcommands accept each flag; parsing rejects a flag whose mask
/// does not include the chosen subcommand.
struct FlagSpec {
  const char* name;
  bool takes_value;
  unsigned mask;
};

constexpr FlagSpec kFlags[] = {
    {"--er", true, kSolve},
    {"--n", true, kSolve | kPlan | kModel},
    {"--seed", true, kSolve | kServe},
    {"--input", true, kSolve},
    {"--output", true, kSolve | kServe},
    {"--solver", true, kSolve | kModel},
    {"--partitioner", true, kSolve},
    {"--block", true, kSolve | kModel},
    {"--cores", true, kSolve | kPlan | kModel},
    {"--rounds", true, kModel},
    {"--sources", true, kSolve | kModel},
    {"--checkpoint-every", true, kSolve | kModel},
    {"--intra-task-cores", true, kSolve | kModel},
    {"--kernel", true, kSolve},
    {"--isa", true, kSolve | kPlan | kModel},
    {"--autotune", false, kSolve | kPlan | kModel},
    {"--semiring", true, kSolve | kModel},
    {"--no-bitpack", false, kSolve | kModel},
    {"--ksource-variant", true, kSolve | kModel},
    {"--no-early-exit", false, kSolve | kModel},
    {"--fail-node", true, kSolve | kModel},
    {"--fail-rack", true, kSolve | kModel},
    {"--add-node", true, kSolve | kModel},
    {"--racks", true, kSolve | kModel},
    {"--straggler-factor", true, kSolve | kModel},
    {"--straggler-every", true, kSolve | kModel},
    {"--speculate", false, kSolve | kModel},
    {"--directed", false, kSolve | kModel},
    {"--fault-tolerant", false, kSolve | kPlan | kModel},
    {"--persist", true, kSolve},
    {"--no-paths", false, kSolve},
    {"--store", true, kServe},
    {"--queries", true, kServe},
    {"--random", true, kServe},
    {"--zipf", true, kServe},
    {"--threads", true, kServe},
    {"--cache-mb", true, kServe},
    {"--path", true, kServe},
    {"--stats-every", true, kServe},
    {"--trace", true, kSolve | kPlan | kModel | kServe},
    {"--metrics-out", true, kSolve | kModel | kServe},
    {"--help", false, kSolve | kPlan | kModel | kServe},
};

struct Args {
  Cmd command = kSolve;
  std::string command_name;
  std::int64_t n = 0;
  std::uint64_t seed = 1;
  std::string input;
  std::string output;
  std::string solver = "cb";
  std::string partitioner = "md";
  std::int64_t block = 0;  // 0 = auto
  int cores = 4;
  std::int64_t rounds = 0;
  std::int64_t sources = 0;  // > 0 selects the batched k-source workload
  std::int64_t checkpoint_every = 0;
  int intra_task_cores = 1;
  bool directed = false;
  bool fault_tolerant = false;
  /// tiled (kernels run inline) | tiled_parallel (on a host thread pool).
  std::string kernel = "tiled";
  /// Micro-kernel ISA: scalar|avx2|avx512|auto (auto = CPUID-detected best,
  /// or APSPARK_FORCE_ISA). Pin `--isa scalar` when bisecting a kernel bug.
  std::string isa = "auto";
  /// Probe the host caches and self-tune the kernel tile geometry.
  bool autotune = false;
  /// What --kernel / --isa / --autotune resolve to (ClusterConfig::kernel).
  linalg::KernelTuning tuning;
  std::string semiring = "minplus";
  bool no_bitpack = false;
  std::string ksource_variant = "staged";
  bool no_early_exit = false;
  /// Injected executor losses: --fail-node N@S (repeatable).
  std::vector<sparklet::NodeFailurePlan> fail_nodes;
  /// Correlated failures: --fail-rack R@S kills every node of rack R.
  std::vector<sparklet::RackFailurePlan> fail_racks;
  /// Elastic membership: --add-node @S joins a replacement node.
  std::vector<std::int64_t> add_nodes;
  /// Rack count for failure-domain mapping (--racks R).
  int racks = 1;
  double straggler_factor = 1.0;
  int straggler_every = 8;
  bool speculate = false;
  // solve: persistence
  std::string persist;
  bool no_paths = false;
  // serve
  std::string store_dir;
  std::string queries_file;
  std::int64_t random_queries = 0;
  double zipf_theta = 0.0;  // 0 = uniform
  std::size_t threads = 0;
  std::uint64_t cache_mb = 256;
  std::vector<std::pair<graph::VertexId, graph::VertexId>> path_queries;
  /// serve --random: print a progress/latency line every N queries (0 = off).
  std::int64_t stats_every = 0;
  /// Chrome trace-event JSON capture (all subcommands; empty = off).
  std::string trace_file;
  /// Metrics registry dump: JSON, or Prometheus text when FILE ends ".prom".
  std::string metrics_out;
  bool help = false;
};

void UsageSolve() {
  std::fprintf(
      stderr,
      "usage: apspark solve --er N [--seed S] | --input FILE\n"
      "  [--solver rs|fw2d|im|cb] [--block B]\n"
      "  [--partitioner md|ph] [--cores C] [--directed]\n"
      "  [--output FILE] [--checkpoint-every K]\n"
      "  [--persist DIR]  write the solved result as a disk-backed block\n"
      "          store DIR that `apspark serve` answers queries from\n"
      "  [--no-paths]  persist distances only (skip the successor plane)\n"
      "  [--sources K]  k-source mode (n x K frontier)\n"
      "  [--ksource-variant staged|shuffle|auto]  pivot data plane:\n"
      "          shared-storage staging (impure) or pure\n"
      "          shuffle-replicated panels\n"
      "  [--no-early-exit]  disable the all-infinite pivot\n"
      "          early-exit sweep (k-source mode)\n"
      "  [--kernel tiled|tiled_parallel]  run kernels inline or on a\n"
      "          host thread pool (bitwise-identical results)\n"
      "  [--isa scalar|avx2|avx512|auto]  micro-kernel instruction set\n"
      "          (auto = CPUID-detected best; all choices are bitwise-\n"
      "          identical — pin scalar when bisecting a kernel bug)\n"
      "  [--autotune]  probe host caches, self-tune the tile geometry\n"
      "  [--semiring minplus|boolean|maxmin|maxtimes]\n"
      "          algebra the solve evaluates: shortest path,\n"
      "          reachability, bottleneck capacity, or widest path\n"
      "  [--no-bitpack]  keep boolean solves on dense doubles\n"
      "  [--intra-task-cores C]  modelled cores per task\n"
      "  [--fail-node N@S] [--fail-rack R@S] [--add-node @S] [--racks R]\n"
      "          injected failures / elastic membership (repeatable)\n"
      "  [--straggler-factor F] [--straggler-every K] [--speculate]\n"
      "  [--trace FILE]  capture a dual-clock Chrome trace-event JSON\n"
      "          (load in Perfetto / chrome://tracing)\n"
      "  [--metrics-out FILE]  dump the metrics registry after the run\n"
      "          (JSON, or Prometheus text when FILE ends in .prom)\n");
}

void UsagePlan() {
  std::fprintf(stderr,
               "usage: apspark plan --n N [--cores C] [--fault-tolerant]\n"
               "  [--isa scalar|avx2|avx512|auto] [--autotune] [--trace FILE]\n"
               "  also prints the resolved kernel tuning (detected ISA,\n"
               "  tile geometry, auto-tuned vs default)\n");
}

void UsageModel() {
  std::fprintf(
      stderr,
      "usage: apspark model --n N [--cores C] [--solver rs|fw2d|im|cb]\n"
      "  [--block B] [--rounds R] [--sources K] [--ksource-variant V]\n"
      "  [--semiring S] [--no-bitpack] [--intra-task-cores C]\n"
      "  [--isa scalar|avx2|avx512|auto] [--autotune]\n"
      "  [--fail-node N@S] [--fail-rack R@S] [--add-node @S] [--racks R]\n"
      "  [--checkpoint-every K] [--straggler-factor F]\n"
      "  [--straggler-every K] [--speculate] [--directed]\n"
      "  [--trace FILE] [--metrics-out FILE]\n"
      "  --sources K with --ksource-variant auto picks the cheaper\n"
      "  modelled data plane (staged vs shuffle)\n");
}

void UsageServe() {
  std::fprintf(
      stderr,
      "usage: apspark serve --store DIR [options]\n"
      "  --queries FILE   answer one \"s t\" query per line\n"
      "  --random N       answer N random queries and report QPS\n"
      "  --zipf THETA     skew the random workload: vertices drawn\n"
      "                   Zipf(THETA) (hot-vertex traffic; 0 = uniform)\n"
      "  --path S:T       print a shortest S->T vertex path (repeatable)\n"
      "  --threads T      lookup worker threads (0 = hardware)\n"
      "  --cache-mb MB    resident block-cache cap (default 256)\n"
      "  --seed S         RNG seed for --random\n"
      "  --output FILE    write per-query answers here instead of stdout\n"
      "  --stats-every N  print a progress + latency-percentile line every\n"
      "                   N random queries (0 = only the final report)\n"
      "  --trace FILE     capture a Chrome trace-event JSON of the serve run\n"
      "  --metrics-out FILE  dump serve-path latency histograms and cache\n"
      "                   counters (JSON, or Prometheus when FILE ends .prom)\n");
}

int Usage(const Args& args) {
  switch (args.command) {
    case kSolve:
      UsageSolve();
      break;
    case kPlan:
      UsagePlan();
      break;
    case kModel:
      UsageModel();
      break;
    case kServe:
      UsageServe();
      break;
  }
  return args.help ? 0 : 2;
}

int UsageTop() {
  std::fprintf(stderr,
               "usage: apspark solve|plan|model|serve [options]\n"
               "  solve   solve APSP / k-source on real data ([--persist DIR]\n"
               "          writes a serving store)\n"
               "  plan    recommend a solver configuration\n"
               "  model   paper-scale phantom run\n"
               "  serve   answer distance/path queries from a store\n"
               "run `apspark <command> --help` for that command's flags\n");
  return 2;
}

/// Resolves --kernel / --isa / --autotune into args.tuning, the kernel
/// config every request of this run carries. --kernel tiled_parallel
/// creates `pool` (hardware-concurrency workers) for it. Returns false,
/// after printing an error, on an unknown ISA or kernel name.
bool ResolveKernelFlags(Args& args, std::unique_ptr<ThreadPool>& pool) {
  const auto isa = linalg::ParseSimdIsa(args.isa);
  if (!isa.has_value()) {
    std::fprintf(stderr,
                 "apspark: unknown --isa '%s' (want scalar|avx2|avx512|auto)\n",
                 args.isa.c_str());
    return false;
  }
  if (args.kernel != "tiled" && args.kernel != "tiled_parallel") {
    std::fprintf(stderr,
                 "apspark: unknown --kernel '%s' (want tiled|tiled_parallel)\n",
                 args.kernel.c_str());
    return false;
  }
  if (args.autotune) args.tuning = linalg::KernelTuning::AutoTune(args.tuning);
  args.tuning.isa = *isa;
  if (args.kernel == "tiled_parallel") {
    pool = std::make_unique<ThreadPool>(0);
    args.tuning.pool = pool.get();
  }
  return true;
}

/// The solve-banner / plan line recording the threading, ISA and geometry
/// that ran.
void PrintKernelTuning(const linalg::KernelTuning& tuning) {
  std::printf("kernels: %s\n", linalg::DescribeKernelTuning(tuning).c_str());
}

/// Uniform error surface: every library Status prints the same way.
int Fail(const Status& status) {
  std::fprintf(stderr, "apspark: %s\n", status.ToString().c_str());
  return status.code() == StatusCode::kInvalidArgument ? 2 : 1;
}

/// --metrics-out: dumps the global registry. The format follows the file
/// name — Prometheus text exposition for ".prom", JSON otherwise — so the
/// same flag feeds both jq pipelines and a node-exporter textfile collector.
bool WriteMetricsFile(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "apspark: cannot write metrics to %s\n", path.c_str());
    return false;
  }
  const bool prometheus =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0;
  out << (prometheus ? obs::Registry::Global().ToPrometheus()
                     : obs::Registry::Global().ToJson());
  if (!prometheus) out << '\n';
  std::printf("metrics written to %s\n", path.c_str());
  return true;
}

/// Publishes a finished run's SimMetrics into the registry and honours
/// --metrics-out. Returns false only on a write failure.
bool EmitRunMetrics(const Args& args, const sparklet::SimMetrics& metrics) {
  if (args.metrics_out.empty()) return true;
  obs::ExportSimMetrics(metrics);
  return WriteMetricsFile(args.metrics_out);
}

/// Serve latencies live in the ns..ms range FormatDuration (built for the
/// paper's minutes-scale tables) floors to "0ms"; render adaptively.
std::string FormatLatency(double seconds) {
  char buf[32];
  if (seconds < 1e-6) {
    std::snprintf(buf, sizeof buf, "%.0fns", seconds * 1e9);
  } else if (seconds < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.1fus", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof buf, "%.2fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.2fs", seconds);
  }
  return buf;
}

/// One serve-path latency line per histogram that actually saw traffic:
/// real measured percentiles from the always-on log-bucketed histograms.
void PrintServeLatency(const store::DistanceService& svc) {
  const struct {
    const char* what;
    store::DistanceService::LatencySnapshot snap;
  } rows[] = {{"point", svc.PointLatency()},
              {"batch", svc.BatchLatency()},
              {"path", svc.PathLatency()}};
  for (const auto& row : rows) {
    if (row.snap.count == 0) continue;
    std::printf("latency[%s]: p50 %s, p95 %s, p99 %s, p99.9 %s (%llu ops)\n",
                row.what, FormatLatency(row.snap.p50_seconds).c_str(),
                FormatLatency(row.snap.p95_seconds).c_str(),
                FormatLatency(row.snap.p99_seconds).c_str(),
                FormatLatency(row.snap.p999_seconds).c_str(),
                static_cast<unsigned long long>(row.snap.count));
  }
}

const FlagSpec* FindFlag(const std::string& flag) {
  for (const auto& spec : kFlags) {
    if (flag == spec.name) return &spec;
  }
  return nullptr;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  const std::string cmd = argv[1];
  bool known_command = false;
  for (const auto& spec : kCommands) {
    if (cmd == spec.name) {
      args.command = spec.bit;
      args.command_name = spec.name;
      known_command = true;
      break;
    }
  }
  if (!known_command) {
    if (cmd != "--help" && cmd != "-h") {
      std::fprintf(stderr, "apspark: unknown command '%s'\n", cmd.c_str());
    }
    return false;
  }
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const FlagSpec* spec = FindFlag(flag);
    if (spec == nullptr) {
      std::fprintf(stderr, "apspark: unknown flag %s\n", flag.c_str());
      std::fprintf(stderr, "see `apspark %s --help`\n",
                   args.command_name.c_str());
      return false;
    }
    if ((spec->mask & args.command) == 0) {
      std::fprintf(stderr, "apspark: %s does not apply to '%s'\n",
                   flag.c_str(), args.command_name.c_str());
      std::fprintf(stderr, "see `apspark %s --help`\n",
                   args.command_name.c_str());
      return false;
    }
    const char* v = nullptr;
    if (spec->takes_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "apspark: %s expects a value\n", flag.c_str());
        return false;
      }
      v = argv[++i];
    }
    if (flag == "--er" || flag == "--n") {
      args.n = std::atoll(v);
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (flag == "--input") {
      args.input = v;
    } else if (flag == "--output") {
      args.output = v;
    } else if (flag == "--solver") {
      args.solver = v;
    } else if (flag == "--partitioner") {
      args.partitioner = v;
    } else if (flag == "--block") {
      args.block = std::atoll(v);
    } else if (flag == "--cores") {
      args.cores = std::atoi(v);
    } else if (flag == "--rounds") {
      args.rounds = std::atoll(v);
    } else if (flag == "--sources") {
      args.sources = std::atoll(v);
    } else if (flag == "--checkpoint-every") {
      args.checkpoint_every = std::atoll(v);
    } else if (flag == "--intra-task-cores") {
      args.intra_task_cores = std::atoi(v);
      if (args.intra_task_cores < 1) {
        std::fprintf(stderr, "--intra-task-cores must be >= 1\n");
        return false;
      }
    } else if (flag == "--kernel") {
      args.kernel = v;
    } else if (flag == "--isa") {
      args.isa = v;
    } else if (flag == "--autotune") {
      args.autotune = true;
    } else if (flag == "--semiring") {
      args.semiring = v;
    } else if (flag == "--no-bitpack") {
      args.no_bitpack = true;
    } else if (flag == "--ksource-variant") {
      args.ksource_variant = v;
    } else if (flag == "--no-early-exit") {
      args.no_early_exit = true;
    } else if (flag == "--fail-node") {
      const char* at = std::strchr(v, '@');
      if (at == nullptr) {
        std::fprintf(stderr, "--fail-node expects NODE@STAGE, got '%s'\n", v);
        return false;
      }
      sparklet::NodeFailurePlan plan;
      plan.node = std::atoi(v);
      plan.at_stage = std::atoll(at + 1);
      if (plan.node < 0) {
        std::fprintf(stderr, "--fail-node: node must be >= 0, got %d\n",
                     plan.node);
        return false;
      }
      if (plan.at_stage < 0) {
        std::fprintf(stderr, "--fail-node: stage must be >= 0, got %lld\n",
                     static_cast<long long>(plan.at_stage));
        return false;
      }
      args.fail_nodes.push_back(plan);
    } else if (flag == "--fail-rack") {
      const char* at = std::strchr(v, '@');
      if (at == nullptr) {
        std::fprintf(stderr, "--fail-rack expects RACK@STAGE, got '%s'\n", v);
        return false;
      }
      sparklet::RackFailurePlan plan;
      plan.rack = std::atoi(v);
      plan.at_stage = std::atoll(at + 1);
      if (plan.rack < 0) {
        std::fprintf(stderr, "--fail-rack: rack must be >= 0, got %d\n",
                     plan.rack);
        return false;
      }
      if (plan.at_stage < 0) {
        std::fprintf(stderr, "--fail-rack: stage must be >= 0, got %lld\n",
                     static_cast<long long>(plan.at_stage));
        return false;
      }
      args.fail_racks.push_back(plan);
    } else if (flag == "--add-node") {
      if (v[0] != '@') {
        std::fprintf(stderr, "--add-node expects @STAGE, got '%s'\n", v);
        return false;
      }
      const std::int64_t at_stage = std::atoll(v + 1);
      if (at_stage < 0) {
        std::fprintf(stderr, "--add-node: stage must be >= 0, got %lld\n",
                     static_cast<long long>(at_stage));
        return false;
      }
      args.add_nodes.push_back(at_stage);
    } else if (flag == "--racks") {
      args.racks = std::atoi(v);
      if (args.racks < 1) {
        std::fprintf(stderr, "--racks must be >= 1\n");
        return false;
      }
    } else if (flag == "--straggler-factor") {
      args.straggler_factor = std::atof(v);
      if (args.straggler_factor < 1.0) {
        std::fprintf(stderr, "--straggler-factor must be >= 1\n");
        return false;
      }
    } else if (flag == "--straggler-every") {
      args.straggler_every = std::atoi(v);
      if (args.straggler_every < 1) {
        std::fprintf(stderr, "--straggler-every must be >= 1\n");
        return false;
      }
    } else if (flag == "--speculate") {
      args.speculate = true;
    } else if (flag == "--directed") {
      args.directed = true;
    } else if (flag == "--fault-tolerant") {
      args.fault_tolerant = true;
    } else if (flag == "--persist") {
      args.persist = v;
    } else if (flag == "--no-paths") {
      args.no_paths = true;
    } else if (flag == "--store") {
      args.store_dir = v;
    } else if (flag == "--queries") {
      args.queries_file = v;
    } else if (flag == "--random") {
      args.random_queries = std::atoll(v);
    } else if (flag == "--zipf") {
      args.zipf_theta = std::atof(v);
    } else if (flag == "--threads") {
      args.threads = static_cast<std::size_t>(std::atoll(v));
    } else if (flag == "--cache-mb") {
      args.cache_mb = static_cast<std::uint64_t>(std::atoll(v));
      if (args.cache_mb == 0) {
        std::fprintf(stderr, "--cache-mb must be >= 1\n");
        return false;
      }
    } else if (flag == "--path") {
      const char* colon = std::strchr(v, ':');
      if (colon == nullptr) {
        std::fprintf(stderr, "--path expects S:T, got '%s'\n", v);
        return false;
      }
      args.path_queries.emplace_back(std::atoll(v), std::atoll(colon + 1));
    } else if (flag == "--stats-every") {
      args.stats_every = std::atoll(v);
      if (args.stats_every < 0) {
        std::fprintf(stderr, "--stats-every must be >= 0\n");
        return false;
      }
    } else if (flag == "--trace") {
      args.trace_file = v;
    } else if (flag == "--metrics-out") {
      args.metrics_out = v;
    } else if (flag == "--help") {
      args.help = true;
      return false;  // routes to the subcommand usage, exit 0
    }
  }
  return true;
}

/// Writes a matrix/panel as whitespace-separated rows with full double
/// precision (the --output format of both the APSP and k-source modes).
bool WriteDenseBlock(const std::string& path, const linalg::DenseBlock& d) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out.precision(17);
  for (std::int64_t i = 0; i < d.rows(); ++i) {
    for (std::int64_t j = 0; j < d.cols(); ++j) {
      out << d.At(i, j) << (j + 1 == d.cols() ? '\n' : ' ');
    }
  }
  return true;
}

/// Deterministic source set for --sources K: evenly spread over the vertex
/// range (duplicates appear when K > n, which the solver permits).
std::vector<graph::VertexId> PickSources(std::int64_t n, std::int64_t k) {
  std::vector<graph::VertexId> sources;
  sources.reserve(static_cast<std::size_t>(k));
  for (std::int64_t j = 0; j < k; ++j) sources.push_back(j * n / k);
  return sources;
}

Result<apsp::SolverKind> ParseSolver(const std::string& name) {
  if (name == "rs") return apsp::SolverKind::kRepeatedSquaring;
  if (name == "fw2d") return apsp::SolverKind::kFloydWarshall2d;
  if (name == "im") return apsp::SolverKind::kBlockedInMemory;
  if (name == "cb") return apsp::SolverKind::kBlockedCollectBroadcast;
  return InvalidArgumentError("unknown solver '" + name + "'");
}

/// Membership plans that parse fine can still be nonsense for the actual
/// cluster: a node or rack id past the config, or the same plan armed twice
/// at one stage boundary (it would silently be a no-op — the second loss
/// finds the node already dead). Rejected here with a clear error instead.
Status ValidateMembershipPlans(const Args& args,
                               const sparklet::ClusterConfig& cluster) {
  for (std::size_t i = 0; i < args.fail_nodes.size(); ++i) {
    const auto& plan = args.fail_nodes[i];
    const std::string name = "--fail-node " + std::to_string(plan.node) +
                             "@" + std::to_string(plan.at_stage);
    if (plan.node >= cluster.nodes) {
      return InvalidArgumentError(
          name + ": node out of range for a " + std::to_string(cluster.nodes) +
          "-node cluster (valid: 0.." + std::to_string(cluster.nodes - 1) +
          ")");
    }
    for (std::size_t j = i + 1; j < args.fail_nodes.size(); ++j) {
      if (args.fail_nodes[j].node == plan.node &&
          args.fail_nodes[j].at_stage == plan.at_stage) {
        return InvalidArgumentError(
            name + " given twice: a node dies once per stage boundary");
      }
    }
  }
  for (std::size_t i = 0; i < args.fail_racks.size(); ++i) {
    const auto& plan = args.fail_racks[i];
    const std::string name = "--fail-rack " + std::to_string(plan.rack) +
                             "@" + std::to_string(plan.at_stage);
    if (plan.rack >= args.racks) {
      return InvalidArgumentError(
          name + ": rack out of range for --racks " +
          std::to_string(args.racks) + " (valid: 0.." +
          std::to_string(args.racks - 1) + ")");
    }
    for (std::size_t j = i + 1; j < args.fail_racks.size(); ++j) {
      if (args.fail_racks[j].rack == plan.rack &&
          args.fail_racks[j].at_stage == plan.at_stage) {
        return InvalidArgumentError(
            name + " given twice: a rack dies once per stage boundary");
      }
    }
  }
  return Status::Ok();
}

/// Fault-tolerance report: printed whenever the run saw failures, replays,
/// restarts, speculation, or membership churn.
void PrintRecovery(const sparklet::SimMetrics& m) {
  if (m.executor_failures == 0 && m.recomputed_tasks == 0 &&
      m.task_retries == 0 && m.job_restarts == 0 &&
      m.speculative_tasks == 0 && m.migrated_partitions == 0 &&
      m.node_joins == 0) {
    return;
  }
  std::printf(
      "recovery: %llu executor losses, %llu recomputed tasks, "
      "%llu task retries, %llu checkpoint restarts, %llu speculative "
      "copies, %s of redone work\n",
      static_cast<unsigned long long>(m.executor_failures),
      static_cast<unsigned long long>(m.recomputed_tasks),
      static_cast<unsigned long long>(m.task_retries),
      static_cast<unsigned long long>(m.job_restarts),
      static_cast<unsigned long long>(m.speculative_tasks),
      FormatDuration(m.recovery_seconds).c_str());
  if (m.migrated_partitions > 0 || m.node_joins > 0) {
    std::printf(
        "rebalance: %llu node joins, %llu partitions rehomed, %s migrated "
        "in %s\n",
        static_cast<unsigned long long>(m.node_joins),
        static_cast<unsigned long long>(m.migrated_partitions),
        FormatBytes(m.migration_bytes).c_str(),
        FormatDuration(m.rebalance_seconds).c_str());
  }
}

/// Names the injected membership plans whose stage lay past the job's end;
/// the run itself is unaffected.
void WarnUnfiredPlans(const apsp::ApspRunResult& run) {
  std::string names;
  for (const std::string& plan : run.unfired_plans) {
    names += (names.empty() ? "" : ", ") + plan;
  }
  if (names.empty()) return;
  std::fprintf(stderr, "apspark: warning: injected plans never fired: %s\n",
               names.c_str());
}

/// Resolves --ksource-variant, including the adaptive "auto" choice from
/// the modelled staged-vs-shuffle cost (apsp/tuner.h).
Result<apsp::KsourceVariant> ResolveKsourceVariant(
    const Args& args, std::int64_t n, std::int64_t block_size,
    const sparklet::ClusterConfig& cluster) {
  if (args.ksource_variant == "auto") {
    apsp::KsourceTuneRequest request;
    request.n = n;
    request.num_sources = args.sources;
    request.block_size = block_size;
    request.cluster = cluster;
    request.directed = args.directed;
    request.require_fault_tolerance = args.fault_tolerant;
    auto chosen = apsp::ChooseKsourceVariant(request);
    if (chosen.ok()) {
      std::printf("auto-selected ksource data plane: %s\n",
                  apsp::KsourceVariantName(*chosen));
    }
    return chosen;
  }
  const auto variant = apsp::ParseKsourceVariant(args.ksource_variant);
  if (!variant.has_value()) {
    return InvalidArgumentError("unknown ksource variant '" +
                                args.ksource_variant + "'");
  }
  return *variant;
}

/// The flags solve and model read the same way: the algebra, the run plan,
/// the modelled cluster's behaviour and, with --sources, the KSSP source
/// set and data plane. `n` is the vertex count the sources are drawn from.
Status ApplyCommonFlags(const Args& args, std::int64_t n,
                        apsp::SolveRequest& request) {
  auto kind = ParseSolver(args.solver);
  if (!kind.ok()) return kind.status();
  request.solver = *kind;
  const auto semiring = linalg::ParseSemiring(args.semiring);
  if (!semiring.has_value()) {
    return InvalidArgumentError("unknown semiring '" + args.semiring + "'");
  }
  auto& options = request.options;
  options.semiring = *semiring;
  options.bitpack_boolean = !args.no_bitpack;
  options.directed = args.directed;
  options.early_exit_infinite = !args.no_early_exit;
  options.checkpoint_every = args.checkpoint_every;
  options.fail_nodes = args.fail_nodes;
  options.fail_racks = args.fail_racks;
  options.add_nodes = args.add_nodes;
  auto& cluster = request.cluster;
  cluster.intra_task_cores = args.intra_task_cores;
  cluster.straggler_factor = args.straggler_factor;
  cluster.straggler_every = args.straggler_every;
  cluster.speculation = args.speculate;
  cluster.racks = args.racks;
  Status plans = ValidateMembershipPlans(args, cluster);
  if (!plans.ok()) return plans;
  if (args.sources > 0) {
    const auto variant =
        ResolveKsourceVariant(args, n, options.block_size, cluster);
    if (!variant.ok()) return variant.status();
    options.variant = *variant;
    request.sources = PickSources(n, args.sources);
  }
  return Status::Ok();
}

bool BitPacked(const apsp::ApspOptions& options) {
  return options.semiring == linalg::SemiringId::kBoolean &&
         options.bitpack_boolean;
}

void PrintMemory(const sparklet::SimMetrics& m) {
  std::printf("memory: driver high-water %s, node high-water %s\n",
              FormatBytes(m.driver_peak_bytes).c_str(),
              FormatBytes(m.node_peak_bytes).c_str());
}

Result<apsp::SolveRequest> BuildSolveRequest(const Args& args,
                                             const graph::Graph& g) {
  apsp::SolveRequest request;
  auto& options = request.options;
  options.block_size =
      args.block > 0 ? args.block
                     : std::max<std::int64_t>(1, g.num_vertices() / 4);
  options.partitioner = args.partitioner == "ph"
                            ? apsp::PartitionerKind::kPortableHash
                            : apsp::PartitionerKind::kMultiDiagonal;
  auto& cluster = request.cluster;
  cluster.nodes = std::max(1, args.cores / 2);
  cluster.cores_per_node = 2;
  cluster.local_storage_bytes = 64ULL * kGiB;
  cluster.kernel = args.tuning;
  Status common = ApplyCommonFlags(args, g.num_vertices(), request);
  if (!common.ok()) return common;
  return request;
}

/// Peak resident set of this process so far, in MiB (ru_maxrss is KiB on
/// Linux).
double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int PrintSolveReport(const Args& args, const graph::Graph& g,
                     const apsp::SolveRequest& request,
                     const apsp::SolveReport& report, double wall_seconds) {
  const auto& options = request.options;
  const bool kssp = request.sources.has_value();
  if (kssp) {
    std::printf(
        "solving %s k-source (k = %lld) with %s [%s%s] (b = %lld, %s)\n",
        g.Summary().c_str(), static_cast<long long>(request.sources->size()),
        report.solver_name.c_str(), apsp::KsourceVariantName(options.variant),
        report.pure ? ", pure" : ", impure",
        static_cast<long long>(options.block_size),
        linalg::SemiringName(options.semiring));
  } else {
    std::printf("solving %s with %s (b = %lld%s, %s%s)\n",
                g.Summary().c_str(), report.solver_name.c_str(),
                static_cast<long long>(options.block_size),
                report.pure ? ", pure" : ", impure",
                linalg::SemiringName(options.semiring),
                BitPacked(options) ? " bit-packed" : "");
  }
  PrintKernelTuning(request.cluster.kernel);
  if (!report.ok()) return Fail(report.status());
  std::printf("done: %lld %s, simulated cluster time %s\n",
              static_cast<long long>(report.run.rounds_executed),
              kssp ? "pivots" : "rounds",
              FormatDuration(report.run.sim_seconds).c_str());
  std::printf("engine: %s\n", report.metrics().Summary().c_str());
  // The host's side of the same run: wall time of the solve call and the
  // process's peak RSS, in fixed units so scripts can read them.
  std::printf("host: wall=%.3fs rss=%.1fMiB\n", wall_seconds, PeakRssMib());
  if (kssp) PrintMemory(report.metrics());
  PrintRecovery(report.metrics());
  WarnUnfiredPlans(report.run);
  if (!EmitRunMetrics(args, report.metrics())) return 1;
  if (!args.output.empty()) {
    if (!WriteDenseBlock(args.output, *report.distances())) return 1;
    std::printf(kssp ? "distance panel (n x k) written to %s\n"
                     : "distances written to %s\n",
                args.output.c_str());
  }
  if (!args.persist.empty()) {
    apsp::PersistOptions popts;
    popts.block_size = options.block_size;
    popts.with_paths = !args.no_paths;
    auto status = apsp::PersistSolve(args.persist, *report.distances(), &g,
                                     args.directed, options.semiring, popts);
    if (!status.ok()) return Fail(status);
    auto opened = store::BlockStore::Open(args.persist);
    if (!opened.ok()) return Fail(opened.status());
    std::printf("persisted %zu blocks (%s) to %s%s\n",
                (*opened)->manifest().entries.size(),
                FormatBytes((*opened)->total_payload_bytes()).c_str(),
                args.persist.c_str(),
                (*opened)->manifest().has_paths ? " with successor plane"
                                                : "");
  }
  return 0;
}

int RunSolve(const Args& args) {
  if (args.sources > 0 && !args.persist.empty()) {
    // A store holds a square distance matrix; a KSSP panel is n x k.
    return Fail(InvalidArgumentError(
        "--persist stores an APSP solve; it does not apply to --sources"));
  }
  graph::Graph g(0);
  if (!args.input.empty()) {
    auto loaded = graph::ReadEdgeListTextFile(args.input);
    if (!loaded.ok()) return Fail(loaded.status());
    g = *loaded;
  } else if (args.n > 0) {
    g = graph::ErdosRenyi(args.n, graph::PaperEdgeProbability(args.n),
                          {1.0, 10.0}, args.seed, args.directed);
  } else {
    return Usage(args);
  }
  auto request = BuildSolveRequest(args, g);
  if (!request.ok()) return Fail(request.status());
  const WallTimer timer;
  const apsp::SolveReport report = apsp::Solve(g, *request);
  return PrintSolveReport(args, g, *request, report, timer.ElapsedSeconds());
}

int RunPlan(const Args& args) {
  if (args.n <= 1) return Usage(args);
  apsp::TuneRequest request;
  request.n = args.n;
  request.cluster = sparklet::ClusterConfig::PaperWithCores(args.cores);
  request.require_fault_tolerance = args.fault_tolerant;
  auto choice = apsp::TuneConfiguration(request);
  if (!choice.ok()) return Fail(choice.status());
  PrintKernelTuning(args.tuning);
  std::printf("recommended: %s, b = %lld, %s partitioner -> ~%s\n",
              apsp::SolverKindName(choice->solver),
              static_cast<long long>(choice->block_size),
              apsp::PartitionerKindName(choice->partitioner),
              FormatDuration(choice->projected_seconds).c_str());
  return 0;
}

Result<apsp::SolveRequest> BuildModelRequest(const Args& args) {
  apsp::SolveRequest request;
  request.options.block_size = args.block > 0 ? args.block : 1024;
  request.options.max_rounds = args.rounds > 0 ? args.rounds : 1;
  request.cluster = sparklet::ClusterConfig::PaperWithCores(
      args.cores > 4 ? args.cores : 1024);
  request.cluster.kernel = args.tuning;
  Status common = ApplyCommonFlags(args, args.n, request);
  if (!common.ok()) return common;
  return request;
}

int PrintModelReport(const Args& args, const apsp::SolveRequest& request,
                     const apsp::SolveReport& report) {
  const auto& options = request.options;
  const auto& run = report.run;
  if (request.sources.has_value()) {
    std::printf("%s [%s], n = %lld, k = %lld, b = %lld on %s\n",
                report.solver_name.c_str(),
                apsp::KsourceVariantName(options.variant),
                static_cast<long long>(args.n),
                static_cast<long long>(request.sources->size()),
                static_cast<long long>(options.block_size),
                request.cluster.Summary().c_str());
    std::printf("pivots: %lld of %lld, projected %s\n",
                static_cast<long long>(run.rounds_executed),
                static_cast<long long>(run.rounds_total),
                FormatDuration(run.projected_seconds).c_str());
  } else {
    std::printf("%s, n = %lld, b = %lld, %s%s on %s\n",
                report.solver_name.c_str(), static_cast<long long>(args.n),
                static_cast<long long>(options.block_size),
                linalg::SemiringName(options.semiring),
                BitPacked(options) ? " bit-packed" : "",
                request.cluster.Summary().c_str());
    std::printf("rounds: %lld of %lld, per-round %s, projected %s%s\n",
                static_cast<long long>(run.rounds_executed),
                static_cast<long long>(run.rounds_total),
                FormatDuration(run.SecondsPerRound()).c_str(),
                FormatDuration(run.projected_seconds).c_str(),
                run.projected_storage_exceeded ? "  [would exhaust storage]"
                                               : "");
  }
  std::printf("engine: %s\n", report.metrics().Summary().c_str());
  if (request.sources.has_value()) PrintMemory(report.metrics());
  PrintRecovery(report.metrics());
  WarnUnfiredPlans(report.run);
  if (!EmitRunMetrics(args, report.metrics())) return 1;
  return report.ok() ? 0 : Fail(report.status());
}

int RunModel(const Args& args) {
  if (args.n <= 1) return Usage(args);
  auto request = BuildModelRequest(args);
  if (!request.ok()) return Fail(request.status());
  return PrintModelReport(args, *request, apsp::SolveModel(args.n, *request));
}

/// --queries FILE: one "<s> <t>" pair of integer vertex ids per non-blank
/// line. Any other line is rejected with its number, like a malformed edge
/// list, rather than silently ending the batch there.
Result<std::vector<store::DistanceService::Query>> ReadQueries(
    std::istream& in) {
  auto parse_id = [](const std::string& token, graph::VertexId& id) {
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, id);
    return ec == std::errc() && ptr == end;
  };
  std::vector<store::DistanceService::Query> queries;
  std::string line;
  for (std::size_t line_no = 1; std::getline(in, line); ++line_no) {
    std::istringstream fields(line);
    std::vector<std::string> tokens;
    for (std::string token; fields >> token;) tokens.push_back(token);
    if (tokens.empty()) continue;
    store::DistanceService::Query query;
    if (tokens.size() != 2 || !parse_id(tokens[0], query.s) ||
        !parse_id(tokens[1], query.t)) {
      return InvalidArgumentError("line " + std::to_string(line_no) +
                                  ": expected '<s> <t>' vertex ids");
    }
    queries.push_back(query);
  }
  return queries;
}

int RunServe(const Args& args) {
  if (args.store_dir.empty()) return Usage(args);

  store::DistanceService::Options options;
  options.num_threads = args.threads;
  options.store_options.cache_capacity_bytes = args.cache_mb << 20;
  auto service = store::DistanceService::Open(args.store_dir, options);
  if (!service.ok()) return Fail(service.status());
  store::DistanceService& svc = **service;
  const auto& manifest = svc.store().manifest();
  std::printf("serving %s: n = %lld, b = %lld, %s, %zu blocks (%s)%s\n",
              args.store_dir.c_str(), static_cast<long long>(manifest.n),
              static_cast<long long>(manifest.block_size),
              manifest.directed ? "directed" : "undirected",
              manifest.entries.size(),
              FormatBytes(svc.store().total_payload_bytes()).c_str(),
              manifest.has_paths ? ", with paths" : "");

  std::ofstream out_file;
  std::FILE* out = stdout;
  if (!args.output.empty()) {
    out_file.open(args.output);
    if (!out_file) {
      return Fail(InternalError("cannot write " + args.output));
    }
  }
  auto emit = [&](const std::string& line) {
    if (out_file.is_open()) {
      out_file << line << '\n';
    } else {
      std::fprintf(out, "%s\n", line.c_str());
    }
  };

  if (!args.queries_file.empty()) {
    std::ifstream in(args.queries_file);
    if (!in) {
      return Fail(NotFoundError("cannot read " + args.queries_file));
    }
    auto parsed = ReadQueries(in);
    if (!parsed.ok()) return Fail(parsed.status());
    const std::vector<store::DistanceService::Query>& queries = *parsed;
    auto answers = svc.DistanceBatch(queries);
    if (!answers.ok()) return Fail(answers.status());
    char line[96];
    for (std::size_t i = 0; i < queries.size(); ++i) {
      std::snprintf(line, sizeof line, "%lld %lld %.17g",
                    static_cast<long long>(queries[i].s),
                    static_cast<long long>(queries[i].t), (*answers)[i]);
      emit(line);
    }
  }

  if (args.random_queries > 0) {
    Xoshiro256 rng(args.seed);
    const auto nn = static_cast<std::uint64_t>(svc.n());
    std::vector<store::DistanceService::Query> queries;
    queries.reserve(static_cast<std::size_t>(args.random_queries));
    if (args.zipf_theta > 0) {
      ZipfSampler zipf(nn, args.zipf_theta);
      for (std::int64_t i = 0; i < args.random_queries; ++i) {
        queries.push_back(
            {static_cast<graph::VertexId>(zipf.Sample(rng)),
             static_cast<graph::VertexId>(zipf.Sample(rng))});
      }
    } else {
      for (std::int64_t i = 0; i < args.random_queries; ++i) {
        queries.push_back({static_cast<graph::VertexId>(rng.NextBounded(nn)),
                           static_cast<graph::VertexId>(rng.NextBounded(nn))});
      }
    }
    // --stats-every N slices the workload so a progress + live-percentile
    // line appears mid-run; N = 0 keeps the original single batch (and the
    // exact same answers/checksum either way — slicing only changes when
    // the batch-level histogram samples land).
    const std::int64_t chunk =
        args.stats_every > 0 ? args.stats_every : args.random_queries;
    double sum = 0;
    std::int64_t reachable = 0;
    std::int64_t done = 0;
    const auto start = std::chrono::steady_clock::now();
    while (done < args.random_queries) {
      const std::int64_t take =
          std::min(chunk, args.random_queries - done);
      const std::vector<store::DistanceService::Query> slice(
          queries.begin() + done, queries.begin() + done + take);
      auto answers = svc.DistanceBatch(slice);
      if (!answers.ok()) return Fail(answers.status());
      for (double d : *answers) {
        if (d < std::numeric_limits<double>::infinity()) {
          sum += d;
          ++reachable;
        }
      }
      done += take;
      if (args.stats_every > 0 && done < args.random_queries) {
        const double so_far = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
        const auto p = svc.PointLatency();
        std::printf("progress: %lld/%lld queries, %.0f qps, point p50 %s "
                    "p99 %s\n",
                    static_cast<long long>(done),
                    static_cast<long long>(args.random_queries),
                    static_cast<double>(done) / so_far,
                    FormatLatency(p.p50_seconds).c_str(),
                    FormatLatency(p.p99_seconds).c_str());
      }
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const auto stats = svc.store().stats();
    std::printf(
        "%lld queries (%s) in %s: %.0f qps; %lld reachable, checksum "
        "%.17g\n",
        static_cast<long long>(args.random_queries),
        args.zipf_theta > 0 ? "zipf" : "uniform",
        FormatDuration(elapsed).c_str(),
        static_cast<double>(args.random_queries) / elapsed,
        static_cast<long long>(reachable), sum);
    std::printf(
        "cache: %llu hits, %llu misses, %llu evictions, resident %s "
        "(peak %s, cap %s)\n",
        static_cast<unsigned long long>(stats.hits),
        static_cast<unsigned long long>(stats.misses),
        static_cast<unsigned long long>(stats.evictions),
        FormatBytes(stats.resident_bytes).c_str(),
        FormatBytes(stats.peak_resident_bytes).c_str(),
        FormatBytes(options.store_options.cache_capacity_bytes).c_str());
    if (stats.misses > 0) {
      const auto per_miss_us = [&](std::uint64_t ns) {
        return static_cast<double>(ns) / 1e3 /
               static_cast<double>(stats.misses);
      };
      std::printf("miss: read %.1f us, verify %.1f us, decode %.1f us "
                  "(mean per miss)\n",
                  per_miss_us(stats.read_ns), per_miss_us(stats.verify_ns),
                  per_miss_us(stats.decode_ns));
    }
  }

  for (const auto& [s, t] : args.path_queries) {
    auto path = svc.Path(s, t);
    if (!path.ok()) return Fail(path.status());
    std::string line = "path " + std::to_string(s) + "->" + std::to_string(t) +
                       ":";
    for (auto v : *path) line += " " + std::to_string(v);
    emit(line);
  }

  if (args.queries_file.empty() && args.random_queries == 0 &&
      args.path_queries.empty()) {
    std::fprintf(stderr,
                 "nothing to do: give --queries, --random, or --path\n");
    return 2;
  }
  PrintServeLatency(svc);
  if (!args.metrics_out.empty()) {
    obs::ExportStoreStats(svc.store().stats());
    if (!WriteMetricsFile(args.metrics_out)) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    if (args.command_name.empty()) return UsageTop();
    return Usage(args);
  }
  std::unique_ptr<ThreadPool> kernel_pool;  // --kernel tiled_parallel
  if (args.command != kServe && !ResolveKernelFlags(args, kernel_pool)) {
    return 2;
  }
  if (!args.trace_file.empty()) obs::Tracer::Get().Start();
  int rc = 2;
  switch (args.command) {
    case kSolve:
      rc = RunSolve(args);
      break;
    case kPlan:
      rc = RunPlan(args);
      break;
    case kModel:
      rc = RunModel(args);
      break;
    case kServe:
      rc = RunServe(args);
      break;
  }
  if (!args.trace_file.empty()) {
    auto& tracer = obs::Tracer::Get();
    tracer.Stop();
    if (!tracer.WriteChromeJson(args.trace_file)) {
      std::fprintf(stderr, "apspark: cannot write trace to %s\n",
                   args.trace_file.c_str());
      if (rc == 0) rc = 1;
    } else {
      std::printf("trace: %zu events written to %s\n", tracer.EventCount(),
                  args.trace_file.c_str());
    }
  }
  return rc;
}
