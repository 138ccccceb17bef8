// perfbench: end-to-end benchmark of apspark's user path through the public
// API — ingest an edge-list file, solve, persist, serve — for one workload
// per process. See README.md in this directory for the metric table, the
// workloads and how to read the traced run.
//
//   perfbench --workload cb-uniform --seed 1 --seconds 8 --trace 0
//             --work-dir DIR [--trace-out FILE]
//
// Untraced (--trace 0) it prints every end-to-end metric; traced (--trace 1)
// it records host spans around each layer call, runs the single-layer
// probes, writes one Chrome-trace file and prints the per-layer metrics.
// The last stdout line is the JSON result. Every solved distance is checked
// against Dijkstra and every served answer against the solved matrix; any
// mismatch is a failed operation and makes the exit code 1.
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apsp/api.h"
#include "apsp/persist.h"
#include "apsp/solvers/ksource_blocked.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/path_reconstruction.h"
#include "graph/shortest_paths.h"
#include "linalg/autotune.h"
#include "linalg/kernel_registry.h"
#include "obs/trace.h"
#include "probes.h"
#include "spans.h"
#include "store/block_store.h"
#include "store/distance_service.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace apspark;
using perfbench::Median;
using perfbench::ScopedSpan;
using perfbench::SpanLog;
using Clock = std::chrono::steady_clock;
using Query = store::DistanceService::Query;

constexpr std::int64_t kStoreBlock = 64;
constexpr std::size_t kBatchQueries = 256;
// Set-up repeats per run, each in a fresh process (RunSetupProcess).
constexpr int kSetupReps = 21;
// Persists per traced run: at least kMinPersistReps, more while the
// persists so far took under kPersistBudgetSeconds, at most kMaxPersistReps.
constexpr int kMinPersistReps = 5;
constexpr int kMaxPersistReps = 21;
constexpr double kPersistBudgetSeconds = 2.0;
// Timed solves per untraced run. Each is the first solve of its process and
// follows one ingest from the same fork point.
constexpr int kSolveReps = 3;
// Serving throughput and p50 are medians over windows of kWindowBatches
// batches, so one burst of host noise moves one window, not the run. The
// traced loop runs at least kMinBatches batches, so the p99 it reports has
// ten beyond it; the untraced loop runs at least one window.
constexpr std::size_t kWindowBatches = 100;
constexpr std::size_t kMinBatches = 1000;
constexpr double kMaxServeSeconds = 60;
constexpr double kZipfTheta = 0.99;

enum class QueryMix { kUniform, kZipf };

struct Workload {
  const char* name;
  bool kssp;                // KsourceBlockedSolver instead of apsp::Solve
  apsp::SolverKind solver;  // APSP solver (unused for KSSP)
  std::int64_t n;
  std::int64_t block;    // solve block size b
  std::int64_t sources;  // KSSP k
  QueryMix mix;
  double cache_share;  // block-cache cap as a share of the distance plane
  // DistanceService worker threads: 0 is the service's default pool (nproc
  // workers), 1 runs each batch inline on the calling thread. See README.md.
  std::size_t serve_threads;
};

constexpr Workload kWorkloads[] = {
    {"cb-uniform", false, apsp::SolverKind::kBlockedCollectBroadcast, 4096,
     512, 0, QueryMix::kUniform, 0.25, 1},
    {"fw2d-zipf", false, apsp::SolverKind::kFloydWarshall2d, 1024, 128, 0,
     QueryMix::kZipf, 2.0, 0},
    {"kssp-shuffle", true, apsp::SolverKind::kBlockedCollectBroadcast, 4096,
     512, 256, QueryMix::kUniform, 0.25, 1},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 8;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
  std::string setup_store;  // set: run as a set-up process (SetupProcessMain)
  std::uint64_t cache_bytes = 0;
  std::size_t serve_threads = 0;
};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// The modelled cluster `apspark solve --cores 4` builds: 2 nodes x 2
/// cores, independent of the host's core count.
sparklet::ClusterConfig BenchCluster() {
  sparklet::ClusterConfig cluster;
  cluster.nodes = 2;
  cluster.cores_per_node = 2;
  cluster.local_storage_bytes = 64ULL * kGiB;
  return cluster;
}

apsp::SolveRequest ApspRequest(const Workload& w) {
  apsp::SolveRequest request;
  request.solver = w.solver;
  request.options.block_size = w.block;
  request.cluster = BenchCluster();
  return request;
}

apsp::KsourceOptions KsspOptions(const Workload& w) {
  apsp::KsourceOptions options;
  options.block_size = w.block;
  options.variant = apsp::KsourceVariant::kShuffleReplicated;
  return options;
}

// ------------------------------------------------------------- host record

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// CPU time the hypervisor gave to other guests ("steal") and all CPU
/// time, in jiffies since boot, from /proc/stat; zeros where it is missing.
struct CpuJiffies {
  double steal = 0;
  double total = 0;
};

CpuJiffies ReadCpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu": user nice system idle iowait irq softirq steal
  CpuJiffies out;
  double value = 0;
  for (int field = 0; field < 8 && in >> value; ++field) {
    out.total += value;
    if (field == 7) out.steal = value;
  }
  return out;
}

std::string HostFingerprintJson() {
  const linalg::CacheHierarchy caches = linalg::DetectCacheHierarchy(42);
  return std::string("{\"cpu\":") + JsonString(CpuModel()) +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"kernel_tuning\":" +
         JsonString(linalg::DescribeKernelTuning(linalg::GetKernelTuning())) +
         ",\"l1d_bytes\":" + std::to_string(caches.l1d_bytes) +
         ",\"l2_bytes\":" + std::to_string(caches.l2_bytes) +
         ",\"l3_bytes\":" + std::to_string(caches.l3_bytes) +
         ",\"caches_from_sysfs\":" + (caches.from_sysfs ? "true" : "false") +
         ",\"compiler\":" + JsonString(__VERSION__) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) + "}";
}

// ----------------------------------------------------------------- inputs

/// Erdős–Rényi at the paper's edge probability with integer weights 1..10
/// (exact path sums, so every check is bitwise), undirected.
graph::Graph MakeGraph(std::int64_t n, std::uint64_t seed) {
  const graph::Graph raw = graph::ErdosRenyi(
      n, graph::PaperEdgeProbability(n), {1.0, 11.0}, seed);
  graph::Graph g(n);
  for (const graph::Edge& e : raw.edges()) {
    g.AddEdge(e.u, e.v, std::floor(e.weight)).CheckOk();
  }
  return g;
}

/// KSSP sources: k / 64 distinct, seeded 64-vertex ranges. ER labels are
/// exchangeable, so this is a uniform source set up to relabelling; it lines
/// the sources up with the store's 64-blocks so the panel persists whole.
std::vector<graph::VertexId> MakeSources(std::int64_t n, std::int64_t k,
                                         Xoshiro256& rng) {
  const std::int64_t rows = n / kStoreBlock;
  std::vector<std::int64_t> order(static_cast<std::size_t>(rows));
  for (std::int64_t i = 0; i < rows; ++i) order[i] = i;
  for (std::int64_t i = rows - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(i + 1)]);
  }
  order.resize(static_cast<std::size_t>(k / kStoreBlock));
  std::sort(order.begin(), order.end());
  std::vector<graph::VertexId> sources;
  for (const std::int64_t row : order) {
    for (std::int64_t r = 0; r < kStoreBlock; ++r) {
      sources.push_back(row * kStoreBlock + r);
    }
  }
  return sources;
}

class QueryStream {
 public:
  QueryStream(const Workload& w, const std::vector<graph::VertexId>& sources,
              std::uint64_t seed)
      : w_(w), sources_(sources), rng_(seed) {
    if (w.mix == QueryMix::kZipf) {
      zipf_.emplace(static_cast<std::uint64_t>(w.n), kZipfTheta);
    }
  }

  void Fill(std::vector<Query>& batch) {
    for (Query& q : batch) {
      if (zipf_) {
        q = {static_cast<graph::VertexId>(zipf_->Sample(rng_)),
             static_cast<graph::VertexId>(zipf_->Sample(rng_))};
      } else if (w_.kssp) {
        q = {sources_[rng_.NextBounded(sources_.size())], Uniform()};
      } else {
        q = {Uniform(), Uniform()};
      }
    }
  }

 private:
  graph::VertexId Uniform() {
    return static_cast<graph::VertexId>(
        rng_.NextBounded(static_cast<std::uint64_t>(w_.n)));
  }

  const Workload& w_;
  const std::vector<graph::VertexId>& sources_;
  Xoshiro256 rng_;
  std::optional<ZipfSampler> zipf_;
};

// ------------------------------------------------------------------ solve

struct Solved {
  bool ok = false;
  std::string error;
  double solve_s = 0;
  double model_s = 0;
  std::int64_t rounds = 0;
  sparklet::SimMetrics metrics;
  /// APSP: the n x n matrix. KSSP: the n x k panel, column j = sources[j].
  linalg::DenseBlock distances;
};

Solved RunSolve(const Workload& w, const graph::Graph& g,
                const std::vector<graph::VertexId>& sources) {
  Solved out;
  const auto start = Clock::now();
  if (w.kssp) {
    apsp::KsourceBlockedSolver solver;
    auto result = solver.SolveGraph(g, sources, KsspOptions(w), BenchCluster());
    out.solve_s = SecondsSince(start);
    out.ok = result.status.ok() && result.distances.has_value();
    out.error = result.status.ToString();
    out.model_s = result.sim_seconds;
    out.rounds = result.rounds_executed;
    out.metrics = result.metrics;
    if (out.ok) out.distances = std::move(*result.distances);
  } else {
    auto report = apsp::Solve(g, ApspRequest(w));
    out.solve_s = SecondsSince(start);
    out.ok = report.ok() && report.run.distances.has_value();
    out.error = report.status().ToString();
    out.model_s = report.run.sim_seconds;
    out.rounds = report.run.rounds_executed;
    out.metrics = report.metrics();
    if (out.ok) out.distances = std::move(*report.run.distances);
  }
  return out;
}

/// Host wall time of the model run with the same request: the engine's
/// control path without payloads.
double ControlPathSeconds(const Workload& w) {
  const auto start = Clock::now();
  if (w.kssp) {
    apsp::KsourceBlockedSolver solver;
    solver.SolveModel(w.n, w.sources, KsspOptions(w), BenchCluster())
        .status.CheckOk();
  } else {
    apsp::SolveModel(w.n, ApspRequest(w)).status().CheckOk();
  }
  return SecondsSince(start);
}

/// MinPlusUpdateRect calls a KSSP solve makes. A k > 64 panel update runs
/// on the square accumulate kernel, so its calls are not told apart by the
/// counters; the call structure depends only on q, so a same-q solve with a
/// 32-wide panel (which the panel kernel counts) gives the number.
std::int64_t KsspRectCalls(const Workload& w) {
  constexpr std::int64_t kSmallBlock = 16;
  const std::int64_t q = w.n / w.block;
  const graph::Graph g =
      graph::CompleteGraph(q * kSmallBlock, {1.0, 11.0}, 7);
  std::vector<graph::VertexId> sources;
  for (graph::VertexId s = 0; s < 32; ++s) sources.push_back(s);
  apsp::KsourceOptions options = KsspOptions(w);
  options.block_size = kSmallBlock;
  const perfbench::KernelCounts before = perfbench::SnapshotKernelCounts();
  apsp::KsourceBlockedSolver solver;
  solver.SolveGraph(g, sources, options, BenchCluster()).status.CheckOk();
  return (perfbench::SnapshotKernelCounts() - before).Kernel("panel");
}

/// What the traced run's forked child measures, with host-clock span ends
/// (obs::Tracer::RealNowNs) so the parent can place them in its trace.
struct ChildReport {
  double solve_s = -1;  // -1: the untraced solve failed
  double control_s = 0;
  std::int64_t rect_calls = 0;
  std::uint64_t solve_ns[2] = {};
  std::uint64_t model_ns[2] = {};
  std::uint64_t calibration_ns[2] = {};
};

/// Runs a solve in a forked child and, with `probes`, the model run and
/// (KSSP) the rect-call calibration after it. The first solve of a process
/// also pays for fresh memory, so every timed solve gets a fresh process;
/// and the probes' solver runs stay out of the traced process's sim-clock
/// spans. Call before this process starts any thread.
ChildReport RunChild(const Workload& w, const std::string& edge_file,
                     const std::vector<graph::VertexId>& sources,
                     bool probes) {
  ChildReport report;
  int fds[2];
  if (::pipe(fds) != 0) return report;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    ::close(fds[0]);
    const auto g = graph::ReadEdgeListTextFile(edge_file);
    report.solve_ns[0] = obs::Tracer::RealNowNs();
    if (g.ok()) {
      const Solved solved = RunSolve(w, *g, sources);
      if (solved.ok) report.solve_s = solved.solve_s;
    }
    report.solve_ns[1] = obs::Tracer::RealNowNs();
    if (probes) {
      report.model_ns[0] = obs::Tracer::RealNowNs();
      report.control_s = ControlPathSeconds(w);
      report.model_ns[1] = report.calibration_ns[0] = obs::Tracer::RealNowNs();
      if (w.kssp) report.rect_calls = KsspRectCalls(w);
      report.calibration_ns[1] = obs::Tracer::RealNowNs();
    }
    const bool sent = ::write(fds[1], &report, sizeof report) ==
                      static_cast<ssize_t>(sizeof report);
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  if (pid > 0) {
    if (::read(fds[0], &report, sizeof report) !=
        static_cast<ssize_t>(sizeof report)) {
      report = ChildReport{};
    }
    ::waitpid(pid, nullptr, 0);
  }
  ::close(fds[0]);
  return report;
}

/// Compares the solve with Dijkstra, streamed one source at a time (no
/// second n x n matrix). Returns the number of mismatching entries.
std::int64_t CheckSolve(const Workload& w, const graph::Graph& g,
                        const std::vector<graph::VertexId>& sources,
                        const linalg::DenseBlock& d) {
  const graph::Csr csr(g);
  const std::int64_t rows =
      w.kssp ? static_cast<std::int64_t>(sources.size()) : w.n;
  std::atomic<std::int64_t> mismatches{0};
  ThreadPool pool(0);
  pool.ParallelFor(static_cast<std::size_t>(rows), [&](std::size_t j) {
    const graph::VertexId s = w.kssp ? sources[j] : static_cast<std::int64_t>(j);
    const std::vector<double> oracle = graph::Dijkstra(csr, s);
    std::int64_t bad = 0;
    for (std::int64_t t = 0; t < w.n; ++t) {
      const double got = w.kssp ? d.At(t, static_cast<std::int64_t>(j))
                                : d.At(s, t);
      if (!SameBits(got, oracle[static_cast<std::size_t>(t)])) ++bad;
    }
    mismatches += bad;
  });
  return mismatches.load();
}

// ---------------------------------------------------------------- persist

/// Writes the KSSP panel's source rows as a directed store of 64-blocks:
/// block (I, J) holds dist(I*64 + r -> J*64 + c).
Status PersistPanel(const std::string& dir, const linalg::DenseBlock& panel,
                    const std::vector<graph::VertexId>& sources,
                    std::int64_t n) {
  store::StoreManifest manifest;
  manifest.n = n;
  manifest.block_size = kStoreBlock;
  manifest.directed = true;
  auto created = store::BlockStore::Create(dir, manifest);
  if (!created.ok()) return created.status();
  for (std::size_t first = 0; first < sources.size(); first += kStoreBlock) {
    const std::int64_t I = sources[first] / kStoreBlock;
    for (std::int64_t J = 0; J < n / kStoreBlock; ++J) {
      linalg::DenseBlock block(kStoreBlock, kStoreBlock);
      for (std::int64_t r = 0; r < kStoreBlock; ++r) {
        for (std::int64_t c = 0; c < kStoreBlock; ++c) {
          block.Set(r, c,
                    panel.At(J * kStoreBlock + c,
                             static_cast<std::int64_t>(first) + r));
        }
      }
      auto status = (*created)->Put(store::Plane::kDistance, I, J, block);
      if (!status.ok()) return status;
    }
  }
  return (*created)->Seal();
}

/// Writes back dirty pages of the work directory's filesystem, so each timed
/// persist starts from the same writeback state.
void FlushFilesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

// ------------------------------------------------------------------ setup

/// CLOCK_MONOTONIC in ns: one clock for this process and its set-up
/// processes.
std::int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The warm-up batch: one query per stored distance block, so the batch
/// loads every block the cache can hold.
std::vector<Query> WarmQueries(const store::BlockStore& store) {
  std::vector<Query> queries;
  for (const auto& entry : store.manifest().entries) {
    if (entry.plane == store::Plane::kDistance) {
      queries.push_back({entry.I * kStoreBlock, entry.J * kStoreBlock});
    }
  }
  return queries;
}

/// What a set-up process reports: SteadyNs() at its start and after ingest,
/// open and warm-up, then its warm-up answers.
struct SetupRun {
  std::int64_t ns[4] = {};
  std::vector<double> answers;
};

/// The set-up process (`perfbench --setup-store DIR`): what a fresh process
/// does before it serves. It ingests the edge file, opens the store with
/// the serving cache cap and thread count and runs the warm-up batch, then
/// writes SetupRun to stdout as raw bytes: the four times, then the answers.
int SetupProcessMain(const std::string& work_dir, const std::string& store_dir,
                     std::uint64_t cache_bytes, std::size_t serve_threads) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
  SetupRun run;
  run.ns[0] = SteadyNs();
  const auto read = graph::ReadEdgeListTextFile(work_dir + "/graph.txt");
  run.ns[1] = SteadyNs();
  store::DistanceService::Options options;
  options.store_options.cache_capacity_bytes = cache_bytes;
  options.num_threads = serve_threads;
  auto opened = store::DistanceService::Open(store_dir, options);
  run.ns[2] = SteadyNs();
  if (!read.ok() || !opened.ok()) return 1;
  const std::vector<Query> queries = WarmQueries((*opened)->store());
  const auto answers = (*opened)->DistanceBatch(queries);
  run.ns[3] = SteadyNs();
  if (!answers.ok()) return 1;
  const auto put = [](const void* data, std::size_t bytes) {
    return ::write(STDOUT_FILENO, data, bytes) == static_cast<ssize_t>(bytes);
  };
  return put(run.ns, sizeof run.ns) &&
                 put(answers->data(), answers->size() * sizeof(double))
             ? 0
             : 1;
}

/// Runs one set-up process over `store_dir` and reads its report; nullopt
/// if it could not start, failed or reported short.
std::optional<SetupRun> RunSetupProcess(const std::string& work_dir,
                                        const std::string& store_dir,
                                        std::uint64_t cache_bytes,
                                        std::size_t serve_threads) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return std::nullopt;
  const std::string exe = std::filesystem::read_symlink("/proc/self/exe");
  const std::string cache = std::to_string(cache_bytes);
  const std::string threads = std::to_string(serve_threads);
  const char* argv[] = {exe.c_str(),       "--work-dir",      work_dir.c_str(),
                        "--setup-store",   store_dir.c_str(), "--cache-bytes",
                        cache.c_str(),     "--serve-threads", threads.c_str(),
                        nullptr};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  pid_t pid = -1;
  const int spawned = ::posix_spawn(&pid, exe.c_str(), &actions, nullptr,
                                    const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string bytes;
  char buffer[1 << 16];
  for (ssize_t got; spawned == 0 &&
                    (got = ::read(fds[0], buffer, sizeof buffer)) > 0;) {
    bytes.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fds[0]);
  int status = -1;
  if (spawned == 0) ::waitpid(pid, &status, 0);
  SetupRun run;
  if (status != 0 || bytes.size() < sizeof run.ns ||
      (bytes.size() - sizeof run.ns) % sizeof(double) != 0) {
    return std::nullopt;
  }
  std::memcpy(run.ns, bytes.data(), sizeof run.ns);
  run.answers.resize((bytes.size() - sizeof run.ns) / sizeof(double));
  std::memcpy(run.answers.data(), bytes.data() + sizeof run.ns,
              run.answers.size() * sizeof(double));
  return run;
}

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ResultJson(bool correct, std::int64_t attempted,
                       std::int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i ? ", " : "") + JsonString(metrics[i].name) +
           ": {\"value\": " + value +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}}";
}

/// Nearest-rank q-quantile of `values`.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// User + system CPU seconds of this process so far, all threads.
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// -------------------------------------------------------------------- run

struct Serving {
  std::vector<double> latency_s;  // per DistanceBatch, client-timed
  std::int64_t answered = 0;
  store::BlockStore::Stats before;
  store::BlockStore::Stats after;

  /// `stat` (latencies of one window) -> value over each window of
  /// kWindowBatches consecutive batches. Only whole windows count.
  template <typename Stat>
  std::vector<double> WindowValues(Stat stat) const {
    std::vector<double> values;
    for (std::size_t first = 0; first + kWindowBatches <= latency_s.size();
         first += kWindowBatches) {
      values.push_back(stat(std::vector<double>(
          latency_s.begin() + static_cast<std::ptrdiff_t>(first),
          latency_s.begin() +
              static_cast<std::ptrdiff_t>(first + kWindowBatches))));
    }
    return values;
  }

  std::vector<double> WindowQps() const {
    return WindowValues([](const std::vector<double>& window) {
      double busy_s = 0;
      for (const double s : window) busy_s += s;
      return static_cast<double>(window.size() * kBatchQueries) / busy_s;
    });
  }
  double Qps() const {
    std::vector<double> values = WindowQps();
    return Median(values);
  }
  double P50Ms() const {
    std::vector<double> values =
        WindowValues([](std::vector<double> window) {
          return Quantile(std::move(window), 0.50);
        });
    return 1e3 * Median(values);
  }
  /// Over the whole traced run: it has at least kMinBatches batches.
  double P99Ms() const { return 1e3 * Quantile(latency_s, 0.99); }
};

int RunWorkload(const Workload& w, const Args& args) {
  namespace fs = std::filesystem;
  const std::string host = HostFingerprintJson();
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("host %s\n", host.c_str());
  std::fflush(stdout);

  fs::create_directories(args.work_dir);
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t mismatches = 0;
  const CpuJiffies start_jiffies = ReadCpuJiffies();
  const auto finish = [&](const std::vector<Metric>& metrics) {
    const bool correct = failed == 0 && mismatches == 0;
    for (const Metric& m : metrics) {
      std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    // A run on a shared host that lost CPU to other guests reads slow on
    // every metric; this line tells such runs apart.
    const CpuJiffies end = ReadCpuJiffies();
    std::printf("host steal %.4f of cpu time during the run\n",
                end.total > start_jiffies.total
                    ? (end.steal - start_jiffies.steal) /
                          (end.total - start_jiffies.total)
                    : 0.0);
    std::printf("attempted %lld failed %lld (wrong answers %lld)\n",
                static_cast<long long>(attempted),
                static_cast<long long>(failed),
                static_cast<long long>(mismatches));
    std::printf("%s\n",
                ResultJson(correct, attempted, failed, metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  };

  // Inputs: the edge-list file, the KSSP sources and the query stream all
  // come from the seed; the program receives only these.
  Xoshiro256 input_rng(args.seed ^ 0x9e3779b97f4a7c15ULL);
  const std::string edge_file = args.work_dir + "/graph.txt";
  graph::WriteEdgeListTextFile(MakeGraph(w.n, args.seed), edge_file).CheckOk();
  const std::vector<graph::VertexId> sources =
      w.kssp ? MakeSources(w.n, w.sources, input_rng)
             : std::vector<graph::VertexId>{};
  std::vector<std::int64_t> source_column(static_cast<std::size_t>(w.n), -1);
  for (std::size_t j = 0; j < sources.size(); ++j) {
    source_column[static_cast<std::size_t>(sources[j])] =
        static_cast<std::int64_t>(j);
  }

  std::unique_ptr<SpanLog> span_log;
  if (args.trace) span_log = std::make_unique<SpanLog>();
  SpanLog* spans = span_log.get();
  std::optional<ScopedSpan> root;
  root.emplace(spans, "perfbench", -1, "\"host\":" + host);

  // Forked children first, while this process has no threads. Untraced:
  // kSolveReps - 1 cold solves (the last one is this process's own).
  // Traced: the untraced solve that is the base of the tracing overhead,
  // then the model run and the calibration run.
  std::vector<double> solve_s;
  double control_s = 0;
  std::int64_t rect_calls = 0;
  {
    ScopedSpan span(spans, "children");
    obs::Tracer::RealNowNs();  // pin the span clock's epoch before forking
    for (int r = 0; r < (args.trace ? 1 : kSolveReps - 1); ++r) {
      const ChildReport child = RunChild(w, edge_file, sources, args.trace);
      ++attempted;
      if (child.solve_s <= 0) {
        ++failed;
        continue;
      }
      solve_s.push_back(child.solve_s);
      if (!args.trace) continue;
      spans->Record("solve-untraced", child.solve_ns[0], child.solve_ns[1]);
      spans->Record("solve-model", child.model_ns[0], child.model_ns[1]);
      if (w.kssp) {
        spans->Record("kssp-rect-calibration", child.calibration_ns[0],
                      child.calibration_ns[1]);
      }
      control_s = child.control_s;
      rect_calls = child.rect_calls;
    }
  }
  const double untraced_solve_s = args.trace ? Median(solve_s) : 0;
  if (args.trace) obs::Tracer::Get().Start();

  // ---- ingest once for the solve. This process then reaches its solve
  // along the same path as each forked child: fork point, ingest, solve.
  std::optional<graph::Graph> graph_in;
  {
    ScopedSpan span(spans, "ingest");
    auto read = graph::ReadEdgeListTextFile(edge_file);
    read.status().CheckOk();
    graph_in.emplace(std::move(*read));
  }
  const graph::Graph& g = *graph_in;

  // ---- solve, then the Dijkstra oracle
  Solved solved;
  perfbench::KernelCounts kernel_calls;
  double solve_cpu_s = 0;
  {
    ScopedSpan span(spans, "solve");
    const perfbench::KernelCounts before = perfbench::SnapshotKernelCounts();
    const double cpu_before = ProcessCpuSeconds();
    solved = RunSolve(w, g, sources);
    solve_cpu_s = ProcessCpuSeconds() - cpu_before;
    kernel_calls = perfbench::SnapshotKernelCounts() - before;
  }
  ++attempted;
  if (!solved.ok) {
    std::fprintf(stderr, "perfbench: solve failed: %s\n",
                 solved.error.c_str());
    ++failed;
    return finish({});
  }
  {
    ScopedSpan span(spans, "check-solve");
    const std::int64_t bad = CheckSolve(w, g, sources, solved.distances);
    if (bad > 0) {
      std::fprintf(stderr, "perfbench: %lld solved distances differ from "
                   "Dijkstra\n", static_cast<long long>(bad));
      ++failed;
      mismatches += bad;
    }
  }
  const linalg::DenseBlock& d = solved.distances;
  const auto expected = [&](const Query& q) {
    return w.kssp ? d.At(q.t, source_column[static_cast<std::size_t>(q.s)])
                  : d.At(q.s, q.t);
  };
  // A batch is one operation. It fails if the call failed (null `answers`)
  // or if any answer differs from the solved matrix.
  const auto check_batch = [&](const std::vector<Query>& queries,
                               const std::vector<double>* answers) {
    ++attempted;
    if (answers == nullptr || answers->size() != queries.size()) {
      ++failed;
      return;
    }
    std::int64_t bad = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (!SameBits((*answers)[i], expected(queries[i]))) ++bad;
    }
    if (bad > 0) {
      ++failed;
      mismatches += bad;
    }
  };

  // ---- persist, from a flushed filesystem each time
  std::vector<double> persist_s;
  std::string store_dir;
  apsp::PersistOptions persist_options;
  persist_options.block_size = kStoreBlock;
  persist_options.with_paths = true;
  double persist_total_s = 0;
  std::vector<std::string> old_stores;
  // The untraced run persists once, for serving; apsp.persist_s is a
  // per-layer metric (see README.md).
  for (int r = 0; r < (args.trace ? kMaxPersistReps : 1); ++r) {
    if (r >= kMinPersistReps && persist_total_s >= kPersistBudgetSeconds) {
      break;
    }
    // Earlier stores are deleted only after the loop: freeing their blocks
    // would queue discards that the next persist's allocations can meet.
    if (!store_dir.empty()) old_stores.push_back(store_dir);
    store_dir = args.work_dir + "/store-" + std::to_string(r);
    FlushFilesystem(args.work_dir);
    ScopedSpan span(spans, "persist");
    const auto start = Clock::now();
    const Status status =
        w.kssp ? PersistPanel(store_dir, d, sources, w.n)
               : apsp::PersistSolve(store_dir, d, &g, /*directed=*/false,
                                    linalg::SemiringId::kMinPlus,
                                    persist_options);
    persist_s.push_back(SecondsSince(start));
    persist_total_s += persist_s.back();
    ++attempted;
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: persist failed: %s\n",
                   status.ToString().c_str());
      ++failed;
      return finish({});
    }
  }
  for (const std::string& dir : old_stores) fs::remove_all(dir);
  // Write the store back now, so that writeback does not overlap serving.
  FlushFilesystem(args.work_dir);
  std::uint64_t plane_bytes = 0;
  std::uint64_t persist_bytes = 0;
  {
    auto reader = store::BlockStore::Open(store_dir);
    reader.status().CheckOk();
    for (const auto& entry : (*reader)->manifest().entries) {
      if (entry.plane == store::Plane::kDistance) {
        plane_bytes += entry.payload_bytes;
      }
    }
    persist_bytes = (*reader)->total_payload_bytes();
  }
  const auto cache_cap =
      static_cast<std::uint64_t>(w.cache_share * static_cast<double>(plane_bytes));

  // ---- the serving service: open + warm-up, as `apspark serve` runs it
  store::DistanceService::Options service_options;
  service_options.store_options.cache_capacity_bytes = cache_cap;
  service_options.num_threads = w.serve_threads;
  std::unique_ptr<store::DistanceService> service;
  {
    ScopedSpan span(spans, "open");
    auto opened = store::DistanceService::Open(store_dir, service_options);
    opened.status().CheckOk();
    service = std::move(*opened);
  }
  const std::vector<Query> warm_queries = WarmQueries(service->store());
  {
    ScopedSpan span(spans, "warmup");
    const auto answers = service->DistanceBatch(warm_queries);
    check_batch(warm_queries, answers.ok() ? &*answers : nullptr);
  }

  // ---- setup_s: kSetupReps fresh processes, each ingest + open + warm-up
  std::vector<double> ingest_s;
  std::vector<double> open_s;
  std::vector<double> setup_s;
  const std::int64_t epoch_ns = SteadyNs() -
      static_cast<std::int64_t>(obs::Tracer::RealNowNs());
  for (int r = 0; r < kSetupReps; ++r) {
    ScopedSpan span(spans, "setup-process");
    const std::optional<SetupRun> run =
        RunSetupProcess(args.work_dir, store_dir, cache_cap, w.serve_threads);
    if (!run) {
      check_batch(warm_queries, nullptr);
      continue;
    }
    const std::int64_t* ns = run->ns;
    ingest_s.push_back(1e-9 * static_cast<double>(ns[1] - ns[0]));
    open_s.push_back(1e-9 * static_cast<double>(ns[2] - ns[1]));
    setup_s.push_back(1e-9 * static_cast<double>(ns[3] - ns[0]));
    // The set-up process's phases, placed on this process's span clock.
    const char* phases[] = {"ingest", "open", "warmup"};
    for (int p = 0; spans != nullptr && p < 3; ++p) {
      spans->Record(phases[p], static_cast<std::uint64_t>(ns[p] - epoch_ns),
                    static_cast<std::uint64_t>(ns[p + 1] - epoch_ns));
    }
    check_batch(warm_queries, &run->answers);
  }

  // ---- serve: one closed-loop client, batches back to back, until
  // `seconds` have passed and at least min_batches batches ran
  Serving serving;
  {
    ScopedSpan serve_span(spans, "serve");
    serving.before = service->store().stats();
    QueryStream stream(w, sources, args.seed ^ 0x51ed270b27a8a4c3ULL);
    std::vector<Query> batch(kBatchQueries);
    const std::size_t min_batches = args.trace ? kMinBatches : kWindowBatches;
    const auto serve_start = Clock::now();
    while ((SecondsSince(serve_start) < args.seconds ||
            serving.latency_s.size() < min_batches) &&
           SecondsSince(serve_start) < kMaxServeSeconds) {
      stream.Fill(batch);
      const auto id = static_cast<std::int64_t>(serving.latency_s.size());
      const auto start = Clock::now();
      auto answers = [&] {
        ScopedSpan span(spans, "batch", id);
        return service->DistanceBatch(batch);
      }();
      serving.latency_s.push_back(SecondsSince(start));
      if (answers.ok()) {
        serving.answered += static_cast<std::int64_t>(batch.size());
      }
      check_batch(batch, answers.ok() ? &*answers : nullptr);
    }
    serving.after = service->store().stats();
  }

  {
    const std::vector<double> qps = serving.WindowQps();
    std::printf("serve %zu batches, %zu windows, window qps q1 %.0f q3 %.0f\n",
                serving.latency_s.size(), qps.size(), Quantile(qps, 0.25),
                Quantile(qps, 0.75));
  }
  if (!args.trace) {
    root.reset();
    solve_s.push_back(solved.solve_s);
    std::printf("solve_s per process:");
    for (const double s : solve_s) std::printf(" %.3f", s);
    std::printf("\n");
    return finish({
        {"setup_s", Median(setup_s), "s"},
        {"solve_s", Median(solve_s), "s"},
        {"peak_rss_mb", PeakRssMiB(), "MiB"},
        {"serve_qps", serving.Qps(), "queries/s"},
        {"serve_p50_ms", serving.P50Ms(), "ms"},
    });
  }

  // ---- traced run: single-layer probes on the live store and service
  double successors_s = 0;
  if (!w.kssp) {
    ScopedSpan span(spans, "successors");
    const auto start = Clock::now();
    const linalg::DenseBlock next = graph::SuccessorsFromDistances(g, d);
    successors_s = SecondsSince(start);
  }
  perfbench::KernelAttribution kernels;
  {
    ScopedSpan span(spans, "kernel-probes");
    kernels = perfbench::AttributeKernels(
        kernel_calls, w.block, w.kssp ? w.sources : 0, rect_calls);
  }
  double miss_s = 0;
  double hit_s = 0;
  double dispatch_s = 0;
  {
    ScopedSpan span(spans, "fetch-cold");
    miss_s = perfbench::ColdFetchSeconds(store_dir);
  }
  {
    ScopedSpan span(spans, "fetch-resident");
    hit_s = perfbench::ResidentFetchSeconds(store_dir);
  }
  {
    ScopedSpan span(spans, "batch-dispatch");
    dispatch_s =
        perfbench::OneQueryBatchSeconds(*service, warm_queries.front());
  }
  root.reset();

  obs::Tracer& tracer = obs::Tracer::Get();
  span_log->ExportTo(tracer);
  const std::size_t trace_events = tracer.EventCount();
  const bool trace_written = tracer.WriteChromeJson(args.trace_out);
  tracer.Stop();
  if (!trace_written) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_out.c_str());
    ++failed;
  }
  std::printf("trace %s (%zu events)\n", args.trace_out.c_str(),
              trace_events);
  std::printf("%-24s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& row : span_log->SelfTimes()) {
    std::printf("%-24s %8llu %12.6f %12.6f\n", row.name.c_str(),
                static_cast<unsigned long long>(row.count), row.total_s,
                row.self_s);
  }

  const double threads =
      static_cast<double>(linalg::KernelThreadPool().num_threads());
  const sparklet::SimMetrics& sim = solved.metrics;
  const double persist_median = Median(persist_s);
  const auto queries = static_cast<double>(serving.answered);
  const auto delta = [&](std::uint64_t store::BlockStore::Stats::*field) {
    return static_cast<double>(serving.after.*field - serving.before.*field);
  };
  constexpr double kMiB = 1024.0 * 1024.0;
  return finish({
      {"graph.ingest_s", Median(ingest_s), "s"},
      {"graph.successors_s", successors_s, "s"},
      {"linalg.kernel_calls", static_cast<double>(kernel_calls.Total()),
       "count"},
      {"linalg.scalar_calls", static_cast<double>(kernel_calls.Scalar()),
       "count"},
      {"linalg.rect_calls", static_cast<double>(rect_calls), "count"},
      {"linalg.kernel_gop", kernels.gop, "Gop"},
      {"linalg.kernel_cpu_s", kernels.cpu_s, "s"},
      {"linalg.kernel_share", kernels.cpu_s / (untraced_solve_s * threads),
       "ratio"},
      {"sparklet.stages", static_cast<double>(sim.stages), "count"},
      {"sparklet.tasks", static_cast<double>(sim.tasks), "count"},
      {"sparklet.control_s", control_s, "s"},
      {"sparklet.data_plane_s",
       untraced_solve_s - control_s - kernels.cpu_s / threads, "s"},
      {"sparklet.shuffle_bytes", static_cast<double>(sim.shuffle_bytes),
       "bytes"},
      {"sparklet.collect_bytes", static_cast<double>(sim.collect_bytes),
       "bytes"},
      {"sparklet.sharedfs_write_bytes",
       static_cast<double>(sim.shared_fs_written_bytes), "bytes"},
      {"sparklet.model_node_peak_mib",
       static_cast<double>(sim.node_peak_bytes) / kMiB, "MiB"},
      {"sparklet.model_driver_peak_mib",
       static_cast<double>(sim.driver_peak_bytes) / kMiB, "MiB"},
      {"sparklet.model_s", solved.model_s, "s"},
      {"apsp.rounds", static_cast<double>(solved.rounds), "count"},
      {"apsp.solve_cpu_s", solve_cpu_s, "s"},
      {"apsp.persist_s", persist_median, "s"},
      {"apsp.persist_bytes", static_cast<double>(persist_bytes), "bytes"},
      {"store.open_s", Median(open_s), "s"},
      {"store.write_s", persist_median - successors_s, "s"},
      {"store.serve_p99_ms", serving.P99Ms(), "ms"},
      {"store.hits", delta(&store::BlockStore::Stats::hits), "count"},
      {"store.misses", delta(&store::BlockStore::Stats::misses), "count"},
      {"store.evictions", delta(&store::BlockStore::Stats::evictions),
       "count"},
      {"store.bytes_loaded", delta(&store::BlockStore::Stats::bytes_loaded),
       "bytes"},
      {"store.memo_share",
       1.0 - (delta(&store::BlockStore::Stats::hits) +
              delta(&store::BlockStore::Stats::misses)) / queries,
       "ratio"},
      {"store.miss_us", 1e6 * miss_s, "us"},
      {"store.hit_ns", 1e9 * hit_s, "ns"},
      {"store.peak_resident_bytes",
       static_cast<double>(serving.after.peak_resident_bytes), "bytes"},
      {"store.resident_cap_share",
       static_cast<double>(serving.after.peak_resident_bytes) /
           static_cast<double>(cache_cap),
       "ratio"},
      {"common.batch_dispatch_us", 1e6 * dispatch_s, "us"},
      {"obs.trace_overhead", solved.solve_s / untraced_solve_s - 1.0,
       "ratio"},
      {"obs.trace_events", static_cast<double>(trace_events), "count"},
  });
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-out FILE]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--setup-store") {
      args.setup_store = value;
    } else if (flag == "--cache-bytes") {
      args.cache_bytes = std::strtoull(value, nullptr, 10);
    } else if (flag == "--serve-threads") {
      args.serve_threads = std::strtoull(value, nullptr, 10);
    } else {
      return Usage();
    }
  }
  if (!args.setup_store.empty() && !args.work_dir.empty()) {
    return SetupProcessMain(args.work_dir, args.setup_store, args.cache_bytes,
                            args.serve_threads);
  }
  if (args.work_dir.empty() || args.seconds <= 0 ||
      (args.trace && args.trace_out.empty())) {
    return Usage();
  }
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) return RunWorkload(w, args);
  }
  return Usage();
}
