// lap_perfbench — the simulator's end-to-end and per-layer benchmark.
//
//   lap_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --work-dir <dir> [--scale <f>] [--doctor 1]
//
// One process, one thread.  The workload's trace is generated from
// --seed, then its run list (algorithm x cache size) replays through
// run_simulation in a closed loop: each run starts when the previous one
// ends, every run is timed from outside on the host clock.
//
// --trace 0 loops over the run list for --seconds and reports the
// end-to-end metrics (ops_per_s, slowest_run_s, peak_rss_mb, setup_s);
// set-up and a host-speed calibration kernel repeat between the runs of
// the loop, and host times are scaled by the kernel's speed.
// --trace 1 makes one traced pass instead: every run of the list replays
// twice, once untraced (heap allocations counted) and once with a counter
// registry and a span collector attached, and the per-layer metrics are
// summed over the list; standalone drivers then time set-up, IS_PPM and
// the .lapt codec on the workload's own inputs.
//
// Every run is checked: it fails if it throws, if its prefetch or disk
// accounting does not balance, if a repeat of the same run differs from
// the first one, or if its traced replay differs from the untraced one in
// any field but wall_seconds.  --doctor 1 corrupts one result on purpose
// so the self-test can see the check fire.
//
// Output: a detail JSON line, then the result line
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <new>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/golden.hpp"
#include "core/algorithm_registry.hpp"
#include "core/is_ppm.hpp"
#include "driver/machine_config.hpp"
#include "driver/simulation.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"
#include "trace/charisma_gen.hpp"
#include "trace/io/binary_io.hpp"
#include "trace/io/source.hpp"
#include "trace/sprite_gen.hpp"
#include "util/flags.hpp"

// ---------------------------------------------------------------------------
// Heap-allocation counter.  The benchmark replaces the global allocation
// functions; counting is switched on only around the untraced half of the
// traced pass, so the timed loop pays one predictable branch per
// allocation.  Plain (non-atomic) counters: the benchmark replays on one
// thread (RunConfig::shards stays 1).

namespace {
bool g_count_allocs = false;
std::uint64_t g_allocs = 0;
std::uint64_t g_alloc_bytes = 0;

void* counted_alloc(std::size_t n, std::size_t align) {
  if (g_count_allocs) {
    ++g_allocs;
    g_alloc_bytes += n;
  }
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else {
    p = std::aligned_alloc(align, (n + align - 1) / align * align);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n) {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace lap;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Nearest-rank quantile of `v` (sorted in place).
double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Workloads.

enum class Generator { kCharisma, kSprite };

struct Workload {
  const char* name;
  Generator gen;
  FsKind fs;
  std::vector<std::string> algorithms;
  std::vector<Bytes> caches;
  double scale;        // generator scale (multiplied by --scale)
  double random_frac;  // CHARISMA random-access app share; < 0: default
  // CHARISMA I/O phases per application; 0: the generator's 22-30.
  std::uint32_t phases_min;
  bool streamed;  // replay the .lapt through BinaryTraceSource
};

const std::vector<std::string> kGridAlgorithms = {
    "NP", "Ln_Agr_OBA", "Ln_Agr_IS_PPM:1", "Ln_Agr_IS_PPM:3",
    "Fb_Agr_IS_PPM:1"};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // Short applications (6-8 phases), 24 waves: ~72 applications, so
      // one seed's application mix cannot swing events per op the way it
      // does with a dozen 22-30-phase applications (README.md).
      {"charisma_xfs_grid", Generator::kCharisma, FsKind::kXfs,
       kGridAlgorithms, {1_MiB, 4_MiB, 16_MiB}, 1.5, -1.0, 6, false},
      {"sprite_pafs_grid", Generator::kSprite, FsKind::kPafs,
       kGridAlgorithms, {1_MiB, 4_MiB, 16_MiB}, 2.0, -1.0, 0, false},
      {"charisma_random_stream", Generator::kCharisma, FsKind::kPafs,
       {"Ln_Agr_IS_PPM:3", "Fb_Agr_IS_PPM:3"}, {4_MiB}, 3.0, 0.5, 0, true},
  };
  return all;
}

Trace make_trace(const Workload& w, std::uint64_t seed, double scale) {
  if (w.gen == Generator::kCharisma) {
    CharismaParams p;
    p.seed = seed;
    p.scale = w.scale * scale;
    if (w.random_frac >= 0.0) p.random_frac = w.random_frac;
    if (w.phases_min > 0) {
      p.phases_min = w.phases_min;
      p.phases_max = w.phases_min + 2;
    }
    return generate_charisma(p);
  }
  SpriteParams p;
  p.seed = seed;
  p.scale = w.scale * scale;
  return generate_sprite(p);
}

struct RunSpec {
  AlgorithmSpec algorithm;
  Bytes cache = 0;
  [[nodiscard]] std::string label() const {
    return algorithm.name() + "@" + std::to_string(cache / 1_MiB) + "MB";
  }
};

std::vector<RunSpec> run_list(const Workload& w) {
  std::vector<RunSpec> out;
  for (const std::string& a : w.algorithms) {
    for (const Bytes c : w.caches) out.push_back({AlgorithmSpec::parse(a), c});
  }
  return out;
}

RunConfig make_config(const Workload& w, const RunSpec& spec) {
  RunConfig cfg;
  cfg.machine = w.gen == Generator::kCharisma ? MachineConfig::pm()
                                              : MachineConfig::now();
  cfg.fs = w.fs;
  cfg.cache_per_node = spec.cache;
  cfg.algorithm = spec.algorithm;
  return cfg;
}

// ---------------------------------------------------------------------------
// Repetition: a standalone timed step (--trace 1) runs at least
// kMinReps times and until its timings add up to kBudgetS, at most
// kMaxReps times; callers report the median.  Short steps (a small trace
// generates in about a millisecond) thus get enough samples for a steady
// median.

constexpr int kMinReps = 5;
constexpr int kMaxReps = 201;
constexpr double kBudgetS = 1.0;

/// `once` performs the step and returns the seconds it measured.
template <typename F>
std::vector<double> repeat(F&& once) {
  std::vector<double> out;
  double spent = 0.0;
  while (static_cast<int>(out.size()) < kMaxReps &&
         (static_cast<int>(out.size()) < kMinReps || spent < kBudgetS)) {
    out.push_back(once());
    spent += out.back();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Set-up: trace generation (+ .lapt encoding for a streamed workload).

struct SetupTimes {
  std::vector<double> gen_s;
  std::vector<double> encode_s;  // streamed workloads only
  std::vector<double> total_s;
};

/// One set-up in a forked child, so the parent's peak RSS never holds the
/// in-memory trace of a workload that replays streamed.  Returns its time.
double setup_streamed(const Workload& w, std::uint64_t seed, double scale,
                      const std::string& lapt, SetupTimes& times) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    double t[2] = {0.0, 0.0};
    int status = 0;
    try {
      const auto t0 = Clock::now();
      const Trace trace = make_trace(w, seed, scale);
      t[0] = since(t0);
      const auto t1 = Clock::now();
      save_trace_file(lapt, trace);
      t[1] = since(t1);
    } catch (const std::exception& e) {
      std::cerr << "setup failed: " << e.what() << "\n";
      status = 1;
    }
    const bool ok = write(fds[1], t, sizeof t) == static_cast<ssize_t>(sizeof t);
    _exit(ok ? status : 1);
  }
  close(fds[1]);
  double t[2] = {0.0, 0.0};
  const ssize_t got = read(fds[0], t, sizeof t);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != static_cast<ssize_t>(sizeof t) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("trace set-up failed");
  }
  times.gen_s.push_back(t[0]);
  times.encode_s.push_back(t[1]);
  return t[0] + t[1];
}

// ---------------------------------------------------------------------------
// Trace digest: FNV-1a over the metadata and every record, pulled through
// the source (so for a streamed workload it is also a full decode).

struct Fnv {
  std::uint64_t h = 14695981039346656037ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
};

std::uint64_t digest(TraceSource& src) {
  Fnv f;
  const TraceMeta& m = src.meta();
  f.mix(m.block_size);
  f.mix(m.serialize_per_node ? 1 : 0);
  for (const FileInfo& fi : m.files) {
    f.mix(raw(fi.id));
    f.mix(fi.size);
  }
  TraceRecord rec;
  for (std::size_t i = 0; i < m.processes.size(); ++i) {
    f.mix(raw(m.processes[i].pid));
    f.mix(raw(m.processes[i].node));
    auto cur = src.open(i);
    while (cur->next(rec)) {
      f.mix(static_cast<std::uint64_t>(rec.op));
      f.mix(raw(rec.file));
      f.mix(rec.offset);
      f.mix(rec.length);
      f.mix(static_cast<std::uint64_t>(rec.think.nanos()));
    }
  }
  return f.h;
}

// ---------------------------------------------------------------------------
// The correctness gate.

/// Equal in every RunResult field but wall_seconds.
bool same_result(const RunResult& a, const RunResult& b) {
  return hash_run_result(a) == hash_run_result(b);
}

/// Empty when `r` passes; otherwise the reason it failed.
std::string check_result(const RunResult& r) {
  if (r.prefetch_arrived != r.prefetch_used + r.prefetch_wasted) {
    return "prefetch_arrived != prefetch_used + prefetch_wasted";
  }
  if (r.disk_accesses != r.disk_reads + r.disk_writes) {
    return "disk_accesses != disk_reads + disk_writes";
  }
  if (r.reads == 0 || r.events == 0) return "run did no work";
  return {};
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void record(const std::string& label, const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    if (errors.size() < 8) errors.push_back(label + ": " + error);
  }
};

// ---------------------------------------------------------------------------
// One invocation: the workload, its trace and run list, and the tally of
// run outcomes.

struct Bench {
  Bench(const Workload& workload, std::uint64_t trace_seed, double trace_scale,
        std::string lapt_path)
      : w(workload),
        seed(trace_seed),
        scale(trace_scale),
        lapt(std::move(lapt_path)) {}

  const Workload& w;
  std::uint64_t seed;
  double scale;
  std::string lapt;  // the streamed trace; the codec drivers' output file
  bool doctor = false;
  SetupTimes setup;
  Trace trace;  // in-memory workloads only
  std::uint64_t ops = 0;  // I/O ops of one run
  std::uint64_t total_records = 0;
  std::vector<RunSpec> specs;
  Tally tally;
};

/// One set-up, recorded in b.setup; returns its seconds.  It regenerates
/// the trace the runs replay (the same seed gives the same trace).
double set_up(Bench& b) {
  double secs = 0.0;
  if (b.w.streamed) {
    secs = setup_streamed(b.w, b.seed, b.scale, b.lapt, b.setup);
  } else {
    b.trace = Trace{};
    const auto t0 = Clock::now();
    b.trace = make_trace(b.w, b.seed, b.scale);
    secs = since(t0);
    b.setup.gen_s.push_back(secs);
  }
  b.setup.total_s.push_back(secs);
  return secs;
}

/// The workload's trace as a fresh source: the in-memory trace, or the
/// .lapt streamed through BinaryTraceSource.
std::unique_ptr<TraceSource> open_source(const Bench& b) {
  if (b.w.streamed) return BinaryTraceSource::open_file(b.lapt);
  return std::make_unique<InMemoryTraceSource>(b.trace);
}

struct Replay {
  std::optional<RunResult> result;  // nullopt: the run threw
  std::string error;
  double wall_s = 0.0;
};

/// One timed run.  Each run opens its own source (a source carries replay
/// state) inside the timed window.
Replay replay(const Bench& b, const RunConfig& cfg) {
  Replay out;
  const auto t0 = Clock::now();
  try {
    out.result = run_simulation(*open_source(b), cfg);
  } catch (const std::exception& e) {
    out.error = std::string("threw: ") + e.what();
  }
  out.wall_s = since(t0);
  return out;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.member("correct", tally.failed == 0);
  w.member("attempted", tally.attempted);
  w.member("failed", tally.failed);
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name);
    w.begin_object();
    w.member("value", m.value);
    w.member("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << os.str() << std::endl;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// CPU seconds of this process and its ended children (forked set-ups).
double cpu_seconds() {
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  double secs = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    secs += tv(ru.ru_utime) + tv(ru.ru_stime);
  }
  return secs;
}

// ---------------------------------------------------------------------------
// Standalone layer drivers (--trace 1).

struct Request {
  std::uint32_t file;
  std::uint32_t proc;
  std::int64_t first;
  std::uint32_t nblocks;
};

/// Every demand request of the trace as (file, process, block range), in
/// per-process order — the stream a prefetch manager feeds IS_PPM.
std::vector<Request> requests_of(TraceSource& src) {
  std::vector<Request> out;
  const TraceMeta& m = src.meta();
  TraceRecord rec;
  for (std::size_t i = 0; i < m.processes.size(); ++i) {
    auto cur = src.open(i);
    while (cur->next(rec)) {
      if ((rec.op != TraceOp::kRead && rec.op != TraceOp::kWrite) ||
          rec.length == 0) {
        continue;
      }
      const Bytes first = rec.offset / m.block_size;
      const Bytes last = (rec.offset + rec.length - 1) / m.block_size;
      out.push_back({raw(rec.file), static_cast<std::uint32_t>(i),
                     static_cast<std::int64_t>(first),
                     static_cast<std::uint32_t>(last - first + 1)});
    }
  }
  return out;
}

struct IsPpmTiming {
  double seconds = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t graph_nodes = 0;
  std::uint64_t predictions = 0;
};

/// Feed each file's request stream through one IsPpmGraph per file and one
/// IsPpmPredictor per (file, process): on_request then predict_next.
IsPpmTiming time_is_ppm(const std::vector<Request>& reqs, int order) {
  IsPpmTiming t;
  std::unordered_map<std::uint32_t, std::unique_ptr<IsPpmGraph>> graphs;
  std::unordered_map<std::uint64_t, std::unique_ptr<IsPpmPredictor>> preds;
  std::uint64_t clock = 0;
  const auto t0 = Clock::now();
  for (const Request& r : reqs) {
    auto& g = graphs[r.file];
    if (!g) g = std::make_unique<IsPpmGraph>(order);
    auto& p = preds[(static_cast<std::uint64_t>(r.file) << 32) | r.proc];
    if (!p) p = std::make_unique<IsPpmPredictor>(*g);
    p->on_request(r.first, r.nblocks, ++clock);
    if (p->predict_next().has_value()) ++t.predictions;
  }
  t.seconds = since(t0);
  t.requests = reqs.size();
  for (const auto& [file, g] : graphs) t.graph_nodes += g->node_count();
  return t;
}

/// Pull every record of the .lapt through BinaryTraceSource, no simulation.
double time_decode(const std::string& lapt, std::uint64_t& records) {
  const auto t0 = Clock::now();
  auto src = BinaryTraceSource::open_file(lapt);
  TraceRecord rec;
  records = 0;
  for (std::size_t i = 0; i < src->meta().processes.size(); ++i) {
    auto cur = src->open(i);
    while (cur->next(rec)) ++records;
  }
  return since(t0);
}

// ---------------------------------------------------------------------------
// Host-speed calibration.  On a shared 4-CPU Xeon host (README.md), the
// same work ran up to 1.8x faster or slower for tens of seconds at a time,
// in every process at once: wider than any bound, and no longer run can
// average it out.  So the timed loop also times a fixed kernel that uses no
// simulator code, and reports the loop's host times scaled to a host on
// which the kernel takes kCalibrationRefS.  The kernel mixes what
// the simulator's time goes to: dependent loads over a working set larger
// than the per-core caches, hash-table inserts and finds, and a binary heap
// (the event queue).  It allocates nothing after construction, so the
// simulator's heap cannot change its speed.

/// Mean kernel time on the reference host: the host of README.md's
/// baseline, at its typical speed.
constexpr double kCalibrationRefS = 0.0045;

class Calibration {
 public:
  Calibration() : ring_(kRingSize), table_(kTableSize) {
    // One random cycle through the ring (Sattolo), from a fixed seed.
    std::iota(ring_.begin(), ring_.end(), 0U);
    std::mt19937_64 rng(1);
    for (std::size_t i = ring_.size() - 1; i > 0; --i) {
      std::swap(ring_[i], ring_[rng() % i]);
    }
    heap_.reserve(kHeapPushes);
  }

  /// Runs the kernel once; returns its host seconds.
  double once() {
    const auto t0 = Clock::now();
    std::uint64_t h = 0;
    std::uint32_t at = 0;
    for (int i = 0; i < 100000; ++i) {
      at = ring_[at];
      h += at;
    }
    // Linear-probing inserts, then finds, of 20,000 scattered keys.
    std::fill(table_.begin(), table_.end(), 0);
    for (std::uint64_t i = 1; i <= 20000; ++i) table_[slot(i * kGolden)] = i * kGolden;
    for (std::uint64_t i = 1; i <= 20000; ++i) h += slot(i * kGolden);
    heap_.clear();
    std::uint64_t x = 1;
    for (std::size_t i = 0; i < kHeapPushes; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      heap_.push_back(x >> 20);
      std::push_heap(heap_.begin(), heap_.end());
      if (i % 3 == 2) {
        h += heap_.front();
        std::pop_heap(heap_.begin(), heap_.end());
        heap_.pop_back();
      }
    }
    sink_ += h;
    return since(t0);
  }

 private:
  // 2 MiB: past the per-core caches, and small next to the replays' peak
  // resident set, which it adds to.
  static constexpr std::uint32_t kRingSize = 1U << 19;
  static constexpr std::size_t kTableSize = std::size_t{1} << 16;
  static constexpr std::size_t kHeapPushes = 33000;
  static constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

  /// The slot holding `key`, or the empty one where it goes.
  std::size_t slot(std::uint64_t key) const {
    std::size_t s = (key >> 40) & (kTableSize - 1);
    while (table_[s] != 0 && table_[s] != key) s = (s + 1) & (kTableSize - 1);
    return s;
  }

  std::vector<std::uint32_t> ring_;
  std::vector<std::uint64_t> table_;
  std::vector<std::uint64_t> heap_;
  std::uint64_t sink_ = 0;  // keeps the kernel's results live
};

// ---------------------------------------------------------------------------
// --trace 0: the timed loop.

/// Shares of the timed loop's time spent, between runs, setting up again
/// and running the calibration kernel.
constexpr double kSetupShare = 0.05;
constexpr double kCalibrationShare = 0.05;

std::vector<Metric> timed_loop(Bench& b, double seconds, JsonWriter& dw) {
  // Closed loop over the run list until `seconds` of replay have passed and
  // every run of the list has run at least once.  Every repeat must equal
  // the run's first result.  After each run, set-up and then the
  // calibration kernel repeat until each has taken its share of the loop's
  // time so far: both then sample the host over the whole loop, as the
  // replays do, not over one stretch of it.
  const std::size_t n = b.specs.size();
  std::vector<std::vector<double>> walls(n);
  std::vector<std::optional<RunResult>> first(n);
  std::uint64_t runs = 0;
  double setup_s = 0.0;
  Calibration calibration;
  std::vector<double> calibration_s;
  double calibration_sum = 0.0;
  const double cpu0 = cpu_seconds();
  const auto loop0 = Clock::now();
  const auto run_one = [&](std::size_t i) {
    Replay rp = replay(b, make_config(b.w, b.specs[i]));
    ++runs;
    if (b.doctor && runs == 1 && rp.result) rp.result->prefetch_used += 1;
    std::string error = rp.error;
    if (rp.result) {
      error = check_result(*rp.result);
      if (error.empty() && first[i] && !same_result(*first[i], *rp.result)) {
        error = "repeat differs from the first run";
      }
      if (!first[i]) first[i] = rp.result;
    }
    b.tally.record(b.specs[i].label(), error);
    walls[i].push_back(rp.wall_s);
    do {
      setup_s += set_up(b);
    } while (setup_s < kSetupShare * since(loop0));
    calibration.once();  // untimed: brings its memory back into the caches
    do {
      calibration_s.push_back(calibration.once());
      calibration_sum += calibration_s.back();
    } while (calibration_sum < kCalibrationShare * since(loop0));
    return !walls.back().empty() && since(loop0) >= seconds;
  };
  // Each pass runs the list once, then its slowest run so far once more:
  // slowest_run_s rests on that one run's samples where ops_per_s pools
  // every run's, so it gets twice as many.
  for (bool done = false; !done;) {
    for (std::size_t i = 0; i < n && !done; ++i) done = run_one(i);
    if (done) break;
    std::size_t worst = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (mean(walls[i]) > mean(walls[worst])) worst = i;
    }
    done = run_one(worst);
  }
  const double loop_s = since(loop0);
  const double cpu_s = cpu_seconds() - cpu0;

  // Per-run means: ops_per_s is the list's ops over the sum of its mean run
  // times (a loop stopped mid-list weighs every run once), and
  // slowest_run_s the largest mean.  Means, not medians: the host's speed
  // switches between regimes for seconds at a time (README.md), and a
  // median of a few samples jumps between them where a mean moves by the
  // share of time spent in each.  The kernel's mean likewise; host times
  // are multiplied by `speed` (> 1 on a host faster than the reference).
  double slowest = 0.0;
  double list_s = 0.0;
  dw.key("runs");
  dw.begin_array();
  for (std::size_t i = 0; i < n; ++i) {
    const double m = mean(walls[i]);
    slowest = std::max(slowest, m);
    list_s += m;
    dw.begin_object();
    dw.member("run", b.specs[i].label());
    dw.member("mean_s", m);
    dw.key("walls_s");
    dw.begin_array();
    for (const double t : walls[i]) dw.value(t);
    dw.end_array();
    dw.member("events", first[i] ? first[i]->events : 0);
    dw.end_object();
  }
  dw.end_array();
  const double ops_per_s =
      static_cast<double>(b.ops) * static_cast<double>(n) / list_s;
  const double setup = median(b.setup.total_s);
  const double speed = kCalibrationRefS / mean(calibration_s);
  dw.member("replays", runs);
  dw.member("loop_wall_s", loop_s);
  dw.member("loop_cpu_s", cpu_s);
  dw.member("calibration_runs", static_cast<std::uint64_t>(calibration_s.size()));
  dw.member("host_speed", speed);
  dw.key("host_time");
  dw.begin_object();
  dw.member("ops_per_s", ops_per_s);
  dw.member("slowest_run_s", slowest);
  dw.member("setup_s", setup);
  dw.end_object();
  return {
      {"ops_per_s", ops_per_s / speed, "1/s"},
      {"slowest_run_s", slowest * speed, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", setup * speed, "s"},
  };
}

// ---------------------------------------------------------------------------
// --trace 1: the traced pass.

/// Per-layer quantities summed over the run list.
struct LayerSums {
  double runs_ops = 0, events = 0, untraced_s = 0, traced_s = 0, allocs = 0,
         alloc_bytes = 0, messages = 0, net_bytes = 0, disk_reads = 0,
         disk_writes = 0, disk_prefetch = 0, busy_s = 0, hits = 0,
         lookups = 0, hits_remote = 0, hits_inflight = 0, evictions = 0,
         arrived = 0, used = 0, issued = 0, fallback = 0;
  std::vector<double> demand_wait_ms;  // demand reads that crossed the net
  std::vector<double> disk_queue_ms;   // spans a disk serviced

  /// Adds one run; returns the probes `reg` lacks (empty when complete).
  std::string add(const RunResult& r, CounterRegistry& reg,
                  const SpanCollector& spans) {
    events += static_cast<double>(r.events);
    disk_reads += static_cast<double>(r.disk_reads);
    disk_writes += static_cast<double>(r.disk_writes);
    disk_prefetch += static_cast<double>(r.disk_prefetch_reads);
    const double h =
        static_cast<double>(r.hits_local + r.hits_remote + r.hits_inflight);
    hits += h;
    lookups += h + static_cast<double>(r.misses);
    hits_remote += static_cast<double>(r.hits_remote);
    hits_inflight += static_cast<double>(r.hits_inflight);
    arrived += static_cast<double>(r.prefetch_arrived);
    used += static_cast<double>(r.prefetch_used);
    issued += static_cast<double>(r.prefetch_issued);
    fallback += static_cast<double>(r.prefetch_fallback);

    std::string missing;
    const auto probe = [&](const char* name, double& sum) {
      if (reg.has(name)) {
        sum += reg.gauge(name).value();
      } else {
        missing += missing.empty() ? name : std::string(", ") + name;
      }
    };
    probe("net.messages", messages);
    probe("net.bytes_moved", net_bytes);
    probe("disk.busy_seconds", busy_s);
    probe("cache.evictions", evictions);
    for (const BlockSpan& s : spans.spans()) {
      if (s.demand && s.net_hops > 0) {
        demand_wait_ms.push_back((s.net_wait + s.net_time).millis());
      }
      if (s.disk_service > SimTime::zero()) {
        disk_queue_ms.push_back(s.disk_wait.millis());
      }
    }
    return missing.empty() ? missing : "no counter probe " + missing;
  }
};

/// Every run of the list untraced (heap allocations counted), then traced;
/// the traced RunResult must equal the untraced one.
LayerSums replay_traced(Bench& b) {
  LayerSums sums;
  for (std::size_t i = 0; i < b.specs.size(); ++i) {
    const RunConfig cfg = make_config(b.w, b.specs[i]);
    const std::string label = b.specs[i].label();
    g_allocs = g_alloc_bytes = 0;
    g_count_allocs = true;
    const Replay plain = replay(b, cfg);
    g_count_allocs = false;
    b.tally.record(label + " untraced",
                   plain.result ? check_result(*plain.result) : plain.error);

    CounterRegistry reg;
    SpanCollector spans;
    RunConfig tcfg = cfg;
    tcfg.counters = &reg;
    tcfg.spans = &spans;
    Replay traced = replay(b, tcfg);
    if (b.doctor && i == 0 && traced.result) traced.result->events += 1;
    std::string error = traced.error;
    if (traced.result) {
      const RunResult& r = *traced.result;
      error = check_result(r);
      if (error.empty() && plain.result && !same_result(*plain.result, r)) {
        error = "traced RunResult differs from the untraced one";
      }
      const SpanCollector::Totals st = spans.totals();
      if (error.empty() && (st.arrived != r.prefetch_arrived ||
                            st.used != r.prefetch_used ||
                            st.wasted != r.prefetch_wasted)) {
        error = "span totals disagree with the RunResult";
      }
    }
    if (plain.result && traced.result) {
      const std::string missing = sums.add(*plain.result, reg, spans);
      if (error.empty()) error = missing;
      sums.runs_ops += static_cast<double>(b.ops);
      sums.untraced_s += plain.wall_s;
      sums.traced_s += traced.wall_s;
      sums.allocs += static_cast<double>(g_allocs);
      sums.alloc_bytes += static_cast<double>(g_alloc_bytes);
    }
    b.tally.record(label + " traced", error);
  }
  return sums;
}

std::vector<Metric> traced_pass(Bench& b, JsonWriter& dw) {
  LayerSums s = replay_traced(b);

  // Standalone drivers on the workload's own inputs.
  repeat([&] { return set_up(b); });
  std::vector<double> encode_s = b.setup.encode_s;
  if (!b.w.streamed) {
    encode_s = repeat([&] {
      const auto t0 = Clock::now();
      save_trace_file(b.lapt, b.trace);
      return since(t0);
    });
  }
  std::uint64_t decoded = 0;
  const std::vector<double> decode_s =
      repeat([&] { return time_decode(b.lapt, decoded); });
  if (decoded != b.total_records) {
    b.tally.record("decode", "decoded record count differs from the trace's");
  }

  const std::vector<Request> reqs = requests_of(*open_source(b));
  std::vector<int> orders;  // the IS_PPM orders of the run list
  for (const RunSpec& spec : b.specs) {
    if (spec.algorithm.kind == AlgorithmSpec::Kind::kIsPpm &&
        std::find(orders.begin(), orders.end(), spec.algorithm.order) ==
            orders.end()) {
      orders.push_back(spec.algorithm.order);
    }
  }
  std::uint64_t fed = 0;
  std::uint64_t graph_nodes = 0;
  std::uint64_t predictions = 0;
  const std::vector<double> is_ppm_s = repeat([&] {
    double secs = 0;
    fed = graph_nodes = predictions = 0;
    for (const int order : orders) {
      const IsPpmTiming t = time_is_ppm(reqs, order);
      secs += t.seconds;
      fed += t.requests;
      graph_nodes += t.graph_nodes;
      predictions += t.predictions;
    }
    return secs;
  });

  dw.member("is_ppm_requests", fed);
  dw.member("is_ppm_predictions", predictions);
  dw.member("decoded_records", decoded);
  dw.member("untraced_s", s.untraced_s);
  dw.member("traced_s", s.traced_s);
  return {
      {"sim.events_per_op", ratio(s.events, s.runs_ops), "events/op"},
      {"sim.ns_per_event", ratio(s.untraced_s * 1e9, s.events), "ns"},
      {"sim.allocs_per_event", ratio(s.allocs, s.events), "allocs/event"},
      {"sim.alloc_bytes_per_op", ratio(s.alloc_bytes, s.runs_ops), "B/op"},
      {"net.messages_per_op", ratio(s.messages, s.runs_ops), "msgs/op"},
      {"net.bytes_per_op", ratio(s.net_bytes, s.runs_ops), "B/op"},
      {"net.demand_wait_ms_p50", quantile(s.demand_wait_ms, 0.50), "ms"},
      {"net.demand_wait_ms_p99", quantile(s.demand_wait_ms, 0.99), "ms"},
      {"disk.reads", s.disk_reads, "count"},
      {"disk.writes", s.disk_writes, "count"},
      {"disk.prefetch_reads", s.disk_prefetch, "count"},
      {"disk.busy_s", s.busy_s, "s"},
      {"disk.queue_ms_p50", quantile(s.disk_queue_ms, 0.50), "ms"},
      {"disk.queue_ms_p99", quantile(s.disk_queue_ms, 0.99), "ms"},
      {"cache.hit_ratio", ratio(s.hits, s.lookups), "ratio"},
      {"cache.evictions", s.evictions, "count"},
      {"fs.remote_hit_frac", ratio(s.hits_remote, s.lookups), "ratio"},
      {"fs.inflight_hit_frac", ratio(s.hits_inflight, s.lookups), "ratio"},
      {"core.prefetch_accuracy", ratio(s.used, s.arrived), "ratio"},
      {"core.fallback_frac", ratio(s.fallback, s.issued), "ratio"},
      {"core.is_ppm_ns_per_request",
       ratio(median(is_ppm_s) * 1e9, static_cast<double>(fed)), "ns"},
      {"core.is_ppm_graph_nodes", static_cast<double>(graph_nodes), "count"},
      {"trace.gen_s", median(b.setup.gen_s), "s"},
      {"trace_io.encode_s", median(encode_s), "s"},
      {"trace_io.decode_s", median(decode_s), "s"},
      {"obs.overhead_ratio", ratio(s.traced_s, s.untraced_s), "ratio"},
  };
}

// ---------------------------------------------------------------------------

int run(const Flags& flags) {
  const std::string name = flags.get("workload", "");
  const Workload* wp = nullptr;
  for (const Workload& w : workloads()) {
    if (name == w.name) wp = &w;
  }
  if (wp == nullptr) {
    std::cerr << "unknown --workload '" << name << "'; one of:";
    for (const Workload& w : workloads()) std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double scale = flags.get_double("scale", 1.0);
  const std::filesystem::path work_dir = flags.get("work-dir", ".");
  std::filesystem::create_directories(work_dir);
  Bench b(*wp, seed, scale,
          (work_dir / (std::string(wp->name) + "-" + std::to_string(seed) +
                       "-" + std::to_string(getpid()) + ".lapt"))
              .string());
  struct Cleanup {
    std::string path;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
  } cleanup{b.lapt};
  b.doctor = flags.get_int("doctor", 0) != 0;

  set_up(b);
  std::uint64_t trace_digest = 0;
  {
    const std::unique_ptr<TraceSource> src = open_source(b);
    b.ops = src->meta().total_io_ops;
    b.total_records = src->meta().total_records;
    trace_digest = digest(*src);
  }
  b.specs = run_list(b.w);

  const bool traced = flags.get_int("trace", 0) != 0;
  std::ostringstream detail;
  JsonWriter dw(detail);
  dw.begin_object();
  dw.member("workload", b.w.name);
  dw.member("seed", seed);
  dw.member("trace", traced);
  dw.member("trace_digest", trace_digest);
  dw.member("ops_per_run", b.ops);
  const std::vector<Metric> metrics =
      traced ? traced_pass(b, dw)
             : timed_loop(b, flags.get_double("seconds", 10.0), dw);
  dw.member("setup_reps", static_cast<std::uint64_t>(b.setup.total_s.size()));
  dw.key("errors");
  dw.begin_array();
  for (const std::string& e : b.tally.errors) dw.value(e);
  dw.end_array();
  dw.end_object();
  std::cout << "{\"detail\": " << detail.str() << "}\n";
  print_result(b.tally, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(Flags(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "lap_perfbench: " << e.what() << "\n";
    return 1;
  }
}
