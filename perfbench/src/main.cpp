// perfbench — the repository's end-to-end tuning benchmark.
//
//   perfbench --workload <ic-serial|od-par|service-mixed> --seed N
//             --seconds S --trace 0|1 [--run-dir DIR] [--digests FILE]
//   perfbench --fingerprint
//
// Drives the library's public API only. With --trace 0 it measures the
// end-to-end metrics of one workload for S seconds; with --trace 1 it runs
// a few of the workload's jobs, replays their work with a span around each
// layer (replay.hpp) and reports per-layer metrics. The last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every job's report is checked: against a recorded digest where one
// applies, structurally otherwise, and (service) against the same request
// run standalone. A wrong report counts as a failed operation.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "device/profile.hpp"
#include "replay.hpp"
#include "service.hpp"
#include "trace.hpp"
#include "tuning/job_server.hpp"
#include "tuning/report_io.hpp"

using namespace edgetune;
using perfbench::JobRecord;
using perfbench::Submission;
using perfbench::Tracer;
using perfbench::drive_server;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Statistics ------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
};

void print_result(const Outcome& o) {
  std::printf("%-32s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : o.metrics) {
    std::printf("%-32s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("ops_failed_frac %.6g (%zu of %zu failed)\n",
              o.attempted > 0 ? static_cast<double>(o.failed) /
                                    static_cast<double>(o.attempted)
                              : 1.0,
              o.failed, o.attempted);
  std::string json = "{\"correct\": ";
  json += (o.failed == 0 && o.attempted > 0) ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(o.attempted);
  json += ", \"failed\": " + std::to_string(o.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", o.metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + o.metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            o.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- Job options and report checks ---------------------------------------

/// The options `edgetune --workload <kind> --trial-workers <n> --seed <s>`
/// runs with: every other flag at its default (tools/edgetune_cli.cpp).
EdgeTuneOptions cli_options(WorkloadKind kind, int trial_workers,
                            std::uint64_t seed, const DeviceProfile& edge) {
  EdgeTuneOptions o;
  o.workload = kind;
  o.search_algorithm = "bohb";
  o.budget_policy = "multi-budget";
  o.tuning_metric = MetricOfInterest::kRuntime;
  o.inference.objective = MetricOfInterest::kEnergy;
  o.inference.algorithm = "grid";
  o.inference.cache_shards = 1;
  o.edge_device = edge;
  o.hyperband.max_resource = 8;
  o.hyperband.eta = 2;
  o.hyperband.max_brackets = 2;
  o.trial_workers = trial_workers;
  o.intra_op_threads = 1;
  o.inference.workers = 2;
  o.runner.proxy_samples = 500;
  o.seed = seed;
  return o;
}

const char* kind_flag(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kImageClassification: return "IC";
    case WorkloadKind::kSpeech: return "SR";
    case WorkloadKind::kNlp: return "NLP";
    case WorkloadKind::kDetection: return "OD";
  }
  return "?";
}

/// The bytes `edgetune --report` writes for a report.
std::string report_bytes(const TuningReport& report) {
  return report_to_json(report).dump_pretty() + "\n";
}

std::string digest_of(const std::string& bytes) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(stable_hash64(bytes)));
  return hex;
}

/// Report bytes depend on the compiler and on the instruction set the
/// library was built for (-march=native), so recorded digests carry this.
std::string build_fingerprint() {
  std::string f = std::string("cxx ") + __VERSION__;
#ifdef __FMA__
  f += " fma";
#endif
#ifdef __AVX2__
  f += " avx2";
#endif
#ifdef __AVX512F__
  f += " avx512f";
#endif
#ifdef __aarch64__
  f += " aarch64";
#endif
  return f;
}

/// Recorded report digests (record_digests.py): "<kind> <trial workers>
/// <edge device> <seed>" -> digest, valid for the build fingerprint they
/// were taken with.
struct Digests {
  bool applies = false;
  std::map<std::string, std::string> by_job;
};

Digests load_digests(const std::string& path) {
  Digests d;
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  Result<Json> json = Json::parse(text.str());
  if (!json.ok() || !json.value().is_object()) {
    std::fprintf(stderr, "perfbench: no usable digests in %s\n", path.c_str());
    return d;
  }
  d.applies =
      json.value().get_string("fingerprint", "") == build_fingerprint();
  if (const Json* jobs = json.value().find("jobs");
      jobs != nullptr && jobs->is_object()) {
    for (const auto& [key, value] : jobs->as_object()) {
      if (value.is_string()) d.by_job[key] = value.as_string();
    }
  }
  if (!d.applies) {
    std::fprintf(stderr,
                 "perfbench: recorded digests are for another build (%s); "
                 "checking reports structurally\n",
                 json.value().get_string("fingerprint", "?").c_str());
  }
  return d;
}

std::string job_key(const EdgeTuneOptions& o) {
  return std::string(kind_flag(o.workload)) + " " +
         std::to_string(o.trial_workers) + " " + o.edge_device.name + " " +
         std::to_string(o.seed);
}

/// Checks that hold for every clean report of these options.
bool structurally_sound(const TuningReport& r) {
  if (r.system != "edgetune" || r.trials.empty() || r.failed_trials != 0) {
    return false;
  }
  if (!std::isfinite(r.best_objective) || r.tuning_runtime_s <= 0 ||
      r.inference.throughput_sps <= 0) {
    return false;
  }
  double best = std::numeric_limits<double>::infinity();
  for (const TrialLog& t : r.trials) {
    if (t.failed() || t.accuracy < 0 || t.accuracy > 1) return false;
    best = std::min(best, t.objective);
  }
  return best == r.best_objective;
}

/// Checks one job's report: the recorded digest when one applies,
/// the structural checks otherwise, and in every case the same digest as
/// earlier runs of the same job in this process.
class ReportChecker {
 public:
  explicit ReportChecker(Digests digests) : digests_(std::move(digests)) {}

  bool check(const EdgeTuneOptions& o, const TuningReport& r) {
    const std::string key = job_key(o);
    const std::string digest = digest_of(report_bytes(r));
    auto [seen, fresh] = seen_.emplace(key, digest);
    if (!fresh && seen->second != digest) {
      std::fprintf(stderr, "perfbench: job %s repeated with another report\n",
                   key.c_str());
      return false;
    }
    auto recorded = digests_.by_job.find(key);
    if (digests_.applies && recorded != digests_.by_job.end()) {
      if (recorded->second == digest) return true;
      std::fprintf(stderr, "perfbench: job %s digest %s, recorded %s\n",
                   key.c_str(), digest.c_str(), recorded->second.c_str());
      return false;
    }
    if (!structurally_sound(r)) {
      std::fprintf(stderr, "perfbench: job %s report fails structural checks\n",
                   key.c_str());
      return false;
    }
    return true;
  }

 private:
  Digests digests_;
  std::map<std::string, std::string> seen_;
};

// --- Workloads ---------------------------------------------------------------

constexpr int kSetupsPerJob = 4;
constexpr int kServiceRestarts = 25;

/// A closed-loop workload: one client runs EdgeTune jobs back to back,
/// cycling through a fixed pool of job seeds in an order drawn from the
/// benchmark seed. The pool is fixed so every run does the same work;
/// the seed sets the order and which jobs repeat.
struct ClosedLoop {
  WorkloadKind kind;
  int trial_workers;
  std::vector<std::uint64_t> job_seeds;
  std::size_t traced_jobs;  // jobs the --trace 1 run replays
};

const ClosedLoop kIcSerial{WorkloadKind::kImageClassification, 1,
                           {7, 1, 2, 3}, 2};
const ClosedLoop kOdPar{WorkloadKind::kDetection, 3,
                        {7, 1, 2, 3, 4, 5, 6, 8}, 4};

/// Moves the calling thread to the next allowed CPU every kRotateEvery
/// while alive. Threads it starts meanwhile inherit its one-CPU mask, so
/// only wrap code that starts none. The vCPUs of a shared virtual machine
/// are not equally fast (on a 4-vCPU host, the IC job pinned to one of them
/// ran 40% slower than on the others), and a single busy thread stays on
/// the CPU it started on, so without this a serial run's time depends on
/// where the scheduler first put it. Visiting every CPU in turn gives every
/// run the same mix.
class CpuRotation {
 public:
  CpuRotation() : target_(pthread_self()) {
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
    if (cpus_.size() < 2) return;
    thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mutex_);
      for (std::size_t i = 0; !stop_; ++i) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[i % cpus_.size()], &one);
        pthread_setaffinity_np(target_, sizeof(one), &one);
        stop_cv_.wait_for(lock, kRotateEvery, [this] { return stop_; });
      }
    });
  }
  ~CpuRotation() {
    if (thread_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
      }
      stop_cv_.notify_all();
      thread_.join();
      pthread_setaffinity_np(target_, sizeof(original_), &original_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  static constexpr auto kRotateEvery = std::chrono::milliseconds(100);
  pthread_t target_;
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::mutex mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;  // guarded by mutex_
  std::thread thread_;  // last: started after the members it reads
};

std::vector<std::uint64_t> seed_order(std::vector<std::uint64_t> pool,
                                      std::uint64_t seed) {
  Rng rng(seed ^ 0x0bde7u);
  for (std::size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.bounded(i)]);
  }
  return pool;
}

Outcome run_closed_loop(const ClosedLoop& w, std::uint64_t seed,
                        double seconds, const Digests& digests) {
  const std::vector<std::uint64_t> order = seed_order(w.job_seeds, seed);
  const DeviceProfile edge = device_rpi3b();
  ReportChecker checker(digests);
  Outcome out;

  std::map<std::uint64_t, std::vector<double>> walls;  // by job seed
  std::map<std::uint64_t, std::size_t> trials;
  std::vector<double> setup;
  const Clock::time_point begin = Clock::now();
  for (std::size_t i = 0;
       i < order.size() || seconds_since(begin) < seconds; ++i) {
    const EdgeTuneOptions o =
        cli_options(w.kind, w.trial_workers, order[i % order.size()], edge);
    // Set-up is sampled before every job, so its samples spread over the
    // run like the jobs do; the last tuner built runs the job.
    std::unique_ptr<EdgeTune> tuner;
    for (int k = 0; k < kSetupsPerJob; ++k) {
      tuner.reset();
      const Clock::time_point start = Clock::now();
      tuner = std::make_unique<EdgeTune>(o);
      setup.push_back(seconds_since(start));
    }
    // A serial job's trials run on this thread. The rotation starts after
    // construction, so the threads EdgeTune starts keep every CPU.
    std::optional<CpuRotation> rotation;
    if (w.trial_workers == 1) rotation.emplace();
    const Clock::time_point start = Clock::now();
    Result<TuningReport> report = tuner->run();
    const double wall = seconds_since(start);
    rotation.reset();
    ++out.attempted;
    if (!report.ok() || !checker.check(o, report.value())) {
      ++out.failed;
      continue;
    }
    walls[o.seed].push_back(wall);
    trials[o.seed] = report.value().trials.size();
  }

  // Each pool seed counts once, with its repeats averaged, so the measured
  // work is the same whichever jobs the seed made repeat.
  std::vector<double> per_job;
  double wall_sum = 0;
  double trial_sum = 0;
  for (const auto& [job_seed, v] : walls) {
    per_job.push_back(mean(v));
    wall_sum += per_job.back();
    trial_sum += static_cast<double>(trials[job_seed]);
  }
  if (per_job.empty()) per_job.push_back(0);
  out.metrics = {
      {"setup_s", median(setup), "s"},
      {"tune_s", median(per_job), "s"},
      {"trials_per_s", wall_sum > 0 ? trial_sum / wall_sum : 0, "trials/s"},
      {"job_p50_ms", 1e3 * median(per_job), "ms"},
      {"job_p90_ms", 1e3 * quantile(per_job, 0.9), "ms"},
      {"svc_jobs_per_s",
       wall_sum > 0 ? static_cast<double>(walls.size()) / wall_sum : 0,
       "jobs/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::printf("closed loop: %zu jobs over %zu job seeds, %.1f s\n",
              out.attempted, walls.size(), seconds_since(begin));
  return out;
}

// --- service-mixed ---------------------------------------------------------

/// Four tenants submit small jobs to a 2-worker TuningJobServer that
/// journals every job it can (journal_dir). Tenants 0 and 1 send plain
/// requests, which the server journals with a private cache; tenants 2 and
/// 3 bring a shared, persisted 4-shard HistoricalCache (the server hands
/// its own shared cache to no journaled job, so sharing tenants bring one).
/// One job in 4 is SR (Conv1D), the rest NLP (RNN), spread evenly over
/// three edge devices and a pool of three job seeds, so jobs reuse each
/// other's cached inference results.
constexpr int kServiceWorkers = 2;
// The open-loop rate is a fifth of the mix's capacity on an idle 4-vCPU
// host, low enough that losing half the CPU to neighbours does not turn the
// latency percentiles into queueing measurements. Its share of the run gives
// the p90 at least ten samples beyond it at 30 s.
constexpr double kOpenLoopRate = 4.0;        // jobs/s
constexpr double kOpenLoopShare = 0.85;      // of --seconds
constexpr int kServiceRounds = 3;
constexpr std::size_t kServiceBlock = 36;  // 9 SR + 27 NLP jobs; one burst
constexpr std::uint64_t kServiceSeeds[] = {1, 2, 3};

struct ServiceJob {
  WorkloadKind kind;
  int device;
  std::uint64_t job_seed;
  int tenant;
  [[nodiscard]] bool shares_cache() const { return tenant >= 2; }
  [[nodiscard]] std::string key() const {
    return std::string(kind_flag(kind)) + "/" + std::to_string(device) + "/" +
           std::to_string(job_seed);
  }
};

const std::vector<DeviceProfile>& service_devices() {
  static const std::vector<DeviceProfile> devices = {
      device_rpi3b(), device_armv7(), device_i7_7567u()};
  return devices;
}

/// Jobs of the seed's request stream: blocks of kServiceBlock jobs, each
/// holding every (device, job seed) pair once as SR and three times as NLP,
/// in a seeded order. Every run serves the same mix; the seed sets its
/// order, which tenant sends each job (by position), and the arrival times.
std::vector<ServiceJob> service_jobs(Rng& rng, std::size_t n) {
  std::vector<ServiceJob> block;
  for (int device = 0; device < 3; ++device) {
    for (std::uint64_t job_seed : kServiceSeeds) {
      block.push_back({WorkloadKind::kSpeech, device, job_seed, 0});
      for (int k = 0; k < 3; ++k) {
        block.push_back({WorkloadKind::kNlp, device, job_seed, 0});
      }
    }
  }
  std::vector<ServiceJob> jobs;
  while (jobs.size() < n) {
    for (std::size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[rng.bounded(i)]);
    }
    jobs.insert(jobs.end(), block.begin(), block.end());
  }
  jobs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs[i].tenant = static_cast<int>(i % 4);
  }
  return jobs;
}

EdgeTuneOptions service_options(const ServiceJob& j) {
  return cli_options(j.kind, 1, j.job_seed,
                     service_devices()[static_cast<std::size_t>(j.device)]);
}

/// Drops the report fields a shared cache may change (DESIGN §5.7): the
/// cache counters, whether and how long each trial's inference tuning ran
/// or stalled, and the totals those feed.
Json without_cache_fields(Json report) {
  JsonObject& root = report.as_object();
  for (const char* key :
       {"cache_hits", "cache_misses", "tuning_runtime_s", "tuning_energy_j"}) {
    root.erase(key);
  }
  if (auto it = root.find("inference");
      it != root.end() && it->second.is_object()) {
    for (const char* key : {"from_cache", "tuning_time_s", "tuning_energy_j"}) {
      it->second.as_object().erase(key);
    }
  }
  if (auto it = root.find("trials");
      it != root.end() && it->second.is_array()) {
    for (Json& trial : it->second.as_array()) {
      if (!trial.is_object()) continue;
      for (const char* key :
           {"inference_cached", "inference_tuning_s", "inference_stall_s"}) {
        trial.as_object().erase(key);
      }
    }
  }
  return report;
}

struct Reference {
  Json full;  // null when the standalone run failed its check
  Json comparable;
};

/// Runs every distinct request standalone (private in-memory cache, no
/// journal): the reports service jobs are compared against. Each is itself
/// checked like a closed-loop job's report; one that fails the check fails
/// every job compared against it.
std::map<std::string, Reference> run_references(
    const std::vector<ServiceJob>& jobs, ReportChecker& checker) {
  std::map<std::string, Reference> refs;
  for (const ServiceJob& j : jobs) {
    if (refs.count(j.key()) > 0) continue;
    const EdgeTuneOptions options = service_options(j);
    Result<TuningReport> report = EdgeTune(options).run();
    Reference ref;
    if (report.ok() && checker.check(options, report.value())) {
      ref.full = report_to_json(report.value());
      ref.comparable = without_cache_fields(ref.full);
    }
    refs.emplace(j.key(), std::move(ref));
  }
  return refs;
}

bool matches_reference(const ServiceJob& j, const JobRecord& r,
                       const std::map<std::string, Reference>& refs) {
  if (!r.admitted || !r.result.has_value() || !r.result->ok()) return false;
  const Reference& ref = refs.at(j.key());
  if (ref.full.is_null()) return false;
  const Json got = report_to_json(r.result->value());
  return j.shares_cache() ? without_cache_fields(got) == ref.comparable
                          : got == ref.full;
}

struct ServiceStack {
  TuningServiceOptions server_options;
  std::string cache_path;
  std::shared_ptr<HistoricalCache> cache;
  std::unique_ptr<TuningJobServer> server;

  explicit ServiceStack(const std::string& run_dir) {
    server_options.workers = kServiceWorkers;
    server_options.journal_dir = run_dir + "/journal";
    cache_path = run_dir + "/cache.json";
  }
  void start() {
    cache = std::make_shared<HistoricalCache>(cache_path, 16, 4);
    server = std::make_unique<TuningJobServer>(server_options);
  }
  [[nodiscard]] JobRequest request(const ServiceJob& j) const {
    JobRequest r;
    r.options = service_options(j);
    r.tenant = "tenant" + std::to_string(j.tenant);
    if (j.shares_cache()) r.options.inference.shared_cache = cache;
    return r;
  }
};

std::vector<Submission> open_loop(const ServiceStack& stack,
                                  const std::vector<ServiceJob>& jobs,
                                  Rng& rng) {
  std::vector<Submission> subs;
  double due = 0;
  for (const ServiceJob& j : jobs) {
    due += -std::log(1.0 - rng.uniform()) / kOpenLoopRate;  // Poisson
    subs.push_back({due, stack.request(j)});
  }
  return subs;
}

/// A burst's service rate while both workers were busy: jobs finished by
/// the time the last job was dispatched, over that time. The drain after it
/// (one worker finishing the last job alone) depends on which job came last.
struct BurstRate {
  double jobs_per_s = 0;
  double trials_per_s = 0;
  double mean_run_s = 0;  // dispatch to done, over the burst's jobs
};

BurstRate burst_rate(const std::vector<JobRecord>& records) {
  BurstRate rate;
  double last_dispatch = 0;
  std::vector<double> run;
  for (const JobRecord& r : records) {
    if (r.done_s < 0) continue;
    last_dispatch = std::max(last_dispatch, r.dispatch_s);
    run.push_back(r.done_s - r.dispatch_s);
  }
  double jobs = 0;
  double trials = 0;
  for (const JobRecord& r : records) {
    if (r.done_s < 0 || r.done_s > last_dispatch) continue;
    ++jobs;
    if (r.result.has_value() && r.result->ok()) {
      trials += static_cast<double>(r.result->value().trials.size());
    }
  }
  if (last_dispatch > 0) {
    rate.jobs_per_s = jobs / last_dispatch;
    rate.trials_per_s = trials / last_dispatch;
  }
  rate.mean_run_s = mean(run);
  return rate;
}

Outcome run_service(std::uint64_t seed, double seconds,
                    const Digests& digests, const std::string& run_dir) {
  Rng rng(seed ^ 0x5e7c1u);
  const auto open_n = static_cast<std::size_t>(
      std::lround(kOpenLoopRate * kOpenLoopShare * seconds));
  const std::vector<ServiceJob> open_jobs = service_jobs(rng, open_n);
  std::vector<std::vector<ServiceJob>> bursts;
  std::vector<ServiceJob> all = open_jobs;
  for (int round = 0; round < kServiceRounds; ++round) {
    bursts.push_back(service_jobs(rng, kServiceBlock));
    all.insert(all.end(), bursts.back().begin(), bursts.back().end());
  }
  ReportChecker checker(digests);
  const std::map<std::string, Reference> refs = run_references(all, checker);

  ServiceStack stack(run_dir);
  stack.start();
  Outcome out;
  const auto drive = [&](std::vector<ServiceJob> jobs, bool burst) {
    std::vector<Submission> subs;
    if (burst) {
      for (const ServiceJob& j : jobs) subs.push_back({0, stack.request(j)});
    } else {
      subs = open_loop(stack, jobs, rng);
    }
    std::vector<JobRecord> records =
        drive_server(*stack.server, std::move(subs), /*closed_loop=*/false);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ++out.attempted;
      if (!matches_reference(jobs[i], records[i], refs)) {
        ++out.failed;
        std::fprintf(stderr, "perfbench: service job (%s) %s\n",
                     jobs[i].key().c_str(),
                     records[i].admitted ? "report differs from standalone"
                                         : "was rejected");
      }
    }
    return records;
  };

  // The open loop and the burst alternate over kServiceRounds rounds, and
  // each burst-phase metric is the median over rounds, so one stretch of
  // lost CPU (a neighbour on the host) moves at most one round.
  std::vector<double> latency;
  std::vector<double> lateness;
  std::vector<double> jobs_per_s, trials_per_s, mean_run_s;
  for (int round = 0; round < kServiceRounds; ++round) {
    const std::vector<ServiceJob> segment(
        open_jobs.begin() + open_n * round / kServiceRounds,
        open_jobs.begin() + open_n * (round + 1) / kServiceRounds);
    for (const JobRecord& r : drive(segment, false)) {
      if (r.done_s >= 0) latency.push_back(r.done_s - r.due_s);
      lateness.push_back(r.submit_start_s - r.due_s);
    }
    const BurstRate rate = burst_rate(drive(bursts[round], true));
    jobs_per_s.push_back(rate.jobs_per_s);
    trials_per_s.push_back(rate.trials_per_s);
    mean_run_s.push_back(rate.mean_run_s);
  }
  if (latency.empty()) latency.push_back(0);

  // Set-up: restart the serving stack over the state this run persisted.
  (void)stack.cache->save();
  // Spread over time, so the samples are not all taken on one CPU.
  std::vector<double> setup;
  for (int k = 0; k < kServiceRestarts; ++k) {
    ServiceStack restart(run_dir);
    const Clock::time_point start = Clock::now();
    restart.start();
    setup.push_back(seconds_since(start));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  out.metrics = {
      {"setup_s", median(setup), "s"},
      {"tune_s", median(mean_run_s), "s"},
      {"trials_per_s", median(trials_per_s), "trials/s"},
      {"job_p50_ms", 1e3 * median(latency), "ms"},
      {"job_p90_ms", 1e3 * quantile(latency, 0.9), "ms"},
      {"svc_jobs_per_s", median(jobs_per_s), "jobs/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::printf(
      "service: %d rounds; %zu open-loop jobs at %.1f/s (%zu latency "
      "samples, generator late p50 %.3f ms, max %.3f ms); bursts of %zu "
      "jobs (jobs/s per round:",
      kServiceRounds, open_n, kOpenLoopRate, latency.size(),
      1e3 * median(lateness), 1e3 * quantile(lateness, 1.0), kServiceBlock);
  for (double r : jobs_per_s) std::printf(" %.2f", r);
  std::printf("); %zu standalone references\n", refs.size());
  return out;
}

// --- Traced run --------------------------------------------------------------

struct TracedJob {
  EdgeTuneOptions options;  // as submitted
  int workers = 1;
  bool journaled = false;
};

/// Runs `jobs` through `server` (closed or open loop), replays each one,
/// and reports the per-layer metrics. In a closed loop each job is replayed
/// right after it ran, so the job and its replay see the same host.
Outcome traced_run(
    TuningJobServer& server, std::vector<Submission> subs,
    const std::vector<TracedJob>& jobs, bool closed_loop,
    const std::function<bool(std::size_t, const JobRecord&)>& check,
    const std::string& run_dir) {
  Tracer tracer;
  const std::uint32_t submit_id = tracer.intern("job_server.submit");
  const std::uint32_t wait_id = tracer.intern("job_server.queue_wait");
  std::vector<JobRecord> records(subs.size());
  std::vector<double> drive_offset(subs.size());  // tracer time of drive start

  Outcome out;
  HistoricalCache replay_cache(run_dir + "/replay-cache.json", 16, 4);
  double untraced = 0, traced = 0, train_flops = 0, tune_cold = 0;
  double evaluate_calls = 0, journal_records = 0, hits = 0, lookups = 0;
  perfbench::TensorStats tensor;
  std::vector<double> submit_us, queue_ms;
  std::vector<bool> replayed(records.size(), false);
  const auto replay = [&](std::size_t i) {
    const JobRecord& r = records[i];
    ++out.attempted;
    if (!check(i, r)) {
      ++out.failed;
      return;
    }
    replayed[i] = true;
    const auto job = static_cast<std::uint32_t>(i + 1);
    tracer.record(submit_id, job, drive_offset[i] + r.submit_start_s,
                  drive_offset[i] + r.submit_end_s);
    tracer.record(wait_id, job, drive_offset[i] + r.submit_end_s,
                  drive_offset[i] + r.dispatch_s);
    submit_us.push_back(1e6 * (r.submit_end_s - r.submit_start_s));
    queue_ms.push_back(1e3 * (r.dispatch_s - r.submit_end_s));
    const TuningReport& report = r.result->value();
    hits += static_cast<double>(report.cache_hits);
    lookups += static_cast<double>(report.cache_hits + report.cache_misses);
    const perfbench::JobReplay rep =
        perfbench::replay_job(jobs[i].options, report, jobs[i].workers,
                              replay_cache, run_dir, tracer, job);
    if (rep.mismatches > 0) {
      ++out.failed;
      std::fprintf(stderr,
                   "perfbench: replay of job %zu diverged (%zu mismatches)\n",
                   i, rep.mismatches);
    }
    untraced += rep.untraced_trial_s;
    traced += rep.traced_trial_s;
    train_flops += rep.train_flops;
    tune_cold += rep.tune_cold_s;
    evaluate_calls += static_cast<double>(rep.evaluate_calls);
    journal_records += static_cast<double>(rep.journal_records);
    tensor += rep.tensor;
  };
  if (closed_loop) {
    for (std::size_t i = 0; i < subs.size(); ++i) {
      std::vector<Submission> one;
      one.push_back(std::move(subs[i]));
      drive_offset[i] = tracer.now();
      records[i] = std::move(drive_server(server, std::move(one), true)[0]);
      replay(i);
    }
  } else {
    std::fill(drive_offset.begin(), drive_offset.end(), tracer.now());
    records = drive_server(server, std::move(subs), false);
    for (std::size_t i = 0; i < records.size(); ++i) replay(i);
  }

  // Wall decomposition per job: the serial steps, plus the trial-parallel
  // steps divided by the job's trial workers, plus the residual (search,
  // commit walk, scheduling, contention) make up the job's wall time.
  const std::vector<perfbench::Span> spans = tracer.spans();
  const std::vector<std::string> names = tracer.names();
  std::map<std::uint32_t, double> serial, parallel;
  for (const perfbench::Span& s : spans) {
    if (s.parent != 0 || s.job == 0) continue;
    const std::string& n = names[s.name];
    const TracedJob& j = jobs[s.job - 1];
    const double d = s.end_s - s.start_s;
    if (n == "trial_runner.run" || n == "models.arch_for") {
      parallel[s.job] += d;
    } else if (n == "job_server.submit" || n == "job_server.queue_wait" ||
               n == "data.make_workload_data" ||
               (j.journaled && n.rfind("journal.", 0) == 0)) {
      serial[s.job] += d;
    }
  }
  double wall_sum = 0, serial_sum = 0, parallel_share = 0;
  double parallel_work = 0, parallel_span = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto job = static_cast<std::uint32_t>(i + 1);
    if (!replayed[i]) continue;
    const double wall = records[i].done_s - records[i].submit_start_s;
    const double w = jobs[i].workers;
    wall_sum += wall;
    serial_sum += serial[job];
    parallel_share += parallel[job] / w;
    parallel_work += parallel[job];
    parallel_span += w * (wall - serial[job]);
  }
  const double residual = wall_sum - serial_sum - parallel_share;

  const std::map<std::string, Tracer::NameStats> stats = tracer.stats();
  const auto total = [&](const std::string& n) {
    auto it = stats.find(n);
    return it == stats.end() ? 0.0 : it->second.total_s;
  };
  const auto self = [&](const std::string& n) {
    auto it = stats.find(n);
    return it == stats.end() ? 0.0 : it->second.self_s;
  };
  const auto per_call = [&](const std::string& n, double scale) {
    auto it = stats.find(n);
    return it == stats.end() || it->second.count == 0
               ? 0.0
               : scale * it->second.total_s /
                     static_cast<double>(it->second.count);
  };
  std::map<std::string, double> family;
  double nn_s = 0;
  for (const auto& [n, s] : stats) {
    if (n.rfind("nn.", 0) != 0 || n == "nn.loss" || n == "nn.sgd.step") {
      continue;
    }
    const std::size_t dot = n.rfind('.');
    const std::string layer = n.substr(3, dot - 3);
    family["nn." + perfbench::nn_family(layer) + n.substr(dot) + "_s"] +=
        s.self_s;
    nn_s += s.self_s;
  }
  const double gemm_s = tensor.gemm_nn_s + tensor.gemm_tn_s + tensor.gemm_nt_s;
  if (submit_us.empty()) submit_us.push_back(0);
  if (queue_ms.empty()) queue_ms.push_back(0);

  out.metrics = {
      {"job.wall_s", wall_sum, "s"},
      {"model_server.residual_s", residual, "s"},
      {"model_server.parallel_efficiency",
       parallel_span > 0 ? parallel_work / parallel_span : 0, "fraction"},
      {"trial_runner.run_s", untraced, "s"},
      {"trial_runner.self_s",
       self("trial_runner.run") + self("trial_runner.evaluate") +
           total("device.train_epoch_cost"),
       "s"},
      {"models.build_s", total("models.build"), "s"},
      {"models.arch_for_s", total("models.arch_for"), "s"},
      {"data.make_workload_data_s", total("data.make_workload_data"), "s"},
  };
  for (const char* f : {"conv", "norm", "elementwise", "pool", "dense"}) {
    for (const char* dir : {".fwd_s", ".bwd_s"}) {
      const std::string name = std::string("nn.") + f + dir;
      out.metrics.push_back({name, family[name], "s"});
    }
  }
  const std::vector<Metric> rest = {
      {"nn.loss_s", total("nn.loss"), "s"},
      {"nn.sgd.step_s", total("nn.sgd.step"), "s"},
      {"nn.train_gflops", nn_s > 0 ? train_flops / nn_s / 1e9 : 0, "GFLOP/s"},
      {"tensor.im2col_s", tensor.im2col_2d_s + tensor.im2col_1d_s, "s"},
      {"tensor.col2im_s", tensor.col2im_2d_s + tensor.col2im_1d_s, "s"},
      {"tensor.gemm_nn_s", tensor.gemm_nn_s, "s"},
      {"tensor.gemm_tn_s", tensor.gemm_tn_s, "s"},
      {"tensor.gemm_nt_s", tensor.gemm_nt_s, "s"},
      {"tensor.lowering_bytes", tensor.lowering_bytes, "bytes"},
      {"tensor.gemm_gflops", gemm_s > 0 ? tensor.gemm_flops / gemm_s / 1e9 : 0,
       "GFLOP/s"},
      {"inference_server.tune_cold_s", tune_cold, "s"},
      {"inference_server.evaluate_calls", evaluate_calls, "count"},
      {"historical_cache.lookup_us", per_call("historical_cache.lookup", 1e6),
       "us"},
      {"historical_cache.insert_us", per_call("historical_cache.insert", 1e6),
       "us"},
      {"historical_cache.flush_ms", per_call("historical_cache.flush", 1e3),
       "ms"},
      {"historical_cache.hit_ratio", lookups > 0 ? hits / lookups : 0,
       "fraction"},
      {"journal.append_us", per_call("journal.append", 1e6), "us"},
      {"journal.fsync_ms", per_call("journal.fsync", 1e3), "ms"},
      {"journal.records", journal_records, "count"},
      {"durable_io.write_ms", per_call("durable_io.write", 1e3), "ms"},
      {"job_server.submit_us", median(submit_us), "us"},
      {"job_server.queue_wait_ms", median(queue_ms), "ms"},
      {"trace.overhead_frac", untraced > 0 ? traced / untraced - 1 : 0,
       "fraction"},
      {"trace.spans", static_cast<double>(spans.size()), "count"},
  };
  out.metrics.insert(out.metrics.end(), rest.begin(), rest.end());

  // Self time per span name, largest first, with the 1-D/2-D lowering split.
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [n, s] : stats) rows.emplace_back(s.self_s, n);
  std::sort(rows.rbegin(), rows.rend());
  std::printf("%-36s %12s %12s %10s\n", "span", "self_s", "total_s", "count");
  for (const auto& [self_s, n] : rows) {
    std::printf("%-36s %12.6f %12.6f %10zu\n", n.c_str(), self_s,
                stats.at(n).total_s, stats.at(n).count);
  }
  std::printf("tensor lowering: im2col 2-D %.6f s, 1-D %.6f s; col2im 2-D "
              "%.6f s, 1-D %.6f s\n",
              tensor.im2col_2d_s, tensor.im2col_1d_s, tensor.col2im_2d_s,
              tensor.col2im_1d_s);
  std::printf("wall decomposition: jobs %.6f s = serial spans %.6f + "
              "parallel spans / workers %.6f + residual %.6f\n",
              wall_sum, serial_sum, parallel_share, residual);
  std::printf("tracing overhead: traced trial replays %.6f s vs untraced "
              "TrialRunner::run %.6f s\n",
              traced, untraced);
  const std::string trace_path = run_dir + "/trace.json";
  if (Status s = tracer.write_chrome(trace_path); !s.is_ok()) {
    std::fprintf(stderr, "perfbench: %s\n", s.to_string().c_str());
    ++out.failed;
  } else {
    std::printf("trace written to %s\n", trace_path.c_str());
  }
  return out;
}

Outcome trace_closed_loop(const ClosedLoop& w, std::uint64_t seed,
                          const Digests& digests, const std::string& run_dir) {
  const std::vector<std::uint64_t> order = seed_order(w.job_seeds, seed);
  TuningJobServer server(1);
  std::vector<Submission> subs;
  std::vector<TracedJob> jobs;
  for (std::size_t i = 0; i < w.traced_jobs; ++i) {
    TracedJob j;
    j.options = cli_options(w.kind, w.trial_workers, order[i % order.size()],
                            device_rpi3b());
    j.workers = w.trial_workers;
    jobs.push_back(j);
    JobRequest r;
    r.options = j.options;
    subs.push_back({0, std::move(r)});
  }
  ReportChecker checker(digests);
  return traced_run(
      server, std::move(subs), jobs, /*closed_loop=*/true,
      [&](std::size_t i, const JobRecord& r) {
        return r.admitted && r.result.has_value() && r.result->ok() &&
               checker.check(jobs[i].options, r.result->value());
      },
      run_dir);
}

Outcome trace_service(std::uint64_t seed, const Digests& digests,
                      const std::string& run_dir) {
  constexpr std::size_t kTracedJobs = 16;
  Rng rng(seed ^ 0x5e7c1u);
  const std::vector<ServiceJob> service = service_jobs(rng, kTracedJobs);
  ReportChecker checker(digests);
  const std::map<std::string, Reference> refs =
      run_references(service, checker);
  ServiceStack stack(run_dir);
  stack.start();
  std::vector<Submission> subs = open_loop(stack, service, rng);
  std::vector<TracedJob> jobs;
  for (const ServiceJob& j : service) {
    TracedJob t;
    t.options = service_options(j);
    t.journaled = !j.shares_cache();
    jobs.push_back(t);
  }
  return traced_run(
      *stack.server, std::move(subs), jobs, /*closed_loop=*/false,
      [&](std::size_t i, const JobRecord& r) {
        return matches_reference(service[i], r, refs);
      },
      run_dir);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.define("workload", "", "ic-serial | od-par | service-mixed")
      .define("seed", "1", "benchmark seed")
      .define("seconds", "30", "measured seconds")
      .define("trace", "0", "1 = traced per-layer run")
      .define("run-dir", ".bench_run/run", "scratch and trace directory")
      .define("digests", "perfbench/digests.json", "recorded report digests")
      .define("fingerprint", "false", "print the build fingerprint and exit")
      .define("help", "false", "print this help");
  if (Status s = flags.parse(argc, argv); !s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 2;
  }
  if (flags.get_bool("help")) {
    std::printf("perfbench\n\n%s", flags.help().c_str());
    return 0;
  }
  if (flags.get_bool("fingerprint")) {
    std::printf("%s\n", build_fingerprint().c_str());
    return 0;
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing a %s build; build Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  const std::string workload = flags.get("workload");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const double seconds = flags.get_double("seconds");
  const bool trace = flags.get_int("trace") != 0;
  const std::string run_dir = flags.get("run-dir");
  if (seconds <= 0) {
    std::fprintf(stderr, "--seconds must be > 0\n");
    return 2;
  }
  ::mkdir(run_dir.c_str(), 0755);
  set_log_level(LogLevel::kError);

  // Busy threads: a job's trial workers, or the server's job workers.
  const int threads = workload == "od-par"          ? kOdPar.trial_workers
                      : workload == "service-mixed" ? kServiceWorkers
                                                    : 1;
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("build: %s, flags \"%s\", fingerprint \"%s\"; nproc %u\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
              build_fingerprint().c_str(), cores);
  if (cores > 0 && static_cast<unsigned>(threads) > cores) {
    std::fprintf(stderr, "perfbench: %s needs %d cores, host has %u\n",
                 workload.c_str(), threads, cores);
    return 2;
  }

  if (workload != "ic-serial" && workload != "od-par" &&
      workload != "service-mixed") {
    std::fprintf(stderr, "unknown --workload \"%s\"\n", workload.c_str());
    return 2;
  }
  const Digests digests = load_digests(flags.get("digests"));
  Outcome out;
  if (workload == "service-mixed") {
    out = trace ? trace_service(seed, digests, run_dir)
                : run_service(seed, seconds, digests, run_dir);
  } else {
    const ClosedLoop& w = workload == "ic-serial" ? kIcSerial : kOdPar;
    out = trace ? trace_closed_loop(w, seed, digests, run_dir)
                : run_closed_loop(w, seed, seconds, digests);
  }
  print_result(out);
  return 0;
}
