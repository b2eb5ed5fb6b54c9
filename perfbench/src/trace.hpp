// In-memory span recorder for the benchmark's traced run. Spans are taken
// from the benchmark's own files, around its calls into each layer of the
// library; nothing inside the library is instrumented. They are kept in
// memory and written once, at exit, in Chrome trace-event format (which
// Perfetto and chrome://tracing open offline).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace perfbench {

/// One timed interval at a layer boundary. Times are seconds since the
/// tracer was constructed; `parent` is the id of the enclosing span on the
/// same thread (0 for a root), and spans of one tuning job share `job`.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint32_t name = 0;  // index into Tracer::names()
  std::uint32_t job = 0;
  std::uint32_t tid = 0;
  double start_s = 0;
  double end_s = 0;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Interns a span name; thread-safe, returns a stable index.
  std::uint32_t intern(const std::string& name);
  /// Seconds since construction (steady clock).
  [[nodiscard]] double now() const;

  /// Opens a span on construction and closes it on destruction. A null
  /// tracer makes the scope a no-op, so untraced code paths share the code.
  class Scope {
   public:
    Scope(Tracer* tracer, std::uint32_t name, std::uint32_t job);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
    std::uint64_t saved_parent_ = 0;
  };

  /// Records a span the caller timed itself (e.g. a call measured by a
  /// client thread); it is a root unless `parent` is given.
  void record(std::uint32_t name, std::uint32_t job, double start_s,
              double end_s, std::uint64_t parent = 0);

  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::vector<std::string> names() const;

  /// Per span name: the summed durations, the summed self times (duration
  /// minus the part covered by direct children), and the span count.
  struct NameStats {
    double total_s = 0;
    double self_s = 0;
    std::size_t count = 0;
  };
  [[nodiscard]] std::map<std::string, NameStats> stats() const;

  /// Writes every span as a Chrome trace-event "complete" event; pid is the
  /// job id, tid the recording thread.
  [[nodiscard]] edgetune::Status write_chrome(const std::string& path) const;

 private:
  void push(const Span& span);

  const std::uint64_t epoch_ns_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;                        // guarded by mutex_
  std::vector<std::string> names_;                 // guarded by mutex_
  std::map<std::string, std::uint32_t> name_ids_;  // guarded by mutex_
  std::atomic<std::uint64_t> next_id_{1};
};

}  // namespace perfbench
