#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The innermost open span of this thread: the parent of the next one.
thread_local std::uint64_t tl_current_span = 0;

std::uint32_t thread_tag() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffff);
}

}  // namespace

Tracer::Tracer() : epoch_ns_(steady_ns()) {}

std::uint32_t Tracer::intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] =
      name_ids_.emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

double Tracer::now() const {
  return static_cast<double>(steady_ns() - epoch_ns_) * 1e-9;
}

Tracer::Scope::Scope(Tracer* tracer, std::uint32_t name, std::uint32_t job)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = tl_current_span;
  span_.name = name;
  span_.job = job;
  span_.tid = thread_tag();
  saved_parent_ = tl_current_span;
  tl_current_span = span_.id;
  span_.start_s = tracer_->now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_s = tracer_->now();
  tl_current_span = saved_parent_;
  tracer_->push(span_);
}

void Tracer::record(std::uint32_t name, std::uint32_t job, double start_s,
                    double end_s, std::uint64_t parent) {
  Span span;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = parent;
  span.name = name;
  span.job = job;
  span.tid = thread_tag();
  span.start_s = start_s;
  span.end_s = end_s;
  push(span);
}

void Tracer::push(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<std::string> Tracer::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return names_;
}

std::map<std::string, Tracer::NameStats> Tracer::stats() const {
  const std::vector<Span> all = spans();
  const std::vector<std::string> all_names = names();
  // Children of one parent run on the parent's thread, one after another,
  // so the part of the parent they cover is the sum of their durations.
  std::unordered_map<std::uint64_t, double> child_time;
  for (const Span& s : all) {
    if (s.parent != 0) child_time[s.parent] += s.end_s - s.start_s;
  }
  std::map<std::string, NameStats> out;
  for (const Span& s : all) {
    NameStats& n = out[all_names.at(s.name)];
    const double duration = s.end_s - s.start_s;
    n.total_s += duration;
    auto it = child_time.find(s.id);
    n.self_s += duration - (it == child_time.end() ? 0.0 : it->second);
    ++n.count;
  }
  return out;
}

edgetune::Status Tracer::write_chrome(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<std::string> all_names = names();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return edgetune::Status::unavailable("cannot write trace " + path);
  }
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":%u,\"tid\":%u,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}\n",
                 i == 0 ? "" : ",", all_names.at(s.name).c_str(),
                 s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, s.job, s.tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fputs("]}\n", out);
  const bool ok = std::ferror(out) == 0;
  if (std::fclose(out) != 0 || !ok) {
    return edgetune::Status::unavailable("failed writing trace " + path);
  }
  return edgetune::Status::ok();
}

}  // namespace perfbench
