#include "service.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

using namespace edgetune;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// The poller looks at the oldest few unfinished jobs only: the server
// dispatches FIFO within a priority, so the jobs that can be running or
// finished are always among them.
constexpr std::size_t kPollWindow = 8;
constexpr auto kPollInterval = std::chrono::microseconds(200);

}  // namespace

std::vector<JobRecord> drive_server(TuningJobServer& server,
                                    std::vector<Submission> jobs,
                                    bool closed_loop) {
  const Clock::time_point t0 = Clock::now();
  const auto now = [t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  std::vector<JobRecord> records(jobs.size());

  std::mutex mutex;
  std::condition_variable finished_cv;
  std::deque<std::pair<std::size_t, JobId>> outstanding;  // guarded by mutex
  bool submitting = true;                                  // guarded by mutex

  // Only the poller writes dispatch_s/done_s/result, and only for jobs it
  // took from `outstanding`, which the generator filled under the mutex.
  std::thread poller([&] {
    std::unique_lock<std::mutex> lock(mutex);
    while (submitting || !outstanding.empty()) {
      std::vector<std::pair<std::size_t, JobId>> head(
          outstanding.begin(),
          outstanding.begin() +
              static_cast<std::ptrdiff_t>(
                  std::min(kPollWindow, outstanding.size())));
      lock.unlock();
      std::vector<JobId> done;
      for (const auto& [index, id] : head) {
        Result<JobState> state = server.state(id);
        const double t = now();
        JobRecord& r = records[index];
        const bool terminal =
            !state.ok() || state.value() == JobState::kDone ||
            state.value() == JobState::kFailed;
        const bool started =
            terminal || state.value() == JobState::kRunning;
        if (r.dispatch_s < 0 && started) {
          r.dispatch_s = t;
        }
        if (terminal) {
          r.done_s = t;
          r.result = server.wait(id);
          done.push_back(id);
        }
      }
      if (done.empty()) std::this_thread::sleep_for(kPollInterval);
      lock.lock();
      if (!done.empty()) {
        std::erase_if(outstanding, [&](const auto& entry) {
          return std::find(done.begin(), done.end(), entry.second) !=
                 done.end();
        });
        finished_cv.notify_all();
      }
    }
  });

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    JobRecord& r = records[i];
    if (!closed_loop) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(jobs[i].due_s)));
      r.due_s = jobs[i].due_s;
    } else {
      r.due_s = now();
    }
    r.submit_start_s = now();
    Result<JobId> id = server.submit(std::move(jobs[i].request));
    r.submit_end_s = now();
    std::unique_lock<std::mutex> lock(mutex);
    r.admitted = id.ok();
    if (id.ok()) outstanding.emplace_back(i, id.value());
    if (closed_loop) {
      finished_cv.wait(lock, [&] { return outstanding.empty(); });
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    submitting = false;
  }
  poller.join();
  return records;
}

}  // namespace perfbench
