// Drives a TuningJobServer the way its clients would: submits each job at
// its due time (open loop) or after the previous one finished (closed
// loop), and follows every admitted job to completion by polling its state,
// recording when it was due, submitted, dispatched and done.
#pragma once

#include <optional>
#include <vector>

#include "tuning/job_server.hpp"

namespace perfbench {

struct Submission {
  double due_s = 0;  // seconds after the drive starts; ignored in a closed loop
  edgetune::JobRequest request;
};

struct JobRecord {
  double due_s = 0;
  double submit_start_s = 0;
  double submit_end_s = 0;
  double dispatch_s = -1;  // first poll that saw the job running (or done)
  double done_s = -1;
  bool admitted = false;
  std::optional<edgetune::Result<edgetune::TuningReport>> result;
};

/// Submits `jobs` to `server` and returns one record per job, in order.
/// Times are seconds since the call started.
std::vector<JobRecord> drive_server(edgetune::TuningJobServer& server,
                                    std::vector<Submission> jobs,
                                    bool closed_loop);

}  // namespace perfbench
