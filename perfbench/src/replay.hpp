// Traced replay of a finished tuning job. The job itself runs untraced;
// afterwards its committed trials are re-executed through the library's
// public calls with a span around each layer: dataset generation, the
// trial runner (model build, every nn layer's forward and backward, loss,
// SGD step), arch_for, a cold inference tune, the historical cache, the
// trial journal and durable writes. A tensor-level replay times conv
// lowering and GEMM at the proxy models' conv geometries.
#pragma once

#include <string>

#include "trace.hpp"
#include "tuning/historical_cache.hpp"
#include "tuning/model_server.hpp"

namespace perfbench {

/// Conv lowering and GEMM time at the conv geometries of a job's trials,
/// scaled to the number of training steps and evaluation batches each
/// trial ran. Each op is timed once per (trial, conv layer).
struct TensorStats {
  double im2col_2d_s = 0;
  double col2im_2d_s = 0;
  double im2col_1d_s = 0;
  double col2im_1d_s = 0;
  double gemm_nn_s = 0;
  double gemm_tn_s = 0;
  double gemm_nt_s = 0;
  double gemm_flops = 0;
  double lowering_bytes = 0;  // columns written by im2col + read by col2im

  TensorStats& operator+=(const TensorStats& o) {
    im2col_2d_s += o.im2col_2d_s;
    col2im_2d_s += o.col2im_2d_s;
    im2col_1d_s += o.im2col_1d_s;
    col2im_1d_s += o.col2im_1d_s;
    gemm_nn_s += o.gemm_nn_s;
    gemm_tn_s += o.gemm_tn_s;
    gemm_nt_s += o.gemm_nt_s;
    gemm_flops += o.gemm_flops;
    lowering_bytes += o.lowering_bytes;
    return *this;
  }
};

/// What a job replay measured besides its spans.
struct JobReplay {
  /// Sum of the real, untraced TrialRunner::run calls for the job's trials.
  double untraced_trial_s = 0;
  /// Sum of the traced replays of the same trials.
  double traced_trial_s = 0;
  /// FLOPs of the replayed nn work: 3 x forward per training step, plus
  /// the evaluation forwards.
  double train_flops = 0;
  /// Replayed trials whose accuracy differs from the report's trial log
  /// (the replay then did not redo the job's work).
  std::size_t mismatches = 0;
  double tune_cold_s = 0;
  std::size_t evaluate_calls = 0;
  std::size_t journal_records = 0;
  TensorStats tensor;
};

/// Replays `report`, the result of a job run with `options`, on `workers`
/// threads (the job's trial parallelism). `cache` receives the inference
/// results the job's trials looked up, so one cache can follow several
/// jobs the way a shared cache does. Journal and manifest replays write
/// scratch files under `scratch_dir` and delete them.
JobReplay replay_job(const edgetune::EdgeTuneOptions& options,
                     const edgetune::TuningReport& report, int workers,
                     edgetune::HistoricalCache& cache,
                     const std::string& scratch_dir, Tracer& tracer,
                     std::uint32_t job);

/// The layer family an nn layer name is reported under: conv, norm, pool,
/// dense (linear, embedding, rnn) or elementwise. Every family does work on
/// every workload; the trace keeps each Layer::name().
std::string nn_family(const std::string& layer_name);

}  // namespace perfbench
