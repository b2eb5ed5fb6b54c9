#include "replay.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common/durable_io.hpp"
#include "common/fault.hpp"
#include "data/synthetic.hpp"
#include "data/trainer.hpp"
#include "models/models.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tuning/fleet.hpp"
#include "tuning/job_server.hpp"
#include "tuning/journal.hpp"

using namespace edgetune;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Forwards to a layer the model owns, with a span around forward and
/// backward. Wrapping every top-level layer of a Sequential computes the
/// same floats in the same order as the bare model.
class TracedLayer : public Layer {
 public:
  TracedLayer(Layer& inner, Tracer& tracer, std::uint32_t job)
      : inner_(inner),
        tracer_(tracer),
        job_(job),
        fwd_(tracer.intern("nn." + inner.name() + ".fwd")),
        bwd_(tracer.intern("nn." + inner.name() + ".bwd")) {}

  Tensor forward(const Tensor& input, bool training) override {
    Tracer::Scope span(&tracer_, fwd_, job_);
    return inner_.forward(input, training);
  }
  Tensor backward(const Tensor& grad_output) override {
    Tracer::Scope span(&tracer_, bwd_, job_);
    return inner_.backward(grad_output);
  }
  std::vector<ParamRef> params() override { return inner_.params(); }
  [[nodiscard]] LayerInfo describe(const Shape& input_shape) const override {
    return inner_.describe(input_shape);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  Layer& inner_;
  Tracer& tracer_;
  std::uint32_t job_;
  std::uint32_t fwd_;
  std::uint32_t bwd_;
};

struct SpanIds {
  explicit SpanIds(Tracer& t)
      : make_data(t.intern("data.make_workload_data")),
        trial(t.intern("trial_runner.run")),
        build(t.intern("models.build")),
        loss(t.intern("nn.loss")),
        sgd(t.intern("nn.sgd.step")),
        evaluate(t.intern("trial_runner.evaluate")),
        cost(t.intern("device.train_epoch_cost")),
        arch_for(t.intern("models.arch_for")),
        tune_cold(t.intern("inference_server.tune_cold")),
        lookup(t.intern("historical_cache.lookup")),
        insert(t.intern("historical_cache.insert")),
        flush(t.intern("historical_cache.flush")),
        journal_create(t.intern("journal.create")),
        journal_append(t.intern("journal.append")),
        journal_fsync(t.intern("journal.fsync")),
        durable_write(t.intern("durable_io.write")) {}
  std::uint32_t make_data, trial, build, loss, sgd, evaluate, cost, arch_for,
      tune_cold, lookup, insert, flush, journal_create, journal_append,
      journal_fsync, durable_write;
};

/// The dataset and cost model a job's TrialRunner holds, rebuilt the way
/// TrialRunner's constructor builds them (tuning/trial_runner.cpp).
struct TrialData {
  const EdgeTuneOptions& options;  // normalized
  std::unique_ptr<Dataset> dataset;
  DatasetView train;
  DatasetView val;
  CostModel server;
  std::int64_t full_scale_samples;

  explicit TrialData(const EdgeTuneOptions& o)
      : options(o),
        server(o.runner.train_device),
        full_scale_samples(workload_info(o.runner.workload).train_samples) {}
};

/// The work one trial's training did, for the tensor-level replay.
struct TrialShape {
  double model_hparam = 0;
  std::int64_t batch = 0;
  int epochs = 0;
  std::int64_t train_samples = 0;
  std::int64_t val_samples = 0;
};

double config_value(const Config& config, const char* key, double fallback) {
  auto it = config.find(key);
  return it == config.end() ? fallback : it->second;
}

/// TrialRunner::run with the model's top-level layers wrapped in spans and
/// Trainer::fit's loop unrolled so loss and SGD step are spans of their
/// own. Returns the validation accuracy, which must equal the trial log's.
Result<double> replay_trial(const TrialData& d, const TrialLog& trial,
                            Tracer& tracer, const SpanIds& ids,
                            std::uint32_t job, TrialShape* shape,
                            double* train_flops) {
  const Config& config = trial.config;
  const double model_hparam = config_value(config, "model_hparam", 0);
  const auto train_batch =
      static_cast<std::int64_t>(config_value(config, "train_batch", 128));
  const int num_gpus = static_cast<int>(config_value(config, "num_gpus", 1));

  Rng model_rng(d.options.runner.seed ^ config_hash(config));
  Result<BuiltModel> built = [&] {
    Tracer::Scope span(&tracer, ids.build, job);
    return build_workload_model(d.options.runner.workload, model_hparam,
                                model_rng);
  }();
  if (!built.ok()) return built.status();
  BuiltModel& model = built.value();

  TrialBudget effective = trial.budget;
  if (trial.budget.time_cap_s > 0) {
    TrainConfig probe;
    probe.batch_size = train_batch;
    probe.num_gpus = num_gpus;
    const auto cap_samples = static_cast<std::int64_t>(
        std::max(1.0, trial.budget.data_fraction *
                          static_cast<double>(d.full_scale_samples)));
    Result<CostEstimate> probe_cost =
        d.server.train_epoch_cost(model.arch, probe, cap_samples);
    if (!probe_cost.ok()) return probe_cost.status();
    const auto fitting = static_cast<int>(
        trial.budget.time_cap_s /
        std::max(probe_cost.value().latency_s, 1e-9));
    effective.epochs = std::clamp(fitting, 1, trial.budget.epochs);
  }

  const std::int64_t batch_size =
      std::clamp<std::int64_t>(train_batch / 16, 4, 64);
  SgdOptions sgd;
  sgd.learning_rate = config_value(config, "lr", 0.05);
  sgd.momentum = config_value(config, "momentum", d.options.runner.momentum);
  sgd.weight_decay = config_value(config, "weight_decay", 0.0);
  const DatasetView view = d.train.fraction(effective.data_fraction);

  Sequential traced;
  for (std::size_t i = 0; i < model.net->size(); ++i) {
    traced.add(std::make_unique<TracedLayer>(model.net->layer(i), tracer, job));
  }
  Rng trainer_rng = model_rng.split();  // what Trainer's constructor takes
  SgdOptimizer optimizer(traced.params(), sgd);
  BatchIterator iter(view, batch_size, trainer_rng);
  std::map<std::int64_t, double> forward_flops;  // by batch size
  for (int epoch = 1; epoch <= effective.epochs; ++epoch) {
    iter.begin_epoch();
    for (Batch batch = iter.next(); batch.size() > 0; batch = iter.next()) {
      Tensor logits = traced.forward(batch.inputs, /*training=*/true);
      LossResult loss;
      {
        Tracer::Scope span(&tracer, ids.loss, job);
        loss = softmax_cross_entropy(logits, batch.labels);
      }
      traced.backward(loss.grad);
      {
        Tracer::Scope span(&tracer, ids.sgd, job);
        optimizer.step();
      }
      auto [it, fresh] = forward_flops.emplace(batch.size(), 0.0);
      if (fresh) {
        it->second = model.net->describe(batch.inputs.shape()).flops_forward;
      }
      *train_flops += 3 * it->second;
    }
  }
  double accuracy = 0;
  {
    Tracer::Scope span(&tracer, ids.evaluate, job);
    accuracy = Trainer::evaluate(traced, d.val);
  }
  Shape val_shape = model.proxy_sample_shape;
  val_shape.insert(val_shape.begin(), d.val.size());
  *train_flops += model.net->describe(val_shape).flops_forward;
  {
    Tracer::Scope span(&tracer, ids.cost, job);
    TrainConfig train_config;
    train_config.batch_size = train_batch;
    train_config.num_gpus = num_gpus;
    const auto budget_samples = static_cast<std::int64_t>(
        std::max(1.0, trial.budget.data_fraction *
                          static_cast<double>(d.full_scale_samples)));
    Result<CostEstimate> cost =
        d.server.train_epoch_cost(model.arch, train_config, budget_samples);
    if (!cost.ok()) return cost.status();
  }
  shape->model_hparam = model_hparam;
  shape->batch = batch_size;
  shape->epochs = effective.epochs;
  shape->train_samples = view.size();
  shape->val_samples = d.val.size();
  return accuracy;
}

// --- Tensor-level replay ------------------------------------------------

struct ConvShape {
  bool one_d = false;
  Conv2dGeometry g2;
  Conv1dGeometry g1;
  std::int64_t out_channels = 0;
};

std::int64_t pool_out(std::int64_t len, std::int64_t kernel,
                      std::int64_t stride) {
  return (len - kernel) / stride + 1;
}

/// The conv layers of a workload's proxy network, in forward order, as
/// models/models.cpp and nn/residual.cpp build them.
std::vector<ConvShape> proxy_conv_shapes(WorkloadKind kind,
                                         double model_hparam) {
  std::vector<ConvShape> out;
  const auto conv2d = [&](std::int64_t in_c, std::int64_t hw,
                          std::int64_t out_c, std::int64_t k,
                          std::int64_t stride, std::int64_t pad) {
    ConvShape c;
    c.g2 = Conv2dGeometry{in_c, hw, hw, k, stride, pad};
    c.out_channels = out_c;
    out.push_back(c);
    return c.g2.out_h();
  };
  const auto conv1d = [&](std::int64_t in_c, std::int64_t len,
                          std::int64_t out_c, std::int64_t k,
                          std::int64_t stride, std::int64_t pad) {
    ConvShape c;
    c.one_d = true;
    c.g1 = Conv1dGeometry{in_c, len, k, stride, pad};
    c.out_channels = out_c;
    out.push_back(c);
    return c.g1.out_len();
  };
  switch (kind) {
    case WorkloadKind::kImageClassification: {
      const int depth = static_cast<int>(model_hparam);
      const bool bottleneck = depth >= 50;
      const std::int64_t pw = bottleneck ? 4 : 8;
      const std::array<int, 4> blocks = depth == 18
                                            ? std::array<int, 4>{2, 2, 2, 2}
                                            : std::array<int, 4>{3, 4, 6, 3};
      std::int64_t hw = conv2d(3, 8, pw, 3, 1, 1);
      std::int64_t in_c = pw;
      for (int stage = 0; stage < 4; ++stage) {
        const std::int64_t width = pw << stage;
        for (int b = 0; b < blocks[static_cast<std::size_t>(stage)]; ++b) {
          const std::int64_t stride = (b == 0 && stage > 0) ? 2 : 1;
          const std::int64_t out_c = bottleneck ? 4 * width : width;
          std::int64_t next = 0;
          if (bottleneck) {
            conv2d(in_c, hw, width, 1, 1, 0);
            next = conv2d(width, hw, width, 3, stride, 1);
            conv2d(width, next, out_c, 1, 1, 0);
          } else {
            next = conv2d(in_c, hw, width, 3, stride, 1);
            conv2d(width, next, width, 3, 1, 1);
          }
          if (stride != 1 || in_c != out_c) {
            conv2d(in_c, hw, out_c, 1, stride, 0);
          }
          hw = next;
          in_c = out_c;
        }
      }
      break;
    }
    case WorkloadKind::kDetection: {
      std::int64_t hw = conv2d(3, 16, 8, 3, 1, 1);
      hw = conv2d(8, pool_out(hw, 2, 2), 16, 3, 1, 1);
      conv2d(16, pool_out(hw, 2, 2), 32, 3, 1, 1);
      break;
    }
    case WorkloadKind::kSpeech: {
      const std::int64_t pe = std::max<std::int64_t>(
          4, static_cast<std::int64_t>(model_hparam) / 8);
      std::int64_t len = conv1d(1, 256, pe, 8, 2, 3);
      len = conv1d(pe, pool_out(len, 4, 4), pe, 3, 1, 1);
      conv1d(pe, pool_out(len, 4, 4), 2 * pe, 3, 1, 1);
      break;
    }
    case WorkloadKind::kNlp:
      break;
  }
  return out;
}

/// Times one forward (im2col, kNT GEMM) and, for training, one backward
/// (kTN and kNN GEMMs, col2im) of a conv layer at `batch`, and charges each
/// op `repeats` times.
void time_conv(const ConvShape& c, std::int64_t batch, bool training,
               double repeats, Rng& rng, TensorStats* stats) {
  const std::int64_t in_c = c.one_d ? c.g1.in_channels : c.g2.in_channels;
  const std::int64_t spatial =
      c.one_d ? c.g1.out_len() : c.g2.out_h() * c.g2.out_w();
  const std::int64_t patch =
      in_c * (c.one_d ? c.g1.kernel : c.g2.kernel * c.g2.kernel);
  const std::int64_t rows = batch * spatial;
  const std::int64_t out_c = c.out_channels;
  const Tensor input =
      c.one_d ? Tensor::randn({batch, in_c, c.g1.in_len}, rng)
              : Tensor::randn({batch, in_c, c.g2.in_h, c.g2.in_w}, rng);
  const Tensor weight = Tensor::randn({out_c, patch}, rng);
  const Tensor grad = Tensor::randn({rows, out_c}, rng);
  std::vector<float> cols(static_cast<std::size_t>(rows * patch));
  std::vector<float> out(static_cast<std::size_t>(rows * out_c));
  const double gemm_flops = 2.0 * static_cast<double>(rows) *
                            static_cast<double>(out_c) *
                            static_cast<double>(patch);
  const double cols_bytes = static_cast<double>(rows * patch) * sizeof(float);

  Clock::time_point t = Clock::now();
  if (c.one_d) {
    im2col_1d_into(input, c.g1, cols.data());
  } else {
    im2col_into(input, c.g2, cols.data());
  }
  (c.one_d ? stats->im2col_1d_s : stats->im2col_2d_s) +=
      repeats * seconds_since(t);
  t = Clock::now();
  gemm(GemmLayout::kNT, rows, out_c, patch, cols.data(), weight.data(),
       out.data());
  stats->gemm_nt_s += repeats * seconds_since(t);
  stats->gemm_flops += repeats * gemm_flops;
  stats->lowering_bytes += repeats * cols_bytes;
  if (!training) return;

  std::vector<float> dw(static_cast<std::size_t>(out_c * patch));
  t = Clock::now();
  gemm(GemmLayout::kTN, out_c, patch, rows, grad.data(), cols.data(),
       dw.data());
  stats->gemm_tn_s += repeats * seconds_since(t);
  t = Clock::now();
  gemm(GemmLayout::kNN, rows, patch, out_c, grad.data(), weight.data(),
       cols.data());
  stats->gemm_nn_s += repeats * seconds_since(t);
  t = Clock::now();
  const Tensor dx = c.one_d ? col2im_1d(cols.data(), batch, c.g1)
                            : col2im(cols.data(), batch, c.g2);
  (c.one_d ? stats->col2im_1d_s : stats->col2im_2d_s) +=
      repeats * seconds_since(t);
  stats->gemm_flops += 2 * repeats * gemm_flops;
  stats->lowering_bytes += repeats * cols_bytes;
}

void replay_tensor_ops(WorkloadKind kind, const TrialShape& s, Rng& rng,
                       TensorStats* stats) {
  constexpr std::int64_t kEvalBatch = 64;  // Trainer::evaluate's batch
  const auto ceil_div = [](std::int64_t a, std::int64_t b) {
    return static_cast<double>((a + b - 1) / b);
  };
  const double steps = s.epochs * ceil_div(s.train_samples, s.batch);
  const double eval_batches = ceil_div(s.val_samples, kEvalBatch);
  for (const ConvShape& c : proxy_conv_shapes(kind, s.model_hparam)) {
    time_conv(c, s.batch, /*training=*/true, steps, rng, stats);
    time_conv(c, kEvalBatch, /*training=*/false, eval_batches, rng, stats);
  }
}

TrialMeasurement measurement_of(const TrialLog& trial,
                                const std::string& arch_id,
                                const InferenceRecommendation& rec) {
  TrialMeasurement m;
  m.arch_id = arch_id;
  m.attempts = trial.attempts;
  m.retry_backoff_s = trial.retry_backoff_s;
  m.outcome.accuracy = trial.accuracy;
  m.outcome.train_time_s = trial.duration_s;
  m.outcome.train_energy_j = trial.energy_j;
  m.outcome.arch_id = arch_id;
  m.inference_attempted = true;
  m.rec = rec;
  return m;
}

}  // namespace

std::string nn_family(const std::string& layer_name) {
  if (layer_name == "conv2d" || layer_name == "conv1d" ||
      layer_name == "resblock" || layer_name == "bottleneck") {
    return "conv";
  }
  if (layer_name == "batchnorm") return "norm";
  if (layer_name == "maxpool2d" || layer_name == "maxpool1d" ||
      layer_name == "avgpool2d" || layer_name == "gap" ||
      layer_name == "gap1d") {
    return "pool";
  }
  if (layer_name == "linear" || layer_name == "embedding" ||
      layer_name == "rnn") {
    return "dense";
  }
  return "elementwise";  // relu, leaky_relu, sigmoid, tanh, dropout, flatten
}

JobReplay replay_job(const EdgeTuneOptions& raw_options,
                     const TuningReport& report, int workers,
                     HistoricalCache& cache, const std::string& scratch_dir,
                     Tracer& tracer, std::uint32_t job) {
  const EdgeTuneOptions options = normalize_options(raw_options);
  const SpanIds ids(tracer);
  JobReplay out;

  TrialData data(options);
  {
    Tracer::Scope span(&tracer, ids.make_data, job);
    data.dataset = make_workload_data(options.runner.workload,
                                      options.runner.proxy_samples,
                                      options.runner.seed);
    Rng split_rng(options.runner.seed ^ 0x5917u);
    auto [train, val] = DatasetView::all(*data.dataset)
                            .split(1.0 - options.runner.validation_fraction,
                                   split_rng);
    data.train = std::move(train);
    data.val = std::move(val);
  }
  const TrialRunner runner(options.runner);

  // Trials replay on `workers` threads, as the job ran them.
  std::vector<TrialShape> shapes(report.trials.size());
  std::vector<ArchSpec> archs(report.trials.size());
  std::mutex mutex;  // guards the sums below
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < report.trials.size(); i = next++) {
      const TrialLog& trial = report.trials[i];
      Clock::time_point start = Clock::now();
      Result<TrialOutcome> real = runner.run(trial.config, trial.budget);
      const double untraced = seconds_since(start);
      const bool real_ok =
          real.ok() && real.value().accuracy == trial.accuracy;

      double flops = 0;
      start = Clock::now();
      Result<double> replayed = [&] {
        Tracer::Scope span(&tracer, ids.trial, job);
        return replay_trial(data, trial, tracer, ids, job, &shapes[i],
                            &flops);
      }();
      const double traced = seconds_since(start);
      const bool replay_ok =
          replayed.ok() && replayed.value() == trial.accuracy;

      Result<ArchSpec> arch = [&] {
        Tracer::Scope span(&tracer, ids.arch_for, job);
        return runner.arch_for(trial.config);
      }();
      std::lock_guard<std::mutex> lock(mutex);
      out.untraced_trial_s += untraced;
      out.traced_trial_s += traced;
      out.train_flops += flops;
      if (!real_ok || !replay_ok || !arch.ok()) ++out.mismatches;
      if (arch.ok()) archs[i] = std::move(arch).value();
    }
  };
  std::vector<std::thread> threads;
  for (int w = 1; w < workers; ++w) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();

  // Inference tuning runs beside training in the job; here each distinct
  // architecture is tuned once, cold, on a cache-less server.
  InferenceServerOptions cold = options.inference;
  cold.use_cache = false;
  cold.shared_cache.reset();
  cold.cache_path.clear();
  cold.workers = 1;
  InferenceTuningServer server(options.edge_device, cold);
  std::map<std::string, InferenceRecommendation> recs;
  for (const ArchSpec& arch : archs) {
    if (arch.id.empty() || recs.count(arch.id) > 0) continue;
    const Clock::time_point start = Clock::now();
    Result<InferenceRecommendation> rec = [&] {
      Tracer::Scope span(&tracer, ids.tune_cold, job);
      return server.tune(arch);
    }();
    out.tune_cold_s += seconds_since(start);
    out.evaluate_calls += server.search_space().grid(4).size();
    if (!rec.ok()) {
      ++out.mismatches;
      continue;
    }
    recs.emplace(arch.id, std::move(rec).value());
  }

  // The historical-cache traffic of the job's trials.
  const std::string& device = options.edge_device.name;
  const MetricOfInterest objective = options.inference.objective;
  for (const ArchSpec& arch : archs) {
    auto rec = recs.find(arch.id);
    if (rec == recs.end()) continue;
    bool hit = false;
    {
      Tracer::Scope span(&tracer, ids.lookup, job);
      hit = cache.lookup(arch.id, device, objective).has_value();
    }
    if (!hit) {
      Tracer::Scope span(&tracer, ids.insert, job);
      (void)cache.store(arch.id, device, objective, rec->second);
    }
  }
  {
    Tracer::Scope span(&tracer, ids.flush, job);
    if (!cache.save().is_ok()) ++out.mismatches;
  }

  // The job's journal: header, one record per committed trial, final sync.
  const std::string stem = scratch_dir + "/replay-" + std::to_string(job);
  {
    Result<std::unique_ptr<TrialJournal>> journal = [&] {
      Tracer::Scope span(&tracer, ids.journal_create, job);
      return TrialJournal::create(stem + ".journal", options,
                                  FaultInjector());
    }();
    if (journal.ok()) {
      for (std::size_t i = 0; i < report.trials.size(); ++i) {
        const TrialLog& trial = report.trials[i];
        auto rec = recs.find(archs[i].id);
        const TrialMeasurement m = measurement_of(
            trial, archs[i].id,
            rec == recs.end() ? InferenceRecommendation{} : rec->second);
        const std::string key = trial_content_key(
            EvalRequest{trial.id, trial.config, trial.resource});
        Tracer::Scope span(&tracer, ids.journal_append, job);
        if (!journal.value()->append_trial(key, m).is_ok()) ++out.mismatches;
      }
      {
        Tracer::Scope span(&tracer, ids.journal_fsync, job);
        if (!journal.value()->sync().is_ok()) ++out.mismatches;
      }
      out.journal_records = journal.value()->records();
    } else {
      ++out.mismatches;
    }
  }
  std::remove((stem + ".journal").c_str());

  // The durable manifest the job server writes for a journaled job.
  {
    JobRequest request;
    request.options = raw_options;
    const std::string text = job_request_to_json(request).dump_pretty() + "\n";
    Tracer::Scope span(&tracer, ids.durable_write, job);
    if (!durable_write_file(stem + ".manifest.json", text).is_ok()) {
      ++out.mismatches;
    }
  }
  std::remove((stem + ".manifest.json").c_str());

  Rng rng(options.seed ^ 0x7e45u);
  for (const TrialShape& s : shapes) {
    if (s.batch > 0) replay_tensor_ops(options.runner.workload, s, rng,
                                       &out.tensor);
  }
  return out;
}

}  // namespace perfbench
