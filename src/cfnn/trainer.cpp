#include "cfnn/trainer.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "core/error.hpp"
#include "nn/graph.hpp"
#include "nn/optimizer.hpp"
#include "obs/trace.hpp"

namespace xfc {

std::vector<double> train_cfnn(CfnnModel& model, const nn::Tensor& inputs,
                               const nn::Tensor& targets,
                               const CfnnTrainOptions& options,
                               std::vector<double>* eval_losses) {
  expects(inputs.n() == targets.n() && inputs.h() == targets.h() &&
              inputs.w() == targets.w(),
          "train_cfnn: input/target geometry mismatch");
  expects(inputs.c() == model.in_channels() &&
              targets.c() == model.out_channels(),
          "train_cfnn: channel mismatch");
  expects(options.epochs > 0 && options.patches_per_epoch > 0 &&
              options.batch > 0,
          "train_cfnn: degenerate training options");

  // Normalisation statistics become part of the model.
  model.input_norm() = ChannelNormalizer::fit(inputs);
  model.output_norm() = ChannelNormalizer::fit(targets);

  const std::size_t P =
      std::min({options.patch, inputs.h(), inputs.w()});
  const std::size_t cin = model.in_channels();
  const std::size_t cout = model.out_channels();

  Rng rng(options.seed);

  auto copy_patch = [&](const nn::Tensor& src, nn::Tensor& dst,
                        std::size_t batch_idx, std::size_t s, std::size_t y0,
                        std::size_t x0) {
    for (std::size_t c = 0; c < dst.c(); ++c) {
      const float* sp = src.plane(s, c);
      for (std::size_t y = 0; y < P; ++y) {
        const float* row = sp + (y0 + y) * src.w() + x0;
        float* out = &dst(batch_idx, c, y, 0);
        std::copy(row, row + P, out);
      }
    }
  };

  // Optional fixed evaluation set: sampled once up front so the per-epoch
  // eval curve is comparable across epochs.
  nn::Tensor eval_x, eval_t;
  if (options.eval_patches > 0 && eval_losses != nullptr) {
    eval_losses->clear();
    Rng eval_rng(options.seed ^ 0xE7A1ull);
    eval_x = nn::Tensor(options.eval_patches, cin, P, P);
    eval_t = nn::Tensor(options.eval_patches, cout, P, P);
    for (std::size_t b = 0; b < options.eval_patches; ++b) {
      const std::size_t s = eval_rng.uniform_index(inputs.n());
      const std::size_t y0 =
          inputs.h() == P ? 0 : eval_rng.uniform_index(inputs.h() - P);
      const std::size_t x0 =
          inputs.w() == P ? 0 : eval_rng.uniform_index(inputs.w() - P);
      copy_patch(inputs, eval_x, b, s, y0, x0);
      copy_patch(targets, eval_t, b, s, y0, x0);
    }
    model.input_norm().apply(eval_x);
    model.output_norm().apply(eval_t);
  }

  // One training graph + executor for the whole run: the batch staging
  // tensors are bound once and overwritten in place, so the steady-state
  // loop (fill patches, forward, backward, Adam step) never allocates —
  // activations and gradients live in the arena slabs acquired here, and
  // the kernels' scratch in slabs that stop growing after the first step.
  nn::Tensor x(options.batch, cin, P, P);
  nn::Tensor t(options.batch, cout, P, P);
  nn::Graph graph(nn::Graph::Mode::kTrain);
  const nn::NodeRef in = graph.input({options.batch, cin, P, P});
  const nn::NodeRef tgt = graph.input({options.batch, cout, P, P});
  graph.mse_loss(model.net().append(graph, in), tgt);
  nn::Workspace& ws = nn::tls_workspace();
  nn::GraphExec exec(graph, ws);
  exec.bind(in, x.data());
  exec.bind(tgt, t.data());
  nn::Adam adam(graph.params(), {.lr = options.learning_rate});

  // Eval forwards run on a separate infer-mode graph (recycled buffers, no
  // gradient state) constructed after — and therefore destroyed before —
  // the training executor, respecting the arena's LIFO discipline.
  std::optional<nn::Graph> eval_graph;
  std::optional<nn::GraphExec> eval_exec;
  if (!eval_x.empty()) {
    eval_graph.emplace(nn::Graph::Mode::kInfer);
    const nn::NodeRef ein =
        eval_graph->input({options.eval_patches, cin, P, P});
    const nn::NodeRef etgt =
        eval_graph->input({options.eval_patches, cout, P, P});
    eval_graph->mse_loss(model.net().append(*eval_graph, ein), etgt);
    eval_exec.emplace(*eval_graph, ws);
    eval_exec->bind(ein, eval_x.data());
    eval_exec->bind(etgt, eval_t.data());
  }

  std::vector<double> epoch_losses;
  epoch_losses.reserve(options.epochs);

  const std::size_t batches =
      (options.patches_per_epoch + options.batch - 1) / options.batch;
  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    double loss_sum = 0.0;
    for (std::size_t bi = 0; bi < batches; ++bi) {
      for (std::size_t b = 0; b < options.batch; ++b) {
        const std::size_t s = rng.uniform_index(inputs.n());
        const std::size_t y0 =
            inputs.h() == P ? 0 : rng.uniform_index(inputs.h() - P);
        const std::size_t x0 =
            inputs.w() == P ? 0 : rng.uniform_index(inputs.w() - P);
        copy_patch(inputs, x, b, s, y0, x0);
        copy_patch(targets, t, b, s, y0, x0);
      }
      model.input_norm().apply(x);
      model.output_norm().apply(t);

      {
        // Timing only: the span does not touch the step's arithmetic.
        const obs::SpanScope span_step("train_step", &obs::train_step_us());
        graph.zero_grad();
        exec.forward();
        exec.backward();
        adam.step();
      }
      loss_sum += exec.loss();
    }
    const double mean_loss = loss_sum / static_cast<double>(batches);
    epoch_losses.push_back(mean_loss);
    obs::train_epoch_loss().set(mean_loss);

    double eval = 0.0;
    if (eval_exec && eval_losses != nullptr) {
      eval_exec->forward();
      eval = eval_exec->loss();
      eval_losses->push_back(eval);
    }
    if (options.verbose) {
      if (eval_exec)
        std::printf("  epoch %3zu  loss %.6f  eval %.6f\n", epoch + 1,
                    mean_loss, eval);
      else
        std::printf("  epoch %3zu  loss %.6f\n", epoch + 1, mean_loss);
    }
  }
  return epoch_losses;
}

}  // namespace xfc
