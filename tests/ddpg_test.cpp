// Tests for the DDPG agent: mechanics (shapes, targets, buffers), a small
// end-to-end learning check on a 1-D task, and the batched update against
// a per-sample reference, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "math/simd.hpp"
#include "rl/ddpg.hpp"
#include "row_reference.hpp"
#include "systems/benchmarks.hpp"
#include "util/check.hpp"

namespace scs {
namespace {

Ccds integrator_system() {
  Ccds sys;
  sys.name = "ddpg-toy";
  sys.num_states = 1;
  sys.num_controls = 1;
  sys.open_field = {Polynomial::variable(2, 1)};  // xdot = u
  const Box box = Box::centered(1, 3.0);
  sys.init_set = SemialgebraicSet::ball(Vec{0.0}, 1.0);
  sys.domain = SemialgebraicSet::from_box(box);
  sys.unsafe_set = SemialgebraicSet::outside_ball(Vec{0.0}, 2.0, box);
  sys.control_bound = 1.0;
  return sys;
}

DdpgConfig small_config() {
  DdpgConfig cfg;
  cfg.actor_hidden = {16, 16};
  cfg.critic_hidden = {16, 16};
  cfg.warmup_steps = 100;
  cfg.batch_size = 32;
  return cfg;
}

TEST(Ddpg, ActionInUnitRange) {
  Rng rng(1);
  DdpgAgent agent(3, 2, small_config(), rng);
  for (int i = 0; i < 10; ++i) {
    const Vec a = agent.act(Vec(rng.uniform_vector(3, -2.0, 2.0)));
    ASSERT_EQ(a.size(), 2u);
    EXPECT_LE(std::fabs(a[0]), 1.0);
    EXPECT_LE(std::fabs(a[1]), 1.0);
  }
}

TEST(Ddpg, ControlLawScalesByBound) {
  Rng rng(2);
  DdpgAgent agent(1, 1, small_config(), rng);
  const ControlLaw law = agent.control_law(10.0);
  const Vec x{0.5};
  EXPECT_NEAR(law(x)[0], 10.0 * agent.act(x)[0], 1e-12);
}

TEST(Ddpg, TrainingRunsAndRecordsEpisodes) {
  Rng rng(3);
  const Ccds sys = integrator_system();
  EnvConfig env_cfg;
  env_cfg.max_steps = 50;
  ControlEnv env(sys, env_cfg);
  DdpgAgent agent(1, 1, small_config(), rng);
  const TrainResult result = agent.train(env, 10, rng);
  EXPECT_EQ(result.episodes.size(), 10u);
  for (const auto& ep : result.episodes) {
    EXPECT_GT(ep.steps, 0u);
    EXPECT_LE(ep.steps, 50u);
  }
}

TEST(Ddpg, TrainingChangesParameters) {
  Rng rng(4);
  const Ccds sys = integrator_system();
  EnvConfig env_cfg;
  env_cfg.max_steps = 40;
  ControlEnv env(sys, env_cfg);
  DdpgAgent agent(1, 1, small_config(), rng);
  const Vec before = agent.actor().parameters();
  agent.train(env, 5, rng);
  const Vec after = agent.actor().parameters();
  EXPECT_GT(max_abs_diff(before, after), 1e-6);
}

TEST(Ddpg, LearnsToStaySafeOnIntegrator) {
  // The 1-D integrator with shell unsafe set: staying near 0 maximizes
  // reward. After training, evaluation rollouts should be mostly safe.
  Rng rng(5);
  const Ccds sys = integrator_system();
  EnvConfig env_cfg;
  env_cfg.dt = 0.05;
  env_cfg.max_steps = 100;
  ControlEnv env(sys, env_cfg);
  DdpgConfig cfg = small_config();
  cfg.noise_sigma = 0.3;
  DdpgAgent agent(1, 1, cfg, rng);
  agent.train(env, 60, rng);
  const EvalResult eval = agent.evaluate(env, 20, rng);
  EXPECT_GE(eval.safety_rate, 0.9) << "mean return " << eval.mean_return;
}

TEST(Ddpg, EvaluateIsDeterministicGivenSeed) {
  Rng rng(6);
  const Ccds sys = integrator_system();
  ControlEnv env(sys, {});
  DdpgAgent agent(1, 1, small_config(), rng);
  Rng eval_rng1(42), eval_rng2(42);
  const EvalResult r1 = agent.evaluate(env, 5, eval_rng1);
  const EvalResult r2 = agent.evaluate(env, 5, eval_rng2);
  EXPECT_DOUBLE_EQ(r1.mean_return, r2.mean_return);
  EXPECT_DOUBLE_EQ(r1.safety_rate, r2.safety_rate);
}

TEST(Ddpg, RejectsBadConfig) {
  Rng rng(7);
  DdpgConfig cfg = small_config();
  cfg.gamma = 1.5;
  EXPECT_THROW(DdpgAgent(1, 1, cfg, rng), PreconditionError);
  EXPECT_THROW(DdpgAgent(0, 1, small_config(), rng), PreconditionError);
}

// ---- Batched update vs the per-sample update, bit for bit -----------------

/// DdpgAgent as it was before batching: the same construction and training
/// loop, with an update that walks the minibatch one sample at a time. The
/// batched agent must end with the very same bits.
class PerSampleDdpg {
 public:
  PerSampleDdpg(std::size_t state_dim, std::size_t action_dim,
                const DdpgConfig& config, Rng& rng)
      : config_(config),
        state_dim_(state_dim),
        action_dim_(action_dim),
        actor_(state_dim, config.actor_hidden, action_dim,
               config.actor_hidden_activation, Activation::kTanh, rng),
        critic_(state_dim + action_dim, config.critic_hidden, 1,
                Activation::kRelu, Activation::kIdentity, rng),
        actor_opt_(actor_.parameter_count(), {.lr = config.actor_lr}),
        critic_opt_(critic_.parameter_count(), {.lr = config.critic_lr}),
        buffer_(config.buffer_capacity),
        noise_(action_dim, config.noise_theta, config.noise_sigma) {
    actor_.scale_output_layer(0.01);
    critic_.scale_output_layer(0.1);
    actor_target_ = actor_;
    critic_target_ = critic_;
  }

  void train(ControlEnv& env, int episodes, Rng& rng) {
    std::size_t global_step = 0;
    double sigma = config_.noise_sigma;
    for (int ep = 0; ep < episodes; ++ep) {
      Vec x = env.reset(rng);
      noise_.reset();
      noise_.set_sigma(sigma);
      for (;;) {
        Vec a;
        if (global_step < config_.warmup_steps) {
          a = Vec(rng.uniform_vector(action_dim_, -1.0, 1.0));
        } else {
          a = actor_.forward(x);
          a += noise_.sample(rng);
          for (auto& v : a) v = std::clamp(v, -1.0, 1.0);
        }
        const StepResult sr = env.step(a);
        buffer_.add({x, a, sr.reward, sr.next_state, sr.done});
        ++global_step;
        if (global_step >= config_.warmup_steps) {
          for (int k = 0; k < config_.updates_per_step; ++k) update(rng);
        }
        if (sr.done) break;
        x = sr.next_state;
      }
      sigma = std::max(config_.noise_sigma_min,
                       sigma * config_.noise_decay_per_episode);
    }
  }

  const Mlp& actor() const { return actor_; }
  const Mlp& critic() const { return critic_; }
  int terminal_samples() const { return terminal_samples_; }

 private:
  static void soft_update(Mlp& target, const Mlp& online, double tau) {
    Vec mine = target.parameters();
    const Vec theirs = online.parameters();
    for (std::size_t i = 0; i < mine.size(); ++i)
      mine[i] = tau * theirs[i] + (1.0 - tau) * mine[i];
    target.set_parameters(mine);
  }

  void update(Rng& rng) {
    if (buffer_.size() < config_.batch_size) return;
    const auto batch = buffer_.sample(config_.batch_size, rng);
    const double inv_n = 1.0 / static_cast<double>(batch.size());

    Vec critic_grad(critic_.parameter_count(), 0.0);
    for (const Transition* t : batch) {
      double y = t->reward;
      if (!t->done) {
        const Vec a2 = actor_target_.forward(t->next_state);
        const Vec q2 = critic_target_.forward(concat(t->next_state, a2));
        y += config_.gamma * q2[0];
      } else {
        ++terminal_samples_;
      }
      const test::RowPass pass =
          test::row_forward(critic_, concat(t->state, t->action));
      const Vec dq(1, -2.0 * (y - pass.post.back()[0]) * inv_n);
      test::row_backward(critic_, pass, dq, critic_grad);
    }
    Vec critic_params = critic_.parameters();
    critic_opt_.step(critic_params, critic_grad);
    critic_.set_parameters(critic_params);

    Vec actor_grad(actor_.parameter_count(), 0.0);
    for (const Transition* t : batch) {
      const test::RowPass actor_pass = test::row_forward(actor_, t->state);
      const Vec& a = actor_pass.post.back();
      const test::RowPass critic_pass =
          test::row_forward(critic_, concat(t->state, a));
      Vec scratch(critic_.parameter_count(), 0.0);
      const Vec dinput =
          test::row_backward(critic_, critic_pass, Vec(1, -inv_n), scratch);
      Vec da(action_dim_);
      for (std::size_t i = 0; i < action_dim_; ++i) {
        double g = dinput[state_dim_ + i];
        const double ai = a[i];
        g *= (g < 0.0) ? 0.5 * (1.0 - ai) : 0.5 * (1.0 + ai);
        da[i] = g;
      }
      test::row_backward(actor_, actor_pass, da, actor_grad);
    }
    Vec actor_params = actor_.parameters();
    if (config_.actor_weight_decay > 0.0)
      actor_grad.axpy(config_.actor_weight_decay, actor_params);
    actor_opt_.step(actor_params, actor_grad);
    actor_.set_parameters(actor_params);
    if (config_.actor_weight_norm_cap > 0.0) {
      for (std::size_t k = 0; k < actor_.layer_count(); ++k) {
        Mat& w = actor_.mutable_weight(k);
        const double norm = w.frobenius_norm();
        if (norm > config_.actor_weight_norm_cap)
          w *= config_.actor_weight_norm_cap / norm;
      }
    }
    soft_update(actor_target_, actor_, config_.soft_tau);
    soft_update(critic_target_, critic_, config_.soft_tau);
  }

  DdpgConfig config_;
  std::size_t state_dim_;
  std::size_t action_dim_;
  Mlp actor_, critic_, actor_target_, critic_target_;
  Adam actor_opt_, critic_opt_;
  ReplayBuffer buffer_;
  OuNoise noise_;
  int terminal_samples_ = 0;
};

bool bits_equal(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.begin(), b.begin(), a.size() * sizeof(double)) == 0;
}

TEST(Ddpg, BatchedUpdateMatchesPerSampleBitwise) {
  // C1's shapes: actor 2-20(4)-1, critic 3-64-64-1, 64-sample minibatches.
  // Episodes of at most 50 steps put terminal transitions into the
  // minibatches; 317 steps with a 100-step warmup give 218 updates.
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  const Ccds& sys = bench.ccds;
  DdpgConfig cfg;
  cfg.actor_hidden = bench.hidden_layers;
  cfg.warmup_steps = 100;
  EnvConfig env_cfg;
  env_cfg.dt = bench.rl.dt;
  env_cfg.max_steps = 50;
  const int episodes = 9;

  std::vector<simd::Kernel> kernels{simd::Kernel::kScalar};
  if (simd::avx2_available()) kernels.push_back(simd::Kernel::kAvx2);
  std::vector<Vec> actor_bits, critic_bits;
  for (simd::Kernel kernel : kernels) {
    simd::set_kernel_override(kernel);
    Rng rng(2024), ref_rng(2024);
    ControlEnv env(sys, env_cfg), ref_env(sys, env_cfg);
    DdpgAgent agent(sys.num_states, sys.num_controls, cfg, rng);
    PerSampleDdpg reference(sys.num_states, sys.num_controls, cfg, ref_rng);
    const TrainResult trained = agent.train(env, episodes, rng);
    reference.train(ref_env, episodes, ref_rng);
    simd::set_kernel_override(simd::Kernel::kAuto);

    const char* where = kernel == simd::Kernel::kAvx2 ? "avx2" : "scalar";
    ASSERT_EQ(trained.episodes.size(), static_cast<std::size_t>(episodes));
    EXPECT_GT(reference.terminal_samples(), 0) << where;
    EXPECT_TRUE(bits_equal(agent.actor().parameters(),
                           reference.actor().parameters()))
        << where;
    EXPECT_TRUE(bits_equal(agent.critic().parameters(),
                           reference.critic().parameters()))
        << where;
    actor_bits.push_back(agent.actor().parameters());
    critic_bits.push_back(agent.critic().parameters());
  }
  // Scalar and AVX2 kernels agree too.
  EXPECT_TRUE(bits_equal(actor_bits.front(), actor_bits.back()));
  EXPECT_TRUE(bits_equal(critic_bits.front(), critic_bits.back()));
}

}  // namespace
}  // namespace scs
