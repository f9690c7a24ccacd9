#include "serve/serve.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/check.hpp"
#include "obs/obs.hpp"
#include "tensor/arena.hpp"
#include "tensor/ops.hpp"

namespace darnet::serve {

using tensor::Tensor;

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::int64_t us_between(Clock::time_point from,
                                      Clock::time_point to) noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

}  // namespace

const char* admit_name(Admit admit) noexcept {
  switch (admit) {
    case Admit::kAccepted:
      return "accepted";
    case Admit::kShedOldest:
      return "shed_oldest";
    case Admit::kRejected:
      return "rejected";
  }
  return "unknown";
}

const char* status_name(Status status) noexcept {
  switch (status) {
    case Status::kOk:
      return "ok";
    case Status::kTimeout:
      return "timeout";
    case Status::kShed:
      return "shed";
    case Status::kRejected:
      return "rejected";
  }
  return "unknown";
}

Server::Server(std::shared_ptr<engine::EnsembleClassifier> ensemble,
               ShardConfig config)
    : config_(config), ensemble_(std::move(ensemble)) {
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("serve::Server: ") + what);
  };
  require(ensemble_ != nullptr, "ensemble must not be null");
  require(config_.max_batch >= 1, "max_batch must be >= 1");
  require(config_.max_delay_us >= 0, "max_delay_us must be >= 0");
  require(config_.queue_capacity >= 1, "queue_capacity must be >= 1");
  require(config_.workers >= 1, "workers must be >= 1");
  require(config_.degrade_low_watermark <= config_.degrade_high_watermark,
          "degrade_low_watermark must be <= degrade_high_watermark");
  engine::validate(config_.streaming, "serve::Server");

  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Server::~Server() { drain(); }

std::chrono::steady_clock::time_point Server::clock_now() const noexcept {
  return config_.time_source ? config_.time_source->now() : Clock::now();
}

Server::Submission Server::submit(engine::ClassifyRequest request) {
  Pending pending;
  pending.request = std::move(request);
  pending.enqueued = clock_now();

  Submission out;
  out.response = pending.promise.get_future();

  // Counted under the admission lock, completed outside it: promise
  // continuations must never run while mu_ is held.
  std::optional<Pending> shed;
  {
    sync::Lock lock(mu_);
    ++stats_.submitted;
    if (draining_) {
      out.admit = Admit::kRejected;
    } else if (queue_.size() >= config_.queue_capacity) {
      if (config_.shed_oldest) {
        shed.emplace(std::move(queue_.front()));
        queue_.pop_front();
        ++stats_.shed;
        out.admit = Admit::kShedOldest;
      } else {
        out.admit = Admit::kRejected;
      }
    } else {
      out.admit = Admit::kAccepted;
    }
    if (out.admit == Admit::kRejected) {
      ++stats_.rejected;
    } else {
      ++stats_.accepted;
      DARNET_CHECK_MSG(queue_.size() < config_.queue_capacity,
                       "serve::Server::submit: push would exceed "
                       "queue_capacity (bounded-queue invariant)");
      queue_.push_back(std::move(pending));
      DARNET_GAUGE_SET("serve/queue_depth",
                       static_cast<std::int64_t>(queue_.size()));
    }
  }

  if (out.admit != Admit::kRejected) {
    work_cv_.notify_one();
  }
  if (shed) {
    shed->response.status = Status::kShed;
    complete(*shed);
  }
  if (out.admit == Admit::kRejected) {
    complete(pending);  // a default Response is Status::kRejected
  }
  return out;
}

void Server::worker_loop() {
  // Per-worker scratch arena: all tensor traffic on this thread (batch
  // stacking, model activations, fused outputs) cycles through it, so
  // steady-state batches stop hitting the heap. Result rows that escape to
  // client threads via promises degrade to plain heap frees -- safe, the
  // blocks are malloc-compatible (see tensor/arena.hpp).
  tensor::Arena arena;
  tensor::ArenaScope scope(arena);
  for (;;) {
    std::vector<Pending> batch;
    std::uint64_t ticket = 0;
    bool degraded = false;
    bool more = false;
    std::shared_ptr<engine::EnsembleClassifier> ensemble;
    {
      sync::UniqueLock lock(mu_);
      // Batch-formation policy: flush once `max_batch` requests are queued
      // or the oldest has waited `max_delay_us`, whichever comes first;
      // drain flushes immediately.
      for (;;) {
        if (queue_.empty()) {
          if (draining_) return;
          work_cv_.wait(lock,
                        [&] { return draining_ || !queue_.empty(); });
          continue;
        }
        if (draining_ ||
            queue_.size() >= static_cast<std::size_t>(config_.max_batch)) {
          break;
        }
        if (config_.time_source) {
          // A custom (virtual) clock cannot arm a real CV timeout -- it
          // only advances between events -- so the delay flush degenerates
          // to flush-on-arrival: take whatever is queued now.
          break;
        }
        const auto flush_at =
            queue_.front().enqueued +
            std::chrono::microseconds(config_.max_delay_us);
        if (work_cv_.wait_until(lock, flush_at, [&] {
              return draining_ || queue_.empty() ||
                     queue_.size() >=
                         static_cast<std::size_t>(config_.max_batch);
            })) {
          continue;  // state changed (drain / batch full / queue stolen)
        }
        break;  // the oldest request has now waited max_delay_us
      }

      // Degraded-mode hysteresis on the pre-pop depth: engage at the high
      // watermark, disengage only once depth falls to the low watermark.
      const std::size_t depth = queue_.size();
      if (depth >= config_.degrade_high_watermark) {
        degraded_ = true;
      } else if (degraded_ && depth <= config_.degrade_low_watermark) {
        degraded_ = false;
      }
      degraded = forced_degraded_.value_or(degraded_);
      DARNET_GAUGE_SET("serve/degraded_mode", degraded ? 1 : 0);

      const std::size_t take =
          std::min(depth, static_cast<std::size_t>(config_.max_batch));
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      ticket = next_ticket_++;
      more = !queue_.empty();
      // RCU read side: snapshot the served replica under mu_; the whole
      // batch (gather, fused pass, scatter) runs on this snapshot even if
      // swap_ensemble() flips the pointer mid-flight.
      ensemble = ensemble_;
      DARNET_GAUGE_SET("serve/queue_depth",
                       static_cast<std::int64_t>(queue_.size()));
    }
    if (more) work_cv_.notify_one();

    execute_batch(std::move(batch), ticket,
                  degraded && ensemble->can_degrade(), ensemble);
  }
}

void Server::execute_batch(
    std::vector<Pending> batch, std::uint64_t ticket, bool degraded,
    const std::shared_ptr<engine::EnsembleClassifier>& ensemble) {
  DARNET_SPAN("serve/execute_batch");

  // Deadline triage: requests already past their deadline get a timeout
  // verdict without inference and leave the batch before the fused pass;
  // the rest keep their admission order.
  const auto now = clock_now();
  const auto late = [now](const Pending& p) {
    return p.request.deadline < now;
  };
  if (const auto expired = std::count_if(batch.begin(), batch.end(), late)) {
    {
      sync::Lock lock(mu_);
      stats_.timeouts += static_cast<std::uint64_t>(expired);
    }
    for (auto& pending : batch) {
      if (!late(pending)) continue;
      pending.response.status = Status::kTimeout;
      pending.response.result.latency_us = us_between(pending.enqueued, now);
      complete(pending);
    }
    std::erase_if(batch, late);
  }

  // Gather + fused pass. exec_mu_ serialises entry into the ensemble: the
  // underlying models keep forward caches, so at most one batch at a time.
  Tensor fused;
  std::exception_ptr error;
  if (!batch.empty()) {
    try {
      std::vector<Tensor> frames;
      std::vector<Tensor> imu;
      frames.reserve(batch.size());
      const bool want_imu = ensemble->has_imu_model();
      if (want_imu) imu.reserve(batch.size());
      for (auto& pending : batch) {
        frames.push_back(std::move(pending.request.frame));
        if (want_imu) imu.push_back(std::move(pending.request.imu_window));
      }
      const Tensor frame_batch = tensor::stack_rows(frames);
      const Tensor imu_batch = want_imu ? tensor::stack_rows(imu) : Tensor{};
      sync::Lock exec(exec_mu_);
      DARNET_TIMER("serve/batch_execute_ns");
      fused = degraded
                  ? ensemble->classify_batch_degraded(frame_batch, imu_batch)
                  : ensemble->classify_batch(frame_batch, imu_batch);
    } catch (...) {
      error = std::current_exception();
    }
  }

  // Ticket-ordered scatter: session state advances strictly in batch
  // admission order, which is what makes served verdict sequences
  // bit-identical to the single-threaded reference for any worker count.
  // This block runs for every ticket (even all-expired or failed batches)
  // so the ordering chain never stalls. Outcomes are parked in each
  // Pending; the promises resolve only after the counts are published.
  std::size_t failed = 0;
  {
    sync::UniqueLock lock(apply_mu_);
    apply_cv_.wait(lock, [&] { return next_apply_ == ticket; });
    if (!batch.empty() && !error) {
      DARNET_SPAN("serve/scatter_rows");
      for (std::size_t i = 0; i < batch.size(); ++i) {
        Pending& pending = batch[i];
        try {
          const Tensor row = tensor::take_row(fused, static_cast<int>(i));
          engine::SessionState& state =
              sessions_[pending.request.session_id];
          Response& response = pending.response;
          response.status = Status::kOk;
          response.result.degraded = degraded;
          response.result.verdict =
              engine::advance(state, row, config_.streaming);
          const auto done_ns =
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  clock_now() - pending.enqueued)
                  .count();
          response.result.latency_us = done_ns / 1000;
          DARNET_HISTOGRAM_NS("serve/request_latency_ns", done_ns);
        } catch (...) {
          pending.error = std::current_exception();
          ++failed;
        }
      }
    }
    ++next_apply_;
    apply_cv_.notify_all();
  }
  if (batch.empty()) return;
  if (error) {
    failed = batch.size();
    for (auto& pending : batch) pending.error = error;
  }

  // Publish before resolving: a caller that has seen a future resolve
  // reads counts that include it.
  {
    sync::Lock lock(mu_);
    ++stats_.batches;
    if (degraded) ++stats_.degraded_batches;
    stats_.batched_rows += batch.size();
    stats_.completed += batch.size() - failed;
    stats_.failed += failed;
  }
  for (auto& pending : batch) complete(pending);
}

// REQUIRES: mu_ free. Futures may have continuations attached; resolving
// one while holding the admission lock could re-enter submit() and
// self-deadlock.
void Server::complete(Pending& pending) {
  DARNET_ASSERT_NOT_HELD(mu_);
  if (pending.error) {
    pending.promise.set_exception(pending.error);
  } else {
    pending.promise.set_value(std::move(pending.response));
  }
}

void Server::drain() {
  // Claim the workers under mu_, then join with no lock held: joins (and
  // the notify that precedes them) must never run under the admission
  // lock, and the swap makes concurrent drain() calls race-free -- only
  // one caller gets the threads, later callers see an empty vector.
  std::vector<parallel::ServiceThread> workers;
  {
    sync::Lock lock(mu_);
    draining_ = true;
    workers.swap(workers_);
  }
  DARNET_ASSERT_NOT_HELD(mu_);
  work_cv_.notify_all();
  for (auto& worker : workers) {
    worker.join();  // workers flush the queue before exiting
  }
  DARNET_CHECK_MSG(queue_depth() == 0,
                   "serve::Server::drain: queue not empty after join");
}

Server::Stats Server::stats() const {
  sync::Lock lock(mu_);
  return stats_;
}

std::size_t Server::queue_depth() const {
  sync::Lock lock(mu_);
  return queue_.size();
}

bool Server::degraded_mode() const {
  sync::Lock lock(mu_);
  return forced_degraded_.value_or(degraded_);
}

void Server::force_degraded(std::optional<bool> forced) {
  {
    sync::Lock lock(mu_);
    forced_degraded_ = forced;
  }
  // Wake any worker parked on batch formation so the new mode applies to
  // the next batch it cuts.
  work_cv_.notify_all();
}

std::shared_ptr<engine::EnsembleClassifier> Server::swap_ensemble(
    std::shared_ptr<engine::EnsembleClassifier> next) {
  if (!next) {
    throw std::invalid_argument(
        "serve::Server::swap_ensemble: ensemble must not be null");
  }
  std::shared_ptr<engine::EnsembleClassifier> previous;
  {
    sync::Lock lock(mu_);
    previous = std::move(ensemble_);
    ensemble_ = std::move(next);
    ++stats_.ensemble_swaps;
  }
  return previous;
}

std::shared_ptr<engine::EnsembleClassifier> Server::ensemble() const {
  sync::Lock lock(mu_);
  return ensemble_;
}

engine::SessionState Server::session(std::uint64_t session_id) const {
  sync::Lock lock(apply_mu_);
  const auto it = sessions_.find(session_id);
  return it == sessions_.end() ? engine::SessionState{} : it->second;
}

}  // namespace darnet::serve
