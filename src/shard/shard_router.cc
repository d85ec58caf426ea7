#include "shard/shard_router.h"

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

namespace wfrm::shard {

namespace {

std::string OfflineMessage(ShardId shard) {
  return "shard " + std::to_string(shard) + " is offline";
}

}  // namespace

ShardRouter::ShardRouter(ShardCluster* cluster, ShardMap* map,
                         ShardRouterOptions options)
    : cluster_(cluster),
      map_(map),
      options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : SystemClock::Default()) {
  obs::MetricsRegistry* reg = options_.metrics;
  if (reg != nullptr) {
    retries_counter_ = reg->GetCounter(
        "wfrm_shard_router_retries", {},
        "mutation attempts re-resolved after a typed shard refusal");
    deadline_counter_ = reg->GetCounter(
        "wfrm_shard_router_deadline_misses", {},
        "batch shard groups that missed the per-shard deadline");
    degraded_counter_ = reg->GetCounter(
        "wfrm_shard_router_degraded_rejections", {},
        "batch sub-requests refused because their home shard was degraded");
    const std::string rejected_help =
        "admissions rejected typed kOverloaded, by reason";
    rejected_full_counter_ =
        reg->GetCounter("wfrm_admission_rejected_total",
                        {{"reason", "queue_full"}}, rejected_help);
    rejected_draining_counter_ =
        reg->GetCounter("wfrm_admission_rejected_total",
                        {{"reason", "draining"}}, rejected_help);
    shed_expired_counter_ = reg->GetCounter(
        "wfrm_admission_shed_expired_total", {},
        "queued batch groups shed typed kDeadlineExceeded (expired while "
        "waiting for their shard's executor)");
    breaker_fast_fail_counter_ = reg->GetCounter(
        "wfrm_breaker_fast_failures_total", {},
        "requests fast-failed typed kOverloaded by an open shard breaker");
  }
  executors_.reserve(cluster_->num_shards());
  for (size_t i = 0; i < cluster_->num_shards(); ++i) {
    auto exec = std::make_unique<Executor>();
    AdmissionOptions aopts;
    aopts.max_depth = options_.max_queue_depth;
    aopts.clock = clock_;
    exec->queue = std::make_unique<AdmissionQueue>(aopts);
    if (options_.enable_breaker) {
      exec->breaker =
          std::make_unique<CircuitBreaker>(options_.breaker, clock_);
    }
    if (reg != nullptr) {
      const std::string shard_label = std::to_string(i);
      exec->depth_gauge = reg->GetGauge(
          "wfrm_admission_queue_depth", {{"shard", shard_label}},
          "batch groups queued (not running) on the shard's executor");
      if (options_.enable_breaker) {
        exec->breaker_state_gauge = reg->GetGauge(
            "wfrm_breaker_state", {{"shard", shard_label}},
            "shard breaker state (0 closed, 1 open, 2 half-open)");
        exec->breaker_opens_gauge = reg->GetGauge(
            "wfrm_breaker_opens", {{"shard", shard_label}},
            "times the shard's breaker tripped open");
      }
    }
    exec->worker = std::thread([this, e = exec.get()] { ExecutorLoop(e); });
    executors_.push_back(std::move(exec));
  }
}

ShardRouter::~ShardRouter() {
  for (auto& exec : executors_) exec->queue->Close();
  for (auto& exec : executors_) {
    if (exec->worker.joinable()) exec->worker.join();
  }
}

void ShardRouter::ExecutorLoop(Executor* exec) {
  for (;;) {
    std::optional<AdmissionTask> task = exec->queue->Pop();
    if (!task.has_value()) return;  // closed && drained
    if (exec->depth_gauge != nullptr) {
      exec->depth_gauge->Set(static_cast<int64_t>(exec->queue->depth()));
    }
    const int64_t stall = exec->stall_micros.load(std::memory_order_relaxed);
    if (stall > 0) clock_->SleepForMicros(stall);
    const int64_t t0 = clock_->NowMicros();
    task->run();
    // The service-time EWMA behind the retry-after hint counts the stall
    // too: that IS this shard's observed service time.
    exec->queue->RecordServiceMicros(clock_->NowMicros() - t0);
  }
}

ShardId ShardRouter::HomeOf(std::string_view routing_key) const {
  return map_->Resolve(routing_key);
}

void ShardRouter::InjectShardStallForTest(ShardId id, int64_t micros) {
  if (id < executors_.size()) {
    executors_[id]->stall_micros.store(micros, std::memory_order_relaxed);
  }
}

void ShardRouter::CountRetry() {
  retries_.fetch_add(1, std::memory_order_relaxed);
  if (retries_counter_ != nullptr) retries_counter_->Increment();
}

Status ShardRouter::DrainingStatus() const {
  return Status::Overloaded("router is draining; not accepting new work");
}

bool ShardRouter::BreakerAllows(ShardId shard, Status* status) {
  Executor* exec = executors_[shard].get();
  if (exec->breaker == nullptr) return true;
  if (exec->breaker->Allow()) {
    PushBreakerGauges(shard);
    return true;
  }
  breaker_fast_failures_.fetch_add(1, std::memory_order_relaxed);
  if (breaker_fast_fail_counter_ != nullptr) {
    breaker_fast_fail_counter_->Increment();
  }
  PushBreakerGauges(shard);
  *status = Status::Overloaded(
      "shard " + std::to_string(shard) +
      " circuit breaker open; retry after ~" +
      std::to_string(exec->breaker->retry_after_micros()) + "us");
  return false;
}

void ShardRouter::RecordBreakerOutcome(ShardId shard, bool success) {
  Executor* exec = executors_[shard].get();
  if (exec->breaker == nullptr) return;
  if (success) {
    exec->breaker->RecordSuccess();
  } else {
    exec->breaker->RecordFailure();
  }
  PushBreakerGauges(shard);
}

void ShardRouter::PushBreakerGauges(ShardId shard) {
  Executor* exec = executors_[shard].get();
  if (exec->breaker == nullptr) return;
  if (exec->breaker_state_gauge != nullptr) {
    exec->breaker_state_gauge->Set(
        static_cast<int64_t>(exec->breaker->state()));
  }
  if (exec->breaker_opens_gauge != nullptr) {
    exec->breaker_opens_gauge->Set(
        static_cast<int64_t>(exec->breaker->opens()));
  }
}

// ---- Scatter / gather -------------------------------------------------------

std::vector<BatchItemResult> ShardRouter::EnforceBatch(
    const std::vector<BatchItem>& items, const RequestContext* ctx) {
  // One reply slot per shard group. The slot is shared with the
  // executor task: a group that misses its deadline is abandoned by the
  // gatherer but still completes into its own slot — never into freed
  // memory, and never blocking other shards' groups. `abandoned` keeps
  // the late completion from feeding the breaker a stale success.
  struct Reply {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool abandoned = false;
    std::vector<Result<core::QueryOutcome>> outcomes;
  };
  struct Group {
    std::vector<size_t> indices;
    std::vector<std::string> texts;
    std::shared_ptr<Reply> reply;
  };

  auto fail_all = [&](const Status& st) {
    std::vector<BatchItemResult> results;
    results.reserve(items.size());
    for (const BatchItem& item : items) {
      results.emplace_back(HomeOf(item.routing_key), st);
    }
    return results;
  };
  // Admission boundary: a draining router and a dead request both fail
  // the whole batch typed, before any work is queued.
  if (draining_.load(std::memory_order_acquire)) {
    if (rejected_draining_counter_ != nullptr) {
      rejected_draining_counter_->Increment(items.size());
    }
    return fail_all(DrainingStatus());
  }
  if (ctx != nullptr) {
    Status alive = ctx->CheckAlive();
    if (!alive.ok()) return fail_all(alive);
  }

  std::map<ShardId, Group> groups;
  for (size_t i = 0; i < items.size(); ++i) {
    Group& g = groups[HomeOf(items[i].routing_key)];
    g.indices.push_back(i);
    g.texts.push_back(items[i].rql);
  }

  auto finish = [](const std::shared_ptr<Reply>& reply,
                   std::vector<Result<core::QueryOutcome>> outcomes) {
    {
      std::lock_guard<std::mutex> lock(reply->mu);
      reply->outcomes = std::move(outcomes);
      reply->done = true;
    }
    reply->cv.notify_all();
  };
  auto fail_group = [&finish](const std::shared_ptr<Reply>& reply,
                              size_t n, const Status& st) {
    std::vector<Result<core::QueryOutcome>> outcomes;
    outcomes.reserve(n);
    for (size_t i = 0; i < n; ++i) outcomes.emplace_back(st);
    finish(reply, std::move(outcomes));
  };

  for (auto& [shard, group] : groups) {
    group.reply = std::make_shared<Reply>();
    // Breaker fast path: a tripped shard costs a typed refusal, not its
    // full deadline.
    Status refusal = Status::OK();
    if (!BreakerAllows(shard, &refusal)) {
      fail_group(group.reply, group.texts.size(), refusal);
      continue;
    }

    AdmissionTask task;
    if (ctx != nullptr) {
      task.deadline_micros = ctx->deadline_micros;
      task.priority = ctx->priority;
    }
    // The task copies the context: on a deadline miss the gatherer (and
    // the caller, who owns `ctx`) return while the task may still be
    // queued or running.
    task.run = [this, shard, texts = group.texts, reply = group.reply,
                task_ctx = ctx != nullptr ? std::optional<RequestContext>(*ctx)
                                          : std::nullopt] {
      const RequestContext* tctx =
          task_ctx.has_value() ? &*task_ctx : nullptr;
      std::vector<Result<core::QueryOutcome>> outcomes;
      outcomes.reserve(texts.size());
      bool breaker_success = true;
      bool record_breaker = true;
      Status alive = CheckRequestAlive(tctx);
      auto primary = cluster_->Primary(shard);
      if (!alive.ok()) {
        // Dequeued dead (cancelled, or expired between the queue's shed
        // check and here): a typed reply, and no breaker signal — the
        // shard is not at fault.
        for (size_t i = 0; i < texts.size(); ++i) outcomes.emplace_back(alive);
        record_breaker = false;
      } else if (primary == nullptr) {
        for (size_t i = 0; i < texts.size(); ++i) {
          outcomes.emplace_back(
              Status::ResourceUnavailable(OfflineMessage(shard)));
        }
        breaker_success = false;
      } else if (primary->degraded() && !options_.read_on_degraded) {
        const std::string reason = primary->degraded_reason();
        for (size_t i = 0; i < texts.size(); ++i) {
          outcomes.emplace_back(Status::Degraded(
              "shard " + std::to_string(shard) + " degraded: " + reason));
        }
        if (degraded_counter_ != nullptr) {
          degraded_counter_->Increment(texts.size());
        }
        breaker_success = false;
      } else {
        outcomes = primary->EnforceBatch(texts, options_.workers_per_shard,
                                         tctx);
      }
      bool abandoned;
      {
        std::lock_guard<std::mutex> lock(reply->mu);
        reply->outcomes = std::move(outcomes);
        reply->done = true;
        abandoned = reply->abandoned;
      }
      // An abandoned group already fed the breaker its deadline miss;
      // this late completion must not overwrite that signal.
      if (record_breaker && !abandoned) {
        RecordBreakerOutcome(shard, breaker_success);
      }
      reply->cv.notify_all();
    };
    task.shed = [reply = group.reply, n = group.texts.size(),
                 counter = shed_expired_counter_](const Status& st) {
      // Runs on the executor thread at dequeue (or push-side shed):
      // deliver the typed expiry to every slot without running anything.
      if (counter != nullptr) counter->Increment();
      std::vector<Result<core::QueryOutcome>> outcomes;
      outcomes.reserve(n);
      for (size_t i = 0; i < n; ++i) outcomes.emplace_back(st);
      {
        std::lock_guard<std::mutex> lock(reply->mu);
        reply->outcomes = std::move(outcomes);
        reply->done = true;
      }
      reply->cv.notify_all();
    };

    Executor* exec = executors_[shard].get();
    Status pushed = exec->queue->TryPush(std::move(task));
    if (!pushed.ok()) {
      if (draining_.load(std::memory_order_acquire)) {
        if (rejected_draining_counter_ != nullptr) {
          rejected_draining_counter_->Increment();
        }
      } else if (rejected_full_counter_ != nullptr) {
        rejected_full_counter_->Increment();
      }
      fail_group(group.reply, group.texts.size(), pushed);
      continue;
    }
    if (exec->depth_gauge != nullptr) {
      exec->depth_gauge->Set(static_cast<int64_t>(exec->queue->depth()));
    }
  }

  // Gather. Each shard gets the full deadline from now; waiting on
  // earlier groups only eats into later ones' budgets when the same
  // wall time would anyway (the scatters run concurrently).
  const auto wall_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(options_.shard_deadline_micros);
  std::vector<std::optional<BatchItemResult>> slots(items.size());
  for (auto& [shard, group] : groups) {
    bool done = false;
    {
      std::unique_lock<std::mutex> lock(group.reply->mu);
      if (options_.shard_deadline_micros <= 0) {
        group.reply->cv.wait(lock, [&] { return group.reply->done; });
        done = true;
      } else {
        done = group.reply->cv.wait_until(lock, wall_deadline,
                                          [&] { return group.reply->done; });
      }
      if (done) {
        for (size_t i = 0; i < group.indices.size(); ++i) {
          slots[group.indices[i]].emplace(
              shard, std::move(group.reply->outcomes[i]));
        }
      } else {
        group.reply->abandoned = true;
      }
    }
    if (!done) {
      deadline_misses_.fetch_add(1, std::memory_order_relaxed);
      if (deadline_counter_ != nullptr) deadline_counter_->Increment();
      // A missed group deadline is this shard's failure signal: enough
      // of them in a window trip its breaker to fast-fail.
      RecordBreakerOutcome(shard, /*success=*/false);
      for (size_t index : group.indices) {
        slots[index].emplace(
            shard, Status::ResourceUnavailable(
                       "shard " + std::to_string(shard) + " missed its " +
                       std::to_string(options_.shard_deadline_micros) +
                       "us batch deadline"));
      }
    }
  }

  std::vector<BatchItemResult> results;
  results.reserve(items.size());
  for (auto& slot : slots) results.push_back(std::move(*slot));
  return results;
}

Result<core::QueryOutcome> ShardRouter::Enforce(std::string_view routing_key,
                                                std::string_view rql,
                                                const RequestContext* ctx) {
  if (draining_.load(std::memory_order_acquire)) return DrainingStatus();
  WFRM_RETURN_NOT_OK(CheckRequestAlive(ctx));
  const ShardId shard = HomeOf(routing_key);
  Status refusal = Status::OK();
  if (!BreakerAllows(shard, &refusal)) return refusal;
  auto primary = cluster_->Primary(shard);
  if (primary == nullptr) {
    RecordBreakerOutcome(shard, /*success=*/false);
    return Status::ResourceUnavailable(OfflineMessage(shard));
  }
  if (primary->degraded() && !options_.read_on_degraded) {
    if (degraded_counter_ != nullptr) degraded_counter_->Increment();
    RecordBreakerOutcome(shard, /*success=*/false);
    return Status::Degraded("shard " + std::to_string(shard) +
                            " degraded: " + primary->degraded_reason());
  }
  Result<core::QueryOutcome> out = primary->Enforce(rql, ctx);
  // A dead request's typed abort says nothing about shard health.
  if (out.ok() || (out.status().code() != StatusCode::kDeadlineExceeded &&
                   out.status().code() != StatusCode::kCancelled)) {
    RecordBreakerOutcome(shard, /*success=*/true);
  }
  return out;
}

// ---- Routed mutations -------------------------------------------------------

namespace {

// The two status shapes mutations come back in.
inline Status StatusOf(const Status& s) { return s; }
template <typename T>
inline Status StatusOf(const Result<T>& r) {
  return r.status();
}

}  // namespace

/// Runs `fn` against the key's current primary, retrying (with backoff,
/// re-resolving the shard each attempt) only outcomes that provably
/// granted nothing: a null primary (nothing was sent) or a typed
/// kDegraded refusal (the store rejects before journaling). Any other
/// outcome — success or a journaled-side failure — is returned as-is,
/// which is what makes routed Acquire at-most-once across a failover.
///
/// `ctx` (may be null) bounds the retrying: each attempt starts with a
/// liveness check, and the backoff gives up when even its shortest next
/// delay could not land before the deadline — sleeping past a deadline
/// to deliver a result nobody reads helps no one.
template <typename R, typename Fn>
R RunRouted(ShardCluster* cluster, const ShardMap* map,
            const ShardRouterOptions& options, Clock* clock,
            const std::function<void()>& count_retry, std::string_view key,
            const RequestContext* ctx, Fn&& fn) {
  Backoff backoff(options.retry,
                  options.retry_seed ^ ShardMap::HashKey(key));
  int attempt = 0;
  for (;;) {
    {
      Status alive = CheckRequestAlive(ctx);
      if (!alive.ok()) return alive;
    }
    const ShardId shard = map->Resolve(key);
    auto primary = cluster->Primary(shard);
    std::optional<R> out;
    if (primary == nullptr) {
      out.emplace(Status::ResourceUnavailable(OfflineMessage(shard)));
    } else {
      out.emplace(fn(*primary));
    }
    const Status st = StatusOf(*out);
    const bool provably_not_applied =
        primary == nullptr || st.code() == StatusCode::kDegraded;
    const bool retry_allowed =
        ctx != nullptr && ctx->has_deadline()
            ? backoff.ShouldRetry(attempt + 1, ctx->now_micros(),
                                  ctx->deadline_micros)
            : backoff.ShouldRetry(attempt + 1);
    if (!provably_not_applied || !retry_allowed) {
      return std::move(*out);
    }
    ++attempt;
    count_retry();
    clock->SleepForMicros(backoff.NextDelayMicros());
  }
}

Result<core::Lease> ShardRouter::Acquire(std::string_view routing_key,
                                         std::string_view rql,
                                         const RequestContext* ctx) {
  if (draining_.load(std::memory_order_acquire)) return DrainingStatus();
  return RunRouted<Result<core::Lease>>(
      cluster_, map_, options_, clock_, [this] { CountRetry(); },
      routing_key, ctx,
      [rql, ctx](store::DurableResourceManager& rm) {
        return ctx != nullptr ? rm.Acquire(rql, *ctx) : rm.Acquire(rql);
      });
}

Status ShardRouter::Release(std::string_view routing_key,
                            const core::Lease& lease,
                            const RequestContext* ctx) {
  if (draining_.load(std::memory_order_acquire)) return DrainingStatus();
  return RunRouted<Status>(
      cluster_, map_, options_, clock_, [this] { CountRetry(); },
      routing_key, ctx,
      [&lease](store::DurableResourceManager& rm) {
        return rm.Release(lease);
      });
}

Result<core::Lease> ShardRouter::RenewLease(std::string_view routing_key,
                                            const core::Lease& lease,
                                            const RequestContext* ctx) {
  if (draining_.load(std::memory_order_acquire)) return DrainingStatus();
  return RunRouted<Result<core::Lease>>(
      cluster_, map_, options_, clock_, [this] { CountRetry(); },
      routing_key, ctx,
      [&lease](store::DurableResourceManager& rm) {
        return rm.RenewLease(lease);
      });
}

Status ShardRouter::ExecuteRdl(std::string_view routing_key,
                               std::string_view rdl_text,
                               const RequestContext* ctx) {
  if (draining_.load(std::memory_order_acquire)) return DrainingStatus();
  return RunRouted<Status>(
      cluster_, map_, options_, clock_, [this] { CountRetry(); },
      routing_key, ctx,
      [rdl_text](store::DurableResourceManager& rm) {
        return rm.ExecuteRdl(rdl_text);
      });
}

Status ShardRouter::AddPolicyText(std::string_view routing_key,
                                  std::string_view pl_text,
                                  const RequestContext* ctx) {
  if (draining_.load(std::memory_order_acquire)) return DrainingStatus();
  return RunRouted<Status>(
      cluster_, map_, options_, clock_, [this] { CountRetry(); },
      routing_key, ctx,
      [pl_text](store::DurableResourceManager& rm) {
        return rm.AddPolicyText(pl_text);
      });
}

// ---- Graceful drain ---------------------------------------------------------

Status ShardRouter::Drain() {
  // Stop admissions first: every entry point checks draining_ before
  // touching a queue, so after this store no new work arrives.
  draining_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> drain_lock(drain_mu_);
  if (drained_) return Status::OK();
  // Closing lets the workers finish (or shed) everything already
  // admitted, then exit their loops.
  for (auto& exec : executors_) exec->queue->Close();
  for (auto& exec : executors_) {
    if (exec->worker.joinable()) exec->worker.join();
  }
  drained_ = true;
  // With the executors quiet, checkpoint and close every shard home —
  // this releases the HomeLocks so a fresh cluster can reopen the
  // directories immediately.
  return cluster_->Shutdown();
}

// ---- Overload observation ---------------------------------------------------

size_t ShardRouter::queue_depth(ShardId id) const {
  return id < executors_.size() ? executors_[id]->queue->depth() : 0;
}

uint64_t ShardRouter::admission_shed() const {
  uint64_t total = 0;
  for (const auto& exec : executors_) total += exec->queue->shed_expired();
  return total;
}

uint64_t ShardRouter::admission_rejected() const {
  uint64_t total = 0;
  for (const auto& exec : executors_) {
    total += exec->queue->rejected_full() + exec->queue->rejected_closed();
  }
  return total;
}

BreakerState ShardRouter::BreakerStateOf(ShardId id) const {
  if (id >= executors_.size() || executors_[id]->breaker == nullptr) {
    return BreakerState::kClosed;
  }
  return executors_[id]->breaker->state();
}

uint64_t ShardRouter::breaker_fast_failures() const {
  return breaker_fast_failures_.load(std::memory_order_relaxed);
}

// ---- Per-shard epoch observation -------------------------------------------

uint64_t ShardRouter::ShardEpoch(ShardId id) const {
  auto primary = cluster_->Primary(id);
  return primary == nullptr ? 0 : primary->mutation_epoch();
}

policy::StoreStatsSnapshot ShardRouter::ShardStats(ShardId id) const {
  auto primary = cluster_->Primary(id);
  if (primary == nullptr) return {};
  return primary->store().StatsSnapshot();
}

}  // namespace wfrm::shard
