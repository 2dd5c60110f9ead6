#include "serve/scheduler.hpp"

#include <exception>
#include <stdexcept>
#include <utility>

namespace is2::serve {

const char* priority_name(Priority p) {
  switch (p) {
    case Priority::interactive: return "interactive";
    case Priority::batch: return "batch";
    case Priority::background: return "background";
  }
  return "?";
}

namespace {

obs::Labels class_labels(Priority cls) { return {{"class", priority_name(cls)}}; }

DepthGauges depth_gauges(obs::Registry& registry) {
  DepthGauges out{};
  for (std::size_t c = 0; c < kPriorityClasses; ++c)
    out[c] = &registry.gauge("is2_sched_queue_depth", class_labels(static_cast<Priority>(c)),
                             "jobs waiting for a worker");
  return out;
}

}  // namespace

BatchScheduler::BatchScheduler(const Config& config, Builder builder)
    : config_(config),
      builder_(std::move(builder)),
      registry_(obs::use_or_own(config.registry, owned_registry_)),
      queue_(config.queue_capacity, depth_gauges(registry_)),
      pool_(config.workers ? config.workers : 1, "sched") {
  if (!builder_) throw std::invalid_argument("BatchScheduler: null builder");
  for (std::size_t c = 0; c < kPriorityClasses; ++c) {
    const auto cls = static_cast<Priority>(c);
    dispatched_total_[c] = &registry_.counter("is2_sched_dispatched_total", class_labels(cls),
                                              "build jobs accepted into the queue");
    coalesced_total_[c] = &registry_.counter("is2_sched_coalesced_total", class_labels(cls),
                                             "requests attached to an in-flight build");
    rejected_total_[c] = &registry_.counter(
        "is2_sched_rejected_total", class_labels(cls),
        "requests shed on arrival (try_submit full, or submit racing shutdown)");
    displaced_total_[c] = &registry_.counter("is2_sched_displaced_total", class_labels(cls),
                                             "queued jobs shed to admit a higher class");
    deadline_expired_total_[c] = &registry_.counter(
        "is2_sched_deadline_expired_total", class_labels(cls),
        "jobs dropped at dequeue: queue wait exceeded the request deadline");
  }
  completed_total_ =
      &registry_.counter("is2_sched_completed_total", {}, "build jobs finished (ok or error)");
  in_flight_gauge_ = &registry_.gauge("is2_sched_in_flight", {}, "keys queued or building");
  drains_.reserve(pool_.size());
  for (std::size_t w = 0; w < pool_.size(); ++w)
    drains_.push_back(pool_.submit([this] { drain_loop(); }));
}

BatchScheduler::~BatchScheduler() { shutdown(); }

BatchScheduler::JobPtr BatchScheduler::make_job(const ProductRequest& request,
                                                const ProductKey& key) const {
  auto job = std::make_shared<Job>();
  job->request = request;
  job->key = key;
  job->cls = request.priority;
  job->future = job->promise.get_future().share();
  if (config_.tracer) job->trace = obs::TraceContext(*config_.tracer);
  return job;
}

namespace {

ProductFuture broken_future(const char* what) {
  std::promise<ProductResponse> p;
  p.set_exception(std::make_exception_ptr(std::runtime_error(what)));
  return p.get_future().share();
}

}  // namespace

ProductFuture BatchScheduler::submit(const ProductRequest& request, const ProductKey& key) {
  JobPtr job;
  {
    util::MutexLock lock(mutex_);
    if (shut_down_) return broken_future("BatchScheduler: shut down");
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      coalesced_total_[static_cast<std::size_t>(request.priority)]->inc();
      if (config_.tracer)
        config_.tracer->record_instant("coalesce", it->second->trace.trace_id());
      // Single-flight: attach to the live build. A higher-priority requester
      // drags a still-queued job up to its class so it cannot be displaced
      // by (or starved behind) traffic the requester outranks. Job::cls is
      // updated even when the queue promote misses (the job may still be
      // inside submit()'s blocking push, in no lane yet); the pusher
      // re-promotes from Job::cls once the push lands.
      if (static_cast<std::uint8_t>(request.priority) <
          static_cast<std::uint8_t>(it->second->cls)) {
        it->second->cls = request.priority;
        queue_.promote(it->second, request.priority);
      }
      return it->second->future;
    }
    job = make_job(request, key);
    inflight_[key] = job;
    set_in_flight_locked();
  }
  // Blocking push outside the lock so other submitters can still coalesce
  // onto this job while we wait for queue space (that is the backpressure).
  // The dispatched counters are registry-backed and monotonic, so they are
  // bumped only once the push has landed (the old code incremented first
  // and decremented on a lost race with shutdown).
  if (!queue_.push(job, request.priority)) {
    // Lost race with shutdown(): shut_down_ was false at the check above,
    // but close() landed while this thread was blocked in push(). This is
    // the one window where an accepted-looking request is dropped, so it
    // fails deterministically as *shed* work (ShedError, retryable, counted
    // in the class's rejected/shed accounting) rather than as the generic
    // "shut down" error reserved for submits that never got in. Waiters who
    // coalesced onto this job during the window see the same ShedError.
    {
      util::MutexLock lock(mutex_);
      inflight_.erase(key);
      set_in_flight_locked();
    }
    rejected_total_[static_cast<std::size_t>(request.priority)]->inc();
    if (config_.tracer) config_.tracer->record_instant("rejected", job->trace.trace_id());
    job->trace.finish("request:shed", /*force=*/true);
    job->promise.set_exception(std::make_exception_ptr(
        ShedError("BatchScheduler: request shed by shutdown during submit")));
    return job->future;
  }
  dispatched_total_[static_cast<std::size_t>(request.priority)]->inc();
  {
    // A coalescer may have raised Job::cls while we were blocked in push()
    // (its queue promote found nothing to move). Re-apply it now that the
    // job is in a lane, so the promoted-jobs-can't-be-displaced invariant
    // holds across the push window.
    util::MutexLock lock(mutex_);
    if (static_cast<std::uint8_t>(job->cls) <
        static_cast<std::uint8_t>(request.priority))
      queue_.promote(job, job->cls);
  }
  return job->future;
}

std::optional<ProductFuture> BatchScheduler::try_submit(const ProductRequest& request,
                                                        const ProductKey& key,
                                                        std::optional<Priority>* shed_class) {
  if (shed_class) shed_class->reset();
  util::MutexLock lock(mutex_);
  // A shut-down scheduler is not "full, retry later": return a broken
  // future (like submit) so load-shedding clients don't spin forever.
  if (shut_down_) return broken_future("BatchScheduler: shut down");
  auto it = inflight_.find(key);
  if (it != inflight_.end()) {
    coalesced_total_[static_cast<std::size_t>(request.priority)]->inc();
    if (config_.tracer)
      config_.tracer->record_instant("coalesce", it->second->trace.trace_id());
    if (static_cast<std::uint8_t>(request.priority) <
        static_cast<std::uint8_t>(it->second->cls)) {
      it->second->cls = request.priority;  // pusher re-promotes on a miss
      queue_.promote(it->second, request.priority);
    }
    return it->second->future;
  }
  JobPtr job = make_job(request, key);
  // Non-blocking push under the scheduler lock: either the job becomes
  // visible as in-flight and queued atomically, or nobody ever saw it.
  std::optional<std::pair<JobPtr, Priority>> victim;
  if (!queue_.try_push(job, request.priority, &victim)) {
    rejected_total_[static_cast<std::size_t>(request.priority)]->inc();
    if (config_.tracer) config_.tracer->record_instant("rejected", job->trace.trace_id());
    if (shed_class) *shed_class = request.priority;
    return std::nullopt;
  }
  if (victim) {
    // A queued lower-class job was displaced to admit this one. Its waiters
    // (original submitter + anyone coalesced) see ShedError and may retry.
    // Nobody else owns the victim (it was removed from its lane before any
    // worker could pop it), so finishing its trace here is safe — forced,
    // so shed builds always show up on the timeline.
    inflight_.erase(victim->first->key);
    displaced_total_[static_cast<std::size_t>(victim->second)]->inc();
    if (config_.tracer)
      config_.tracer->record_instant("displaced", victim->first->trace.trace_id());
    victim->first->trace.finish("request:shed", /*force=*/true);
    if (shed_class) *shed_class = victim->second;
    victim->first->promise.set_exception(std::make_exception_ptr(
        ShedError("BatchScheduler: shed " + std::string(priority_name(victim->second)) +
                  " job for " + std::string(priority_name(request.priority)) + " admission")));
  }
  inflight_[key] = job;
  set_in_flight_locked();
  dispatched_total_[static_cast<std::size_t>(job->cls)]->inc();
  return job->future;
}

void BatchScheduler::drain_loop() {
  while (auto popped = queue_.pop()) {
    JobPtr job = std::move(popped->first);
    const double queue_wait_ms = job->enqueued.millis();
    if (job->trace.active())
      job->trace.emit("queue_wait", job->trace.mint_ms(), queue_wait_ms);
    // Deadline-aware shedding: a job whose client budget expired while it
    // queued is dropped here, before it occupies this worker — the waiters
    // stopped caring, so building would only add queueing delay for jobs
    // whose deadlines are still live. Completes the job (same bookkeeping
    // as a build) but with DeadlineError so callers can tell "too slow"
    // from "shed under overload" (ShedError).
    if (job->request.deadline_ms > 0.0 && queue_wait_ms > job->request.deadline_ms) {
      deadline_expired_total_[static_cast<std::size_t>(job->request.priority)]->inc();
      if (config_.tracer) config_.tracer->record_instant("deadline", job->trace.trace_id());
      job->trace.finish("request:deadline", /*force=*/true);
      {
        // Erase BEFORE failing the promise: a submit racing this drop must
        // open a fresh job, not coalesce onto a future that is about to
        // carry another request's expired budget.
        util::MutexLock lock(mutex_);
        inflight_.erase(job->key);
        set_in_flight_locked();
        completed_total_->inc();
      }
      job->promise.set_exception(std::make_exception_ptr(DeadlineError(
          "BatchScheduler: deadline " + std::to_string(job->request.deadline_ms) +
          " ms expired after " + std::to_string(queue_wait_ms) + " ms in queue")));
      continue;
    }
    // Bind the job's context so the builder's SpanScopes (disk probe, shard
    // load, every pipeline stage) land in this trace, and log lines carry
    // the trace id.
    obs::TraceBinding bind(job->trace.active() ? &job->trace : nullptr);
    ProductResponse response;
    std::exception_ptr error;
    try {
      response = builder_(job->request, job->key);
      response.service_ms = job->enqueued.millis();
      response.queue_wait_ms = queue_wait_ms;
      response.trace_id = job->trace.trace_id();
      job->trace.finish("request");
      if (config_.on_served)
        config_.on_served(job->request.priority, response.service_ms, queue_wait_ms);
    } catch (...) {
      job->trace.finish("request:error", /*force=*/true);
      error = std::current_exception();
    }
    {
      // Retire the job before resolving its future: a caller that .get()s
      // and then reads metrics must see its own request in the latency
      // histograms and no longer in flight.
      util::MutexLock lock(mutex_);
      inflight_.erase(job->key);
      set_in_flight_locked();
      completed_total_->inc();
    }
    if (error)
      job->promise.set_exception(error);
    else
      job->promise.set_value(std::move(response));
  }
}

void BatchScheduler::set_in_flight_locked() {
  in_flight_gauge_->set(static_cast<double>(inflight_.size()));
}

SchedulerStats BatchScheduler::stats() const {
  SchedulerStats out;
  for (std::size_t c = 0; c < kPriorityClasses; ++c) {
    const std::uint64_t rejected = rejected_total_[c]->value();
    const std::uint64_t displaced = displaced_total_[c]->value();
    out.dispatched_by_class[c] = dispatched_total_[c]->value();
    out.dispatched += out.dispatched_by_class[c];
    out.coalesced += coalesced_total_[c]->value();
    out.rejected += rejected;
    out.displaced += displaced;
    out.deadline_expired_by_class[c] = deadline_expired_total_[c]->value();
    out.deadline_expired += out.deadline_expired_by_class[c];
    // Shed accounting: a rejected arrival under its own class, a displaced
    // queued job under the class it held.
    out.shed_by_class[c] = rejected + displaced;
    out.queue_depth_by_class[c] = queue_.size(static_cast<Priority>(c));
    out.queue_depth += out.queue_depth_by_class[c];
  }
  out.completed = completed_total_->value();
  out.in_flight = static_cast<std::size_t>(in_flight_gauge_->value());
  return out;
}

void BatchScheduler::shutdown() {
  {
    util::MutexLock lock(mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  // Shutdown-vs-submit determinism (tested in test_serve.cpp):
  //  * try_submit runs entirely under mutex_, so relative to the flag write
  //    above it is atomic — it either saw shut_down_ and returned a broken
  //    future, or its try_push completed before close() below (the queue
  //    cannot be closed here while try_submit still holds mutex_) and the
  //    job is drained normally. try_push never observes a closed queue with
  //    shut_down_ unset.
  //  * submit's blocking push sits outside mutex_; when close() lands in
  //    that window the push fails and the request is shed with ShedError
  //    (see submit()). Everything pushed before close() is drained.
  queue_.close();  // workers drain what was accepted, then exit
  for (auto& d : drains_) d.get();
}

}  // namespace is2::serve
