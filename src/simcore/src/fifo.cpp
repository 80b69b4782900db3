#include "mtsched/simcore/fifo.hpp"

#include "mtsched/core/error.hpp"

namespace mtsched::simcore {

FifoServer::FifoServer(Engine& engine, std::string name)
    : engine_(engine), job_name_(std::move(name) + "_job") {}

void FifoServer::enqueue(double service_time, CompletionFn done) {
  MTSCHED_REQUIRE(service_time >= 0.0, "service time must be >= 0");
  queue_.push_back(Job{service_time, engine_.now(), std::move(done)});
  if (!busy_) start_next(engine_.now());
}

void FifoServer::start_next(double now) {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Job job = std::move(queue_.front());
  queue_.pop_front();
  total_wait_ += now - job.arrival;
  // The timer owns the job's callback; `this` outlives the engine run in
  // all our uses.
  engine_.submit_timer(
      job.service_time,
      [this, done = std::move(job.done)](double t) {
        ++served_;
        if (done) done(t);
        start_next(t);
      },
      job_name_);
}

}  // namespace mtsched::simcore
