// A FIFO single-server queue on top of the engine. Jobs are served one at a
// time in arrival order; each job holds the server for its service time.
// Used by the TGrid emulator's subnet manager, where every redistribution
// must register with a single component and registrations serialize.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "mtsched/simcore/engine.hpp"

namespace mtsched::simcore {

class FifoServer {
 public:
  explicit FifoServer(Engine& engine, std::string name = "fifo");

  /// Enqueues a job with the given service time; `done` fires when the job
  /// finishes service (arrival order is service order).
  void enqueue(double service_time, CompletionFn done);

  std::size_t queue_length() const { return queue_.size(); }
  bool busy() const { return busy_; }
  std::uint64_t jobs_served() const { return served_; }

  /// Total time jobs spent waiting before service began (queueing delay).
  double total_wait_time() const { return total_wait_; }

 private:
  struct Job {
    double service_time;
    double arrival;
    CompletionFn done;
  };

  void start_next(double now);

  Engine& engine_;
  std::string job_name_;  ///< every job's timer name: "<name>_job"
  std::deque<Job> queue_;
  bool busy_ = false;
  std::uint64_t served_ = 0;
  double total_wait_ = 0.0;
};

}  // namespace mtsched::simcore
